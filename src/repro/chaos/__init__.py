"""``repro.chaos`` — deterministic, seeded fault injection.

The one fault-injection surface of the repo: a *fault schedule* —
seeded draws plus explicit events, saved to a replayable JSON manifest
exactly like a ``repro.validate`` case — that injects worker kills,
cell timeouts, cache corruption, lock-holder stalls and mid-sweep
aborts at deterministic points across the experiment service, the
sweep runner, and the cell cache.  The service test battery drives its
fault scenarios through it too.

Activation is environmental (``REPRO_CHAOS=/path/to/chaos.json``), so
process-pool workers inherit the schedule the same way they inherit
``REPRO_MANIFEST_DIR``, and the *same seed always replays the same
fault schedule* — every draw is a pure function of ``(schedule seed,
injection point, call identity)``, never of wall time or scheduling
order.  See docs/CHAOS.md for the manifest format and the injection-
point catalogue.
"""

from repro.chaos.engine import (
    CHAOS_ENV,
    CHAOS_SCHEMA,
    INJECTION_POINTS,
    ChaosAbort,
    ChaosEngine,
    ChaosSpec,
    FaultEvent,
    active_engine,
    chaos_point,
    load_spec,
    reset_active,
    service_fault,
)

__all__ = [
    "CHAOS_ENV",
    "CHAOS_SCHEMA",
    "INJECTION_POINTS",
    "ChaosAbort",
    "ChaosEngine",
    "ChaosSpec",
    "FaultEvent",
    "active_engine",
    "chaos_point",
    "load_spec",
    "reset_active",
    "service_fault",
]
