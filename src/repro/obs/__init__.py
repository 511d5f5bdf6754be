"""``repro.obs`` — unified observability for the simulation stack.

Three pillars, all off by default and all guaranteed not to perturb
simulation results (instrumentation never draws randomness and never
changes event timing):

* **metrics** (:mod:`repro.obs.metrics`) — counters and histograms
  over the sim engine, kernel, schedulers, μarch and attacks, with
  near-zero cost when disabled.  Each kernel folds its engine, μarch
  and CPU counts (:mod:`repro.obs.collect`) and the scheduling counts
  of its :class:`~repro.kernel.tracing.KernelTracer` records in
  whenever its ``run_until`` returns;
* **tracing** (:mod:`repro.obs.trace`) — each kernel's
  ``KernelTracer`` records, turned into Chrome trace-event JSON
  (Perfetto-loadable) at export;
* **manifests** (:mod:`repro.obs.manifest`) — per-run and per-cell JSON
  records (seed, params, version, wall time, metrics snapshot) from
  which any run re-executes bit-identically.

One process-wide default :class:`Observability` is shared by every
component.  It is built from the environment on first use —
``REPRO_METRICS=1``, ``REPRO_TRACE=1`` — so process-pool workers (fork
*or* spawn) observe the same configuration as the parent once the CLI
has exported those variables.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.ring import RingBuffer
from repro.obs.trace import EventTracer, validate_chrome_trace

__all__ = [
    "Observability",
    "EventTracer",
    "MetricsRegistry",
    "RingBuffer",
    "configure",
    "count",
    "get_obs",
    "reset",
    "validate_chrome_trace",
]


def _env_flag(name: str) -> bool:
    return os.environ.get(name, "").strip().lower() in ("1", "true", "yes", "on")


class Observability:
    """Bundle of one metrics registry and one event tracer."""

    def __init__(
        self,
        *,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[EventTracer] = None,
    ):
        self.metrics = metrics if metrics is not None else MetricsRegistry(False)
        self.tracer = tracer if tracer is not None else EventTracer(False)

    @classmethod
    def from_env(cls) -> "Observability":
        return cls(
            metrics=MetricsRegistry(enabled=_env_flag("REPRO_METRICS")),
            tracer=EventTracer(enabled=_env_flag("REPRO_TRACE")),
        )


_default: Optional[Observability] = None


def get_obs() -> Observability:
    """The process-wide default :class:`Observability` (env-configured
    on first use)."""
    global _default
    if _default is None:
        _default = Observability.from_env()
    return _default


def count(name: str, n: int = 1) -> None:
    """Add ``n`` to counter ``name`` of the default registry (a no-op
    when metrics are off)."""
    get_obs().metrics.counter(name).inc(n)


def configure(*, metrics: bool = False, trace: bool = False) -> Observability:
    """Install (and return) a fresh default :class:`Observability`."""
    global _default
    _default = Observability(
        metrics=MetricsRegistry(enabled=metrics),
        tracer=EventTracer(enabled=trace),
    )
    return _default


def reset() -> None:
    """Drop the default so the next :func:`get_obs` re-reads the
    environment (used by tests and the CLI)."""
    global _default
    _default = None
