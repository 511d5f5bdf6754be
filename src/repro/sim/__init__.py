"""Discrete-event simulation engine.

Everything in this reproduction — the scheduler, hardware timers, victim
instruction execution — is driven by a single simulated clock measured in
nanoseconds.  The engine is a plain event heap: callbacks scheduled at
absolute times, executed in time order with a deterministic tie-break.

Randomness is supplied by named, independently-seeded streams
(:class:`RngStreams`) so that every experiment is reproducible and so
that changing e.g. the number of context switches does not perturb the
plaintext randomness of an AES experiment.
"""

from repro.sim.engine import Event, Simulator
from repro.sim.rng import RngStreams

__all__ = ["Event", "Simulator", "RngStreams"]
