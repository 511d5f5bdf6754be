"""Side-channel receivers.

Every receiver exposes a ``measure()`` generator (yielding kernel
actions, returning the round's decoded sample) so it can plug directly
into :class:`repro.core.primitive.ControlledPreemption` — Controlled
Preemption is channel-agnostic, and this uniform interface is how the
paper frames that property.  Each lives in its own module, imported
from there: :mod:`~repro.channels.flush_reload` (§5.1),
:mod:`~repro.channels.prime_probe` (§5.2),
:mod:`~repro.channels.btb_channel` (§5.3) and
:mod:`~repro.channels.seek` (the seek phase's landmark probes).
"""
