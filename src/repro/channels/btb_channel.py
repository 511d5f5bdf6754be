"""BTB Train+Probe gadgets (§5.3, Fig 5.3; after Zhang et al.'s
BunnyHop and Yu et al.'s NightVision).

The channel encodes branch-predictor state into cache state, avoiding
noisy rdtsc-on-branch measurements:

* **Train** — execute a direct JMP at ``prime_pc``, where
  ``low32(prime_pc) == low32(victim_pc)`` (the gadget sits exactly
  4 GiB from the victim instruction).  This allocates a BTB entry that
  collides with the victim instruction of interest.
* Victim runs.  If it executed the (non-control-transfer) instruction
  at ``victim_pc``, the colliding entry is **invalidated**.
* **Probe** — flush a marker line ``T2``; execute a RET at
  ``probe_pc`` (8 GiB from the victim, same low bits).  If the entry is
  still valid the frontend predicts through it and prefetches the
  target — which, resolved against the probe region's upper bits, is
  ``T2``'s line.  A timed load of ``T2`` then reads the verdict:
  fast ⇒ entry survived ⇒ victim did *not* execute ``victim_pc``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro.cpu.isa import Instruction, InstrKind
from repro.kernel import actions as act
from repro.channels.prime_probe import prime_probe_threshold
from repro.uarch.address import line_addr

_4GIB = 1 << 32


@dataclass(frozen=True)
class BtbGadgetLayout:
    """Addresses of one Train+Probe gadget pair (Fig 5.3).

    ``delta`` is the in-region offset of the jump target T1; the probe
    marker T2 lives at the same offset in the probe region so the
    predicted-target prefetch covers its line.
    """

    victim_pc: int
    delta: int = 0x440  # ≈ the figure's 1019 single-byte NOPs + JMP

    @property
    def prime_pc(self) -> int:
        return self.victim_pc + _4GIB

    @property
    def prime_target(self) -> int:
        return self.prime_pc + self.delta  # T1

    @property
    def probe_pc(self) -> int:
        return self.victim_pc + 2 * _4GIB

    @property
    def probe_marker(self) -> int:
        return self.probe_pc + self.delta  # T2 (same low bits as T1)

    @property
    def marker_line(self) -> int:
        return line_addr(self.probe_marker)


class BtbTrainProbe:
    """One Train+Probe gadget bound to one victim instruction."""

    def __init__(self, victim_pc: int, threshold: Optional[float] = None,
                 label: str = ""):
        self.layout = BtbGadgetLayout(victim_pc)
        # Walk-aware threshold: after an AEX the marker page's
        # translation is gone, so even a prefetched (fast) marker load
        # pays a page walk on top of its cache hit.
        self.threshold = (
            threshold if threshold is not None else prime_probe_threshold()
        )
        self.label = label or hex(victim_pc)
        layout = self.layout
        self._train = act.ExecInsts((
            Instruction(pc=layout.prime_pc, kind=InstrKind.JMP,
                        target=layout.prime_target),
        ))
        self._flush_marker = act.Flushes((layout.probe_marker,))
        self._ret = act.ExecInsts((
            Instruction(pc=layout.probe_pc, kind=InstrKind.RET,
                        target=layout.probe_pc + 1),
        ))
        self._reload_marker = act.TimedLoads((layout.probe_marker,))

    def train(self) -> Iterator[act.Action]:
        """Allocate the colliding BTB entry (btb_prime of Fig 5.3)."""
        yield self._train
        return None

    def probe(self) -> Iterator[act.Action]:
        """Fig 5.3's probe: returns True iff the victim *executed* the
        colliding instruction (entry invalidated ⇒ no prefetch ⇒ slow
        marker load)."""
        yield self._flush_marker
        yield self._ret
        (latency,) = yield self._reload_marker
        executed = latency > self.threshold
        return executed

    def measure(self) -> Iterator[act.Action]:
        """Probe, then immediately re-train for the next round."""
        executed = yield from self.probe()
        yield from self.train()
        return executed


class DualBtbProbe:
    """Two gadgets covering both directions of a secret branch (§5.3).

    Returns ``(if_executed, else_executed)`` per round; exactly one is
    expected to be True when the victim completed a loop iteration in
    the nap, neither when it made no progress.
    """

    def __init__(self, if_pc: int, else_pc: int):
        self.if_gadget = BtbTrainProbe(if_pc, label="if")
        self.else_gadget = BtbTrainProbe(else_pc, label="else")

    def train_both(self) -> Iterator[act.Action]:
        yield from self.if_gadget.train()
        yield from self.else_gadget.train()
        return None

    def measure(self) -> Iterator[act.Action]:
        if_taken = yield from self.if_gadget.measure()
        else_taken = yield from self.else_gadget.measure()
        return (if_taken, else_taken)
