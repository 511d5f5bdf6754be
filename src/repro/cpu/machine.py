"""The simulated machine: cores + shared memory system.

Defaults model the paper's testbed — a 16-logical-core i9-9900K
(SMT is outside the threat model, so every "core" here is an
independently scheduled logical CPU with private L1/L2/TLB/BTB and a
shared inclusive LLC).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.cpu.core import Core
from repro.uarch.btb import Btb
from repro.uarch.cache import HierarchyGeometry, MemoryHierarchy
from repro.uarch.timing import LATENCY, LatencyModel
from repro.uarch.tlb import TlbHierarchy


@dataclass(frozen=True)
class MachineConfig:
    """Knobs for the simulated hardware.

    ``spec_window`` is the number of instructions past an interrupt
    boundary whose memory effects may issue speculatively — the source
    of the Fig 5.1 smear.  Real out-of-order windows run to hundreds of
    instructions; a handful is enough to occasionally preview the next
    secret-dependent load.  LVI-fenced victims suppress it regardless.
    """

    n_cores: int = 16
    geometry: HierarchyGeometry = field(default_factory=HierarchyGeometry)
    latency: LatencyModel = LATENCY
    spec_window: int = 8


class Machine:
    """Cores plus the shared memory hierarchy."""

    def __init__(self, config: Optional[MachineConfig] = None):
        self.config = config or MachineConfig()
        cfg = self.config
        self.hierarchy = MemoryHierarchy(cfg.n_cores, cfg.geometry, cfg.latency)
        self.tlbs = TlbHierarchy(cfg.n_cores, cfg.latency)
        self.btbs = [Btb() for _ in range(cfg.n_cores)]
        self.cores: List[Core] = [
            Core(c, self.hierarchy, self.tlbs, self.btbs[c], cfg.latency)
            for c in range(cfg.n_cores)
        ]

    @property
    def n_cores(self) -> int:
        return self.config.n_cores

    def core(self, core_id: int) -> Core:
        return self.cores[core_id]
