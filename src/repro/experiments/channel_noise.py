"""Channel-noise experiments (§4.3, "Measuring the impact of noise").

The paper identifies two channel-noise sources and two remedies:

* kernel context-switch footprint → monitor structures larger than L1
  (our kernel model pollutes a configurable number of lines per switch);
* random cross-core pollution → (1) majority-vote across victim runs,
  or (2) move to core-private channels (BTB/TLB), which other cores
  cannot touch.

This module builds the cross-core polluter and measures both remedies:
the AES attack's accuracy under pollution with 1 vs 5 traces, and the
BTB attack's immunity to the same pollution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro.kernel import actions as act
from repro.kernel.kernel import Kernel
from repro.kernel.threads import CoroutineBody
from repro.parallel import starmap_kwargs
from repro.sched.task import Task
from repro.sim.rng import RngStreams
from repro.victims.aes_ttable import TTABLE_BASE


@dataclass
class PolluterConfig:
    """A compute thread on another core that sprays LLC lines at a
    fixed rate, some of which alias the victim's monitored lines."""

    cpu: int
    period_ns: float = 2_500.0
    lines_per_burst: int = 1
    #: Fraction of bursts aimed at the monitored region (the worst case
    #: for Flush+Reload: a polluted line reads as a false hit).  The
    #: default injects a false monitored-line hit every ~8 µs — about
    #: one corrupted sample per attack round, harsh enough that single
    #: traces degrade and the §4.3 majority-vote remedy is visible.
    target_fraction: float = 0.3
    target_base: int = TTABLE_BASE
    target_lines: int = 64
    arena: int = 0x5000_0000


def make_polluter(config: PolluterConfig, rng: RngStreams) -> Task:
    """Cross-core noise thread: random loads, sometimes into the
    victim's shared-library region (cache pollution the attacker cannot
    distinguish from victim activity)."""
    stream = rng.stream(f"polluter{config.cpu}")

    def burst_addr() -> int:
        if stream.random() < config.target_fraction:
            line = stream.randrange(config.target_lines)
            return config.target_base + 64 * line
        return config.arena + 64 * stream.randrange(1 << 14)

    def body() -> Iterator[act.Action]:
        # The stream is the polluter's own, so drawing a burst's
        # addresses before loading them keeps every draw in order.
        while True:
            yield act.Loads(burst_addr()
                            for _ in range(config.lines_per_burst))
            yield act.Compute(config.period_ns)

    task = Task(f"polluter{config.cpu}", body=CoroutineBody(body()))
    task.pin_to(config.cpu)
    return task


def spawn_polluter(
    kernel: Kernel, cpu: int, rng: Optional[RngStreams] = None, **overrides
) -> Task:
    """Convenience: build and spawn a polluter pinned to ``cpu``."""
    config = PolluterConfig(cpu=cpu, **overrides)
    task = make_polluter(config, rng or kernel.rng)
    kernel.spawn(task, cpu=cpu)
    return task


@dataclass
class NoiseImpactResult:
    """Accuracy of one attack under cross-core pollution."""

    attack: str
    polluted: bool
    traces: int
    accuracy: float


def _polluted_aes_key_accuracy(
    *, seed: int, key_index: int, traces: int, polluted: bool
) -> float:
    """One key's §4.3-remedy-1 accuracy (self-contained trial cell).

    Key and plaintext bytes come from named streams of the root-seeded
    :class:`RngStreams` — a pure function of ``(seed, key_index)``, so a
    worker process reproduces exactly the bytes a serial loop draws.
    """
    from repro.analysis.aes_recovery import (
        nibble_accuracy,
        recover_key_upper_nibbles,
    )
    from repro.attacks.aes_first_round import run_aes_trace
    from repro.experiments.setup import build_env
    from repro.victims.aes_ttable import TTableAes

    rng = RngStreams(seed=seed)
    key = rng.randbytes(f"key{key_index}", 16)
    aes = TTableAes(key)
    collected = []
    plaintexts = []
    for trace_index in range(traces):
        env = build_env("cfs", n_cores=2, seed=seed * 977 + key_index * 31
                        + trace_index)
        if polluted:
            spawn_polluter(env.kernel, cpu=1, rng=env.rng)
        plaintext = rng.randbytes(f"pt{key_index}:{trace_index}", 16)
        trace = run_aes_trace(
            aes, plaintext,
            seed=seed * 977 + key_index * 31 + trace_index,
            env=env,
        )
        collected.append(trace.samples)
        plaintexts.append(plaintext)
    recovered = recover_key_upper_nibbles(collected, plaintexts)
    return nibble_accuracy(recovered, key)


def aes_accuracy_under_pollution(
    *, n_keys: int = 5, traces: int = 5, polluted: bool = True, seed: int = 0,
    jobs: Optional[int] = None,
) -> NoiseImpactResult:
    """§4.3 remedy 1: majority voting across victim runs.

    Runs the full AES attack on a two-core machine with a polluter on
    the sibling core spraying the shared T-table region.  Keys are
    independent trials and fan out across the pool.
    """
    accuracies = starmap_kwargs(
        _polluted_aes_key_accuracy,
        [
            dict(seed=seed, key_index=key_index, traces=traces, polluted=polluted)
            for key_index in range(n_keys)
        ],
        jobs=jobs,
    )
    return NoiseImpactResult(
        attack="aes-flush-reload",
        polluted=polluted,
        traces=traces,
        accuracy=sum(accuracies) / len(accuracies),
    )


def btb_accuracy_under_pollution(
    *, n_pairs: int = 4, polluted: bool = True, seed: int = 0,
    jobs: Optional[int] = None,
) -> NoiseImpactResult:
    """§4.3 remedy 2: core-private channels are immune to cross-core
    noise — the BTB attack's accuracy must not move under pollution."""
    from repro.attacks.btb_gcd import random_prime_pairs, run_btb_gcd_attack

    cells = [
        dict(a=p, b=q, seed=seed + index * 13, polluter=polluted)
        for index, (p, q) in enumerate(random_prime_pairs(n_pairs, seed=seed))
    ]
    accuracies = [run.accuracy for run in
                  starmap_kwargs(run_btb_gcd_attack, cells, jobs=jobs)]
    return NoiseImpactResult(
        attack="btb-train-probe",
        polluted=polluted,
        traces=1,
        accuracy=sum(accuracies) / len(accuracies),
    )
