"""The defense arena: every attack × every defense × both schedulers.

One grid cell runs one attack workload (or a benign control pair) in an
environment with one mitigation policy installed, and reports:

* **leakage** — the attack's recovery accuracy (AES nibble accuracy,
  BTB branch-trace accuracy, SGX stitched accuracy), the number a
  defense exists to drive down;
* **false positives** — whether LEASH flagged anyone in the *benign*
  control cell (a victim plus an interactive co-runner, no attacker),
  and how many of the co-runner's legitimate preemptions a defense
  denied (its latency cost);
* **overhead** — context switches, completion time of the benign pair,
  and suppressed prefetches (PreFence's lost coverage).

Cells are plain-data parameterized (``workload`` name, canonical
``defense`` spec dict, ``scheduler``, ``seed``) so they travel the
experiment wire, dedupe in the cell cache, and fan out through
:func:`repro.parallel.starmap_kwargs` with jobs-invariant digests.
Attack sizes are deliberately small (two AES traces, one GCD pair, a
128-character base64 secret): the grid's statistic is *relative*
leakage under each defense, not the paper's absolute headline numbers —
those remain :mod:`repro.experiments` per-attack experiments.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.mitigations.policy import (build_stack, canonical_mitigation,
                                      mitigation_name)
from repro.parallel import derive_seed, starmap_kwargs
from repro.sched.task import fresh_pids

__all__ = [
    "DefenseCellResult",
    "DefenseGridResult",
    "run_defense_cell",
    "run_defense_grid",
    "format_defense_grid",
    "DEFAULT_WORKLOADS",
    "DEFAULT_DEFENSES",
]

DEFAULT_WORKLOADS = ("aes", "btb", "sgx", "benign")
DEFAULT_DEFENSES = (None, "leash", "schedguard", "prefence")

#: Benign control pair: a compute-bound "victim" plus an interactive
#: co-runner waking every ~150 µs — ordinary desktop behaviour that a
#: defense must NOT flag or meaningfully slow.
_BENIGN_VICTIM_INSTS = 20_000_000
_BENIGN_ITERATIONS = 40
_BENIGN_COMPUTE_NS = 30_000.0
_BENIGN_SLEEP_NS = 150_000.0


@dataclass
class DefenseCellResult:
    """One (workload, defense, scheduler) measurement."""

    workload: str
    defense: str
    scheduler: str
    seed: int
    #: Attack recovery accuracy in [0, 1]; 0.0 for the benign control.
    leakage: float
    #: LEASH flagged the attacker (the true positive we want).
    attacker_flagged: bool
    #: LEASH flagged a benign task (the false positive we don't).
    benign_flagged: bool
    #: Wakeup preemptions the defense denied.
    preempt_denials: int
    #: LEASH slice-throttle interventions.
    throttles: int
    #: SchedGuard blocking slots opened.
    slots_opened: int
    #: Prefetches PreFence suppressed (its overhead currency).
    prefetches_suppressed: int
    #: Context switches (benign control cell only; 0 for attack cells).
    switches: int
    #: Simulated completion time of the benign pair (0.0 for attacks).
    sim_time_ns: float
    #: Raw per-policy counters for drill-down.
    defense_stats: Dict[str, Any] = field(default_factory=dict)


@dataclass
class DefenseGridResult:
    seed: int
    cells: List[DefenseCellResult]

    def cell(self, workload: str, defense: str,
             scheduler: str) -> Optional[DefenseCellResult]:
        for c in self.cells:
            if (c.workload, c.defense, c.scheduler) == (
                    workload, defense, scheduler):
                return c
        return None


def _stack_stats(stack) -> Dict[str, Any]:
    return stack.snapshot() if stack is not None else {}


def _leash_fields(stats: Dict[str, Any],
                  benign_names: Sequence[str]) -> Dict[str, Any]:
    leash = stats.get("leash", {})
    schedguard = stats.get("schedguard", {})
    prefence = stats.get("prefence", {})
    flagged = set(leash.get("flagged_names", []))
    return dict(
        attacker_flagged="attacker" in flagged,
        benign_flagged=bool(flagged & set(benign_names)),
        preempt_denials=(leash.get("denials", 0)
                         + schedguard.get("wakeup_denials", 0)),
        throttles=leash.get("throttles", 0),
        slots_opened=schedguard.get("slots_opened", 0),
        prefetches_suppressed=prefence.get("prefetches_suppressed", 0),
    )


def _run_benign(defense, scheduler: str, seed: int) -> Dict[str, Any]:
    """The false-positive/overhead control: victim + interactive
    co-runner, no attacker."""
    from repro.cpu.program import StraightlineProgram
    from repro.experiments.setup import build_env
    from repro.kernel.actions import Compute, Exit, Nanosleep
    from repro.kernel.threads import CoroutineBody, ProgramBody
    from repro.sched.task import Task

    stack = build_stack(defense)
    env = build_env(scheduler, n_cores=1, seed=seed, mitigations=stack)
    victim = Task("victim", body=ProgramBody(
        StraightlineProgram(total=_BENIGN_VICTIM_INSTS)))

    def interactive():
        for _ in range(_BENIGN_ITERATIONS):
            yield Compute(_BENIGN_COMPUTE_NS)
            yield Nanosleep(_BENIGN_SLEEP_NS)
        yield Exit()

    benign = Task("benign", body=CoroutineBody(interactive()))
    start = env.kernel.now
    env.kernel.spawn(victim, cpu=0)
    env.kernel.spawn(benign, cpu=0)
    env.kernel.run_until(
        predicate=lambda: (env.kernel.task_exited(victim)
                           and env.kernel.task_exited(benign)),
        max_time=start + 200e6,
    )
    stats = _stack_stats(stack)
    return dict(
        leakage=0.0,
        switches=len(env.tracer.switches),
        sim_time_ns=env.kernel.now - start,
        stats=stats,
        benign_names=("benign", "victim"),
    )


def _run_aes(defense, scheduler: str, seed: int) -> Dict[str, Any]:
    from repro.attacks.aes_first_round import run_aes_attack
    from repro.sim.rng import RngStreams

    stack = build_stack(defense)
    key = RngStreams(seed=seed).randbytes("defense-aes-key", 16)
    result = run_aes_attack(key, n_traces=2, scheduler=scheduler,
                            seed=seed, mitigations=stack)
    return dict(leakage=result.accuracy, stats=_stack_stats(stack))


def _run_btb(defense, scheduler: str, seed: int) -> Dict[str, Any]:
    from repro.attacks.btb_gcd import random_prime_pairs, run_btb_gcd_attack

    stack = build_stack(defense)
    a, b = next(iter(random_prime_pairs(1, seed=seed)))
    result = run_btb_gcd_attack(a, b, seed=seed, scheduler=scheduler,
                                mitigations=stack)
    return dict(leakage=result.accuracy, stats=_stack_stats(stack))


def _run_sgx(defense, scheduler: str, seed: int) -> Dict[str, Any]:
    from repro.attacks.sgx_base64 import run_sgx_base64_attack
    from repro.sim.rng import RngStreams

    stack = build_stack(defense)
    secret = RngStreams(seed=seed).randbytes("defense-sgx-secret", 96)
    text = base64.b64encode(secret).decode("ascii")
    result = run_sgx_base64_attack(text, seed=seed, scheduler=scheduler,
                                   mitigations=stack)
    return dict(leakage=result.stitched_accuracy, stats=_stack_stats(stack))


_WORKLOADS = {
    "aes": _run_aes,
    "btb": _run_btb,
    "sgx": _run_sgx,
    "benign": _run_benign,
}


def run_defense_cell(
    *,
    workload: str,
    defense: Optional[Dict[str, Any]] = None,
    scheduler: str = "cfs",
    seed: int = 0,
) -> DefenseCellResult:
    """One arena cell: ``workload`` under ``defense`` on ``scheduler``.

    ``defense`` is a mitigation spec (``None``, a policy name, or
    ``{"policy": name, **kwargs}``); it is canonicalized here so every
    spelling of the same defense produces the same cell identity.
    """
    if workload not in _WORKLOADS:
        raise ValueError(
            f"unknown workload {workload!r}; known: {sorted(_WORKLOADS)}")
    defense = canonical_mitigation(defense)
    # Pids appear in LEASH's stats, so number the cell's tasks as a
    # fresh process would, whatever ran before it.
    with fresh_pids():
        outcome = _WORKLOADS[workload](defense, scheduler, seed)
    stats = outcome.get("stats", {})
    fields = _leash_fields(stats, outcome.get("benign_names", ()))
    return DefenseCellResult(
        workload=workload,
        defense=mitigation_name(defense),
        scheduler=scheduler,
        seed=seed,
        leakage=float(outcome["leakage"]),
        switches=int(outcome.get("switches", 0)),
        sim_time_ns=float(outcome.get("sim_time_ns", 0.0)),
        defense_stats=stats,
        **fields,
    )


run_defense_cell.__wire_canonical__ = {  # type: ignore[attr-defined]
    "defense": canonical_mitigation,
}


def run_defense_grid(
    *,
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
    defenses: Sequence[Any] = DEFAULT_DEFENSES,
    schedulers: Sequence[str] = ("cfs", "eevdf"),
    seed: int = 0,
    jobs: Optional[int] = None,
) -> DefenseGridResult:
    """The full arena sweep.

    Cell seeds derive from ``(seed, workload, scheduler)`` — NOT the
    defense, so every defense faces the *same* scenario (same AES key,
    same GCD pair, same secret) and leakage columns compare directly.
    Results are bit-identical for any ``jobs`` and any axis ordering,
    and each cell is independently cacheable.  ``defenses`` are
    mitigation specs in any spelling: every entry point canonicalizes
    the list spec by spec (``__wire_canonical__``), and each cell its
    own spec, so all spellings of one grid share its keys.
    """
    cells = []
    for workload in workloads:
        for defense in defenses:
            for scheduler in schedulers:
                cells.append(dict(
                    workload=workload,
                    defense=defense,
                    scheduler=scheduler,
                    seed=derive_seed(seed, "defense-grid", workload,
                                     scheduler),
                ))
    results = starmap_kwargs(run_defense_cell, cells, jobs=jobs)
    return DefenseGridResult(seed=seed, cells=list(results))


def _canonical_defenses(defenses: Sequence[Any]) -> List[Any]:
    return [canonical_mitigation(defense) for defense in defenses]


run_defense_grid.__wire_canonical__ = {  # type: ignore[attr-defined]
    "defenses": _canonical_defenses,
}


def format_defense_grid(result: DefenseGridResult) -> str:
    """Human-readable leakage matrix plus defense-cost columns."""
    lines = [
        f"{'workload':8s} {'defense':11s} {'sched':6s} {'leakage':>8s} "
        f"{'denied':>7s} {'thrtl':>6s} {'slots':>6s} {'nopref':>7s} "
        f"{'flag(atk/ben)':>14s}"
    ]
    for c in result.cells:
        flags = f"{'Y' if c.attacker_flagged else '-'}/" \
                f"{'Y' if c.benign_flagged else '-'}"
        lines.append(
            f"{c.workload:8s} {c.defense:11s} {c.scheduler:6s} "
            f"{c.leakage:8.3f} {c.preempt_denials:7d} {c.throttles:6d} "
            f"{c.slots_opened:6d} {c.prefetches_suppressed:7d} {flags:>14s}"
        )
    return "\n".join(lines)
