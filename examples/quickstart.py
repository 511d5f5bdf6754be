#!/usr/bin/env python3
"""Quickstart: one Controlled Preemption episode, start to finish.

Builds a single-core machine running the Linux CFS (with the paper's
16-core sysctl values), pins a straight-line victim and one attacker
thread to it, and lets the attacker hibernate → preempt → nap its way
through the preemption budget.  Prints the two headline properties of
the primitive: how many consecutive preemptions one thread gets, and
how few victim instructions retire between them.

Run:  python examples/quickstart.py
"""

from repro import (
    ControlledPreemption,
    PreemptionConfig,
    ProgramBody,
    StraightlineProgram,
    Task,
    build_env,
    expected_preemptions,
)
from repro.analysis import ascii_histogram, resolution_stats
from repro.core.degradation import TlbEvictor
from repro.victims.layout import ATTACKER_TLB_ARENA


def main() -> None:
    env = build_env("cfs", n_cores=1, seed=42)

    # The victim: an endless loop of same-size instructions, as in §4.3.
    program = StraightlineProgram()
    victim = Task("victim", body=ProgramBody(program))
    env.kernel.spawn(victim, cpu=0)

    # The attacker: hibernate 5 s, then preempt every τ = 740 ns,
    # evicting the victim's iTLB entry before each nap so most
    # preemptions land after exactly one victim instruction (§4.3b).
    attacker = ControlledPreemption(
        PreemptionConfig(nap_ns=740.0, rounds=600, stop_on_exhaustion=True),
        degrader=TlbEvictor(program.base_pc, ATTACKER_TLB_ARENA),
    )
    attacker.launch(env.kernel, cpu=0)

    attacker.run(env.kernel, max_time=10e9)

    tracer = env.tracer
    count = tracer.consecutive_preemptions(victim.pid, attacker.task.pid)
    samples = tracer.retired_per_preemption(victim.pid, attacker.task.pid)[1:]
    stats = resolution_stats(samples)

    print("Controlled Preemption quickstart")
    print("=" * 48)
    print(f"scheduler params: S_slack={env.params.s_slack/1e6:.0f} ms, "
          f"S_preempt={env.params.s_preempt/1e6:.0f} ms "
          f"(budget {env.params.preemption_budget/1e6:.0f} ms)")
    print(f"consecutive preemptions achieved: {count}")
    print(f"(the ⌈budget/(Ia−Iv)⌉ model predicts "
          f"{expected_preemptions(env.params, 5_000, 0)} at Ia−Iv = 5 µs)")
    print()
    print("victim instructions retired per preemption:")
    print(ascii_histogram(samples))
    print()
    print(f"summary: {stats.describe()}")
    print(f"single-step rate: {stats.single_fraction:.0%}")


if __name__ == "__main__":
    main()
