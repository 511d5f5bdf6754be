#!/usr/bin/env python3
"""Fig 4.1 walkthrough: the preemption budget, step by step.

Replays the paper's core figure against the live scheduler model and
prints the vruntime state at each labelled moment:

  (a) the attacker hibernates; the victim's vruntime runs ahead;
  (b) wake-up placement (Eq 2.1, left arm): the attacker lands a full
      S_slack behind — and Eq 2.2 (gap > S_preempt) grants preemption;
  (c) each measurement advances the attacker's vruntime by I_attacker;
  (d) each nap lets the victim advance by I_victim, and the re-wake
      takes Eq 2.1's *right* arm (vruntime preserved), so the gap
      shrinks by I_attacker − I_victim per round;
  (e) once the gap falls below S_preempt, Eq 2.2 fails: the budget —
      ⌈(S_slack − S_preempt)/(I_attacker − I_victim)⌉ rounds — is spent.

Run:  python examples/budget_walkthrough.py
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

US = 1_000.0
MS = 1_000_000.0


def main() -> None:
    env = build_env("cfs", n_cores=1, seed=7)
    params = env.params
    victim = Task("victim", body=ProgramBody(StraightlineProgram()))
    attacker = ControlledPreemption(
        PreemptionConfig(
            nap_ns=900.0,
            rounds=10_000,
            extra_compute_ns=20 * US,  # I_attacker padding
            stop_on_exhaustion=True,
        )
    )
    env.kernel.spawn(victim, cpu=0)
    attacker.launch(env.kernel, cpu=0)

    print("Fig 4.1 walkthrough (vruntimes in ms)")
    print("=" * 64)
    print(f"S_slack = {params.s_slack / MS:.0f} ms, "
          f"S_preempt = {params.s_preempt / MS:.0f} ms, "
          f"budget = {params.preemption_budget / MS:.0f} ms\n")

    # (a) hibernation: let the victim run ahead.
    env.kernel.run_until(max_time=4.9e9)
    print(f"(a) hibernating…   τ_victim = {victim.vruntime / MS:8.3f}   "
          f"τ_attacker = {attacker.task.vruntime / MS:8.3f}")

    env.kernel.run_until(
        predicate=lambda: len(attacker.samples) >= 1, max_time=6e9
    )
    gap0 = victim.vruntime - attacker.task.vruntime
    print(f"(b) wake-up         τ_victim = {victim.vruntime / MS:8.3f}   "
          f"τ_attacker = {attacker.task.vruntime / MS:8.3f}   "
          f"Δ = {gap0 / MS:.3f} ≈ S_slack → preempts")

    checkpoints = (100, 200, 400)
    gap = gap0
    last_round = 1
    for rounds in checkpoints:
        env.kernel.run_until(
            predicate=lambda r=rounds: len(attacker.samples) >= r,
            max_time=30e9,
        )
        gap = victim.vruntime - attacker.task.vruntime
        last_round = rounds
        print(f"(c,d) round {rounds:4d}    "
              f"τ_victim = {victim.vruntime / MS:8.3f}   "
              f"τ_attacker = {attacker.task.vruntime / MS:8.3f}   "
              f"Δ = {gap / MS:.3f}")
    drift = (gap0 - gap) / last_round

    attacker.run(env.kernel, max_time=60e9)
    count = env.tracer.consecutive_preemptions(victim.pid, attacker.task.pid)
    print(f"(e) Δ < S_preempt: Eq 2.2 fails after {count} preemptions")
    print(f"\nmodel check: ⌈budget / (Ia − Iv)⌉ with measured drift "
          f"{drift / US:.1f} µs → "
          f"{expected_preemptions(params, drift, 0)} predicted, "
          f"{count} measured")


if __name__ == "__main__":
    main()
