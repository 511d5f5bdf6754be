"""Ablations of the design choices DESIGN.md calls out.

Not paper tables — these isolate *why* the primitive works, knob by
knob:

* ``PR_SET_TIMERSLACK``: with the default 50 µs slack the wake time
  smears across tens of microseconds and fine stepping is impossible
  (§4.2 Method 1's first move).
* ``GENTLE_FAIR_SLEEPERS``: with the feature off, S_slack doubles to
  S_bnd and the preemption budget grows from 8 ms to 20 ms.
* speculative window: the Fig 5.1 smear disappears when the victim is
  LVI-fenced / the window is zero.
* hibernation length: sleeping less than the victim's accumulated
  runtime forfeits part of the S_slack placement credit.
"""

import statistics

from conftest import banner, row

from repro.core.primitive import ControlledPreemption, PreemptionConfig
from repro.cpu.program import StraightlineProgram
from repro.experiments.preemption_count import run_budget_measurement
from repro.experiments.setup import build_env, scaled
from repro.kernel.threads import ProgramBody
from repro.sched.features import SchedFeatures
from repro.sched.params import SchedParams
from repro.sched.task import Task, TaskState


def _resolution_with_slack(slack_ns, rounds, seed=1):
    env = build_env("cfs", n_cores=1, seed=seed)
    victim = Task("victim", body=ProgramBody(StraightlineProgram()))
    attacker = ControlledPreemption(
        PreemptionConfig(nap_ns=740.0, rounds=rounds,
                         timer_slack_ns=slack_ns, stop_on_exhaustion=False)
    )
    env.kernel.spawn(victim, cpu=0)
    attacker.launch(env.kernel, 0)
    env.kernel.run_until(
        predicate=lambda: attacker.task.state is TaskState.EXITED,
        max_time=60e9,
    )
    samples = env.tracer.retired_per_preemption(victim.pid, attacker.task.pid)
    return samples[1:]


def test_timer_slack_ablation():
    rounds = scaled(2000, minimum=150)
    tight = _resolution_with_slack(1.0, rounds)
    default = _resolution_with_slack(50_000.0, rounds)
    banner("Ablation: PR_SET_TIMERSLACK (the attack's first syscall)")
    row("median insts/preempt, slack = 1 ns", "single-digit",
        f"{statistics.median(tight):.0f}")
    row("median insts/preempt, slack = 50 µs (default)",
        "tens of thousands", f"{statistics.median(default):.0f}")
    assert statistics.median(tight) < 1000
    assert statistics.median(default) > 10_000


def test_gentle_fair_sleepers_ablation():
    gentle_count = run_budget_measurement(extra_compute_ns=20_000.0,
                                          seed=2).preemptions
    harsh_params = SchedParams.for_cores(16, gentle_fair_sleepers=False)
    env_features = SchedFeatures(gentle_fair_sleepers=False)
    # run_budget_measurement builds its own env; reproduce inline.
    from repro.core.primitive import (
        ControlledPreemption as CP,
        PreemptionConfig as PC,
    )

    env = build_env("cfs", n_cores=1, seed=2, features=env_features,
                    params=harsh_params)
    victim = Task("victim", body=ProgramBody(StraightlineProgram()))
    attacker = CP(PC(nap_ns=900.0, rounds=20_000, hibernate_ns=5e9,
                     extra_compute_ns=20_000.0, stop_on_exhaustion=True))
    env.kernel.spawn(victim, cpu=0)
    attacker.launch(env.kernel, 0)
    env.kernel.run_until(
        predicate=lambda: attacker.task.state is TaskState.EXITED,
        max_time=60e9,
    )
    harsh_count = env.tracer.consecutive_preemptions(
        victim.pid, attacker.task.pid
    )
    banner("Ablation: GENTLE_FAIR_SLEEPERS (Table 2.1 footnote 2)")
    row("budget with the feature (S_slack = 12 ms)", "8 ms / drift",
        f"{gentle_count} preemptions")
    row("budget without it (S_slack = 24 ms)", "20 ms / drift",
        f"{harsh_count} preemptions")
    # 20 ms vs 8 ms of budget at the same drift: ≈ 2.5×.
    assert 2.0 < harsh_count / gentle_count < 3.0


def test_speculative_smear_ablation():
    from repro.attacks.aes_first_round import run_aes_trace
    from repro.cpu.machine import MachineConfig
    from repro.victims.aes_ttable import TTableAes

    key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    plaintext = bytes.fromhex("6bc1bee22e409f96e93d7e117393172a")

    def multi_hit_fraction(spec_window):
        env = build_env(
            "cfs", n_cores=1, seed=4,
            machine_config=MachineConfig(n_cores=1, spec_window=spec_window),
        )
        trace = run_aes_trace(TTableAes(key), plaintext, seed=4, env=env)
        active = [s for s in trace.samples if any(any(t) for t in s)]
        multi = sum(1 for s in active if sum(sum(t) for t in s) > 1)
        return multi / max(1, len(active))

    smeared, fenced = multi_hit_fraction(8), multi_hit_fraction(0)
    banner("Ablation: speculative smear (Fig 5.1's multi-line samples)")
    row("multi-line samples, spec window = 8", "smears present",
        f"{smeared:.1%}")
    row("multi-line samples, spec window = 0 (LVI-style)", "clean",
        f"{fenced:.1%}")
    assert smeared > fenced
    assert fenced < 0.02
