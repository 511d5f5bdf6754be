"""Fig 4.4 — repeated preemptions vs I_attacker − I_victim.

The observations must track the expected curve
⌈(S_slack − S_preempt) / (I_attacker − I_victim)⌉.
"""

from conftest import banner, row

from repro.experiments.preemption_count import figure_4_4
from repro.experiments.setup import scaled


def test_fig_4_4():
    repeats = max(2, scaled(50, minimum=2) // 10)
    runs = figure_4_4(repeats=repeats, seed=1)
    banner("Fig 4.4: consecutive preemptions vs Ia − Iv (CFS)")
    print(f"  {'Ia − Iv (measured)':>20} {'preemptions':>12} "
          f"{'expected ⌈8ms/drift⌉':>22} {'ratio':>7}")
    worst = 0.0
    for run in runs:
        ratio = run.preemptions / run.expected
        worst = max(worst, abs(ratio - 1.0))
        print(f"  {run.drift_ns / 1000:>17.1f} µs {run.preemptions:>12} "
              f"{run.expected:>22.0f} {ratio:>7.3f}")
    row("observations track the expected curve", "yes (Fig 4.4)",
        f"max deviation {worst:.1%}")
    assert worst < 0.15
    # The curve is a hyperbola: more attacker time, fewer preemptions.
    by_extra = sorted(runs, key=lambda r: r.extra_compute_ns)
    assert by_extra[0].preemptions > by_extra[-1].preemptions
