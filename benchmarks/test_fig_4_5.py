"""Fig 4.5 — repeated preemptions vs the victim's nice value.

Raising the victim's priority (lower nice) shrinks the count, but even
at nice −20 the attacker keeps hundreds of consecutive preemptions.
"""

import statistics

from conftest import banner, row

from repro.experiments.preemption_count import figure_4_5
from repro.experiments.setup import scaled


def test_fig_4_5():
    repeats = max(1, scaled(30, minimum=1) // 10)
    runs = figure_4_5(repeats=repeats, seed=1)
    banner("Fig 4.5: consecutive preemptions vs victim nice "
           "(attacker at nice 0, Ia − Iv ≈ 10–15 µs)")
    by_nice = {}
    for run in runs:
        by_nice.setdefault(run.victim_nice, []).append(run.preemptions)
    print(f"  {'victim nice':>12} {'median preemptions':>20}")
    medians = {}
    for nice in sorted(by_nice):
        medians[nice] = statistics.median(by_nice[nice])
        display = medians[nice]
        capped = " (≥ cap)" if display >= 20_000 else ""
        print(f"  {nice:>12} {display:>20.0f}{capped}")
    row("hundreds of preemptions even at nice −20", "yes",
        f"{medians[-20]:.0f}")
    assert medians[-20] > 300
    # Decreasing nice (higher victim priority) decreases the count.
    assert medians[-20] < medians[0]
    assert medians[0] < medians[10]
