"""§4.5 statistic — EEVDF repeated-preemption budget.

Paper: with I_attacker − I_victim ∈ [10, 15] µs, a median of 219
repeated preemptions over 165 runs.
"""

from conftest import banner, row

from repro.experiments.preemption_count import eevdf_budget_statistic
from repro.experiments.setup import scaled


def test_eevdf_budget():
    repeats = scaled(165, minimum=8)
    median, counts = eevdf_budget_statistic(repeats=repeats, seed=1)
    banner("§4.5: EEVDF preemption budget")
    row(f"median repeated preemptions ({repeats} runs)", "219", f"{median:.0f}")
    row("range", "—", f"{min(counts)}–{max(counts)}")
    # The budget model (one 3 ms base slice ÷ 10–15 µs drift) puts the
    # median in the low hundreds; match the paper's order and ballpark.
    assert 150 <= median <= 320
