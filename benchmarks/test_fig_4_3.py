"""Fig 4.3 — temporal resolution histograms (three panels).

(a) nanosleep, (b) nanosleep + iTLB eviction, (c) POSIX timer; each
swept over τ.  The paper's claims: small τ gives mostly <10-instruction
steps with sizable zero steps (a, c); with degradation the majority of
preemptions are exactly one instruction (b).
"""

from conftest import banner

from repro.analysis.histogram import ascii_histogram
from repro.experiments.resolution import figure_4_3
from repro.experiments.setup import scaled


def test_fig_4_3():
    panels = figure_4_3(
        preemptions_per_tau=scaled(80_000, minimum=400), seed=1
    )
    banner("Fig 4.3: victim instructions retired per preemption")
    for name, description, claim in (
        ("a", "nanosleep", "small τ → majority < 10 insts, zero steps"),
        ("b", "nanosleep + evict iTLB", "majority single-step"),
        ("c", "POSIX timer", "same trends as (a), zone ≈ +2 µs"),
    ):
        print(f"\n--- panel ({name}): {description} — paper: {claim}")
        for run in panels[name]:
            stats = run.stats
            print(f"  τ = {run.tau:.0f} ns: {stats.describe()}")
        print(ascii_histogram(panels[name][0].samples))

    # Shape assertions mirroring the paper's claims.
    small_tau_a = panels["a"][0].stats
    assert small_tau_a.zero_fraction > 0.05, "sizable zero steps (a)"
    assert (
        small_tau_a.single_fraction + small_tau_a.under_10_fraction > 0.4
    ), "majority small steps (a)"
    best_b = max(r.stats.single_fraction for r in panels["b"])
    assert best_b > 0.5, "majority single steps with degradation (b)"
    medians_a = [r.stats.median for r in panels["a"]]
    assert medians_a == sorted(medians_a), "larger τ → more instructions"
    # Panel (c): same qualitative behaviour at Method 2's own zone.
    small_c = panels["c"][0].stats
    assert small_c.zero_fraction > 0.05
    assert small_c.single_fraction + small_c.under_10_fraction > 0.25
    medians_c = [r.stats.median for r in panels["c"]]
    assert medians_c == sorted(medians_c)
