"""Fig 4.7 — temporal resolution on EEVDF (the Fig 4.3b experiment).

The victim must retire only a few instructions per preemption for small
τ, "closely resembling" the CFS result — the transferability claim of
§4.5.
"""

from conftest import banner, row

from repro.analysis.histogram import ascii_histogram
from repro.experiments.resolution import figure_4_7, run_resolution
from repro.experiments.setup import scaled


def test_fig_4_7():
    preemptions = scaled(80_000, minimum=400)
    runs = figure_4_7(preemptions_per_tau=preemptions, seed=1)
    banner("Fig 4.7: resolution on EEVDF (nanosleep + evict iTLB)")
    for run in runs:
        print(f"  τ = {run.tau:.0f} ns: {run.stats.describe()}")
    print(ascii_histogram(runs[0].samples))

    best_single = max(r.stats.single_fraction for r in runs)
    row("majority single steps at small τ", "yes (≈ Fig 4.3b)",
        f"{best_single:.0%}")
    assert best_single > 0.5

    # Cross-scheduler comparison at the shared best τ.
    cfs = run_resolution(740.0, degrade_itlb=True,
                         preemptions=min(preemptions, 400), seed=1)
    eevdf = next(r for r in runs if r.tau == 740.0)
    row("EEVDF resembles CFS (median insts/preempt)",
        "same behaviour",
        f"CFS {cfs.stats.median:.0f} vs EEVDF {eevdf.stats.median:.0f}")
    assert abs(cfs.stats.median - eevdf.stats.median) <= 2
