"""Shared benchmark scaffolding.

Every benchmark regenerates one of the paper's tables or figures, runs
its experiment once and prints a paper-vs-measured comparison.  Sample
counts follow ``REPRO_SCALE`` (default 0.05 — set ``REPRO_SCALE=1`` for
full-fidelity runs, see EXPERIMENTS.md).  Wall time is measured by the
end-to-end benchmark in ``bench/``, not here.
"""


def banner(title):
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def row(label, paper, measured):
    print(f"  {label:<44} paper: {paper:<14} measured: {measured}")
