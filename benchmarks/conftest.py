"""Shared benchmark scaffolding.

Every benchmark regenerates one of the paper's tables or figures and
prints a paper-vs-measured comparison.  Experiments run once inside
``benchmark.pedantic`` (they are minutes-scale simulations, not
microbenchmarks); sample counts follow ``REPRO_SCALE`` (default 0.05 —
set ``REPRO_SCALE=1`` for full-fidelity runs, see EXPERIMENTS.md).
"""

import pytest


@pytest.fixture
def run_once(benchmark):
    """Run an experiment exactly once under pytest-benchmark timing."""

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1)

    return runner


def banner(title):
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def row(label, paper, measured):
    print(f"  {label:<44} paper: {paper:<14} measured: {measured}")
