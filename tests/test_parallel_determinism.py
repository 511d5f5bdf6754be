"""Parallel execution must be bit-identical to serial execution.

The contract (``repro.parallel``): every cell's seed is derived from
the root seed and the cell's *identity* — never from execution order,
worker id, or shared RNG state — and results come back in submission
order.  Therefore ``jobs=N`` must reproduce the ``jobs=1`` results
exactly, bit for bit, for every experiment that fans out.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro.parallel
from repro.parallel import (
    derive_seed,
    map_payloads_completions,
    parallel_map,
    resolve_jobs,
    starmap_kwargs,
)


# ----------------------------------------------------------------------
# Seed-derivation contract
# ----------------------------------------------------------------------
class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, "sweep", 440.0) == derive_seed(7, "sweep", 440.0)

    def test_distinct_cells_get_distinct_seeds(self):
        seeds = {
            derive_seed(7, "sweep", tau)
            for tau in (440.0, 590.0, 740.0, 890.0, 1040.0)
        }
        assert len(seeds) == 5

    def test_root_seed_matters(self):
        assert derive_seed(1, "sweep", 440.0) != derive_seed(2, "sweep", 440.0)

    def test_label_matters(self):
        assert derive_seed(1, "a", 0) != derive_seed(1, "b", 0)

    def test_pinned_values(self):
        # Pin the derivation so a refactor cannot silently change every
        # experiment's random stream (SHA-256 of the identity tuple —
        # stable across platforms and Python versions).
        assert derive_seed(0, "cell", 0) == 0x0BB3F7A64A1E304E
        assert derive_seed(12, "fig4.7", 740.0) == 0x25CC40758FE338E5

    def test_fits_in_63_bits(self):
        assert 0 <= derive_seed(999, "x", 1, 2, 3) < 2**63


class TestResolveJobs:
    def test_one_is_serial(self):
        assert resolve_jobs(1) == 1

    def test_explicit_count(self):
        assert resolve_jobs(3) == 3

    def test_documented_defaults(self, monkeypatch):
        # The contract in repro.parallel's docstring: None reads
        # REPRO_JOBS and is serial when it is unset; 0 (the CLI's
        # --jobs default) uses every core.  On a 1-CPU host the two
        # agree, so each case is pinned on its own.
        import os

        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == 1
        assert resolve_jobs(0) == (os.cpu_count() or 1)
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(None) == 3


# ----------------------------------------------------------------------
# Map primitives: order preservation and serial/parallel identity
# ----------------------------------------------------------------------
def _square(x: int) -> int:
    return x * x


def _mix(*, a: int, b: int) -> int:
    return a * 1000 + b


class TestMapPrimitives:
    def test_parallel_map_preserves_submission_order(self):
        xs = list(range(20))
        assert parallel_map(_square, xs, jobs=2) == [x * x for x in xs]

    def test_starmap_kwargs_matches_serial(self):
        cells = [dict(a=i, b=i + 1) for i in range(10)]
        serial = starmap_kwargs(_mix, cells, jobs=1)
        parallel = starmap_kwargs(_mix, cells, jobs=2)
        assert serial == parallel


@pytest.fixture
def plain_cells(monkeypatch):
    """Cells that neither hit a cache nor write manifests."""
    monkeypatch.delenv("REPRO_CELL_CACHE_DIR", raising=False)
    monkeypatch.delenv("REPRO_MANIFEST_DIR", raising=False)


class TestProgressMeter:
    CELLS = [dict(a=1, b=2), dict(a=3, b=4)]

    @pytest.mark.parametrize("value", ["off", "no", "False"])
    def test_off_values_draw_nothing(self, value, monkeypatch, capsys,
                                     plain_cells):
        monkeypatch.setenv("REPRO_PROGRESS", value)
        assert starmap_kwargs(_mix, self.CELLS, jobs=1) == [1002, 3004]
        assert capsys.readouterr().err == ""

    def test_on_draws_one_meter_line(self, monkeypatch, capsys, plain_cells):
        monkeypatch.setenv("REPRO_PROGRESS", "1")
        starmap_kwargs(_mix, self.CELLS, jobs=1)
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "[repro] 2/2 cells" in err


class _PoolFailsToStart:
    """A pool whose construction fails, as without fork or semaphores."""

    def __init__(self, max_workers=None):
        raise OSError("no semaphores here")


class _PoolFailsToSubmit:
    """A pool that starts but cannot submit; records its shutdowns."""

    shutdowns = []

    def __init__(self, max_workers=None):
        pass

    def submit(self, fn, *args):
        raise OSError("cannot fork")

    def shutdown(self, wait=True, *, cancel_futures=False):
        self.shutdowns.append(dict(wait=wait, cancel_futures=cancel_futures))


class TestSerialFallback:
    """A pool that raises OSError degrades the map to serial: the same
    results in input order, each reported once."""

    @pytest.mark.parametrize("pool", [_PoolFailsToStart, _PoolFailsToSubmit])
    def test_pool_oserror_runs_serially(self, pool, monkeypatch, plain_cells):
        monkeypatch.setattr(repro.parallel, "ProcessPoolExecutor", pool)
        monkeypatch.setattr(_PoolFailsToSubmit, "shutdowns", [])
        xs = list(range(6))
        assert parallel_map(_square, xs, jobs=2) == [x * x for x in xs]
        reported = []
        payloads = [(_mix, dict(a=i, b=i + 1)) for i in range(5)]
        results = map_payloads_completions(
            payloads, jobs=2,
            on_result=lambda index, result: reported.append((index, result)))
        assert results == [i * 1000 + i + 1 for i in range(5)]
        assert sorted(reported) == list(enumerate(results))
        if pool is _PoolFailsToSubmit:
            assert _PoolFailsToSubmit.shutdowns == [
                dict(wait=False, cancel_futures=True)] * 2


# ----------------------------------------------------------------------
# Experiment-level bit-identity (small configs: this is a contract
# check, not a statistics check)
# ----------------------------------------------------------------------
class TestExperimentDeterminism:
    def test_tau_sweep_parallel_is_bit_identical(self):
        from repro.experiments.resolution import tau_sweep

        taus = (440.0, 740.0)
        serial = tau_sweep(taus, preemptions=40, seed=3, jobs=1)
        parallel = tau_sweep(taus, preemptions=40, seed=3, jobs=2)
        assert [dataclasses.asdict(r) for r in serial] == [
            dataclasses.asdict(r) for r in parallel
        ]

    def test_slice_sweep_parallel_is_bit_identical(self):
        from repro.experiments.eevdf_exploration import run_slice_sweep

        serial = run_slice_sweep(slice_values_ms=(0.75, 3.0), seed=5, jobs=1)
        parallel = run_slice_sweep(slice_values_ms=(0.75, 3.0), seed=5, jobs=2)
        assert serial == parallel

    def test_rerun_is_reproducible(self):
        from repro.experiments.resolution import tau_sweep

        first = tau_sweep((740.0,), preemptions=40, seed=3, jobs=1)
        second = tau_sweep((740.0,), preemptions=40, seed=3, jobs=1)
        assert [r.samples for r in first] == [r.samples for r in second]


@pytest.mark.slow
class TestExperimentDeterminismSlow:
    """Larger fan-outs, excluded from the default run (``-m slow``)."""

    def test_mitigation_sweep_parallel_is_bit_identical(self):
        from repro.experiments.mitigations import evaluate_mitigations

        serial = evaluate_mitigations(rounds=40, seed=2, jobs=1)
        parallel = evaluate_mitigations(rounds=40, seed=2, jobs=2)
        assert serial == parallel

    def test_figure_4_3_parallel_is_bit_identical(self):
        from repro.experiments.resolution import figure_4_3

        kw = dict(
            preemptions_per_tau=30,
            seed=1,
            taus_a=(700.0, 760.0),
            taus_b=(740.0,),
            taus_c=(2720.0,),
        )
        serial = figure_4_3(jobs=1, **kw)
        parallel = figure_4_3(jobs=2, **kw)
        for panel in "abc":
            assert [dataclasses.asdict(r) for r in serial[panel]] == [
                dataclasses.asdict(r) for r in parallel[panel]
            ]
