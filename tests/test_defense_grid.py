"""The defense arena grid (``repro.experiments.defense_grid``).

Fast contract tests — cell identity, seed derivation, registry wiring,
false-positive guarantees on the benign control — plus one small real
grid slice asserting jobs-invariant digests.
"""

from __future__ import annotations

import tempfile

import pytest

from repro.experiments.defense_grid import (DEFAULT_DEFENSES,
                                            DEFAULT_WORKLOADS,
                                            DefenseGridResult,
                                            format_defense_grid,
                                            run_defense_cell,
                                            run_defense_grid)
from repro.experiments.wire import cell_from_wire, normalize_params
from repro.obs.cellcache import CellCache
from repro.obs.manifest import EXPERIMENTS, result_digest
from repro.parallel import derive_seed

CACHE = CellCache(tempfile.mkdtemp(prefix="defense-grid-keys-"))


class TestRegistry:
    def test_grid_and_cell_are_wired(self):
        assert "defense-grid" in EXPERIMENTS
        assert "defense-cell" in EXPERIMENTS

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            run_defense_cell(workload="rowhammer")


class TestCellIdentity:
    def test_every_spelling_of_a_defense_shares_a_key(self):
        spellings = [
            {"defense": "schedguard"},
            {"defense": {"policy": "schedguard"}},
            {"defense": {"policy": "schedguard", "slot_ns": 500000,
                         "protect": ["victim", "victim"]}},
        ]
        cells = [cell_from_wire({"experiment": "defense-cell",
                                 "params": dict(workload="aes", seed=7, **sp)})
                 for sp in spellings]
        assert cells[0] == cells[1] == cells[2]
        keys = {CACHE.key_for(c.experiment, c.params) for c in cells}
        assert len(keys) == 1 and None not in keys

    def test_none_and_omitted_defense_agree(self):
        explicit = cell_from_wire({"experiment": "defense-cell",
                                   "params": {"workload": "btb", "seed": 1,
                                              "defense": "none"}})
        omitted = cell_from_wire({"experiment": "defense-cell",
                                  "params": {"workload": "btb", "seed": 1}})
        assert explicit == omitted
        assert explicit.params["defense"] is None

    def test_normalize_params_canonicalizes_defense(self):
        params = normalize_params(run_defense_cell,
                                  {"workload": "sgx",
                                   "defense": {"policy": "leash",
                                               "flag_threshold": 12}})
        assert params["defense"]["window_ns"] == 250_000.0
        assert params["defense"]["policy"] == "leash"

    def test_seed_derivation_excludes_defense(self):
        """Every defense must face the same scenario: cell seeds depend
        on (seed, workload, scheduler) only."""
        grid_seed = derive_seed(3, "defense-grid", "aes", "cfs")
        result = run_defense_grid(workloads=("benign",),
                                  defenses=(None, "schedguard"),
                                  schedulers=("cfs",), seed=3, jobs=1)
        seeds = {c.seed for c in result.cells}
        assert len(seeds) == 1
        assert seeds == {derive_seed(3, "defense-grid", "benign", "cfs")}
        assert grid_seed != next(iter(seeds))  # workload is in the mix


class TestBenignControl:
    @pytest.fixture(scope="class")
    def grid(self):
        return run_defense_grid(workloads=("benign",),
                                defenses=(None, "leash"),
                                schedulers=("cfs", "eevdf"), seed=0, jobs=1)

    def test_leash_never_flags_benign_tasks(self, grid):
        for cell in grid.cells:
            assert not cell.benign_flagged, cell
            assert not cell.attacker_flagged, cell
            assert cell.throttles == 0

    def test_benign_pair_completes(self, grid):
        for cell in grid.cells:
            assert cell.leakage == 0.0
            assert cell.switches > 0
            assert 0 < cell.sim_time_ns < 200e6

    def test_leash_overhead_on_benign_is_zero_denials(self, grid):
        for cell in grid.cells:
            if cell.defense == "leash":
                assert cell.preempt_denials == 0


class TestGridDigests:
    def test_jobs_invariant_digests(self):
        # The leash attack cell records flagged pids in its result.
        for kwargs in (dict(workloads=("benign",), defenses=(None, "prefence"),
                            schedulers=("cfs",), seed=5),
                       dict(workloads=("btb",), defenses=("leash",),
                            schedulers=("cfs",), seed=5)):
            serial = run_defense_grid(jobs=1, **kwargs)
            fanned = run_defense_grid(jobs=2, **kwargs)
            assert result_digest(serial) == result_digest(fanned)

    def test_leash_cell_digest_independent_of_earlier_cells(self):
        """Pids number from 1000 in every cell, so running a cell again
        in the same process, after other cells made tasks, changes
        nothing."""
        kwargs = dict(workload="aes", defense="leash", scheduler="cfs",
                      seed=3)
        first = run_defense_cell(**kwargs)
        again = run_defense_cell(**kwargs)
        assert first.defense_stats["leash"]["flagged_pids"]
        assert result_digest(first) == result_digest(again)

    def test_lookup_and_format(self):
        result = run_defense_grid(workloads=("benign",),
                                  defenses=("schedguard",),
                                  schedulers=("cfs",), seed=0, jobs=1)
        assert isinstance(result, DefenseGridResult)
        cell = result.cell("benign", "schedguard", "cfs")
        assert cell is not None
        assert result.cell("benign", "leash", "cfs") is None
        table = format_defense_grid(result)
        assert "schedguard" in table and "benign" in table

    def test_default_axes(self):
        assert DEFAULT_WORKLOADS == ("aes", "btb", "sgx", "benign")
        assert DEFAULT_DEFENSES == (None, "leash", "schedguard", "prefence")
