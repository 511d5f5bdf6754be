"""Crash-safe sweeps: interrupt + resume must be byte-identical.

The acceptance bar from the robustness contract: a sweep killed at a
chaos-scheduled point and resumed recomputes **zero** journaled cells
and produces final digests byte-identical to an uninterrupted run, for
any ``--jobs`` and through the service (``repro submit --run-dir``).
"""

import json
import os

import pytest

from repro.chaos import ChaosAbort, ChaosSpec, FaultEvent, reset_active
from repro.experiments.wire import cell_from_wire
from repro.obs.journal import journal_path, replay
from repro.parallel import derive_seed
from repro.sweeps import load_spec, run_sweep

N_CELLS = 4


def _cells(n=N_CELLS):
    return [
        cell_from_wire({
            "experiment": "resolution",
            "params": {
                "tau": 700.0 + 5.0 * i,
                "preemptions": 5,
                "seed": derive_seed(0, "sweep-resume", i),
            },
        })
        for i in range(n)
    ]


def _chaos_abort_after(tmp_path, completed):
    path = str(tmp_path / "chaos.json")
    ChaosSpec(events=[FaultEvent(point="runner.tick", kind="abort",
                                 match={"completed": completed})]).save(path)
    os.environ["REPRO_CHAOS"] = path
    reset_active()


def _clear_chaos():
    os.environ.pop("REPRO_CHAOS", None)
    reset_active()


def test_uninterrupted_sweep_round_trips(tmp_path):
    run_dir = str(tmp_path / "run")
    result = run_sweep(run_dir, _cells(), jobs=1)
    assert result.ran == N_CELLS and result.journal_served == 0
    assert len(result.outcomes) == N_CELLS
    # Spec is durable and reloadable.
    assert load_spec(run_dir).digest() == result.spec_digest
    # Re-running with resume recomputes nothing and matches exactly.
    again = run_sweep(run_dir, resume=True, jobs=1)
    assert again.ran == 0 and again.journal_served == N_CELLS
    assert again.digest == result.digest


@pytest.mark.parametrize("jobs", [1, 2, 4])
def test_chaos_interrupt_then_resume_is_byte_identical(tmp_path, jobs):
    golden = run_sweep(str(tmp_path / "golden"), _cells(), jobs=1)

    run_dir = str(tmp_path / "run")
    _chaos_abort_after(tmp_path, completed=2)
    try:
        with pytest.raises(ChaosAbort):
            run_sweep(run_dir, _cells(), jobs=1)
    finally:
        _clear_chaos()

    resumed = run_sweep(run_dir, resume=True, jobs=jobs)
    # The two journaled cells are served, never recomputed …
    assert resumed.journal_served == 2
    assert resumed.ran == N_CELLS - 2
    # … and the final digests are indistinguishable from the
    # uninterrupted run, per-cell and combined.
    assert [o.digest for o in resumed.outcomes] == \
        [o.digest for o in golden.outcomes]
    assert resumed.digest == golden.digest


def test_resume_tolerates_a_torn_journal_tail(tmp_path):
    golden = run_sweep(str(tmp_path / "golden"), _cells(), jobs=1)

    run_dir = str(tmp_path / "run")
    _chaos_abort_after(tmp_path, completed=2)
    try:
        with pytest.raises(ChaosAbort):
            run_sweep(run_dir, _cells(), jobs=1)
    finally:
        _clear_chaos()
    # Tear the final line, as a mid-append crash would.
    with open(os.path.join(run_dir, "journal.ndjson"), "ab") as fh:
        fh.write(b'{"key": "half-a-reco')

    resumed = run_sweep(run_dir, resume=True, jobs=1)
    assert resumed.torn
    assert resumed.digest == golden.digest


def test_fresh_run_refuses_a_journaled_dir_without_resume(tmp_path):
    run_dir = str(tmp_path / "run")
    run_sweep(run_dir, _cells(), jobs=1)
    with pytest.raises(ValueError, match="--resume"):
        run_sweep(run_dir, _cells(), jobs=1)


def test_resume_refuses_a_different_grid(tmp_path):
    run_dir = str(tmp_path / "run")
    run_sweep(run_dir, _cells(), jobs=1)
    other = _cells(N_CELLS + 1)
    with pytest.raises(ValueError, match="does not match"):
        run_sweep(run_dir, other, resume=True, jobs=1)


def test_resume_of_a_nonexistent_run_dir_is_an_error(tmp_path):
    with pytest.raises(ValueError, match="no sweep.json"):
        run_sweep(str(tmp_path / "never-ran"), resume=True, jobs=1)


def test_journal_from_another_sweep_is_refused(tmp_path):
    run_a = str(tmp_path / "a")
    run_b = str(tmp_path / "b")
    run_sweep(run_a, _cells(), jobs=1)
    run_sweep(run_b, _cells(N_CELLS + 1), jobs=1)
    # Transplant b's journal into a: the header's spec digest must
    # refuse the mix.
    os.replace(os.path.join(run_b, "journal.ndjson"),
               os.path.join(run_a, "journal.ndjson"))
    with pytest.raises(ValueError, match="different sweep"):
        run_sweep(run_a, resume=True, jobs=1)


def test_submit_run_dir_abort_then_resume_matches_a_local_sweep(
        tmp_path, capsys):
    """``repro submit --run-dir`` runs the same ``run_sweep`` with the
    service as its executor: a ``runner.tick`` abort stops it after the
    second journaled cell, and ``--resume`` submits only the other two."""
    from repro.cli import main
    from tests.service_harness import ServiceHarness

    run_dir = str(tmp_path / "run")
    with ServiceHarness(cache_dir=str(tmp_path / "cc"),
                        workers=0) as harness:
        argv = ["--no-manifest", "submit", "--port", str(harness.port),
                "--run-dir", run_dir, "--json"]
        _chaos_abort_after(tmp_path, completed=2)
        try:
            rc = main(argv + ["resolution", "--grid", "tau=700,705,710,715",
                              "--param", "preemptions=5"])
        finally:
            _clear_chaos()
        assert rc == 130
        assert len(replay(journal_path(run_dir))) == 2

        capsys.readouterr()
        assert main(argv + ["--resume"]) == 0
        resumed = json.loads(capsys.readouterr().out)
    assert resumed["journal_served"] == 2
    assert resumed["ran"] == 2
    assert resumed["errors"] == 0

    local = run_sweep(str(tmp_path / "local"), load_spec(run_dir).cells,
                      jobs=1)
    assert resumed["digests"] == [o.digest for o in local.outcomes]
    assert resumed["sweep_digest"] == local.digest
