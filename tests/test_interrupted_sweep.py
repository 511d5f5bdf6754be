"""End-to-end interrupted sweeps: real processes, real signals.

Drives ``python -m repro run`` as a subprocess, kills it mid-sweep
(externally with SIGTERM, and deterministically via a chaos
``runner.tick``/``sigterm`` fault, serially and on a pool), then
resumes and requires the resumed digests to be byte-identical to an
uninterrupted golden run — with zero recomputation of journaled cells.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.chaos import ChaosSpec, FaultEvent
from repro.obs.journal import journal_path, replay

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def _env(**extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_CHAOS", None)
    env.update(extra)
    return env


def _run_cli(args, *, env=None, check=True, jobs=1):
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "--no-manifest", "--jobs", str(jobs),
         *args],
        env=env or _env(), capture_output=True, text=True, timeout=180)
    if check:
        assert proc.returncode == 0, (proc.returncode, proc.stderr)
    return proc


def _sweep_args(run_dir, preemptions=5, cells=4):
    taus = ",".join(str(700 + 5 * i) for i in range(cells))
    return ["run", "resolution", "--run-dir", run_dir,
            "--grid", f"tau={taus}", "--param", f"preemptions={preemptions}",
            "--json"]


@pytest.mark.parametrize("jobs", [1, 2])
def test_chaos_sigterm_interrupts_and_resume_matches_golden(tmp_path, jobs):
    golden = json.loads(_run_cli(
        _sweep_args(str(tmp_path / "golden"))).stdout)

    chaos = str(tmp_path / "chaos.json")
    ChaosSpec(events=[FaultEvent(point="runner.tick", kind="sigterm",
                                 match={"completed": 1})]).save(chaos)
    run_dir = str(tmp_path / "run")
    proc = _run_cli(_sweep_args(run_dir), env=_env(REPRO_CHAOS=chaos),
                    check=False, jobs=jobs)
    # The self-delivered SIGTERM lands in the CLI's handler, which sets
    # the abort flag; the sweep stops right after the cell that fired
    # it — on the pool as serially — with exit code 130.
    assert proc.returncode == 130, (proc.returncode, proc.stderr)
    assert "resume" in proc.stderr

    recovered = replay(journal_path(run_dir))
    assert len(recovered) == 1 and not recovered.torn

    resumed = json.loads(_run_cli(
        ["run", "--run-dir", run_dir, "--resume", "--json"]).stdout)
    assert resumed["journal_served"] == 1
    assert resumed["ran"] == 3
    assert resumed["digests"] == golden["digests"]
    assert resumed["sweep_digest"] == golden["sweep_digest"]


def test_external_sigterm_leaves_valid_resumable_journal(tmp_path):
    # Slow enough cells (~0.15 s each) that the signal reliably lands
    # mid-sweep; the journal is polled so we fire only after at least
    # one cell has been durably recorded.
    golden = json.loads(_run_cli(
        _sweep_args(str(tmp_path / "golden"), preemptions=2000,
                    cells=10)).stdout)

    run_dir = str(tmp_path / "run")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "--no-manifest", "--jobs", "1",
         *_sweep_args(run_dir, preemptions=2000, cells=10)],
        env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        if len(replay(journal_path(run_dir))) >= 1:
            break
        time.sleep(0.02)
    proc.send_signal(signal.SIGTERM)
    # communicate, not wait: it reads and closes both pipes, so it can
    # neither block on a full pipe nor leak them.
    _, stderr = proc.communicate(timeout=60)
    assert proc.returncode == 130, (proc.returncode, stderr)

    recovered = replay(journal_path(run_dir))
    journaled = len(recovered)
    assert 1 <= journaled < 10

    # A torn tail on top of the real interruption: the resume must
    # shrug at both.
    with open(journal_path(run_dir), "ab") as fh:
        fh.write(b'{"key": "torn-by-the-cra')

    resumed = json.loads(_run_cli(
        ["run", "--run-dir", run_dir, "--resume", "--json"]).stdout)
    assert resumed["torn"] is True
    assert resumed["journal_served"] == journaled
    assert resumed["ran"] == 10 - journaled
    assert resumed["digests"] == golden["digests"]
    assert resumed["sweep_digest"] == golden["sweep_digest"]
