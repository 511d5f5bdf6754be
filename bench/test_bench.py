"""Checks of the benchmark itself (not part of tier-1).

    python -m pytest bench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from layers import BOUNDARIES, HARNESS_LAYERS, Boundary, LayerTracer  # noqa: E402
from workloads import WORKLOADS, run_ops  # noqa: E402

#: One cheap operation per workload; the attacks one runs a defense.
PROBES = {
    "resolution": "s0/fig4.3a/700.0",
    "budget": "s0/fig4.4/5000.0",
    "attacks": "s0/grid/btb/leash/eevdf",
    "serve": "r0",
}


def _probe(name, state_dir, tracer=None):
    """Run the probe operation of ``name``: ``(record, tracer report)``."""
    workload = WORKLOADS[name](1, str(state_dir))
    try:
        ops = [op for op in workload.plan(0) if op.label == PROBES[name]]
        workload.begin_set(0)
        if tracer is not None:
            tracer.install()
        try:
            (record,) = run_ops(ops)
        finally:
            if tracer is not None:
                tracer.uninstall()
            workload.end_set()
    finally:
        workload.close()
    return record


def test_benchmark_json_names_what_run_reports():
    import run

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.per_layer_metrics()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert spec["run_seconds"] == run.DEFAULT_SECONDS


def test_golden_pins_every_set_of_a_default_run(tmp_path):
    import run

    golden = json.loads((BENCH / "golden.json").read_text())["workloads"]
    for name in run.WORKLOAD_NAMES:
        workload = WORKLOADS[name](1, str(tmp_path / name))
        try:
            for k in range(run.sets_per_run(name, run.DEFAULT_SECONDS)):
                pinned = [op.label for op in workload.plan(k) if op.pin]
                assert pinned and set(pinned) <= set(golden[name])
        finally:
            workload.close()


def test_every_attacks_set_defends_on_both_schedulers(tmp_path):
    workload = WORKLOADS["attacks"](1, str(tmp_path))
    cells = set()
    for k in range(2):
        grid = [op.label.split("/")[2:] for op in workload.plan(k)
                if op.label.startswith(f"s{k}/grid/")]
        assert {s for _, d, s in grid if d != "None"} == {"cfs", "eevdf"}
        cells |= {tuple(cell) for cell in grid}
    assert len(cells) == 3 * 4 * 2


def test_every_boundary_resolves():
    tracer = LayerTracer()
    tracer.install()
    tracer.uninstall()


def test_renamed_boundary_fails_and_restores():
    from repro.sim.engine import Simulator

    original = Simulator.call_at
    renamed = BOUNDARIES + (Boundary("sim", "repro.sim.engine",
                                     "Simulator.call_at_renamed"),)
    with pytest.raises(AttributeError):
        LayerTracer(renamed).install()
    assert Simulator.call_at is original


@pytest.mark.parametrize("name", sorted(PROBES))
def test_layers_add_up_and_digests_hold(name, tmp_path):
    plain = _probe(name, tmp_path / "plain")
    tracer = LayerTracer()
    traced = _probe(name, tmp_path / "traced", tracer)
    assert plain.problem is None and traced.problem is None
    assert traced.digest == plain.digest

    report = tracer.report()
    total = sum(layer["self_s"] for layer in report["layers"].values())
    assert report["roots"] >= 1
    assert total == pytest.approx(report["root_s"], rel=0.01)
    calls = {layer: v["calls"] for layer, v in report["layers"].items()}
    assert calls["kernel"] > 0 and calls["experiment"] > 0
    if name != "serve":
        assert all(calls[layer] == 0 for layer in HARNESS_LAYERS)
    if name != "attacks":
        assert calls["mitigations"] == 0
    else:
        assert calls["mitigations"] > 0


def test_planted_digest_mismatch_fails_the_run(tmp_path):
    # A copy of bench/ beside the real sources, with one golden digest
    # changed.
    bench = tmp_path / "bench"
    bench.mkdir()
    for path in BENCH.glob("*.py"):
        shutil.copy(path, bench / path.name)
    os.symlink(BENCH.parent / "src", tmp_path / "src")
    golden = json.loads((BENCH / "golden.json").read_text())
    golden["workloads"]["resolution"][PROBES["resolution"]] = "0" * 64
    (bench / "golden.json").write_text(json.dumps(golden))

    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "resolution",
         "--seed", "1", "--seconds", "1"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] is False
    assert summary["failed"] >= 1 and summary["attempted"] >= 1
