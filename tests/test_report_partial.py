"""``repro report`` degradation: partial run dirs still report.

A crashed sweep leaves whatever it leaves — truncated
``telemetry.json``, half-written manifests.  The report must render
the partial picture with warnings, and only ``--strict`` turns the
degradation into a nonzero exit.  The manifests are the record: a dir
that holds any is reported from them, and ``telemetry.json`` is read
only for a dir without manifests (an exported CI artifact).
"""

from __future__ import annotations

import json
import os

from repro.cli import main
from repro.obs.manifest import run_recorded
from repro.obs.telemetry import report_health, write_telemetry


def _run_dir_with_manifest(tmp_path):
    run_dir = str(tmp_path / "runs")
    run_recorded("resolution",
                 {"tau": 700.0, "preemptions": 5, "seed": 1},
                 out_dir=run_dir)
    return run_dir


def _dir_without_manifests(tmp_path, telemetry_text):
    """A dir holding only a ``telemetry.json`` with this text."""
    run_dir = str(tmp_path / "artifact")
    os.makedirs(run_dir)
    with open(os.path.join(run_dir, "telemetry.json"), "w") as fh:
        fh.write(telemetry_text)
    return run_dir


class TestReportHealth:
    def test_intact_run_dir_reports_without_warnings(self, tmp_path):
        run_dir = _run_dir_with_manifest(tmp_path)
        write_telemetry(run_dir)
        text, warnings = report_health(run_dir)
        assert warnings == []
        assert text.startswith("run health")

    def test_later_runs_are_not_hidden_by_an_earlier_telemetry_json(
            self, tmp_path, capsys):
        run_dir = str(tmp_path / "runs")
        assert main(["--telemetry", "--no-cell-cache", "--manifest-dir",
                     run_dir, "--seed", "1", "resolution", "--tau", "740",
                     "--preemptions", "30"]) == 0
        assert main(["--no-cell-cache", "--manifest-dir", run_dir,
                     "--seed", "1", "budget"]) == 0
        capsys.readouterr()
        assert os.path.exists(os.path.join(run_dir, "telemetry.json"))
        text, warnings = report_health(run_dir)
        assert warnings == []
        assert "2 run(s)" in text
        assert "experiments: budget×1, resolution×1" in text

    def test_telemetry_is_read_for_a_dir_without_manifests(self, tmp_path):
        run_dir = _run_dir_with_manifest(tmp_path)
        path = write_telemetry(run_dir)
        with open(path) as fh:
            artifact = _dir_without_manifests(tmp_path, fh.read())
        text, warnings = report_health(artifact)
        assert warnings == []
        assert "1 run(s)" in text
        assert "experiments: resolution×1" in text

    def test_truncated_telemetry_without_manifests_is_degraded(
            self, tmp_path):
        run_dir = _dir_without_manifests(
            tmp_path, '{"exact": {"counters"')  # torn mid-write
        text, warnings = report_health(run_dir)
        assert any("telemetry.json" in w for w in warnings)
        assert text  # still a report: the empty aggregate

    def test_wrong_shaped_telemetry_is_degraded_not_fatal(self, tmp_path):
        run_dir = _dir_without_manifests(
            tmp_path, json.dumps(["not", "a", "telemetry", "object"]))
        text, warnings = report_health(run_dir)
        assert warnings and text

    def test_unreadable_manifest_is_skipped_with_warning(self, tmp_path):
        run_dir = _run_dir_with_manifest(tmp_path)
        with open(os.path.join(run_dir, "cell-deadbeef.json"), "w") as fh:
            fh.write('{"experiment": "resolutio')  # torn manifest
        text, warnings = report_health(run_dir)
        assert any("cell-deadbeef.json" in w for w in warnings)
        assert text

    def test_missing_telemetry_with_no_manifests_still_reports(
            self, tmp_path):
        empty = str(tmp_path / "empty")
        os.makedirs(empty)
        text, warnings = report_health(empty)
        assert text  # empty aggregate renders, no traceback


class TestCliExitCodes:
    def test_degraded_report_exits_zero_by_default(self, tmp_path, capsys):
        run_dir = _dir_without_manifests(tmp_path, "{")
        assert main(["report", run_dir]) == 0
        captured = capsys.readouterr()
        assert "warning" in captured.err
        assert captured.out  # partial report still printed

    def test_strict_turns_degradation_into_failure(self, tmp_path, capsys):
        run_dir = _dir_without_manifests(tmp_path, "{")
        assert main(["report", run_dir, "--strict"]) == 1
        captured = capsys.readouterr()
        assert captured.out  # the partial report is still rendered

    def test_strict_fails_on_a_torn_manifest(self, tmp_path, capsys):
        run_dir = _run_dir_with_manifest(tmp_path)
        write_telemetry(run_dir)
        with open(os.path.join(run_dir, "cell-deadbeef.json"), "w") as fh:
            fh.write('{"experiment": "resolutio')  # torn manifest
        assert main(["report", run_dir, "--strict"]) == 1
        captured = capsys.readouterr()
        assert "cell-deadbeef.json" in captured.err
        assert captured.out

    def test_strict_passes_on_an_intact_run_dir(self, tmp_path, capsys):
        run_dir = _run_dir_with_manifest(tmp_path)
        write_telemetry(run_dir)
        assert main(["report", run_dir, "--strict"]) == 0
        capsys.readouterr()
