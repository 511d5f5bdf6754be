"""``repro report`` degradation: partial run dirs still report.

A crashed sweep leaves whatever it leaves — truncated
``telemetry.json``, half-written manifests.  The report must render
the partial picture with warnings, and only ``--strict`` turns the
degradation into a nonzero exit.
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


class TestReportHealth:
    def test_intact_run_dir_reports_without_warnings(self, tmp_path):
        run_dir = _run_dir_with_manifest(tmp_path)
        write_telemetry(run_dir)
        text, warnings = report_health(run_dir)
        assert warnings == []
        assert text.startswith("run health")

    def test_truncated_telemetry_falls_back_to_manifests(self, tmp_path):
        run_dir = _run_dir_with_manifest(tmp_path)
        with open(os.path.join(run_dir, "telemetry.json"), "w") as fh:
            fh.write('{"exact": {"counters"')  # torn mid-write
        text, warnings = report_health(run_dir)
        assert any("telemetry.json" in w for w in warnings)
        assert text  # still a report, aggregated from the manifests

    def test_wrong_shaped_telemetry_is_degraded_not_fatal(self, tmp_path):
        run_dir = _run_dir_with_manifest(tmp_path)
        with open(os.path.join(run_dir, "telemetry.json"), "w") as fh:
            json.dump(["not", "a", "telemetry", "object"], fh)
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
        run_dir = _run_dir_with_manifest(tmp_path)
        with open(os.path.join(run_dir, "telemetry.json"), "w") as fh:
            fh.write("{")
        assert main(["report", run_dir]) == 0
        captured = capsys.readouterr()
        assert "warning" in captured.err
        assert captured.out  # partial report still printed

    def test_strict_turns_degradation_into_failure(self, tmp_path, capsys):
        run_dir = _run_dir_with_manifest(tmp_path)
        with open(os.path.join(run_dir, "telemetry.json"), "w") as fh:
            fh.write("{")
        assert main(["report", run_dir, "--strict"]) == 1
        captured = capsys.readouterr()
        assert captured.out  # the partial report is still rendered

    def test_strict_passes_on_an_intact_run_dir(self, tmp_path, capsys):
        run_dir = _run_dir_with_manifest(tmp_path)
        write_telemetry(run_dir)
        assert main(["report", run_dir, "--strict"]) == 0
        capsys.readouterr()
