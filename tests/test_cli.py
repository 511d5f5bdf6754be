"""CLI smoke tests."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        for command in ("resolution", "budget", "aes", "sgx", "btb",
                        "colocation", "mitigations"):
            args = parser.parse_args(
                [command] if command != "resolution" else [command]
            )
            assert args.command == command

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_scheduler_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["resolution", "--scheduler", "bfs"])


class TestValidation:
    def test_negative_jobs_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["--jobs", "-3", "sweep"])
        assert "worker count must be >= 0" in capsys.readouterr().err

    def test_non_integer_jobs_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["--jobs", "two", "sweep"])
        assert "expected an integer" in capsys.readouterr().err

    def test_taus_empty_entry_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--taus", "700,,740"])
        assert "empty entry" in capsys.readouterr().err

    def test_taus_garbage_entry_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--taus", "700,abc"])
        assert "not a number" in capsys.readouterr().err

    def test_taus_nonpositive_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--taus", "700,-5"])
        assert "positive" in capsys.readouterr().err

    def test_taus_parse_to_floats(self):
        args = build_parser().parse_args(["sweep", "--taus", "700, 740"])
        assert args.taus == [700.0, 740.0]

    def test_defenses_split_only_outside_json_specs(self):
        args = build_parser().parse_args([
            "defense-grid", "--defenses",
            ' none, {"policy": "schedguard", "protect": ["a,b", "}"]},'
            'leash,'])
        assert args.defenses == [
            "none", {"policy": "schedguard", "protect": ["a,b", "}"]},
            "leash"]

    def test_defenses_text_after_a_json_spec_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["defense-grid", "--defenses", '{"policy": "leash"}x'])
        assert "invalid" in capsys.readouterr().err


class TestCommands:
    def test_budget_command_runs(self, capsys):
        assert main(["--no-manifest", "budget", "--extra", "40000"]) == 0
        out = capsys.readouterr().out
        assert "consecutive preemptions" in out

    def test_resolution_command_runs(self, capsys):
        assert main(["resolution", "--tau", "740", "--degrade",
                     "--preemptions", "100"]) == 0
        out = capsys.readouterr().out
        assert "median" in out

    def test_colocation_command_runs(self, capsys):
        assert main(["colocation", "--cores", "4"]) == 0
        assert "colocated" in capsys.readouterr().out

    def test_btb_command_runs(self, capsys):
        assert main(["btb", "--pairs", "1"]) == 0
        assert "branch accuracy" in capsys.readouterr().out

    def test_defense_grid_takes_a_multi_key_json_spec(self, capsys):
        """docs/MITIGATIONS.md's own example: the spec's inner comma
        must not split it."""
        assert main(["--no-manifest", "defense-grid", "--workloads",
                     "benign", "--schedulers", "cfs", "--defenses",
                     'none,{"policy":"schedguard","slot_ns":1000000}']) == 0
        out = capsys.readouterr().out
        assert "benign   none" in out and "benign   schedguard" in out

    def test_manifest_written_by_default_dir_flag(self, tmp_path, capsys):
        assert main(["--manifest-dir", str(tmp_path), "budget",
                     "--extra", "40000"]) == 0
        manifests = list(tmp_path.glob("run-budget-*.json"))
        assert len(manifests) == 1
        assert str(manifests[0]) in capsys.readouterr().err

    def test_stats_command_prints_metrics(self, capsys):
        assert main(["--no-manifest", "stats", "resolution",
                     "--preemptions", "50"]) == 0
        out = capsys.readouterr().out
        assert "kernel.switches" in out
        assert "attack.samples" in out

    def test_metrics_flag_prints_table(self, capsys):
        assert main(["--no-manifest", "--metrics", "budget",
                     "--extra", "40000"]) == 0
        assert "kernel.switch.preempt_wakeup" in capsys.readouterr().out

    def test_replay_command_round_trips(self, tmp_path, capsys):
        assert main(["--manifest-dir", str(tmp_path), "resolution",
                     "--preemptions", "40"]) == 0
        manifest = next(tmp_path.glob("run-resolution-*.json"))
        assert main(["--no-manifest", "replay", str(manifest)]) == 0
        assert "bit-identically" in capsys.readouterr().out


class TestValidateCommand:
    def test_clean_fuzz_run_exits_zero(self, capsys):
        assert main(["--no-manifest", "--jobs", "1", "validate",
                     "--cases", "5", "--seed", "1", "--sched", "cfs"]) == 0
        out = capsys.readouterr().out
        assert "all invariants held" in out
        assert "campaign digest" in out

    def test_seed_accepted_before_or_after_verb(self):
        parser = build_parser()
        assert parser.parse_args(["validate", "--seed", "5"]).seed == 5
        assert parser.parse_args(["--seed", "3", "validate"]).seed == 3

    def test_injected_bug_caught_exits_zero(self, capsys, tmp_path):
        rc = main(["--jobs", "1", "--manifest-dir", str(tmp_path),
                   "validate", "--cases", "8", "--seed", "7",
                   "--sched", "cfs", "--inject-bug", "skip-eq22-slack"])
        out = capsys.readouterr().out
        assert rc == 0  # bug caught is the expected outcome
        assert "caught" in out
        # Shrunk reproducers landed in the manifest dir and replay.
        reproducer = next(tmp_path.glob("run-*replay_case*.json"))
        assert main(["--no-manifest", "replay", str(reproducer)]) == 0

    def test_unknown_bug_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["validate", "--inject-bug", "no-such-bug"])
        assert "invalid choice" in capsys.readouterr().err


class TestCacheVerbs:
    def test_stats_and_prune_round_trip(self, tmp_path, capsys):
        manifest_dir = str(tmp_path / "runs")
        # Populate the cache with one cell, then inspect and evict it.
        assert main(["--manifest-dir", manifest_dir, "resolution",
                     "--preemptions", "30"]) == 0
        capsys.readouterr()
        assert main(["--manifest-dir", manifest_dir, "cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "entries  1" in out
        assert main(["--manifest-dir", manifest_dir, "cache", "prune",
                     "--older-than", "0"]) == 0
        assert "pruned 1 entry" in capsys.readouterr().out
        assert main(["--manifest-dir", manifest_dir, "cache", "stats"]) == 0
        assert "entries  0" in capsys.readouterr().out

    def test_missing_cache_dir_is_not_an_error(self, tmp_path, capsys):
        manifest_dir = str(tmp_path / "empty")
        assert main(["--manifest-dir", manifest_dir, "cache", "stats"]) == 0
        assert main(["--manifest-dir", manifest_dir, "cache", "prune",
                     "--older-than", "7d"]) == 0
        capsys.readouterr()

    def test_older_than_rejects_garbage(self, capsys):
        with pytest.raises(SystemExit):
            main(["cache", "prune", "--older-than", "soon"])
        assert "duration" in capsys.readouterr().err

    def test_cache_requires_subverb(self, capsys):
        with pytest.raises(SystemExit):
            main(["cache"])
        capsys.readouterr()
