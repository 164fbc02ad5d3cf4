"""CLI tests (driven in-process through repro.cli.main)."""

import pytest

from repro.cli import main

SCALE = ["--scale", "0.002"]


class TestInfo:
    def test_info_lists_tables(self, capsys):
        assert main(["info", *SCALE]) == 0
        out = capsys.readouterr().out
        assert "ABCD" in out
        assert "A'B'C'D" in out
        assert "indexes" in out


class TestRun:
    MDX = "{A''.A1.CHILDREN} on COLUMNS CONTEXT ABCD FILTER (D.DD1)"

    def test_run_inline_mdx(self, capsys):
        assert main(["run", self.MDX, *SCALE]) == 0
        out = capsys.readouterr().out
        assert "1 component group-by query(ies)" in out
        assert "group(s)" in out

    def test_run_with_explain(self, capsys):
        assert main(["run", self.MDX, "--explain", *SCALE]) == 0
        out = capsys.readouterr().out
        assert "GlobalPlan[gg]" in out

    def test_run_algorithm_choice(self, capsys):
        assert main(["run", self.MDX, "--algorithm", "tplo", *SCALE]) == 0
        assert "tplo" in capsys.readouterr().out

    def test_run_from_file(self, tmp_path, capsys):
        path = tmp_path / "query.mdx"
        path.write_text(self.MDX)
        assert main(["run", "--file", str(path), *SCALE]) == 0
        assert "component" in capsys.readouterr().out

    def test_run_without_mdx_fails(self, capsys):
        assert main(["run", *SCALE]) == 2
        assert "error" in capsys.readouterr().err

    def test_limit_truncates_output(self, capsys):
        assert main(["run", self.MDX, "--limit", "1", *SCALE]) == 0
        assert "more" in capsys.readouterr().out

    def test_pivot_layout(self, capsys):
        mdx = ("{A''.A1, A''.A2} on COLUMNS {B''.B1} on ROWS "
               "CONTEXT ABCD FILTER (D.DD1)")
        assert main(["run", mdx, "--pivot", *SCALE]) == 0
        out = capsys.readouterr().out
        assert "A1" in out and "A2" in out and "B1" in out
        assert "component query" in out


class TestExplain:
    def test_explain_prints_the_plan_without_executing(self, capsys):
        assert main(["explain", TestRun.MDX, *SCALE]) == 0
        out = capsys.readouterr().out
        assert out.startswith("GlobalPlan[gg]")
        assert "actual" not in out

    def test_explain_analyze_dag(self, capsys):
        assert main(
            ["explain", TestRun.MDX, "--algorithm", "dag", "--analyze", *SCALE]
        ) == 0
        out = capsys.readouterr().out
        assert out.startswith("GlobalPlan[dag]")
        assert out.count("PlanDAG[dag]") == 1
        assert "q-error" in out and "est standalone" in out

    def test_explain_without_mdx_fails(self, capsys):
        assert main(["explain", *SCALE]) == 2
        assert "error" in capsys.readouterr().err


class TestCompare:
    def test_compare_single_test(self, capsys):
        assert main(["compare", "--tests", "test6", *SCALE]) == 0
        out = capsys.readouterr().out
        assert "test6" in out
        for algorithm in ("naive", "tplo", "etplg", "gg", "optimal"):
            assert algorithm in out

    def test_compare_unknown_test(self, capsys):
        assert main(["compare", "--tests", "nope", *SCALE]) == 2
        assert "unknown tests" in capsys.readouterr().err


class TestSevenTests:
    """The CLI accepts exactly the tests the sweep underneath accepts:
    Tests 1–7 for calibrate / bench / metrics (Table 2's four for compare)."""

    SEVEN = [f"test{i}" for i in range(1, 8)]

    @pytest.mark.parametrize("test", SEVEN)
    def test_calibrate_accepts_every_paper_test(self, test, capsys):
        assert main(["calibrate", *SCALE, "--tests", test]) == 0
        assert test in capsys.readouterr().out

    def test_bench_and_metrics_accept_a_figure_test(self, tmp_path, capsys):
        assert main([
            "bench", "--record", *SCALE, "--tests", "test2", "--no-figures",
            "--label", "x", "--output", str(tmp_path / "BENCH_x.json"),
        ]) == 0
        assert main(["metrics", *SCALE, "--test", "test1"]) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["calibrate", "--tests", "nope"],
            ["bench", "--record", "--no-figures", "--tests", "nope"],
            ["metrics", "--test", "nope"],
        ],
    )
    def test_unknown_test_names_all_seven(self, argv, capsys):
        assert main([*argv, *SCALE]) == 2
        err = capsys.readouterr().err
        assert all(test in err for test in self.SEVEN)


class TestFigures:
    def test_figures_prints_three_tables(self, capsys):
        assert main(["figures", *SCALE]) == 0
        out = capsys.readouterr().out
        assert "Figure 10" in out
        assert "Figure 11" in out
        assert "Figure 12" in out
        assert "speedup" in out


class TestSelectViews:
    def test_select_views(self, capsys):
        assert main(["select-views", "--budget", "3", *SCALE]) == 0
        out = capsys.readouterr().out
        assert "Greedy view selection" in out
        assert "benefit" in out

    def test_select_and_materialize(self, capsys):
        assert main(
            ["select-views", "--budget", "2", "--materialize", *SCALE]
        ) == 0
        assert "materialized:" in capsys.readouterr().out


class TestPersistFlow:
    def test_save_then_run_from_saved(self, tmp_path, capsys):
        store = str(tmp_path / "paperdb")
        assert main(["info", "--save", store, *SCALE]) == 0
        assert "saved to" in capsys.readouterr().out
        assert main(["run", TestRun.MDX, "--database", store]) == 0
        assert "group(s)" in capsys.readouterr().out


class TestParser:
    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


SUBCOMMANDS = [
    "info",
    "run",
    "compare",
    "figures",
    "explain",
    "calibrate",
    "bench",
    "serve",
    "report",
    "select-views",
]


class TestHelp:
    """Every subcommand must answer ``--help`` with usage text, exit 0."""

    def test_top_level_help(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for command in SUBCOMMANDS:
            assert command in out

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_subcommand_help(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "usage:" in out
        assert command in out


class TestServe:
    def test_simulate_small_run(self, capsys):
        assert main(
            [
                "serve",
                "--simulate",
                "--clients", "4",
                "--requests", "1",
                "--window", "5",
                *SCALE,
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "serve simulation" in out
        assert "coalesce ratio" in out
        assert "cheaper" in out

    def test_serve_requires_simulate(self, capsys):
        assert main(["serve", *SCALE]) == 2
        assert "error" in capsys.readouterr().err

    def test_serve_rejects_nonpositive_clients(self, capsys):
        assert main(["serve", "--simulate", "--clients", "0", *SCALE]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, named",
        [
            ("--retries", "0", "max_attempts"),
            ("--shards", "0", "shards"),
            ("--recorder-size", "-1", "flight_recorder"),
            ("--workers", "0", "n_workers"),
        ],
    )
    def test_serve_config_errors_exit_2(self, flag, value, named, capsys):
        """Range checks are ``ServeConfig``'s own, reported as usage errors."""
        assert main(["serve", "--simulate", flag, value, *SCALE]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad serve configuration")
        assert named in err


class TestBenchUsageErrors:
    """Exit-2 paths of `repro bench` — all fail before a database build."""

    def test_missing_baseline_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "--compare", "--label", "nope"]) == 2
        assert "no baseline" in capsys.readouterr().err

    def test_corrupt_baseline_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "BENCH_bad.json").write_text("{broken json")
        assert main(
            ["bench", "--compare", "--baseline", "BENCH_bad.json"]
        ) == 2
        assert "not a readable benchmark record" in capsys.readouterr().err

    def test_no_action_exits_2(self, capsys):
        assert main(["bench"]) == 2
        assert "--record" in capsys.readouterr().err

    def test_leaderboard_rejects_record_combo(self, capsys):
        assert main(["bench", "--leaderboard", "--record"]) == 2
        assert "cannot be combined" in capsys.readouterr().err

    def test_leaderboard_empty_dir_exits_2(self, tmp_path, capsys):
        assert main(["bench", "--leaderboard", "--dir", str(tmp_path)]) == 2
        assert "no BENCH_*.json records" in capsys.readouterr().err


class TestBenchLeaderboard:
    def make_record_file(self, directory, name, kernels, total_s):
        from repro.bench.history import RunRecord

        RunRecord(
            label=name,
            created_at="2026-08-07T00:00:00",
            fingerprint={"schema": "t"},
            tests={"test4": [
                {"algorithm": "gg", "sim_ms": 10.0, "est_ms": 10.0},
            ]},
            kernels=kernels,
            wall={"total_s": total_s},
        ).save(directory / f"BENCH_{name}.json")

    def test_leaderboard_renders_markdown(self, tmp_path, capsys):
        self.make_record_file(tmp_path, "kernels", True, 1.0)
        self.make_record_file(tmp_path, "seed", False, 4.0)
        assert main(["bench", "--leaderboard", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("| record | profile |")
        assert out.index("BENCH_kernels.json") < out.index("BENCH_seed.json")

    def test_leaderboard_writes_output_file(self, tmp_path, capsys):
        self.make_record_file(tmp_path, "kernels", True, 1.0)
        target = tmp_path / "board.md"
        assert main([
            "bench", "--leaderboard", "--dir", str(tmp_path),
            "--output", str(target),
        ]) == 0
        assert "leaderboard" in capsys.readouterr().out
        assert target.read_text().startswith("| record | profile |")

    def test_leaderboard_corrupt_record_exits_2(self, tmp_path, capsys):
        """Regression: a corrupt BENCH file used to traceback; it must be
        a usage error naming the offending file."""
        self.make_record_file(tmp_path, "kernels", True, 1.0)
        (tmp_path / "BENCH_rotten.json").write_text("{broken json")
        assert main(["bench", "--leaderboard", "--dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "BENCH_rotten.json" in err
        assert "unreadable benchmark record" in err

    def test_leaderboard_drifted_record_exits_2(self, tmp_path, capsys):
        import json

        self.make_record_file(tmp_path, "kernels", True, 1.0)
        drifted = json.loads(
            (tmp_path / "BENCH_kernels.json").read_text()
        )
        drifted["wall"] = {"total_s": "not-a-number"}
        (tmp_path / "BENCH_drift.json").write_text(json.dumps(drifted))
        assert main(["bench", "--leaderboard", "--dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "BENCH_drift.json" in err
        assert "wall.total_s" in err


class TestProfileFlag:
    """--profile error paths (the exit-2 contract) and the happy path.

    The full fit round-trip lives in tests/test_calibrate_smoke.py; here we only
    exercise the cheap file-handling surface."""

    def make_profile_file(self, tmp_path):
        from repro.calibrate.profile import CalibrationProfile
        from repro.storage.iostats import DEFAULT_RATES

        path = tmp_path / "profile.json"
        # Double the sequential rate too: every plan reads pages, so the
        # repriced sim cost always moves even when a plan has no random
        # probes.
        CalibrationProfile(
            rates=DEFAULT_RATES.replace(
                seq_page_read_ms=2.6, rand_page_read_ms=9.0
            ),
            base_rates=DEFAULT_RATES,
            label="clitest",
        ).save(path)
        return path

    def test_missing_profile_exits_2(self, tmp_path, capsys):
        path = tmp_path / "nope.json"
        assert main(["info", *SCALE, "--profile", str(path)]) == 2
        err = capsys.readouterr().err
        assert "nope.json" in err
        assert "repro calibrate --fit" in err  # the fix is in the message

    def test_corrupt_profile_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["calibrate", *SCALE, "--tests", "test4",
                     "--profile", str(path)]) == 2
        err = capsys.readouterr().err
        assert "bad.json" in err
        assert "not valid JSON" in err

    def test_drifted_profile_exits_2(self, tmp_path, capsys):
        import json

        path = self.make_profile_file(tmp_path)
        data = json.loads(path.read_text())
        del data["rates"]["rand_page_read_ms"]
        path.write_text(json.dumps(data))
        assert main(["info", *SCALE, "--profile", str(path)]) == 2
        err = capsys.readouterr().err
        assert "profile.json" in err
        assert "missing rate" in err

    def test_profile_applies_to_run(self, tmp_path, capsys):
        import re

        def normalized(text):
            # Wall clock is machine noise; strip it so the comparison is
            # about the deterministic simulated costs only.
            return re.sub(r"wall [\d.]+ ms", "wall - ms", text)

        mdx = "{A''.A1.CHILDREN} on COLUMNS CONTEXT ABCD FILTER (D.DD1)"
        path = self.make_profile_file(tmp_path)
        assert main(["run", *SCALE, mdx]) == 0
        default_out = capsys.readouterr().out
        assert main(["run", *SCALE, "--profile", str(path), mdx]) == 0
        profiled_out = capsys.readouterr().out
        # The profile re-prices the cost clock (2x per sequential page),
        # so the simulated times genuinely move.
        assert normalized(default_out) != normalized(profiled_out)

    def test_profile_applies_to_a_saved_database(self, tmp_path, capsys):
        """``run --database DIR --profile FILE`` used to ignore the file."""
        store = str(tmp_path / "paperdb")
        assert main(["info", "--save", store, *SCALE]) == 0
        path = self.make_profile_file(tmp_path)
        capsys.readouterr()
        assert main(["run", TestRun.MDX, "--database", store]) == 0
        default_sim = capsys.readouterr().out.split("wall")[0]
        assert main(["run", TestRun.MDX, "--database", store,
                     "--profile", str(path)]) == 0
        assert capsys.readouterr().out.split("wall")[0] != default_sim

    def test_calibrate_report_without_fit_exits_2(self, capsys):
        assert main(["calibrate", "--report", *SCALE]) == 2
        assert "--report requires --fit" in capsys.readouterr().err

    def test_bench_record_stamps_profile(self, tmp_path, capsys):
        from repro.bench.history import RunRecord

        path = self.make_profile_file(tmp_path)
        out = tmp_path / "BENCH_prof.json"
        assert main([
            "bench", *SCALE, "--record", "--label", "prof",
            "--output", str(out), "--profile", str(path),
            "--tests", "test4", "--no-figures",
        ]) == 0
        record = RunRecord.load(out)
        assert record.profile is not None
        assert record.profile["label"] == "clitest"
        assert record.fingerprint["profile"] == record.profile
