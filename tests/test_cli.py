"""CLI tests (driven in-process through repro.cli.main)."""

import json
from pathlib import Path

import pytest

from repro.cli import _COMMANDS, _SERVE_FLAGS, _build_parser, main
from repro.core.optimizer import OPTIMIZERS
from repro.serve import ServeConfig, SimulationConfig, simulation_service

SCALE = ["--scale", "0.002"]
ROOT = Path(__file__).resolve().parent.parent


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
        assert "group(s)" not in out  # planned, not executed

    def test_explain_and_analyze_are_exclusive(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", self.MDX, "--explain", "--analyze", *SCALE])
        assert excinfo.value.code == 2
        assert "not allowed with" in capsys.readouterr().err

    def test_run_algorithm_choice(self, capsys):
        assert main(["run", self.MDX, "--algorithm", "tplo", *SCALE]) == 0
        assert "tplo" in capsys.readouterr().out

    def test_run_from_file(self, tmp_path, capsys):
        path = tmp_path / "query.mdx"
        path.write_text(self.MDX)
        assert main(["run", "--file", str(path), *SCALE]) == 0
        assert "component" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["run", "explain"])
    def test_missing_mdx_file_exits_2(self, command, tmp_path, capsys):
        missing = tmp_path / "missing.mdx"
        flags = ["--explain"] if command == "explain" else []
        assert main(["run", *flags, "--file", str(missing), *SCALE]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "missing.mdx" in err

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
    """``run --explain`` is the plan renderer; ``run --analyze`` executes
    and annotates the plan with actuals before the results."""

    def test_explain_prints_the_plan_without_executing(self, capsys):
        assert main(["run", TestRun.MDX, "--explain", *SCALE]) == 0
        out = capsys.readouterr().out
        queries, plan = out.split("\n\n", 1)
        assert queries.startswith("1 component group-by query(ies):")
        assert plan.startswith("GlobalPlan[gg]")
        assert "actual" not in out and "sim" not in queries

    def test_explain_analyze_dag(self, capsys):
        dag = ["run", TestRun.MDX, "--algorithm", "dag", *SCALE]
        assert main([*dag, "--explain"]) == 0
        out = capsys.readouterr().out
        assert out.count("GlobalPlan[dag]") == 1
        assert out.count("PlanDAG[dag]") == 1
        assert main([*dag, "--analyze"]) == 0
        out = capsys.readouterr().out
        assert "q-error" in out and "est standalone" in out
        assert out.index("est standalone") < out.index("group(s)")

    def test_explain_without_mdx_fails(self, capsys):
        assert main(["run", "--explain", *SCALE]) == 2
        assert "error" in capsys.readouterr().err


class TestCompare:
    """Table 2 is ``report``'s: every registered optimizer, one row each."""

    def test_compare_single_test(self, capsys):
        assert main(
            ["report", "--tests", "test6", "--no-figures", *SCALE]
        ) == 0
        out = capsys.readouterr().out
        assert "test6" in out and "test4" not in out
        assert "Figure" not in out
        for algorithm in OPTIMIZERS:
            assert f"| {algorithm} |" in out

    def test_compare_unknown_test(self, capsys):
        assert main(["report", "--tests", "nope", *SCALE]) == 2
        assert "unknown tests" in capsys.readouterr().err

    def test_missing_profile_exits_2(self, tmp_path, capsys):
        """``report`` builds its database through the common flags, so a
        ``--profile`` that does not load is a usage error."""
        missing = tmp_path / "nope.json"
        assert main(["report", "--profile", str(missing), *SCALE]) == 2
        assert "nope.json" in capsys.readouterr().err

    def test_profile_applies(self, capsys):
        """Under the committed profile, Table 2 prints the calibrated
        record's simulated cost."""
        record = json.loads((ROOT / "BENCH_calibrated.json").read_text())
        (gg,) = [r for r in record["tests"]["test4"] if r["algorithm"] == "gg"]
        assert main([
            "report", "--tests", "test4", "--no-figures",
            "--scale", str(record["fingerprint"]["scale"]),
            "--profile", str(ROOT / "PROFILE_paper.json"),
        ]) == 0
        out = capsys.readouterr().out
        row = next(line for line in out.splitlines()
                   if line.startswith("| gg |"))
        assert row.split(" | ")[2] == f"{gg['sim_ms']:.1f}"


class TestSevenTests:
    """The CLI accepts exactly the tests the sweep underneath accepts:
    Tests 1–7 for calibrate / bench / metrics (Table 2's four for report)."""

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
        assert main(["report", "--tests", "test4", *SCALE]) == 0
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

    @pytest.mark.parametrize("damage", ["missing", "truncated", "flipped"])
    def test_bad_saved_database_exits_2(self, damage, tmp_path, capsys):
        from helpers import make_tiny_db

        from repro.engine.persist import save_database

        store = tmp_path / "store"
        if damage != "missing":
            save_database(make_tiny_db(n_rows=50), store)
            schema = store / "schema.json"
            text = schema.read_text()
            schema.write_text(
                text[: len(text) // 2]
                if damage == "truncated"
                else text.replace('"page_size": 64', '"page_size": "64"')
            )
        assert main(["run", TestRun.MDX, "--database", str(store)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "schema.json" in err


class TestParser:
    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


SUBCOMMANDS = list(_COMMANDS)


class TestHelp:
    """Every subcommand must answer ``--help`` with usage text, exit 0."""

    def test_top_level_help(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        listed = out.split("{", 1)[1].split("}", 1)[0].split(",")
        assert sorted(listed) == sorted(SUBCOMMANDS)

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_subcommand_help(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "usage:" in out
        assert command in out

    @pytest.mark.parametrize("name", ["repro", *_COMMANDS])
    def test_help_text_matches_golden(self, name, capsys, monkeypatch):
        """Each ``--help`` text byte for byte (``tests/golden/help/``), at a
        pinned terminal width of 80 columns."""
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"] if name == "repro" else [name, "--help"])
        assert excinfo.value.code == 0
        golden = Path(__file__).parent / "golden" / "help" / f"{name}.txt"
        assert capsys.readouterr().out == golden.read_text()


class TestServeFlags:
    def test_defaults_are_the_config_fields(self):
        """A serve flag that sets a config field defaults to that field's
        default — the simulation's own service's for the window — and
        ``cli.py`` states none of them beside the flag."""
        args = _build_parser().parse_args(["serve"])
        mapped = [entry for entry in _SERVE_FLAGS if entry[1] is not None]
        assert len(mapped) == 10
        own_service = simulation_service(1)
        for flag, name, options, _help in mapped:
            assert "default" not in options, flag
            owner = (
                SimulationConfig
                if name in SimulationConfig.__dataclass_fields__
                else ServeConfig
            )
            expected = owner.__dataclass_fields__[name].default
            if name == "window_ms":
                expected = own_service.window_ms
            assert getattr(args, name) == expected, flag
        assert own_service.window_ms == 25.0
        assert simulation_service(96).max_batch_requests == 96


class TestServe:
    def test_simulate_small_run(self, capsys):
        assert main(
            [
                "serve",
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

    def test_serve_rejects_nonpositive_clients(self, capsys):
        assert main(["serve", "--clients", "0", *SCALE]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, named",
        [
            ("--retries", "0", "max_attempts"),
            ("--recorder-size", "-1", "flight_recorder"),
            ("--overlap", "1.5", "overlap"),
        ],
    )
    def test_serve_config_errors_exit_2(self, flag, value, named, capsys):
        """Range checks are ``ServeConfig``'s own, reported as usage errors."""
        assert main(["serve", flag, value, *SCALE]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad serve configuration")
        assert named in err


class TestBenchUsageErrors:
    """Exit-2 paths of `repro bench` — all fail before a database build."""

    def test_missing_baseline_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "--check", "BENCH_nope.json"]) == 2
        assert "no benchmark record" in capsys.readouterr().err

    def test_corrupt_baseline_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "BENCH_bad.json").write_text("{broken json")
        assert main(["bench", "--check", "BENCH_bad.json"]) == 2
        assert "unreadable benchmark record" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rows, calibration, path",
        [
            ([{"algorithm": "gg", "sim_ms": "100.0"}], {},
             "tests.test4[0].sim_ms"),
            ([], {"misrankings": "0"}, "calibration.misrankings"),
        ],
        ids=["sim_ms", "misrankings"],
    )
    def test_drifted_baseline_exits_2(
        self, rows, calibration, path, tmp_path, capsys
    ):
        """A wrong-typed number the check reads is refused at load, naming
        the file and the field — not a traceback inside the check."""
        from repro.bench.history import RunRecord

        record = RunRecord(
            "t", "", {"scale": 0.002}, tests={"test4": rows},
            calibration=calibration,
        ).save(tmp_path / "BENCH_drift.json")
        assert main(["bench", "--check", str(record)]) == 2
        err = capsys.readouterr().err
        assert "BENCH_drift.json" in err and path in err

    def test_no_action_exits_2(self, capsys):
        assert main(["bench"]) == 2
        assert "--record" in capsys.readouterr().err


class TestBadInput:
    """Input from outside is a usage error (``error: ...``, exit 2), never a
    traceback or a silent degenerate run."""

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["info", "--scale", "0"], "--scale"),
            (["info", "--scale", "-1"], "--scale"),
            (["info", "--scale", "nan"], "--scale"),
            (["info", "--scale", "inf"], "--scale"),
            (["select-views", "--budget", "-1", *SCALE], "--budget"),
            (["run", TestRun.MDX, "--limit", "-1", *SCALE], "--limit"),
            (["bench", "--record", "--label", "../../x", *SCALE], "--label"),
            (["run", "{A''.A1.CHILDREN} on", *SCALE], "bad MDX"),
            (["run", "{A''.A9.CHILDREN} on COLUMNS CONTEXT ABCD", *SCALE],
             "bad MDX"),
        ],
        ids=["scale-0", "scale-neg", "scale-nan", "scale-inf", "budget-neg",
             "limit-neg", "label-path", "mdx-syntax", "mdx-member"],
    )
    def test_exits_2_with_an_error_line(self, argv, named, capsys):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the value itself
            code = exc.code
        assert code == 2
        err = capsys.readouterr().err
        [line] = [line for line in err.splitlines() if "error: " in line]
        assert named in line and "Traceback" not in err


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
