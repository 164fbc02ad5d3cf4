"""Benchmark history: run-record persistence and the regression gate,
exercised on synthetic records (no database build — fast, tier-1)."""

import json

import pytest

from repro.bench.history import (
    DEFAULT_THRESHOLDS,
    RunRecord,
    compare_records,
    default_record_path,
)

FINGERPRINT = {"schema": "tiny", "scale": 0.01, "page_size": 64}


def make_record(sim=100.0, est=100.0, n_classes=2, shared=50.0,
                misrankings=0, q95=1.1, qmax=1.3):
    return RunRecord(
        label="t",
        created_at="2026-08-06T00:00:00",
        fingerprint=dict(FINGERPRINT),
        tests={
            "test4": [
                {
                    "algorithm": "gg",
                    "est_ms": est,
                    "sim_ms": sim,
                    "n_classes": n_classes,
                    "plan": "XY(H+H)",
                }
            ]
        },
        figures={
            "fig10": [
                {"n_queries": 2, "separate_ms": 80.0, "shared_ms": shared}
            ]
        },
        calibration={
            "n_classes": 4,
            "misrankings": misrankings,
            "q_error_p95": q95,
            "q_error_max": qmax,
        },
    )


class TestRoundTrip:
    def test_save_load(self, tmp_path):
        record = make_record()
        path = record.save(tmp_path / "BENCH_t.json")
        loaded = RunRecord.load(path)
        assert loaded.to_dict() == record.to_dict()

    def test_newer_version_rejected(self, tmp_path):
        doc = make_record().to_dict()
        doc["version"] = 999
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="newer than supported"):
            RunRecord.load(path)

    def test_default_path_embeds_label(self, tmp_path):
        path = default_record_path("nightly", tmp_path)
        assert path == tmp_path / "BENCH_nightly.json"


class TestCompareRecords:
    def test_identical_records_pass(self):
        report = compare_records(make_record(), make_record())
        assert report.passed
        assert report.regressions == []
        assert report.n_compared > 0

    def test_small_drift_within_threshold_passes(self):
        report = compare_records(make_record(sim=105.0), make_record())
        assert report.passed

    def test_sim_cost_regression_fails(self):
        # 30% worse than baseline, well past the 10% sim_ms threshold —
        # the acceptance bar for the CLI gate.
        report = compare_records(make_record(sim=130.0), make_record())
        assert not report.passed
        (reg,) = report.regressions
        assert reg.metric == "sim_ms"
        assert reg.context == "test4/gg"
        assert reg.change == pytest.approx(0.30)
        assert "REGRESSION" in report.render()
        assert report.render().endswith("FAIL")

    def test_improvement_is_not_a_regression(self):
        report = compare_records(make_record(sim=70.0), make_record())
        assert report.passed
        assert len(report.improvements) == 1

    def test_misranking_increase_gates_absolutely(self):
        report = compare_records(
            make_record(misrankings=1), make_record(misrankings=0)
        )
        assert not report.passed
        (reg,) = report.regressions
        assert reg.metric == "misrankings"
        assert "any increase gates" in reg.describe()

    def test_class_count_increase_gates(self):
        report = compare_records(
            make_record(n_classes=3), make_record(n_classes=2)
        )
        assert not report.passed

    def test_shared_ms_figure_regression_fails(self):
        report = compare_records(make_record(shared=60.0), make_record())
        assert not report.passed
        assert report.regressions[0].context == "fig10/k=2"

    def test_q_error_regression_fails(self):
        report = compare_records(make_record(q95=1.5), make_record(q95=1.1))
        assert not report.passed
        assert report.regressions[0].metric == "q_error_p95"

    def test_fingerprint_mismatch_is_incomparable(self):
        other = make_record()
        other.fingerprint["scale"] = 0.02
        report = compare_records(make_record(), other)
        assert not report.passed
        assert "scale" in report.fingerprint_mismatch
        assert report.n_compared == 0
        assert "INCOMPARABLE" in report.render()

    def test_missing_baseline_rows_are_skipped(self):
        baseline = make_record()
        baseline.tests = {}
        baseline.figures = {}
        report = compare_records(make_record(sim=500.0), baseline)
        # No shared test/figure metrics: only the calibration block gates.
        assert all(r.metric not in ("sim_ms", "est_ms")
                   for r in report.regressions)
        assert report.passed

    def test_custom_thresholds_override(self):
        report = compare_records(
            make_record(sim=115.0), make_record(),
            thresholds={"sim_ms": 0.20},
        )
        assert report.passed
        report = compare_records(
            make_record(sim=115.0), make_record(),
            thresholds={"sim_ms": 0.05},
        )
        assert not report.passed

    def test_default_thresholds_untouched_by_override(self):
        before = dict(DEFAULT_THRESHOLDS)
        compare_records(
            make_record(), make_record(), thresholds={"sim_ms": 0.99}
        )
        assert DEFAULT_THRESHOLDS == before


class TestKernelsAndWallFields:
    def test_round_trip(self, tmp_path):
        record = make_record()
        record.kernels = False
        record.wall = {"calibration_s": 1.25, "total_s": 2.5}
        path = tmp_path / "BENCH_k.json"
        record.save(path)
        loaded = RunRecord.load(path)
        assert loaded.kernels is False
        assert loaded.wall == {"calibration_s": 1.25, "total_s": 2.5}

    def test_pre_kernels_records_still_load(self):
        """Records without the retired kernels/wall fields — the ones
        written before they existed, and every one written today."""
        doc = make_record().to_dict()
        assert "kernels" not in doc and "wall" not in doc
        loaded = RunRecord.from_dict(doc)
        assert loaded.kernels is None
        assert loaded.wall == {}

    def test_kernels_flag_never_gates(self):
        """The historical field is not part of a run's identity: old
        per-tuple records keep gating against today's."""
        from repro.bench.history import database_fingerprint

        from helpers import make_tiny_db

        assert "kernels" not in database_fingerprint(make_tiny_db(n_rows=20))


class TestLeaderboard:
    def make_pair(self, tmp_path):
        from repro.bench.leaderboard import load_records

        old = make_record()  # carries the retired fields
        old.kernels = False
        old.wall = {"total_s": 1.0}
        old.figures["fig10"][0]["speedup"] = 1.6
        old.save(tmp_path / "BENCH_seed.json")
        new = make_record()
        new.figures["fig10"][0]["speedup"] = 1.6
        new.save(tmp_path / "BENCH_kernels.json")
        return load_records(tmp_path)

    def test_load_records_globs_and_sorts(self, tmp_path):
        records = self.make_pair(tmp_path)
        assert [path.name for path, _r in records] == [
            "BENCH_kernels.json", "BENCH_seed.json",
        ]

    def test_render_orders_by_wall(self, tmp_path):
        """By record name, that is: the wall-clock column (and the sort on
        it) is gone, whatever a loaded record still carries."""
        from repro.bench.leaderboard import render_leaderboard

        table = render_leaderboard(self.make_pair(tmp_path)[::-1])
        lines = table.splitlines()
        assert lines[0].startswith("| record | profile | recorded | gg sim-ms")
        assert "wall" not in lines[0] and "path" not in lines[0]
        assert lines[2].startswith("| BENCH_kernels.json | - |")
        assert lines[3].startswith("| BENCH_seed.json | - |")

    def test_render_summarizes_metrics(self, tmp_path):
        from repro.bench.leaderboard import render_leaderboard

        table = render_leaderboard(self.make_pair(tmp_path))
        row = table.splitlines()[2]
        # gg sim total from the single test4 row; speedup 80/50.
        assert "| 100.0 |" in row
        assert "| 1.60x |" in row

    def test_render_empty_raises(self):
        from repro.bench.leaderboard import render_leaderboard

        with pytest.raises(ValueError):
            render_leaderboard([])

    def test_load_records_rejects_corrupt_file(self, tmp_path):
        from repro.bench.leaderboard import load_records

        (tmp_path / "BENCH_bad.json").write_text("{broken")
        with pytest.raises(ValueError):
            load_records(tmp_path)

    def test_load_records_names_the_corrupt_file(self, tmp_path):
        """Regression: a corrupt record used to traceback deep inside the
        renderer; it must fail fast naming the offending file."""
        from repro.bench.leaderboard import load_records

        good = make_record()
        good.save(tmp_path / "BENCH_good.json")
        (tmp_path / "BENCH_rotten.json").write_text("{broken json")
        with pytest.raises(ValueError, match="BENCH_rotten.json"):
            load_records(tmp_path)

    def test_load_records_names_the_drifted_file(self, tmp_path):
        from repro.bench.leaderboard import load_records

        doc = make_record().to_dict()
        doc["wall"] = ["not", "a", "dict"]
        (tmp_path / "BENCH_drift.json").write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="BENCH_drift.json") as info:
            load_records(tmp_path)
        assert "wall" in str(info.value)


class TestRecordTypeValidation:
    """Schema-drifted records must raise ValueError naming the bad field,
    never a TypeError/AttributeError later in the pipeline."""

    def drift(self, **overrides):
        doc = make_record().to_dict()
        doc.update(overrides)
        return doc

    @pytest.mark.parametrize(
        "field_name, bad_value",
        [
            ("label", 42),
            ("created_at", ["2026"]),
            ("fingerprint", "not-a-dict"),
            ("figures", "not-a-dict"),
            ("tests", "not-a-dict"),
            ("calibration", [1, 2]),
            ("wall", ["not", "a", "dict"]),
        ],
    )
    def test_wrong_container_type_names_field(self, field_name, bad_value):
        with pytest.raises(ValueError, match=field_name):
            RunRecord.from_dict(self.drift(**{field_name: bad_value}))

    def test_non_numeric_wall_value_names_key(self):
        with pytest.raises(ValueError, match="wall.total_s"):
            RunRecord.from_dict(self.drift(wall={"total_s": "3.5"}))

    def test_boolean_wall_value_rejected(self):
        with pytest.raises(ValueError, match="wall.total_s"):
            RunRecord.from_dict(self.drift(wall={"total_s": True}))

    def test_non_bool_kernels_rejected(self):
        with pytest.raises(ValueError, match="kernels"):
            RunRecord.from_dict(self.drift(kernels="yes"))

    def test_rows_must_be_list_of_objects(self):
        with pytest.raises(ValueError, match="tests"):
            RunRecord.from_dict(self.drift(tests={"test4": [1, 2, 3]}))
        with pytest.raises(ValueError, match="figures"):
            RunRecord.from_dict(self.drift(figures={"fig10": "rows"}))

    def test_non_integer_version_rejected(self):
        with pytest.raises(ValueError, match="version"):
            RunRecord.from_dict(self.drift(version="1"))

    def test_non_object_record_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            RunRecord.from_dict(["not", "an", "object"])

    def test_valid_record_still_round_trips(self):
        record = make_record()
        assert RunRecord.from_dict(record.to_dict()).label == record.label
