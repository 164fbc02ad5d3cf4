"""Benchmark history: run-record persistence, load-time typing and the
exact comparison, exercised on synthetic records (no database build — fast,
tier-1)."""

import json
import re

import pytest

from repro.bench.history import (
    ABSENT,
    RunRecord,
    default_record_path,
    describe_differences,
    diff_records,
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
    """:func:`diff_records`, the exact comparison ``repro bench --check``
    makes: any change to any checked value is a difference."""

    def test_identical_records_pass(self):
        assert diff_records(make_record(), make_record()) == []

    def test_sim_cost_regression_fails(self):
        (diff,) = diff_records(make_record(), make_record(sim=130.0))
        assert diff == ("tests/test4/0/sim_ms", 100.0, 130.0)
        assert describe_differences([diff]) == (
            "tests/test4/0/sim_ms: committed 100.0, now 130.0 "
            "(1 value(s) differ)"
        )

    def test_misranking_increase_gates_absolutely(self):
        (diff,) = diff_records(make_record(), make_record(misrankings=1))
        assert diff.path == "calibration/misrankings"

    def test_class_count_increase_gates(self):
        (diff,) = diff_records(make_record(), make_record(n_classes=3))
        assert diff.path == "tests/test4/0/n_classes"

    def test_shared_ms_figure_regression_fails(self):
        (diff,) = diff_records(make_record(), make_record(shared=60.0))
        assert diff.path == "figures/fig10/0/shared_ms"

    def test_q_error_regression_fails(self):
        (diff,) = diff_records(make_record(q95=1.1), make_record(q95=1.5))
        assert diff.path == "calibration/q_error_p95"

    def test_a_value_only_one_side_has_differs(self):
        fewer = make_record()
        fewer.tests = {}
        assert diff_records(make_record(), fewer)[0] == (
            "tests/test4/0/algorithm", "gg", ABSENT
        )
        assert ("tests", {}, ABSENT) in diff_records(fewer, make_record())

    def test_label_and_created_at_are_not_checked(self):
        other = make_record()
        other.label, other.created_at = "u", "2026-10-17T00:00:00"
        assert diff_records(make_record(), other) == []


class TestKernelsAndWallFields:
    """Retired: nothing reads or writes ``kernels`` (which of two
    since-merged execution paths ran) or ``wall`` (coarse wall-clock
    totals)."""

    def test_pre_kernels_records_still_load(self):
        """Every record written today lacks them."""
        doc = make_record().to_dict()
        assert "kernels" not in doc and "wall" not in doc
        assert RunRecord.from_dict(doc).to_dict() == doc

    def test_kernels_flag_never_gates(self):
        """A record that still carries them, whatever their values, loads
        without them."""
        doc = make_record().to_dict()
        doc.update(kernels="yes", wall={"total_s": "3.5"})
        assert RunRecord.from_dict(doc).to_dict() == make_record().to_dict()


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
        ],
    )
    def test_wrong_container_type_names_field(self, field_name, bad_value):
        with pytest.raises(ValueError, match=field_name):
            RunRecord.from_dict(self.drift(**{field_name: bad_value}))

    def test_non_numeric_row_value_names_path(self):
        doc = self.drift()
        doc["figures"]["fig10"][0]["shared_ms"] = "50.0"
        with pytest.raises(ValueError, match=r"figures\.fig10\[0\]\.shared_ms"):
            RunRecord.from_dict(doc)

    def test_boolean_row_value_rejected(self):
        """A bool is not a number, though Python says it is an int."""
        doc = self.drift()
        doc["tests"]["test4"][0]["n_classes"] = True
        with pytest.raises(ValueError, match=r"tests\.test4\[0\]\.n_classes"):
            RunRecord.from_dict(doc)

    def test_rows_must_be_list_of_objects(self):
        with pytest.raises(ValueError, match="tests"):
            RunRecord.from_dict(self.drift(tests={"test4": [1, 2, 3]}))
        with pytest.raises(ValueError, match="figures"):
            RunRecord.from_dict(self.drift(figures={"fig10": "rows"}))

    @pytest.mark.parametrize("scale", ["0.01", None, True, [0.01]])
    def test_fingerprint_scale_must_be_a_number(self, scale):
        """``repro bench --check`` builds its database at this scale."""
        doc = self.drift()
        doc["fingerprint"]["scale"] = scale
        with pytest.raises(ValueError, match=r"fingerprint\.scale"):
            RunRecord.from_dict(doc)
        del doc["fingerprint"]["scale"]
        with pytest.raises(ValueError, match=r"fingerprint\.scale"):
            RunRecord.from_dict(doc)

    @pytest.mark.parametrize(
        "identity, named",
        [
            ("paper", "fingerprint.profile"),
            (None, "fingerprint.profile"),
            ({"label": "paper"}, "fingerprint.profile.digest"),
            ({"label": 1, "digest": "ab"}, "fingerprint.profile.label"),
        ],
    )
    def test_fingerprint_profile_is_an_identity_or_absent(self, identity, named):
        doc = self.drift()
        doc["fingerprint"]["profile"] = identity
        with pytest.raises(ValueError, match=re.escape(named)):
            RunRecord.from_dict(doc)
        doc["fingerprint"]["profile"] = {"label": "paper", "digest": "ab"}
        assert RunRecord.from_dict(doc).fingerprint == doc["fingerprint"]

    def test_unknown_test_rejected(self):
        with pytest.raises(ValueError, match=r"tests\.test9"):
            RunRecord.from_dict(self.drift(tests={"test9": []}))

    def test_non_integer_version_rejected(self):
        with pytest.raises(ValueError, match="version"):
            RunRecord.from_dict(self.drift(version="1"))

    def test_non_object_record_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            RunRecord.from_dict(["not", "an", "object"])

    def test_valid_record_still_round_trips(self):
        record = make_record()
        assert RunRecord.from_dict(record.to_dict()).label == record.label
