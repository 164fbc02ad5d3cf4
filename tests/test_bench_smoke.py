"""The benchmark record -> persist -> check cycle at a tiny scale, including
the CLI's exit codes, and the exact reproduction of every committed record.
Part of tier-1.
"""

import json
from pathlib import Path

import pytest

from repro.bench.history import (
    RunRecord,
    check_record,
    describe_differences,
    diff_records,
    record_run,
)
from repro.calibrate.profile import CalibrationProfile
from repro.cli import main

SCALE = 0.002
REPO = Path(__file__).resolve().parent.parent

#: Every committed record and the profile it was recorded under.
COMMITTED = [
    ("BENCH_paper.json", None),
    ("BENCH_calibrated.json", "PROFILE_paper.json"),
]


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """One tiny recorded run, shared by every test in the lane."""
    path = tmp_path_factory.mktemp("bench") / "BENCH_smoke.json"
    record = record_run(
        label="smoke", scale=SCALE, tests=("test4",), figures=False
    )
    record.save(path)
    return record, path


class TestRecordRun:
    def test_record_structure(self, recorded):
        record, path = recorded
        assert record.fingerprint["scale"] == SCALE
        assert set(record.tests) == {"test4"}
        # The Table-2 sweep derives its algorithm list from the optimizer
        # registry (everything with in_calibration=True).
        algorithms = {row["algorithm"] for row in record.tests["test4"]}
        assert algorithms == {"tplo", "etplg", "gg", "bgg", "optimal", "dag"}
        assert record.calibration["misrankings"] == 0
        assert record.calibration["q_error_p95"] >= 1.0

    def test_persisted_json_round_trips(self, recorded):
        record, path = recorded
        assert json.loads(path.read_text())["label"] == "smoke"
        assert RunRecord.load(path).to_dict() == record.to_dict()

    def test_self_compare_passes(self, recorded):
        record, path = recorded
        assert diff_records(record, RunRecord.load(path)) == []
        assert check_record(RunRecord.load(path)) == []

    def test_doctored_baseline_fails(self, recorded):
        record, path = recorded
        doc = json.loads(path.read_text())
        for rows in doc["tests"].values():
            for row in rows:
                row["sim_ms"] = round(row["sim_ms"] / 1.3, 3)
        differences = diff_records(RunRecord.from_dict(doc), record)
        assert [d.path for d in differences] == [
            f"tests/test4/{i}/sim_ms" for i in range(len(record.tests["test4"]))
        ]
        assert differences[0].fresh == record.tests["test4"][0]["sim_ms"]


class TestCliGate:
    """``repro bench --check``: 0 when a record reproduces, 1 when a value
    differs, 2 when the record or its profile cannot be used."""

    @pytest.fixture
    def smoke(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main([
            "bench", "--record", "--label", "smoke", "--scale", str(SCALE),
            "--tests", "test4", "--no-figures",
        ]) == 0
        return tmp_path / "BENCH_smoke.json"

    def doctor(self, path, edit):
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        return str(path)

    def test_record_then_compare_exit_codes(self, smoke, capsys):
        capsys.readouterr()
        assert main(["bench", "--check", str(smoke)]) == 0
        assert "reproduces exactly" in capsys.readouterr().out

        def cheaper(doc):
            doc["tests"]["test4"][0]["sim_ms"] -= 1.0

        assert main(["bench", "--check", self.doctor(smoke, cheaper)]) == 1
        out = capsys.readouterr().out
        assert "tests/test4/0/sim_ms" in out
        assert "(1 value(s) differ)" in out

    def test_compare_without_baseline_errors(self, tmp_path, capsys):
        assert main(["bench", "--check", str(tmp_path / "BENCH_nope.json")]) == 2
        assert "no benchmark record" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, named",
        [
            (lambda doc: doc["fingerprint"].update(scale="0.002"),
             "fingerprint.scale"),
            (lambda doc: doc["fingerprint"].update(profile="paper"),
             "fingerprint.profile"),
            (lambda doc: doc["tests"]["test4"][0].update(n_classes="3"),
             "tests.test4[0].n_classes"),
            (lambda doc: doc["tests"].update(test9=[]), "tests.test9"),
        ],
        ids=["scale", "profile", "row", "unknown-test"],
    )
    def test_type_drifted_record_exits_2(self, smoke, edit, named, capsys):
        assert main(["bench", "--check", self.doctor(smoke, edit)]) == 2
        err = capsys.readouterr().err
        assert "BENCH_smoke.json" in err and named in err

    def test_corrupt_record_exits_2(self, smoke, capsys):
        smoke.write_text("{broken")
        assert main(["bench", "--check", str(smoke)]) == 2
        assert "unreadable benchmark record" in capsys.readouterr().err

    def test_mismatched_fingerprint_is_usage_error(self, smoke, tmp_path,
                                                   capsys):
        """A record checked under another profile than its own exits 2
        (bad input), never 1: its costs are incomparable, not different."""
        profile = CalibrationProfile.load(REPO / "PROFILE_paper.json")
        name = f"{profile.label}@{profile.digest()}"
        assert main([
            "bench", "--check", str(smoke),
            "--profile", str(REPO / "PROFILE_paper.json"),
        ]) == 2
        assert "default rates" in capsys.readouterr().err

        def profiled(doc):
            doc["fingerprint"]["profile"] = profile.identity()

        stamped = self.doctor(smoke, profiled)
        assert main(["bench", "--check", stamped]) == 2
        err = capsys.readouterr().err
        assert name in err and "--profile FILE" in err
        other = profile.to_dict()
        other["label"] = "other"
        (tmp_path / "PROFILE_other.json").write_text(json.dumps(other))
        assert main([
            "bench", "--check", stamped,
            "--profile", str(tmp_path / "PROFILE_other.json"),
        ]) == 2
        err = capsys.readouterr().err
        assert name in err and "--profile FILE" in err

    def test_check_takes_no_run_arguments(self, smoke, capsys):
        assert main(["bench", "--check", str(smoke), "--tests", "test4"]) == 2
        assert "its own scale, tests and figures" in capsys.readouterr().err


@pytest.mark.parametrize("record, profile", COMMITTED)
def test_committed_records_reproduce_exactly(record, profile):
    """Simulated costs are deterministic, so today's tree must reproduce
    every committed record bit for bit: every value but ``label`` and
    ``created_at``, re-run from the record's own scale, tests and
    figures."""
    differences = check_record(
        RunRecord.load(REPO / record),
        CalibrationProfile.load(REPO / profile) if profile else None,
    )
    assert not differences, (
        f"{record} no longer reproduces — {describe_differences(differences)}; "
        f"re-record every committed record and refit the profile in the "
        f"same PR if this change is intended"
    )


def test_every_committed_record_is_checked():
    assert {path.name for path in REPO.glob("BENCH_*.json")} == {
        record for record, _profile in COMMITTED
    }
