"""The full benchmark record -> persist -> compare cycle at a tiny scale,
including the CLI's exit codes.  Part of tier-1.
"""

import json

import pytest

from repro.bench.history import RunRecord, compare_records, record_run
from repro.cli import main

SCALE = 0.002


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
        report = compare_records(record, RunRecord.load(path))
        assert report.passed
        assert report.n_compared > 0

    def test_doctored_baseline_fails(self, recorded):
        record, path = recorded
        doc = json.loads(path.read_text())
        for rows in doc["tests"].values():
            for row in rows:
                row["sim_ms"] = round(row["sim_ms"] / 1.3, 3)
        doctored = RunRecord.from_dict(doc)
        report = compare_records(record, doctored)
        assert not report.passed
        assert any(r.metric == "sim_ms" for r in report.regressions)


class TestCliGate:
    def test_record_then_compare_exit_codes(self, tmp_path, monkeypatch,
                                            capsys):
        monkeypatch.chdir(tmp_path)
        base = [
            "bench", "--label", "smoke", "--scale", str(SCALE),
            "--tests", "test4", "--no-figures",
        ]
        assert main(base + ["--record"]) == 0
        record_path = tmp_path / "BENCH_smoke.json"
        assert record_path.exists()
        # Same config, deterministic sim clock: self-compare passes.
        assert main(base + ["--compare"]) == 0
        assert "PASS" in capsys.readouterr().out
        # Inject a >=20% sim-cost regression by making the baseline cheaper.
        doc = json.loads(record_path.read_text())
        for rows in doc["tests"].values():
            for row in rows:
                row["sim_ms"] = round(row["sim_ms"] / 1.3, 3)
        doctored = tmp_path / "BENCH_doctored.json"
        doctored.write_text(json.dumps(doc))
        assert main(base + ["--compare", "--baseline", str(doctored)]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_compare_without_baseline_errors(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "--compare", "--label", "nope",
                     "--scale", str(SCALE), "--no-figures"]) == 2

    def test_mismatched_fingerprint_is_usage_error(self, tmp_path,
                                                   monkeypatch, capsys):
        """A baseline from a different scale exits 2 (bad input), not 1
        (regression) — the costs are incomparable, not worse."""
        monkeypatch.chdir(tmp_path)
        base = ["bench", "--label", "smoke", "--tests", "test4",
                "--no-figures"]
        assert main(base + ["--record", "--scale", str(SCALE)]) == 0
        assert main(base + ["--compare", "--scale", str(SCALE * 2)]) == 2
        assert "incomparable" in capsys.readouterr().err

