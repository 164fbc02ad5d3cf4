"""The full benchmark record -> persist -> compare cycle at a tiny scale,
including the CLI's exit codes, and the exact reproduction of the committed
records.  Part of tier-1.
"""

import json
from pathlib import Path

import pytest

from repro.bench.history import RunRecord, compare_records, record_run
from repro.calibrate.profile import CalibrationProfile
from repro.cli import main

SCALE = 0.002
REPO = Path(__file__).resolve().parent.parent


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



def flatten(doc, path=""):
    """``{path: leaf}`` of a JSON-shaped document."""
    if not isinstance(doc, (dict, list)):
        return {path: doc}
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    return {
        leaf: value
        for key, child in items
        for leaf, value in flatten(child, f"{path}/{key}").items()
    }


@pytest.mark.parametrize(
    "baseline, profile",
    [("BENCH_kernels.json", None), ("BENCH_calibrated.json", "PROFILE_paper.json")],
)
def test_committed_records_reproduce_exactly(baseline, profile):
    """Simulated costs are deterministic, so today's tree must reproduce the
    committed records bit for bit — not within `compare_records`' 10 % bands.
    Every simulated field is compared; ``label``, ``created_at`` and the
    retired wall-clock fields the committed records still carry are not."""
    committed = RunRecord.load(REPO / baseline)
    fresh = record_run(
        scale=committed.fingerprint["scale"],
        profile=CalibrationProfile.load(REPO / profile) if profile else None,
    )
    old, new = (
        {
            path: value
            for path, value in flatten(record.to_dict()).items()
            if path.split("/")[1] in ("fingerprint", "figures", "tests", "calibration")
            and not path.endswith("_wall_s")
        }
        for record in (committed, fresh)
    )
    differing = sorted(p for p in old.keys() | new.keys() if old.get(p) != new.get(p))
    assert not differing, (
        f"{baseline} no longer reproduces — {differing[0]}: committed "
        f"{old.get(differing[0])!r}, now {new.get(differing[0])!r} "
        f"({len(differing)} value(s) differ); re-record both baselines and "
        f"refit the profile in the same PR if this change is intended"
    )
