"""The byte contract (``tests/contract.py``): the sweep, regenerated once in
a fresh interpreter under the hash seed this process inherited, matches the
committed per-key digest ``tests/golden/contract.txt``, covers what it says,
and a planted change fails the check naming its key."""

import copy
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import contract

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


@pytest.fixture(scope="module")
def dump(tmp_path_factory):
    """The sweep's dump, from a fresh interpreter (its explain text prints
    per-process qids)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(TESTS)]))
    done = subprocess.run(
        [sys.executable, "-c",
         "import json, sys, contract; sys.stdout.write(json.dumps(contract.sweep()))"],
        env=env, cwd=tmp_path_factory.mktemp("contract"),
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.fixture(scope="module")
def committed():
    return contract.GOLDEN.read_text()


def test_the_sweep_matches_the_committed_digest(dump, committed):
    message = contract.check(committed, dump)
    assert not message, message
    head, hashes = contract.parse(committed)
    assert list(head) == ["python", "numpy", "scale", "morsel_rows"]
    assert list(hashes) == list(dump)
    assert len(committed.splitlines()) == len(head) + len(dump)


def nudged(dump: dict, key: str) -> dict:
    """``dump`` with its first class's ``sim_ms`` under ``key`` one ulp up."""
    changed = {**dump, key: copy.deepcopy(dump[key])}
    cls = changed[key]["classes"][0]
    cls["sim_ms"] = math.nextafter(float.fromhex(cls["sim_ms"]), math.inf).hex()
    return changed


def test_a_one_ulp_change_names_its_key_first_with_its_value(dump, committed):
    key = "test5/sum/gg/serial"
    changed = nudged(dump, key)
    message = contract.check(committed, changed)
    first = message.splitlines()[0]
    assert first.startswith(f"{key}: committed '") and "(1 value(s) differ)" in first
    assert changed[key]["classes"][0]["sim_ms"] in message
    assert f"regenerated {key}:" in message


def test_a_dropped_and_an_added_key_are_named_absent(dump, committed):
    dropped = {k: v for k, v in dump.items() if k != "dashboard/min/plan"}
    message = contract.check(committed, dropped)
    assert message.startswith("dashboard/min/plan: committed '")
    assert f"now '{contract.ABSENT}'" in message.splitlines()[0]
    added = {**dump, "extra/key": [1]}
    message = contract.check(committed, added)
    assert message.startswith(f"extra/key: committed '{contract.ABSENT}', now '")
    assert "regenerated extra/key:" in message


def test_another_numpy_in_the_header_is_said(dump, committed):
    head, hashes = contract.parse(committed)
    other = contract.render({**head, "numpy": "0.0.1"}, hashes)
    message = contract.check(other, nudged(dump, "test1/max/tplo/serial"))
    assert message.startswith("test1/max/tplo/serial: ")
    assert "the digest was taken under numpy 0.0.1" in message


def test_the_sweep_covers_what_it_says(dump):
    """Every registry name, derive classes, what the planner decided,
    maintained views, recovery under one fault per site (with its metrics
    and each batch trace's span clocks), the counts the model estimates per
    class, every member term with and without measured selectivities, the
    buffer pools, and the paper's tables as the CLI prints them."""
    assert "test7/avg/optimal/serial" in dump
    assert dump["test4/avg/gg/serial"]["results"][0]["groups"]
    assert any(cls["derives"] for cls in dump["dashboard/min"]["classes"])
    plan = dump["dashboard/min/plan"]
    assert "+D" in plan["signature"] and plan["plan_costings"] > 0
    assert any(plan["derives"]) and "materialize" in plan["explain"]
    assert len(plan["est_cost_ms"]) == len(dump["dashboard/min"]["classes"])
    assert dump["maintained/max"]["append_reports"][-1]["maintained[max]"] > 0
    # Recovery through a served batch: retried, degraded, quarantined.
    retried = dump["recovery/test4/storage.scan/nth1"]
    assert retried["stats"]["n_retries"] == 1 and retried["quarantined"] == []
    assert float.fromhex(retried["backoff_ms"]) == 50.0
    degraded = dump["recovery/test4/storage.scan/persistent"]
    assert degraded["stats"]["n_degraded"] == len(degraded["results"]) == 3
    lost = dump["recovery/test4/storage.scan/everywhere"]
    assert lost["quarantined"] == [0, 1, 2] and lost["results"] == []
    assert "quarantine" in [event["kind"] for event in lost["recorder"]]
    assert len({k.split("/")[2] for k in dump if k.startswith("recovery/")}) == 5
    # ... with its metrics (wall-clock histograms left out) and span clocks.
    assert "serve.request_latency_ms" in retried["metric_names"]
    metrics = retried["metrics"]
    assert "serve.request_latency_ms" not in metrics
    assert "serve.stage.execute_ms" not in metrics
    assert metrics["retry.attempts"] == 2 and metrics["retry.failures"] == 1
    assert float.fromhex(metrics["retry.backoff_ms"]["sum"]) == 50.0
    assert metrics["serve.stage.execute_sim_ms"]["count"] == 1
    [spans] = retried["span_clocks"]
    names = [name for name, _sim in spans]
    assert names[0] == "serve.batch" and names.count("retry.attempt") == 2
    operators = [sim for name, sim in spans if name.startswith("operator.")]
    assert operators and all(
        float.fromhex(sim["total_ms"]) > 0.0 for sim in operators
    )
    # Per class without derive steps, its estimated count of each of the
    # eleven priced units.
    units = {k: v for k, v in dump.items() if k.startswith("units/")}
    assert len(units) == 7 * 5 * len({k.split("/")[3] for k in units})
    for key, classes in units.items():
        derives = dump[key.removeprefix("units/") + "/plan"]["derives"]
        assert [cls is None for cls in classes] == [bool(d) for d in derives]
        assert all(len(cls) == 11 for cls in classes if cls is not None)
    assert any(float.fromhex(n) > 0.0 for n in units["units/test1/sum/naive"][0])
    # Member terms, every entry x query, plain and after analyze().
    plain = dump["terms/plain/tests/ABCD"]
    analyzed = dump["terms/analyzed/tests/ABCD"]
    assert len(plain) == 9 and all(row["answerable"] for row in plain)
    assert any(row["indexable"] for row in plain)
    assert [row["find_index"] for row in plain] == [
        row["find_index"] for row in analyzed
    ]
    assert any(found and found[1] > 1 for row in plain for found in row["find_index"])
    assert any(
        a["selectivity"] != b["selectivity"] for a, b in zip(plain, analyzed)
    )
    term_keys = [k for k in dump if k.startswith("terms/")]
    assert {k.split("/")[1] for k in term_keys} == {"plain", "analyzed"}
    assert any(
        not row["answerable"] and row["build_keys"] == []
        for k in term_keys for row in dump[k]
    )
    assert any(k.startswith("terms/plain/dashboard/min/") for k in term_keys)
    # The paper's tables as the CLI prints them.
    cli = {k: v for k, v in dump.items() if k.startswith("cli/")}
    assert sorted(cli) == ["cli/report", "cli/report-tests", "cli/select-views"]
    assert all(run["exit"] == 0 for run in cli.values())
    selected = cli["cli/report-tests"]["stdout"]
    assert "test5 (Queries [2, 3, 5])" in selected and "Figure" not in selected
    assert "Figure 12" in cli["cli/report"]["stdout"]
    assert "## Table 2 — test7" in cli["cli/report"]["stdout"]
    # Cold cells' private pools and the warm one, full and evicting at 64
    # pages, and an armed case per fault kind with what fired.
    pool = {k: v for k, v in dump.items() if k.startswith("pool/")}
    assert len(pool) == 2 * 7 * 3 * 2 + 3 * 7
    for case in pool.values():
        for hits, misses, size, frames in case["pools"]:
            assert size == len(frames) <= min(hits + misses, 700)
    cold = dump["pool/64/test1/tplo/cold=True"]["pools"]
    assert len(cold) == 4 and cold[0][0] == 0 and cold[0][2] == 64 < cold[0][1]
    warm = dump["pool/64/test7/gg/cold=False"]["pools"][-1]
    assert warm[2] == 64 and warm[1] > 64 and warm[0] > 0
    for fault, site in (
        ("page_read_nth", "storage.page_read"),
        ("pipeline_nth", "operator.pipeline"),
    ):
        case = dump[f"pool/faults/{fault}/test1"]
        assert [event[0] for event in case["fired"]] == [site]
        assert case["report"]["failures"] and case["pools"][0][1] <= 30
    assert all(
        isinstance(dump[f"pool/faults/page_read_p/test{i}"]["fired"], list)
        for i in range(1, 8)
    )
