"""The scripts under ``.github/``.  The nightly ``perf`` job's merge step
(``merge_perf_runs.py``): single-repeat run files of one side become the
run file ``--repeat N`` would have written, and ``perf/run.py compare``
reads it.  The parent-vs-change dump (``byte_dump.py``) and the per-op
profile (``profile_op.py``) run and say what they claim to."""

import importlib.util
import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_file(spec: dict, op_ms: float, failed: int = 0) -> dict:
    """A one-repeat, untraced run file in ``perf/run.py``'s shape."""
    workloads = {}
    for workload in spec["workloads"]:
        cells = {
            metric["name"]: {
                "value": op_ms,
                "unit": metric["unit"],
                "values": [op_ms],
                "exact": metric["name"] == "sim_ms_per_op",
            }
            for metric in spec["end_to_end"]
        }
        cells["sim_ms_per_op"].update(value=7.0, values=[7.0])
        workloads[workload["name"]] = {
            "end_to_end": cells,
            "per_layer": {},
            "attempted": 10,
            "failed": failed,
            "runs": [{"correct": True}],
        }
    provenance = dict.fromkeys(("commit", "python", "numpy"), "x")
    provenance.update(nproc=2, seed=11, seconds=12, repeat=1)
    return {"provenance": provenance, "workloads": workloads}


def test_merged_runs_read_as_one_repeat_n_run(tmp_path, capsys):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    merger = load(ROOT / ".github" / "merge_perf_runs.py", "merge_perf_runs")
    paths = {}
    for side, readings in (("base", (10.0, 30.0, 20.0)), ("head", (10.5, 9.5, 11.0))):
        singles = []
        for i, op_ms in enumerate(readings):
            singles.append(tmp_path / f"{side}.{i}.json")
            singles[-1].write_text(json.dumps(run_file(spec, op_ms, failed=i == 0)))
        paths[side] = tmp_path / f"{side}.json"
        assert merger.main([str(paths[side]), *map(str, singles)]) == 0
    merged = json.loads(paths["base"].read_text())
    entry = merged["workloads"]["base_scan"]
    assert merged["provenance"]["repeat"] == 3
    assert entry["end_to_end"]["op_ms_p50"]["values"] == [10.0, 30.0, 20.0]
    assert entry["end_to_end"]["op_ms_p50"]["value"] == 20.0
    assert entry["end_to_end"]["sim_ms_per_op"]["exact"] is True
    assert (entry["attempted"], entry["failed"], len(entry["runs"])) == (30, 1, 3)
    sys.path.insert(0, str(ROOT / "perf"))
    try:
        compare = load(ROOT / "perf" / "compare.py", "perf_compare")
    finally:
        sys.path.remove(str(ROOT / "perf"))
    assert compare.main([str(paths["base"]), str(paths["head"])], spec) == 0
    printed = capsys.readouterr().out
    assert "12 s x 3" in printed and "behaviour changed" not in printed


def test_byte_dump_is_deterministic(tmp_path):
    """``.github/byte_dump.py`` — the parent-vs-change comparison of
    .claude/skills/verify/SKILL.md — writes the same bytes twice, and covers
    what it says: every registry name, derive classes, what the planner
    decided, maintained views."""
    import os
    import subprocess

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    runs = [
        subprocess.Popen(
            [sys.executable, str(ROOT / ".github" / "byte_dump.py"), str(out),
             "--scale", "0.0005"],
            env=env, cwd=tmp_path,
        )
        for out in outs
    ]
    assert [run.wait(timeout=120) for run in runs] == [0, 0]
    assert outs[0].read_bytes() == outs[1].read_bytes()
    dump = json.loads(outs[0].read_text())
    assert "test7/avg/optimal/shards3" in dump
    assert dump["test4/avg/gg/serial"]["results"][0]["avg_state"]
    assert any(cls["derives"] for cls in dump["dashboard/min"]["classes"])
    plan = dump["dashboard/min/plan"]
    assert "+D" in plan["signature"] and plan["plan_costings"] > 0
    assert any(plan["derives"]) and "materialize" in plan["explain"]
    assert len(plan["est_cost_ms"]) == len(dump["dashboard/min"]["classes"])
    assert dump["maintained/max"]["append_reports"][-1]["maintained[max]"] > 0


def test_profile_op_names_the_greedy_loop():
    """``.github/profile_op.py`` — the "which layer moved" profile of
    .claude/skills/verify/SKILL.md — runs a ``perf/`` workload's own op and
    prints the unprofiled wall, then a cProfile row for the plan search."""
    import subprocess

    done = subprocess.run(
        [sys.executable, str(ROOT / ".github" / "profile_op.py"), "mdx_wide",
         "--ops", "1", "--rows", "60"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "median op" in done.stdout and "unprofiled over 1 op(s)" in done.stdout
    assert "Ordered by: cumulative time" in done.stdout
    assert "Ordered by: internal time" in done.stdout
    assert re.search(r"greedy\.py:\d+\(grow\)", done.stdout)
