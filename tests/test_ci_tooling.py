"""The scripts under ``.github/``.  The nightly ``perf`` job's merge step
(``merge_perf_runs.py``): single-repeat run files of one side become the
run file ``--repeat N`` would have written, and ``perf/run.py compare``
reads it.  The per-op profile (``profile_op.py``) runs and says what it
claims to, and the CI workflow installs the numpy the byte contract's digest
(``tests/golden/contract.txt``) was taken under."""

import ast
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


def test_the_pool_accounts_runs_not_pages():
    """``storage/buffer.py`` keeps its frames in arrays and accounts a run
    of distinct pages in closed form: no ``OrderedDict``, no ``popitem``.
    A hook makes a read go page by page, so only the scan passes one:
    ``after_page=`` appears under ``src/`` only in
    ``HeapTable.scan_batches`` / ``_scan_runs``."""
    buffer = (ROOT / "src" / "repro" / "storage" / "buffer.py").read_text()
    assert "OrderedDict" not in buffer and "popitem" not in buffer
    passing = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        for function in ast.walk(ast.parse(path.read_text())):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(function):
                if isinstance(node, ast.Call) and any(
                    keyword.arg == "after_page" for keyword in node.keywords
                ):
                    passing.add((path.name, function.name))
    assert passing and passing <= {
        ("table.py", "scan_batches"), ("table.py", "_scan_runs")
    }


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


def test_tier1_installs_the_numpy_of_the_contract_digest():
    """CI's tier-1 job pins the numpy the committed byte-contract digest was
    taken under (its header), so that the header check holds: a numpy bump
    is its own change, re-recording the header."""
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    tier1 = ci.split("\n  tier1:\n", 1)[1].split("\n  batch-machine:\n", 1)[0]
    [pin] = re.findall(r"pip install .*\bnumpy==(\S+)", tier1)
    header = (ROOT / "tests" / "golden" / "contract.txt").read_text()
    assert f"# numpy {pin}\n" in header
