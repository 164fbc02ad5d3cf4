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


def test_iostats_charge_is_the_one_way_a_counter_grows():
    """No ``charge_*`` name under ``src/repro``, and no module but
    ``storage/iostats.py`` assigns to an ``IOStats`` counter (``x.<counter>
    +=``, ``=`` or ``setattr``): every charge goes through
    ``IOStats.charge``, so a phase's counts are the statement both its
    operator and the cost model read."""
    from repro.storage.iostats import IOStats

    counters = set(IOStats._COUNTER_FIELDS)
    src = ROOT / "src" / "repro"
    found = []
    for path in sorted(src.rglob("*.py")):
        text = path.read_text()
        if "charge_" in text:
            found.append((path.name, "charge_"))
        if path == src / "storage" / "iostats.py":
            continue
        for node in ast.walk(ast.parse(text)):
            targets = []
            if isinstance(node, ast.AugAssign):
                targets = [node.target]
            elif isinstance(node, ast.Assign):
                targets = node.targets
            elif (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "setattr"
                and len(node.args) > 1
                and getattr(node.args[1], "value", None) in counters
            ):
                found.append((path.name, node.lineno))
            for target in targets:
                if isinstance(target, ast.Attribute) and target.attr in counters:
                    found.append((path.name, node.lineno))
    assert found == []


def test_no_bitmap_is_tested_position_by_position():
    """The index probe routes the union's rows through the shared
    probe (``pipeline.SharedProbe``), one gather per dimension for every
    member, not a bitmap test per member: nothing under ``src/repro``
    defines or calls ``test_positions``."""
    src = ROOT / "src" / "repro"
    found = [
        (path.name, node.lineno)
        for path in sorted(src.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if getattr(node, "attr", getattr(node, "name", None)) == "test_positions"
    ]
    assert found == []
    star_join = src / "core" / "operators" / "star_join.py"
    assert "SharedProbe(" in star_join.read_text()


def test_one_star_join_over_a_row_source():
    """The shared scan and the shared index join are one operator: no class
    under ``core/operators`` but ``StarJoin`` is named ``*StarJoin``, and
    ``core/executor.py`` constructs it in exactly one place."""
    src = ROOT / "src" / "repro"
    classes = [
        node.name
        for path in sorted((src / "core" / "operators").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef) and node.name.endswith("StarJoin")
    ]
    assert classes == ["StarJoin"]
    calls = [
        node.lineno
        for node in ast.walk(ast.parse((src / "core" / "executor.py").read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "StarJoin"
    ]
    assert len(calls) == 1


def test_how_a_class_runs_is_decided_once():
    """Which row source a class runs over is read off its member methods
    in one place, ``PlanClass.probes``, and the operator kinds are named in
    one, ``plans.operator_kind``: outside ``core/optimizer/plans.py`` no
    ``all(...)`` or ``any(...)`` compares with ``JoinMethod.INDEX``, no row
    source in ``star_join.py`` defines a ``kind``, and nothing under
    ``src/repro`` defines or uses the second class-costing entry points or
    the method-mix properties they replaced."""
    src = ROOT / "src" / "repro"
    gone = {
        "derive_class", "class_cost_given", "is_pure_hash", "is_pure_index",
        "has_derives",
    }
    found = []
    for path in sorted(src.rglob("*.py")):
        where = path.relative_to(src).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                where != "core/optimizer/plans.py"
                and isinstance(node, ast.Call)
                and getattr(node.func, "id", None) in ("all", "any")
                and any(
                    isinstance(part, ast.Attribute)
                    and part.attr == "INDEX"
                    and getattr(part.value, "id", None) == "JoinMethod"
                    for compare in ast.walk(node)
                    if isinstance(compare, ast.Compare)
                    for part in ast.walk(compare)
                )
            ):
                found.append(f"{where}:{node.lineno} reads the method mix")
            if isinstance(node, ast.FunctionDef) and (
                node.name in gone
                or (node.name == "kind" and where == "core/operators/star_join.py")
            ):
                found.append(f"{where}:{node.lineno} defines {node.name}")
            name = getattr(node, "attr", getattr(node, "id", None))
            if isinstance(node, (ast.Attribute, ast.Name)) and name in gone:
                found.append(f"{where}:{node.lineno} uses {name}")
    assert not found, found


def test_builds_are_stated_once():
    """``build_counts(`` is called only where a class's builds are
    charged (``pipeline.settle_builds``) and estimated (``cost.py``), and
    both take what the class builds from ``lattice.new_builds``."""
    src = ROOT / "src" / "repro"
    callers = {
        path.relative_to(src).as_posix()
        for path in src.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "build_counts"
    }
    assert sorted(callers) == ["core/operators/pipeline.py", "core/optimizer/cost.py"]
    for name in callers:
        assert "new_builds(" in (src / name).read_text(), name


def test_only_the_executor_folds_a_cold_clock():
    """A cold class's private clock goes back into the database's in one
    place: under ``src/repro`` only ``core/executor.py`` calls
    ``IOStats.merge_from``, and nothing defines ``ForcedRun`` or
    ``run_forced_class`` — the paper's forced plans are plans that
    ``Database.execute`` runs (``bench.harness.forced_plan``)."""
    src = ROOT / "src" / "repro"
    callers, defined = set(), []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and (
                getattr(node.func, "attr", None) == "merge_from"
            ):
                callers.add(path.relative_to(src).as_posix())
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and (
                node.name in ("ForcedRun", "run_forced_class")
            ):
                defined.append((path.name, node.name))
    assert sorted(callers) == ["core/executor.py"]
    assert defined == []


def test_members_that_fold_alike_fold_once():
    """One fold path: under ``src/repro`` only the group aggregator
    (``core/operators/aggregate.py``'s ``HashAggregator``) and the views'
    materialization and maintenance (``engine/``) call ``fold_groups(``; and
    an ``mdx_wide`` refresh — one 45-member class over 8 distinct
    group-bys — folds at most once per distinct group-by, read with
    ``.github/profile_op.py --calls _fold``."""
    import subprocess

    src = ROOT / "src" / "repro"
    callers = {
        path.relative_to(src).as_posix()
        for path in src.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "fold_groups"
    }
    assert sorted(callers) == [
        "core/operators/aggregate.py", "engine/maintenance.py",
        "engine/materialize.py",
    ]
    done = subprocess.run(
        [sys.executable, str(ROOT / ".github" / "profile_op.py"), "mdx_wide",
         "--ops", "2", "--calls", "_fold"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    per_op = re.search(r"\n +([\d.]+)  aggregate\.py:\d+\(_fold\)\n", done.stdout)
    assert per_op is not None, done.stdout
    assert float(per_op.group(1)) <= 8, done.stdout


def test_profile_op_names_the_greedy_loop():
    """``.github/profile_op.py`` — the "which layer moved" profile of
    .claude/skills/verify/SKILL.md — runs a ``perf/`` workload's own op and
    prints the unprofiled wall, then a cProfile row for the plan search;
    with ``--calls NAME``, each function so named's calls per op and, under
    it, per caller."""
    import subprocess

    def profile_op(*args: str) -> str:
        done = subprocess.run(
            [sys.executable, str(ROOT / ".github" / "profile_op.py"), "mdx_wide",
             *args],
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout

    out = profile_op("--ops", "1", "--rows", "60")
    assert "median op" in out and "unprofiled over 1 op(s)" in out
    assert "Ordered by: cumulative time" in out
    assert "Ordered by: internal time" in out
    assert re.search(r"greedy\.py:\d+\(grow\)", out)
    out = profile_op("--ops", "2", "--calls", "grow")
    assert "calls per op of 'grow' over 2 op(s):" in out
    assert re.search(r"\n +1\.0  greedy\.py:\d+\(grow\)\n", out)
    assert re.search(r"\n +1\.0  from greedy\.py:\d+\(optimize\)\n", out)
    assert "Ordered by" not in out
    assert "(no such function was called)" in profile_op(
        "--ops", "1", "--calls", "no_such_function"
    )


def test_tier1_installs_the_numpy_of_the_contract_digest():
    """CI's tier-1 job pins the numpy the committed byte-contract digest was
    taken under (its header), so that the header check holds: a numpy bump
    is its own change, re-recording the header."""
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    tier1 = ci.split("\n  tier1:\n", 1)[1].split("\n  batch-machine:\n", 1)[0]
    [pin] = re.findall(r"pip install .*\bnumpy==(\S+)", tier1)
    header = (ROOT / "tests" / "golden" / "contract.txt").read_text()
    assert f"# numpy {pin}\n" in header
