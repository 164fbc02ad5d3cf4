"""Wall-clock benchmark: four workloads, end-to-end metrics with fixed
regression bounds, per-layer attribution measured from outside.

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1
        One workload in this process.  The last line of stdout is one
        JSON object: correct / attempted / failed / metrics (the
        end-to-end metrics with --trace 0, the per-layer ones with
        --trace 1).  Exit 1 when any output was wrong.
    python3 perf/run.py [--seed 11] [--trace] [--repeat N] [--out FILE]
        Every workload, each in a fresh child process, one at a time;
        prints every metric by name with its unit and writes the run file
        (default perf/out/run.json).
    python3 perf/run.py --smoke
        Every workload for one second with shrunken op pools, both
        passes; checks the output against BENCHMARK.json.
    python3 perf/run.py compare A.json B.json
        Judge run file B against run file A.

``BENCHMARK.json`` at the repository root is the single list of workload
names, metric names, units, directions and bounds; see perf/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parent
OUT_DIR = PERF_DIR / "out"


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def run_one(args) -> int:
    """One workload in this process; the result object is the last line."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        # str hashing is randomised per process and moves set/dict order in
        # the planner; pin it so two runs of one seed do the same work.
        os.execve(
            sys.executable,
            [sys.executable] + sys.argv,
            {**os.environ, "PYTHONHASHSEED": "0"},
        )
    sys.path.insert(0, str(ROOT / "src"))
    import measure

    result = measure.run_workload(
        args.workload, args.seed, args.seconds, args.trace, args.smoke, load_spec()
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_child(name: str, args, trace: int) -> dict:
    """One workload in a fresh interpreter: its result object, plus the
    detail file it wrote."""
    command = [
        sys.executable, str(PERF_DIR / "run.py"),
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    *printed, last = done.stdout.strip().splitlines() or [""]
    print("\n".join(printed))
    if not last.startswith("{"):
        raise SystemExit(f"{name} --trace {trace}: no result (exit {done.returncode})")
    result = json.loads(last)
    with open(OUT_DIR / f"detail_{name}_{trace}.json") as handle:
        result["detail"] = json.load(handle)
    return result


def provenance(args) -> dict:
    import numpy

    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    ).stdout.strip()
    return {
        "commit": commit or "unknown",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "repeat": args.repeat,
        "smoke": args.smoke,
    }


def run_all(args) -> int:
    """Every workload, one child at a time, merged into one run file."""
    from compare import EXACT

    spec = load_spec()
    started = time.perf_counter()
    document = {"provenance": provenance(args), "workloads": {}}
    ok = True
    for workload in spec["workloads"]:
        name = workload["name"]
        entry = {"end_to_end": {}, "per_layer": {}, "attempted": 0, "failed": 0, "runs": []}
        for kind, trace in (("end_to_end", 0), ("per_layer", 1))[: 1 + args.trace]:
            results = [
                run_child(name, args, trace) for _ in range(1 if trace else args.repeat)
            ]
            ok = ok and all(r["correct"] for r in results)
            entry["runs"].extend(results)
            entry["attempted"] += sum(r["attempted"] for r in results)
            entry["failed"] += sum(r["failed"] for r in results)
            for metric in spec[kind]:
                values = [r["metrics"][metric["name"]]["value"] for r in results]
                entry[kind][metric["name"]] = {
                    "value": statistics.median(values),
                    "unit": metric["unit"],
                    "values": values,
                    "exact": metric["name"] in EXACT,
                }
        document["workloads"][name] = entry
    document["provenance"]["wall_s"] = time.perf_counter() - started
    out = Path(args.out) if args.out else OUT_DIR / "run.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as handle:
        json.dump(document, handle, indent=1)
    print(
        f"wrote {out} in {document['provenance']['wall_s']:.0f} s; "
        f"{'all outputs correct' if ok else 'SOME OUTPUTS WRONG'}"
    )
    return 0 if ok else 1


def main() -> int:
    if sys.argv[1:2] == ["compare"]:
        import compare

        return compare.main(sys.argv[2:], load_spec())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in this process")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, help="measured seconds per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--repeat", type=int, default=1, help="untraced runs per workload")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", help="run file to write (all-workload mode)")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(load_spec()["run_seconds"])
    if args.workload:
        return run_one(args)
    args.trace = args.trace or int(args.smoke)
    OUT_DIR.mkdir(exist_ok=True)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
