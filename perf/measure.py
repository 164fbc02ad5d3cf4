"""One workload in this process: set-up, the untraced pass, the traced pass
with its probes, verification, and the metric values that come out.

``run.py`` is the command line around this; everything that needs the
program (``repro``) imported lives here and in the modules it imports.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import sys
from pathlib import Path
from typing import Dict, List

import append_query
import base_scan
import mdx_wide
import probes
import serve_mix
from compare import EXACT
from harness import Speed, Tracing, median, per, percentile, timed

WORKLOADS = {m.NAME: m for m in (base_scan, mdx_wide, serve_mix, append_query)}
OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 3
OPERATOR_SPANS = ("shared_scan_hash", "shared_index", "shared_hybrid", "index_star")


def timed_setup(workload, seed: int, smoke: bool):
    """Set up ``SETUP_REPEATS`` times (build the database, attach caches
    or the service, one warm-up pass over every distinct op); returns the
    last state and the median seconds at reference machine speed."""
    seconds = []
    speed = Speed()
    state = None
    for _ in range(1 if smoke else SETUP_REPEATS):
        state = None  # let the previous database go before timing the next
        gc.collect()
        speed.sample()
        state, elapsed = timed(workload.setup, seed, smoke)
        seconds.append(elapsed)
    speed.sample()
    return state, statistics.median(seconds) / speed.slowdown()


def op_ms_p50(workload, run) -> float:
    """Median op wall — at reference machine speed when the workload's ops
    are interpreter-bound (see ``harness.Speed``), as measured otherwise."""
    if getattr(workload, "OPS_ARE_INTERPRETER_BOUND", True):
        return median(run.op_ms) / run.speed.slowdown()
    return median(run.op_ms)


def end_to_end(workload, run, setup_s: float) -> Dict[str, float]:
    """The end-to-end metrics of one untraced pass."""
    return {
        "setup_s": setup_s,
        "op_ms_p50": op_ms_p50(workload, run),
        "queries_per_s": median(run.rates) * run.speed.slowdown(),
        "sim_ms_per_op": run.exact_per_op("sim_ms"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_pass(workload, state, seconds: float):
    """Run the workload with the driver's spans around ``Database.optimize``
    and ``Database.execute`` and the program's own tracer on."""
    tracing = Tracing()
    db = state.db
    undo = []
    if getattr(workload, "WRAP_DB", True):
        undo = [
            tracing.driver.wrap(db, "optimize", "plan.optimize"),
            tracing.driver.wrap(db, "execute", "execute.plan"),
        ]
    hits, misses = db.pool.hits, db.pool.misses
    try:
        run = workload.run(state, seconds, tracing)
    finally:
        for remove in undo:
            remove()
    accesses = db.pool.hits - hits + db.pool.misses - misses
    run.layer.setdefault(
        "storage.pool_hit_rate", (db.pool.hits - hits) / accesses if accesses else 0.0
    )
    return run, tracing


def per_layer(
    workload, state, untraced, traced, tracing, verify, seed, seconds, units, notes
) -> Dict[str, float]:
    """Every per-layer metric of one workload.  Exact counters come from
    the untraced pass (the same ops as a ``--trace 0`` run), wall times
    from the traced pass, isolated probes from a replayed build; what a
    workload does not exercise reads 0."""
    n_ops = traced.attempted
    op_total_ms = sum(traced.op_ms)
    plan_ms = tracing.driver.wall_ms("plan.optimize")
    execute_ms = tracing.driver.wall_ms("execute.plan")
    costings = untraced.exact_per_op("costings")
    rows_in = untraced.exact_per_op("rows_in")
    measured = {
        "machine.slowdown": untraced.speed.slowdown(),
        "op.raw_ms_p50": median(untraced.op_ms),
        "op.ms_p90": percentile(untraced.op_ms, 0.9) if len(untraced.op_ms) >= 100 else 0.0,
        "op.samples": len(untraced.op_ms),
        "failed_ops_frac": per(
            untraced.failed + traced.failed + verify.mismatches,
            untraced.attempted + traced.attempted + verify.checked,
        ),
        "plan.optimize_ms_per_op": per(plan_ms, n_ops),
        "plan.share": per(plan_ms, op_total_ms),
        "plan.costings_per_op": costings,
        "plan.classes_per_op": untraced.exact_per_op("classes"),
        "execute.ms_per_op": per(execute_ms, n_ops),
        "execute.share": per(execute_ms, op_total_ms),
        "operator.rows_scanned_per_op": untraced.exact_per_op("rows_scanned"),
        "operator.rows_in_per_op": rows_in,
        "operator.rows_passed_per_op": untraced.exact_per_op("rows_passed"),
        "operator.probes_issued_per_op": untraced.exact_per_op("probes_issued"),
        "storage.seq_page_reads_per_op": untraced.exact_per_op("seq_page_reads"),
        "storage.rand_page_reads_per_op": untraced.exact_per_op("rand_page_reads"),
        "obs.trace_overhead_ratio": per(
            op_ms_p50(workload, traced), op_ms_p50(workload, untraced)
        ),
        "obs.spans_per_op": per(len(tracing.driver.spans) + tracing.program.count, n_ops),
        "verify.queries_checked": verify.checked,
        "verify.mismatches": verify.mismatches,
    }
    out = dict.fromkeys(units, 0.0)
    out.update(measured)
    for name in OPERATOR_SPANS:
        out[f"operator.{name}_ms_per_op"] = per(
            tracing.program.wall_ms(f"operator.{name}"), n_ops
        )
    out.update(traced.layer)  # the workload's own wall times ...
    out.update((n, untraced.layer[n]) for n in EXACT & untraced.layer.keys())  # ... and counts
    out["plan.us_per_costing"] = per(out["plan.optimize_ms_per_op"] * 1e3, costings)
    out["operator.ns_per_pipeline_row"] = per(out["execute.ms_per_op"] * 1e6, rows_in)
    if hasattr(workload, "extra_layers"):
        out.update(workload.extra_layers(state, untraced, seconds))
    fresh = probes.replay_build(state.config, out)
    probes.scan_probe(fresh, out, notes)
    probes.index_probe(fresh, seed, out, notes)
    probes.optimizer_sweep(state.db, workload.sweep_queries(state), out, notes)
    return out


def run_workload(name: str, seed: int, seconds: float, trace: int, smoke: bool, spec: dict) -> dict:
    """Run one workload; returns the result object (``correct``,
    ``attempted``, ``failed``, ``metrics``) after printing every metric by
    name with its unit and writing ``out/detail_<name>_<trace>.json``."""
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    workload = WORKLOADS[name]
    phases: Dict[str, float] = {}
    notes: List[str] = []

    (state, setup_s), phases["setup"] = timed(timed_setup, workload, seed, smoke)
    gc.collect()
    share = 0.4 if trace else 1.0
    untraced, phases["measure"] = timed(
        workload.run, state, seconds * share, Tracing(enabled=False)
    )
    runs = [untraced]
    if trace:
        (traced, tracing), phases["trace"] = timed(
            traced_pass, workload, state, seconds * (1 - share)
        )
        runs.append(traced)
    verify, phases["verify"] = timed(workload.verify, state, runs[-1])

    OUT_DIR.mkdir(exist_ok=True)
    if trace:
        values, phases["probes"] = timed(
            per_layer, workload, state, untraced, traced, tracing, verify,
            seed, seconds, units, notes,
        )
        tracing.write(str(OUT_DIR / f"trace_{name}.json"), name)
    else:
        values = end_to_end(workload, untraced, setup_s)

    problems = check_names(values, units)
    attempted = sum(r.attempted for r in runs) + verify.checked
    failed = sum(r.failed for r in runs) + verify.mismatches
    metrics = {
        n: {"value": values[n], "unit": unit} for n, unit in units.items() if n in values
    }

    for n, metric in metrics.items():
        tag = "  (exact)" if n in EXACT else ""
        print(f"{name:13s} {n:38s} {metric['value']:14.4f} {metric['unit']}{tag}")
    print(
        f"{name}: {len(untraced.op_ms)} ops measured, {attempted} attempted, "
        f"{failed} failed; phases "
        + ", ".join(f"{k} {v:.1f}s" for k, v in phases.items())
    )
    for line in notes + problems:
        print(f"{name}: note: {line}", file=sys.stderr)
    with open(OUT_DIR / f"detail_{name}_{trace}.json", "w") as handle:
        json.dump(
            {
                "workload": name,
                "seed": seed,
                "seconds": seconds,
                "ops": len(untraced.op_ms),
                "phases_s": phases,
                "slowdown": untraced.speed.slowdown(),
                "op_ms": untraced.op_ms,
                "kernel_ms": untraced.speed.kernel_ms,
                "notes": notes + problems,
            },
            handle,
        )
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def check_names(values: Dict[str, float], units: Dict[str, str]) -> List[str]:
    """Names measured but not in BENCHMARK.json, or listed and not
    measured: either makes the run incorrect.  Unlisted ones are dropped
    from ``values``."""
    unlisted = sorted(values.keys() - units.keys())
    for name in unlisted:
        del values[name]
    return [f"{n!r} was measured but is not in BENCHMARK.json" for n in unlisted] + [
        f"{n!r} is in BENCHMARK.json but was not measured"
        for n in sorted(units.keys() - values.keys())
    ]


