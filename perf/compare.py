"""``perf/run.py compare A.json B.json``: judge run file B against A.

One row per (end-to-end metric, workload) with both medians, the ratio
B/A, the bound from ``BENCHMARK.json`` and a verdict:

* ``REGRESSION`` — B is worse than A by more than the bound;
* ``IMPROVED``   — B is better than A by more than the bound;
* ``NEUTRAL``    — the difference is within the bound;
* ``UNRESOLVED`` — the run-to-run spread of either side (distance between
  its quartiles over its median; needs ``--repeat`` of 2 or more) is wider
  than the bound and the two sides' runs overlap, so the rows cannot be
  told apart.

Beneath it, the per-layer metrics side by side.  Counters flagged exact
must be bit-equal for one seed: any difference is reported as a change of
behaviour, not as noise.  Exit 1 on any REGRESSION or on more failed ops
in B than in A.
"""

from __future__ import annotations

import json
import statistics
from typing import List, Optional


#: Counters that must repeat exactly for a given seed; a difference
#: between two runs is a change of behaviour, never noise.
EXACT = frozenset(
    {
        "sim_ms_per_op",
        "plan.costings_per_op",
        "plan.classes_per_op",
        "operator.rows_scanned_per_op",
        "operator.rows_in_per_op",
        "operator.rows_passed_per_op",
        "operator.probes_issued_per_op",
        "storage.seq_page_reads_per_op",
        "storage.rand_page_reads_per_op",
        "session.dedup_ratio",
        "serve.batches",
        "serve.requests_per_batch",
        "serve.coalesce_ratio",
        "result_cache.hit_rate",
        "result_cache.invalidations",
    }
)

def spread(values: List[float]) -> Optional[float]:
    """Interquartile distance over the median; None for a single run."""
    if len(values) < 2:
        return None
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return abs((q3 - q1) / statistics.median(values))


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    """The band the change from runs ``a`` to runs ``b`` falls in."""
    sign = 1.0 if better == "lower" else -1.0
    base = statistics.median(a)
    worse_by = sign * (statistics.median(b) - base) / base
    spreads = [s for s in (spread(a), spread(b)) if s is not None]
    if spreads and max(spreads) > bound:
        if all(sign * y < sign * x for x in a for y in b):
            return "IMPROVED"
        if worse_by > bound and all(sign * y > sign * x for x in a for y in b):
            return "REGRESSION"
        return "UNRESOLVED"
    if worse_by > bound:
        return "REGRESSION"
    return "IMPROVED" if worse_by < -bound else "NEUTRAL"


def main(argv: List[str], spec: dict) -> int:
    if len(argv) != 2:
        print("usage: perf/run.py compare A.json B.json")
        return 2
    docs = []
    for path in argv:
        with open(path) as handle:
            docs.append(json.load(handle))
    a_doc, b_doc = docs
    for side, path, doc in zip("AB", argv, docs):
        p = doc["provenance"]
        print(
            f"{side}: {path}  commit {p['commit'][:12]}  seed {p['seed']}  "
            f"{p['seconds']} s x {p['repeat']}  python {p['python']} numpy {p['numpy']} "
            f"nproc {p['nproc']}"
        )
    if a_doc["provenance"]["seed"] != b_doc["provenance"]["seed"]:
        print("note: seeds differ, so exact counters are expected to differ")
    failed = False
    print(f"\n{'workload':13s} {'metric':15s} {'A':>12s} {'B':>12s} {'B/A':>7s} {'bound':>6s}  verdict")
    for workload in spec["workloads"]:
        name = workload["name"]
        a_w, b_w = a_doc["workloads"][name], b_doc["workloads"][name]
        for metric in spec["end_to_end"]:
            a = a_w["end_to_end"][metric["name"]]
            b = b_w["end_to_end"][metric["name"]]
            result = verdict(a["values"], b["values"], metric["better"], metric["bound"])
            if a["exact"] and a["value"] != b["value"]:
                result += " (behaviour changed)"
            failed = failed or result.startswith("REGRESSION")
            print(
                f"{name:13s} {metric['name']:15s} {a['value']:12.4f} {b['value']:12.4f} "
                f"{b['value'] / a['value']:7.3f} {metric['bound']:6.2f}  {result}"
            )
        if b_w["failed"] > a_w["failed"]:
            failed = True
            print(f"{name:13s} failed ops: A {a_w['failed']}  B {b_w['failed']}  REGRESSION")
    if all(w["per_layer"] for doc in docs for w in doc["workloads"].values()):
        print(f"\n{'workload':13s} {'per-layer metric':38s} {'A':>14s} {'B':>14s} {'B/A':>7s}")
        for workload in spec["workloads"]:
            name = workload["name"]
            for metric in spec["per_layer"]:
                a = a_doc["workloads"][name]["per_layer"][metric["name"]]
                b = b_doc["workloads"][name]["per_layer"][metric["name"]]
                if not a["value"] and not b["value"]:
                    continue  # not exercised by this workload
                ratio = f"{b['value'] / a['value']:7.3f}" if a["value"] else "      -"
                note = ""
                if a["exact"]:
                    note = "  exact, same" if a["value"] == b["value"] else "  BEHAVIOUR CHANGED"
                print(
                    f"{name:13s} {metric['name']:38s} {a['value']:14.4f} "
                    f"{b['value']:14.4f} {ratio}{note}"
                )
    return 1 if failed else 0
