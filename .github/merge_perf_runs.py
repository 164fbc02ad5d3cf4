"""Merge single-repeat ``perf/run.py`` run files of one side into one.

    python3 .github/merge_perf_runs.py OUT.json RUN.json [RUN.json ...]

``perf/run.py --repeat N`` runs one side N times back to back; a fair
comparison on a noisy machine alternates the sides (docs/performance.md),
so the nightly job makes N single-repeat runs a side and merges them here
into the document ``--repeat N`` would have written: per metric every
run's value and their median, op counts summed, runs concatenated —
what ``perf/run.py compare`` reads.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import List


def merge(documents: List[dict]) -> dict:
    """One run file holding every run of ``documents`` (same seed, same
    workloads, same metrics)."""
    first = documents[0]
    merged = {
        "provenance": dict(first["provenance"], repeat=len(documents)),
        "workloads": {},
    }
    for name, entry in first["workloads"].items():
        entries = [document["workloads"][name] for document in documents]
        out = {
            "end_to_end": {},
            "per_layer": {},
            "attempted": sum(e["attempted"] for e in entries),
            "failed": sum(e["failed"] for e in entries),
            "runs": [run for e in entries for run in e["runs"]],
        }
        for kind in ("end_to_end", "per_layer"):
            for metric, cell in entry[kind].items():
                values = [v for e in entries for v in e[kind][metric]["values"]]
                out[kind][metric] = dict(
                    cell, value=statistics.median(values), values=values
                )
        merged["workloads"][name] = out
    return merged


def main(argv: List[str]) -> int:
    if len(argv) < 2:
        print(__doc__.split("\n\n")[1].strip())
        return 2
    documents = []
    for path in argv[1:]:
        with open(path) as handle:
            documents.append(json.load(handle))
    with open(argv[0], "w") as handle:
        json.dump(merge(documents), handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
