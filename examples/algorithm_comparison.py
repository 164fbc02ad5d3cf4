#!/usr/bin/env python3
"""Reproduce the paper's Tests 4-7 (Table 2) from the command line.

Compares TPLO, ETPLG, GG, the exact optimal planner, and the
no-sharing naive baseline on the paper's four MDX workloads, printing
estimated and executed (simulated) cost plus the chosen plans.

Run:  python examples/algorithm_comparison.py [scale]
      scale defaults to 0.01 (20,000 base rows).
"""

import sys

from repro.bench.harness import AlgorithmRow, run_algorithm_comparison
from repro.bench.reporting import format_table
from repro.workload.paper_queries import PAPER_TESTS, paper_queries
from repro.workload.paper_schema import build_paper_database

ALGORITHMS = ("naive", "tplo", "etplg", "gg", "optimal")


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.01
    print(f"Building the paper's database at scale {scale}...")
    db = build_paper_database(scale=scale)
    qs = paper_queries(db.schema)

    for test_name, ids in PAPER_TESTS.items():
        queries = [qs[i] for i in ids]
        print(f"\n{'=' * 70}")
        print(f"{test_name}: Queries {ids}")
        for query in queries:
            print("  ", query.describe(db.schema))
        rows = run_algorithm_comparison(db, queries, ALGORITHMS)
        print()
        print(format_table(AlgorithmRow.HEADERS, [r.cells() for r in rows]))
        best = min(rows, key=lambda r: r.sim_ms)
        worst = max(rows, key=lambda r: r.sim_ms)
        print(
            f"best: {best.algorithm} ({best.sim_ms:.1f} sim-ms); "
            f"worst: {worst.algorithm} "
            f"({worst.sim_ms / best.sim_ms:.2f}x slower)"
        )


if __name__ == "__main__":
    main()
