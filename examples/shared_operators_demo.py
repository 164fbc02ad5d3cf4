#!/usr/bin/env python3
"""Reproduce the paper's Tests 1-3 (Figures 10-12): the three shared
star-join operators vs separate execution, with ASCII bar charts.

Run:  python examples/shared_operators_demo.py [scale]
"""

import sys

from repro.bench.harness import run_figure
from repro.workload.paper_queries import PAPER_FIGURES
from repro.workload.paper_schema import build_paper_database


def bars(rows, title):
    print(f"\n{title}")
    peak = max(r.separate_ms for r in rows)
    width = 46
    for r in rows:
        sep = int(r.separate_ms / peak * width)
        sha = int(r.shared_ms / peak * width)
        print(f"  k={r.n_queries}  separate |{'░' * sep}  {r.separate_ms:8.1f} sim-ms")
        print(f"       shared   |{'█' * sha}  {r.shared_ms:8.1f} sim-ms")
    print(f"  speedup at k={rows[-1].n_queries}: {rows[-1].speedup:.2f}x")


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.01
    print(f"Building the paper's database at scale {scale}...")
    db = build_paper_database(scale=scale)
    for key, spec in PAPER_FIGURES.items():
        bars(run_figure(db, key), spec.title)


if __name__ == "__main__":
    main()
