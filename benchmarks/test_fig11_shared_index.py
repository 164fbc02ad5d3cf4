"""Test 2 / Figure 11: the shared index join operator.

Queries 5–8, each forced to a bitmap-index star join on A'B'C'D (the paper's
configuration).  The shared operator ORs the per-query result bitmaps and
probes the base table once; tuples are routed to each query's aggregation by
re-testing its own bitmap.

Shapes to reproduce:
* shared is never worse than separate, and wins once probe sets overlap;
* "more than 80% of the shared index star join time is spent on probing the
  base table" — probe (random) I/O dominates;
* probing grows sublinearly with the number of queries (the paper's
  1.651 s → 1.969 s from 2 to 4 queries).

Queries are added in overlap order (5, 8, 6, 7): Q5 and Q8 select the same
A' member, so their probe pages coincide in the A-clustered table.
"""

import pytest

from repro.bench.harness import run_figure
from repro.bench.reporting import format_table


def test_fig11_shared_index(db, report, benchmark):
    rows = benchmark.pedantic(
        lambda: run_figure(db, "fig11_shared_index"), rounds=1, iterations=1
    )
    report(
        format_table(
            ["queries", "separate sim-ms", "shared sim-ms",
             "separate probe-io", "shared probe-io", "probe share"],
            [
                (
                    r.n_queries,
                    r.separate_ms,
                    r.shared_ms,
                    r.separate_io_ms,
                    r.shared_io_ms,
                    f"{r.shared_io_ms / r.shared_ms:.0%}",
                )
                for r in rows
            ],
            title="Figure 11 — shared index star join (Queries 5,8,6,7 on "
            "A'B'C'D)\nPaper: probing dominates (>80%) and grows "
            "sublinearly when shared.",
        )
    )
    for r in rows:
        assert r.shared_ms <= r.separate_ms + 1e-6
    # Overlapping probe sets (Q5, Q8) make sharing win outright.
    assert rows[1].shared_ms < rows[1].separate_ms
    # Probing dominates the shared operator's time, as the paper observes.
    assert rows[-1].shared_io_ms / rows[-1].shared_ms > 0.8
    # Shared probe I/O grows sublinearly vs. the separate sum.
    assert rows[-1].shared_io_ms < rows[-1].separate_io_ms
