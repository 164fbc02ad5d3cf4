"""Test 3 / Figure 12: shared scan for hash- and index-based star joins.

Query 3 runs as a hash join; Queries 5, 6, 7 run as bitmap-index joins, all
on A'B'C'D (the paper's configuration).  The hybrid operator converts each
index plan's random probe phase into a bitmap filter over the shared
sequential scan.

Shape to reproduce: "adding a new index-based query to the operator only
increases the total execution time by a small amount", because the new
query's base-table I/O is absorbed by the scan and only a small CPU cost
(bitmap tests + processing the few matching tuples) remains.
"""

import pytest

from repro.bench.harness import run_figure
from repro.bench.reporting import format_table


def test_fig12_shared_hybrid(db, report, benchmark):
    rows = benchmark.pedantic(
        lambda: run_figure(db, "fig12_hybrid"), rounds=1, iterations=1
    )
    report(
        format_table(
            ["queries", "separate sim-ms", "shared sim-ms",
             "shared increment", "separate increment"],
            [
                (
                    r.n_queries,
                    r.separate_ms,
                    r.shared_ms,
                    r.shared_ms - rows[i - 1].shared_ms if i else 0.0,
                    r.separate_ms - rows[i - 1].separate_ms if i else 0.0,
                )
                for i, r in enumerate(rows)
            ],
            title="Figure 12 — shared scan for hash + index joins "
            "(Q3 hash + Q5,6,7 index on A'B'C'D)\nPaper: each added index "
            "query increases total time only slightly.",
        )
    )
    # Each added index query costs far less inside the shared operator than
    # run separately.
    for i in range(1, len(rows)):
        shared_inc = rows[i].shared_ms - rows[i - 1].shared_ms
        separate_inc = rows[i].separate_ms - rows[i - 1].separate_ms
        assert shared_inc < separate_inc
        # "Only ... a small amount": under a quarter of the standalone cost.
        assert shared_inc < 0.35 * separate_inc
    assert rows[-1].shared_ms < rows[-1].separate_ms
