"""Test 1 / Figure 10: the shared scan hash-based star join operator.

Queries 1–4, each forced to a hash star join on the base table ABCD (as the
paper forces them).  Dotted bars = the queries run separately (cold each);
solid bars = one shared-scan operator.  Shape to reproduce: separate grows
linearly with the number of queries, shared grows only by per-query CPU, so
the gap widens — while the shared scan's I/O stays constant.
"""

import pytest

from repro.bench.harness import run_figure
from repro.bench.reporting import format_table

#: Paper's reading of Figure 10 (seconds, eyeballed from the bars): separate
#: roughly doubles from 2 to 4 queries; shared grows by a small CPU delta.
PAPER_SHAPE_NOTE = (
    "Paper: separate grows ~linearly; shared nearly flat "
    "(CPU-only growth per added query)."
)


def test_fig10_shared_scan(db, report, benchmark):
    rows = benchmark.pedantic(
        lambda: run_figure(db, "fig10_shared_scan"), rounds=1, iterations=1
    )
    report(
        format_table(
            ["queries", "separate sim-ms", "shared sim-ms", "shared io-ms",
             "speedup"],
            [
                (r.n_queries, r.separate_ms, r.shared_ms, r.shared_io_ms,
                 r.speedup)
                for r in rows
            ],
            title="Figure 10 — shared scan hash star join (Queries 1-4 on "
            "ABCD)\n" + PAPER_SHAPE_NOTE,
        )
    )
    # Separate execution is linear in k (each run scans ABCD again).
    assert rows[3].separate_ms == pytest.approx(4 * rows[0].separate_ms, rel=0.05)
    # The shared operator's I/O does not grow with k...
    assert rows[3].shared_io_ms == pytest.approx(rows[0].shared_io_ms, rel=0.02)
    # ...only its CPU does, so the gap widens monotonically.
    gaps = [r.separate_ms - r.shared_ms for r in rows]
    assert gaps == sorted(gaps)
    assert rows[3].speedup > 2.5
