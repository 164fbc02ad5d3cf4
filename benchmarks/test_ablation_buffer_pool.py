"""Ablation: buffer-pool size and the value of operator-level sharing.

The paper runs everything cold (flushed pools), so the shared operators are
the *only* source of reuse.  A natural question: would a big buffer pool
make operator-level sharing redundant?  We execute Queries 1–4 back-to-back
*warm* (no flushes) under growing pool sizes and compare with the shared
operator: even a pool large enough to cache the whole base table only
removes the I/O, while the shared scan also shares the dimension hash
tables — and needs no cache residency at all.
"""

from repro.bench.harness import forced_plan
from repro.bench.reporting import format_table
from repro.core.optimizer.plans import JoinMethod
from repro.workload.paper_queries import paper_queries
from repro.workload.paper_schema import PaperConfig, build_paper_database

from conftest import bench_scale

POOL_PAGES = (64, 512, 4096)


def test_pool_size_vs_shared_operator(report, benchmark):
    def run():
        rows = []
        for pool_pages in POOL_PAGES:
            config = PaperConfig(scale=bench_scale(), buffer_pages=pool_pages)
            db = build_paper_database(config=config)
            qs = paper_queries(db.schema)
            queries = [qs[i] for i in (1, 2, 3, 4)]
            methods = [JoinMethod.HASH] * 4
            # Warm separate runs: flush once, then run all four without
            # flushing so the pool can help.
            db.flush()
            warm_total = db.execute(
                forced_plan("ABCD", queries, methods, separate=True),
                cold=False,
            ).sim_ms
            shared = db.execute(forced_plan("ABCD", queries, methods))
            base_pages = db.catalog.get("ABCD").n_pages
            rows.append(
                (
                    pool_pages,
                    "yes" if pool_pages >= base_pages else "no",
                    warm_total,
                    shared.sim_ms,
                )
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        format_table(
            ["pool pages", "table fits", "warm separate sim-ms",
             "shared operator sim-ms"],
            rows,
            title="Ablation — buffer-pool size vs the shared scan operator "
            "(Queries 1-4, hash joins on ABCD)",
        )
    )
    # With a small pool (LRU scan thrashing) warm separate ~= cold separate;
    # the shared operator wins big.
    small = rows[0]
    assert small[3] < 0.5 * small[2]
    # Even with the whole table cached, the shared operator is never worse:
    # it still builds each dimension structure once.
    big = rows[-1]
    assert big[3] <= big[2] * 1.02
