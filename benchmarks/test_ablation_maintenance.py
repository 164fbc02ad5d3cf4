"""Ablation: incremental view maintenance vs rebuilding from scratch.

The paper's Section 1 motivates precomputation with work on "effectively
creating and maintaining materialized group-bys"; our engine maintains
views and indexes incrementally under appends.  This benchmark measures the
wall-clock cost of maintaining the paper database through a stream of
append batches against rebuilding every view per batch, and verifies the
maintained state answers queries identically.
"""

import time

from repro.bench.reporting import format_table
from repro.check import evaluate_reference
from repro.workload.generator import generate_fact_columns, generate_fact_rows
from repro.workload.paper_queries import paper_queries
from repro.workload.paper_schema import PAPER_MATERIALIZED, PaperConfig, build_paper_database

from conftest import bench_scale

BATCHES = 4
BATCH_ROWS = 500


def fresh():
    return build_paper_database(
        config=PaperConfig(scale=bench_scale() / 2, indexed_tables=())
    )


def test_incremental_vs_rebuild(report, benchmark):
    def run():
        incremental_db = fresh()
        rebuild_db = fresh()
        incremental_s = 0.0
        rebuild_s = 0.0
        for batch in range(BATCHES):
            rows = generate_fact_rows(
                incremental_db.schema, BATCH_ROWS, seed=9000 + batch
            )
            started = time.perf_counter()
            incremental_db.append_rows(rows)
            incremental_s += time.perf_counter() - started

            started = time.perf_counter()
            rebuild_db.catalog.get("ABCD").table.extend_columns(
                *generate_fact_columns(  # the same draws, as stored
                    rebuild_db.schema, BATCH_ROWS, seed=9000 + batch
                )
            )
            for name in list(rebuild_db.catalog.names()):
                if name == "ABCD":
                    continue
                rebuild_db.catalog.drop(name)
            for groupby in PAPER_MATERIALIZED:
                rebuild_db.materialize(groupby)
            rebuild_s += time.perf_counter() - started
        return incremental_db, rebuild_db, incremental_s, rebuild_s

    incremental_db, rebuild_db, incremental_s, rebuild_s = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    report(
        format_table(
            ["strategy", "wall-s for 4x500-row batches"],
            [
                ("incremental maintenance", incremental_s),
                ("rebuild all views per batch", rebuild_s),
            ],
            title="Ablation — view maintenance under appends",
        )
    )
    # Both strategies end in the same logical state: every view answers the
    # paper's queries identically to a reference over the grown base.
    qs = paper_queries(incremental_db.schema)
    base = incremental_db.catalog.get("ABCD")
    for query_id in (1, 3):
        query = qs[query_id]
        expected = evaluate_reference(
            incremental_db.schema,
            base.table.all_rows(),
            query,
            base.levels,
        )
        got = incremental_db.run_queries([query], "gg").result_for(query)
        assert got.groups == expected.groups
    # And incremental is cheaper than wholesale rebuilding (wall-clock is
    # noisy at this scale; allow a small tolerance).
    assert incremental_s < rebuild_s * 1.1
