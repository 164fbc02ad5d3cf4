"""Ablation: bitmap vs position-list (B-tree) join-index payloads.

Section 3.3 allows star-join indexes to be "either position based B-tree or
bitmap indices".  Both payloads drive the same operators through the Bitmap
interface; this benchmark confirms the answers are identical and compares
their simulated costs on the Test 2 workload.
"""

from repro.bench.harness import forced_plan
from repro.bench.reporting import format_table
from repro.core.optimizer.plans import JoinMethod
from repro.workload.paper_queries import paper_queries
from repro.workload.paper_schema import PaperConfig, build_paper_database

from conftest import bench_scale


def build(kind: str):
    config = PaperConfig(scale=bench_scale(), indexed_tables=())
    db = build_paper_database(config=config)
    for table in ("ABCD", "A'B'C'D"):
        db.index_all_dimensions(table, dim_names=("A", "B", "C"), kind=kind)
    return db


def test_bitmap_vs_btree_payloads(report, benchmark):
    def run():
        rows = []
        results = {}
        for kind in ("bitmap", "btree"):
            db = build(kind)
            qs = paper_queries(db.schema)
            queries = [qs[i] for i in (5, 6, 7, 8)]
            run_ = db.execute(
                forced_plan("A'B'C'D", queries, [JoinMethod.INDEX] * 4)
            )
            results[kind] = list(run_.results.values())
            rows.append((kind, run_.sim_ms, run_.sim_io_ms, run_.sim_cpu_ms))
        return rows, results

    (rows, results) = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        format_table(
            ["index kind", "sim-ms", "io-ms", "cpu-ms"],
            rows,
            title="Ablation — bitmap vs B-tree (position list) join index, "
            "shared index join of Queries 5-8",
        )
    )
    # Identical answers regardless of payload encoding.
    for bitmap_result, btree_result in zip(results["bitmap"], results["btree"]):
        assert bitmap_result.groups == btree_result.groups
    # Both are in the same cost ballpark (payload choice is not the story).
    sims = [r[1] for r in rows]
    assert max(sims) < 3 * min(sims)
