"""Ablation: the planning-effort trade-off (the paper's Section 8).

"In terms of the number of global plans searched, GG dominates ETPLG and
ETPLG dominates TPLO.  However, this comes at a price — the run time of GG
is bigger than that of ETPLG, and ETPLG is slower than TPLO."

We measure both sides at once: class costings performed (search effort) and
the executed quality of the resulting plan, for each algorithm over the four
paper test workloads.
"""

from repro.bench.reporting import format_table
from repro.workload.paper_queries import PAPER_TESTS

ALGORITHMS = ("tplo", "etplg", "bgg", "gg", "optimal")


def test_planning_effort_vs_plan_quality(db, qs, report, benchmark):
    def run():
        rows = []
        for test_name, ids in PAPER_TESTS.items():
            queries = [qs[i] for i in ids]
            for algorithm in ALGORITHMS:
                plan = db.optimize(queries, algorithm)
                exec_report = db.execute(plan)
                rows.append(
                    (
                        test_name,
                        algorithm,
                        plan.search_stats.plan_costings,
                        plan.search_stats.planning_s * 1000,
                        exec_report.sim_ms,
                    )
                )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        format_table(
            ["workload", "algorithm", "class costings", "planning wall-ms",
             "executed sim-ms"],
            rows,
            title="Ablation — planning effort vs plan quality "
            "(paper Section 8 trade-off)",
        )
    )
    by_key = {(r[0], r[1]): r for r in rows}
    for test_name in PAPER_TESTS:
        tplo = by_key[(test_name, "tplo")]
        etplg = by_key[(test_name, "etplg")]
        bgg = by_key[(test_name, "bgg")]
        gg = by_key[(test_name, "gg")]
        # Search effort: GG >= BGG >= ETPLG >= TPLO; `optimal` is the
        # set-partition DP (2^n·t costings — its scaling is pinned by
        # tests/test_dp_optimizer.py on an 8-query batch).
        assert gg[2] >= bgg[2] >= etplg[2] >= tplo[2]
        # Quality (executed sim time): GG never worse than ETPLG by more
        # than noise; both never worse than TPLO by more than noise — and
        # the future-work BGG matches GG's quality at lower search effort.
        assert gg[4] <= etplg[4] * 1.05
        assert etplg[4] <= tplo[4] * 1.05
        assert bgg[4] <= gg[4] * 1.05
