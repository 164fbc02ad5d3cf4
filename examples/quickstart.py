#!/usr/bin/env python3
"""Quickstart: build a dimensional database, ask several related queries in
one MDX expression, and let the Global Greedy optimizer share their work.

Run:  python examples/quickstart.py
"""

from repro.core.explain import explain_plan
from repro.engine.sqlgen import to_sql
from repro.mdx import translate_mdx
from repro.workload.paper_queries import PAPER_MDX
from repro.workload.paper_schema import build_paper_database


def main() -> None:
    # 1. Build the paper's test database at 1% scale: a 20,000-row base
    #    table ABCD, six materialized group-bys, and star-join bitmap
    #    indexes on A, B, C.
    print("Building the paper's ABCD database (scale 0.01)...")
    db = build_paper_database(scale=0.01)
    print(f"{'table':12s} {'rows':>8s} {'pages':>6s}")
    for name, rows, pages in db.table_report():
        print(f"{name:12s} {rows:8d} {pages:6d}")

    # 2. One MDX expression bundling three related dimensional queries
    #    (the paper's Test 4 workload).
    mdx = "\n".join(PAPER_MDX[i].strip() for i in (1,))
    print("\nAn MDX query (the paper's Query 1):")
    print(mdx)
    queries = translate_mdx(db.schema, PAPER_MDX[1])
    print("\n...translates to the star-join SQL:")
    print(to_sql(db.schema, queries[0], fact_table="ABCD"))

    # 3. Optimize three related queries as a unit and execute.
    from repro.workload.paper_queries import paper_queries

    qs = paper_queries(db.schema)
    workload = [qs[1], qs[2], qs[3]]
    print("\nOptimizing Queries 1, 2, 3 as a unit:")
    for algorithm in ("naive", "tplo", "gg"):
        plan = db.optimize(workload, algorithm)
        report = db.execute(plan)
        print(f"\n--- {algorithm} ---")
        print(explain_plan(db, plan))
        print(report.summary())

    # 4. Results are real answers, not estimates.
    report = db.run_queries(workload, "gg")
    result = report.result_for(qs[3])
    print(f"\n{qs[3].describe(db.schema)}")
    for names, value in result.to_named_rows(db.schema)[:8]:
        print(f"  {', '.join(names):30s} {value:12.2f}")
    print(f"  ... {result.n_groups} groups total")


if __name__ == "__main__":
    main()
