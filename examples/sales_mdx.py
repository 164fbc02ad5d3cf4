#!/usr/bin/env python3
"""The paper's Section 2 walkthrough: one MDX expression over a SalesCube,
six component group-by queries, one shared evaluation.

The MDX expression is the example the paper quotes from Microsoft's
"OLE DB for OLAP" specification: total sales for salesmen Venkatrao and Netz
in the states of USA_North, in USA_South, and in Japan, by month for Qtr1
and Qtr4, by quarter for Qtr2 and Qtr3, for 1991.

Run:  python examples/sales_mdx.py
"""

from repro.core.explain import explain_plan
from repro.mdx import parse_mdx, translate_mdx
from repro.workload.sales_demo import SECTION2_MDX, build_sales_database


def main() -> None:
    print("Building SalesCube (20,000 fact rows)...")
    db = build_sales_database(n_rows=20_000)
    print(f"{'table':22s} {'rows':>8s} {'pages':>6s}")
    for name, rows, pages in db.table_report():
        print(f"{name:22s} {rows:8d} {pages:6d}")

    print("\nThe MDX expression (paper Section 2):")
    print(str(parse_mdx(SECTION2_MDX)))

    queries = translate_mdx(db.schema, SECTION2_MDX, label_prefix="Sales")
    print(f"\nIt splits into {len(queries)} component group-by queries:")
    for query in queries:
        print(" *", query.describe(db.schema))

    print("\nOptimizing all six as a unit (Global Greedy):")
    plan = db.optimize(queries, "gg")
    print(explain_plan(db, plan))

    report = db.execute(plan)
    print("\n" + report.summary())
    naive = db.run_queries(queries, "naive")
    print(naive.summary())
    speedup = naive.sim_ms / report.sim_ms
    print(f"shared evaluation is {speedup:.1f}x cheaper than one-at-a-time")

    print("\nSample answers (quarterly sales in USA_South):")
    for result in report.results.values():
        store = db.schema.dim_index("Store")
        region_level = db.schema.dimension("Store").level_depth("Region")
        if result.query.groupby.levels[store] == region_level and (
            result.query.groupby.levels[db.schema.dim_index("Time")] == 2
        ):
            for names, value in result.to_named_rows(db.schema):
                print(f"  {', '.join(names):45s} {value:12.2f}")


if __name__ == "__main__":
    main()
