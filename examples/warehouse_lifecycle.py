#!/usr/bin/env python3
"""A full warehouse lifecycle on top of the reproduction engine:

1. load a base fact table;
2. choose which group-bys to precompute (greedy / HRU view selection);
3. build them finest-first, each derived from the smallest table that
   can feed it;
4. ANALYZE so the optimizer prices predicates by measured selectivity;
5. serve a session of MDX expressions with cross-expression optimization
   and duplicate elimination;
6. append new facts — views and indexes maintain incrementally — and query
   again.

Run:  python examples/warehouse_lifecycle.py
"""

from repro.core.explain import explain_plan
from repro.engine.session import QuerySession
from repro.engine.view_selection import (
    greedy_select_views,
    materialize_selection,
)
from repro.workload.generator import generate_fact_rows
from repro.workload.paper_queries import PAPER_MDX
from repro.workload.paper_schema import PaperConfig, build_paper_database


def main() -> None:
    # 1. Base table only: no precomputation yet.
    config = PaperConfig(scale=0.005, materialized=(), indexed_tables=())
    db = build_paper_database(config=config)
    print("loaded base table:", db.table_report())

    # 2. Greedy view selection over the lattice.
    n_base = db.catalog.get("ABCD").n_rows
    selection = greedy_select_views(db.schema, n_base, n_views=4)
    print("\ngreedy view selection:")
    for step in selection.steps:
        print(
            f"  materialize {step.view.name(db.schema):10s} "
            f"(~{step.estimated_rows} rows, saves ~{step.benefit:.0f} rows "
            f"of reading)"
        )

    # 3. Build the selection, finest view first.
    created = materialize_selection(db, selection)
    print("\nmaterialized, finest first:", ", ".join(created))
    db.index_all_dimensions("ABCD", dim_names=("A", "B", "C"))

    # 4. ANALYZE: measured selectivities for the optimizer.
    db.analyze()
    print(f"\nanalyzed {len(db.table_statistics)} table(s)")

    # 5. A session of three MDX expressions (note Query 3 repeats).
    session = QuerySession(db, algorithm="gg")
    session.add_mdx(PAPER_MDX[1], "exprA")
    session.add_mdx(PAPER_MDX[3], "exprB")
    session.add_mdx(PAPER_MDX[3], "exprC")  # a duplicate ask
    result = session.run()
    print("\n" + result.summary())
    print("\nthe session's global plan:")
    print(explain_plan(db, result.execution.plan))

    # 6. New facts arrive; everything maintains incrementally.
    fresh = generate_fact_rows(db.schema, 500, seed=2024)
    maintenance = db.append_rows(fresh)
    print(f"\nappended 500 rows; views updated: "
          f"{ {k: v for k, v in maintenance.items() if k != 'ABCD'} }")
    after = db.run_mdx(PAPER_MDX[3], "gg")
    print(after.summary())
    q3_result = next(iter(after.results.values()))
    print(f"Query 3 now aggregates {q3_result.total():.2f} "
          f"over {q3_result.n_groups} group(s)")


if __name__ == "__main__":
    main()
