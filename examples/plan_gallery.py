#!/usr/bin/env python3
"""A gallery of executable query plans — the textual counterpart of the
paper's Figures 1-9 (single plans, shared-scan plans, bitmap plans, the
TPLO/ETPLG/GG walkthroughs of Figures 6-9).

Run:  python examples/plan_gallery.py
"""

from repro.core.explain import explain_class, explain_plan
from repro.core.optimizer import CostModel, JoinMethod
from repro.core.optimizer.plans import LocalPlan, PlanClass
from repro.workload.paper_queries import paper_queries
from repro.workload.paper_schema import build_paper_database


def main() -> None:
    db = build_paper_database(scale=0.005)
    qs = paper_queries(db.schema)
    model = CostModel.for_database(db)

    print("Figure 1 — a single hash star-join plan")
    _method, cost = model.standalone(db.catalog.get("ABCD"), qs[1])
    cls = PlanClass(
        source="ABCD", plans=[LocalPlan(qs[1], "ABCD", JoinMethod.HASH)]
    )
    print(explain_class(model, cls))
    print(f"  estimated {cost:.1f} sim-ms alone")

    print("\nFigure 2 — shared scan: three group-bys off one scan")
    cls = PlanClass(
        source="ABCD",
        plans=[LocalPlan(qs[i], "ABCD", JoinMethod.HASH) for i in (1, 2, 3)],
    )
    print(explain_class(model, cls))

    print("\nFigures 3-4 — bitmap index plan and shared bitmap plan")
    print("  per dim: OR member bitmaps; AND across dims -> result bitmap")
    print("  shared: OR the per-query result bitmaps, probe once, route "
          "tuples\n  through per-query 'Filter tuples' operators")
    cls = PlanClass(
        source="A'B'C'D",
        plans=[
            LocalPlan(qs[i], "A'B'C'D", JoinMethod.INDEX) for i in (5, 6, 7)
        ],
    )
    print(explain_class(model, cls))

    print("\nFigure 5 — hybrid: index plans ride a shared scan")
    cls = PlanClass(
        source="A'B'C'D",
        plans=[
            LocalPlan(qs[3], "A'B'C'D", JoinMethod.HASH),
            LocalPlan(qs[5], "A'B'C'D", JoinMethod.INDEX),
        ],
    )
    print(explain_class(model, cls))

    print("\nFigures 6-9 — the optimizer walkthrough on Queries 1,2,3")
    workload = [qs[1], qs[2], qs[3]]
    for algorithm in ("tplo", "etplg", "gg", "optimal"):
        plan = db.optimize(workload, algorithm)
        print(f"\n--- {algorithm} "
              f"({plan.search_stats.plan_costings} class costings) ---")
        print(explain_plan(db, plan))


if __name__ == "__main__":
    main()
