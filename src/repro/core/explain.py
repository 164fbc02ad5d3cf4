"""Operator-tree EXPLAIN: render a plan class the way the paper draws its
Figures 1–5.

A class's method mix determines the physical operator the executor will
run; this module renders the same decision as an annotated ASCII tree with
catalog statistics, so users can inspect exactly what will be shared before
executing.
"""

from __future__ import annotations

from typing import List

from ..schema.star import StarSchema
from ..storage.catalog import Catalog, TableEntry
from .optimizer.plans import GlobalPlan, JoinMethod, LocalPlan, PlanClass


def _dim_structures(
    schema: StarSchema, entry: TableEntry, plans: List[LocalPlan]
) -> List[str]:
    """The shared dimension 'hash tables' the class will build: one rollup
    map per distinct (dimension, target level) and one filter mask per
    distinct predicate (mirrors RollupCache)."""
    maps = set()
    masks = set()
    for plan in plans:
        query = plan.query
        for d, dim in enumerate(schema.dimensions):
            stored = entry.levels[d]
            target = query.groupby.levels[d]
            if target not in (stored, dim.all_level):
                maps.add((d, stored, target))
            for pred in query.predicates_on(d):
                masks.add((d, stored, pred.level, pred.member_ids))
    lines = []
    for d, stored, target in sorted(maps):
        dim = schema.dimensions[d]
        lines.append(
            f"rollup {dim.level_name(stored)} -> {dim.level_name(target)} "
            f"({dim.n_members(stored)} entries)"
        )
    for d, stored, level, members in sorted(
        masks, key=lambda m: (m[0], m[2])
    ):
        dim = schema.dimensions[d]
        lines.append(
            f"filter mask on {dim.level_name(level)} "
            f"({len(members)} member(s), over {dim.n_members(stored)} keys)"
        )
    return lines


def _pipeline_line(schema: StarSchema, plan: LocalPlan) -> str:
    query = plan.query
    preds = len(query.predicates)
    return (
        f"{query.display_name()}: probe -> "
        f"{'filter(' + str(preds) + ' preds) -> ' if preds else ''}"
        f"aggregate[{query.aggregate.value.upper()}] "
        f"GROUP BY {query.groupby.name(schema)}"
    )


def _index_phase_lines(
    schema: StarSchema, entry: TableEntry, plan: LocalPlan
) -> List[str]:
    lines = []
    for pred in plan.query.predicates:
        dim = schema.dimensions[pred.dim_index]
        has_index = any(
            entry.index_for(pred.dim_index, level) is not None
            for level in range(pred.level, entry.levels[pred.dim_index] - 1, -1)
        )
        verb = "OR bitmaps" if has_index else "residual filter"
        lines.append(
            f"{verb}: {dim.level_name(pred.level)} "
            f"({len(pred.member_ids)} member(s))"
        )
    return lines


#: The paper's name for each operator kind (:attr:`PlanClass.operator_kind`).
_OPERATOR_TITLES = {
    "shared_dag": "SharedDagStarJoin",
    "shared_scan_hash": "SharedScanHashStarJoin",
    "index_star": "IndexStarJoin",
    "shared_index": "SharedIndexStarJoin",
    "shared_hybrid": "SharedHybridStarJoin",
}


def explain_class(
    schema: StarSchema, catalog: Catalog, plan_class: PlanClass
) -> str:
    """Render one class as its physical operator tree."""
    entry = catalog.get(plan_class.source)
    hash_plans = [
        p for p in plan_class.plans if p.method is JoinMethod.HASH
    ]
    index_plans = [
        p for p in plan_class.plans if p.method is JoinMethod.INDEX
    ]
    operator = _OPERATOR_TITLES[plan_class.operator_kind]
    if operator == "SharedScanHashStarJoin" and len(plan_class.plans) == 1:
        operator = "HashStarJoin"  # the paper's Figure 1 single-query plan
    lines = [
        f"{operator} on {entry.name} "
        f"({entry.n_rows} rows, {entry.n_pages} pages"
        f"{', clustered' if entry.clustered else ''})"
    ]
    if plan_class.is_pure_index:
        for plan in index_plans:
            lines.append(f"├─ bitmap[{plan.query.display_name()}]:")
            for phase in _index_phase_lines(schema, entry, plan):
                lines.append(f"│    {phase}")
        lines.append("├─ OR the per-query bitmaps; probe base table once")
        lines.append("├─ route tuples (Filter tuples per query)")
    else:
        lines.append(f"├─ SeqScan({entry.name})")
        structures = _dim_structures(schema, entry, plan_class.plans)
        if structures:
            lines.append("├─ build shared dimension structures:")
            for structure in structures:
                lines.append(f"│    {structure}")
        for plan in index_plans:
            lines.append(
                f"├─ bitmap[{plan.query.display_name()}] "
                f"(filters the scan, no probe I/O):"
            )
            for phase in _index_phase_lines(schema, entry, plan):
                lines.append(f"│    {phase}")
    pipes = hash_plans + index_plans if not plan_class.is_pure_index else (
        index_plans
    )
    derive_steps = list(getattr(plan_class, "derives", None) or ())
    for i, plan in enumerate(pipes):
        last = i == len(pipes) - 1 and not derive_steps
        connector = "└─" if last else "├─"
        lines.append(f"{connector} {_pipeline_line(schema, plan)}")
    for i, step in enumerate(derive_steps):
        connector = "└─" if i == len(derive_steps) - 1 else "├─"
        bar = "   " if connector == "└─" else "│  "
        inter = step.intermediate
        lines.append(
            f"{connector} materialize {inter.groupby.name(schema)} "
            f"[{inter.aggregate.value.upper()}] (~{step.est_rows:.0f} rows)"
        )
        members = plan_class.derived_queries(step)
        for j, query in enumerate(members):
            sub = "└─" if j == len(members) - 1 else "├─"
            lines.append(
                f"{bar} {sub} derive {query.display_name()}: "
                f"re-aggregate -> GROUP BY {query.groupby.name(schema)}"
            )
    return "\n".join(lines)


def explain_plan(
    schema: StarSchema, catalog: Catalog, plan: GlobalPlan
) -> str:
    """Render a whole global plan: one operator tree per class."""
    header = (
        f"GlobalPlan[{plan.algorithm}] — {plan.n_queries} queries, "
        f"{len(plan.classes)} class(es), est {plan.est_cost_ms:.1f} sim-ms"
    )
    blocks = [header]
    for plan_class in plan.classes:
        blocks.append(explain_class(schema, catalog, plan_class))
    return "\n\n".join(blocks)
