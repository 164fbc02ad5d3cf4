"""EXPLAIN: the one module that turns a plan into text.

A plan holds only what was decided — classes, members, join methods, class
estimates, and for ``dag`` the search's typed record.  :func:`explain_plan`
renders that three ways from one place:

* each class as its physical operator tree, the way the paper draws its
  Figures 1–5, annotated with catalog statistics;
* for a ``dag`` plan, the AND-OR DAG block: shape, unified sub-expressions
  and the materializations the greedy search chose, straight from
  ``plan.search_stats["dag"]`` (:class:`~repro.dag.search.SearchStats`);
* handed the plan's :class:`~repro.core.executor.ExecutionReport`, EXPLAIN
  ANALYZE: every executed class and member annotated with estimated vs
  measured cost.  Per-member estimates are display-only, so they are
  computed here, on a fresh :class:`~repro.core.optimizer.cost.CostModel`,
  never on the planning path: *standalone* is the member alone on the
  class's table; *marginal* (the paper's ``CostOfUsing``) is ``cost(class
  as planned) − best cost(class without the member)``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from ..schema.lattice import build_keys
from ..schema.query import GroupByQuery
from ..schema.star import StarSchema
from ..storage.catalog import TableEntry
from .optimizer.cost import CostModel
from .optimizer.plans import (
    DeriveStep,
    GlobalPlan,
    JoinMethod,
    LocalPlan,
    PlanClass,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..dag.search import SearchStats
    from ..engine.database import Database
    from .executor import ClassExecution, ExecutionReport

#: OR-nodes the DAG block lists before it truncates.
MAX_DAG_NODES = 32


def _dim_structures(
    schema: StarSchema, entry: TableEntry, plans: List[LocalPlan]
) -> List[str]:
    """The shared dimension 'hash tables' the class will build: the
    distinct :func:`~repro.schema.lattice.build_keys` of its members — one
    rollup map per (dimension, target level), one filter mask per
    predicate."""
    maps = set()
    masks = set()
    for plan in plans:
        for key in build_keys(schema, entry.levels, plan.query):
            (maps if len(key) == 3 else masks).add(key)
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
    model: CostModel, entry: TableEntry, plan: LocalPlan
) -> List[str]:
    lines = []
    for pred in plan.query.predicates:
        dim = model.schema.dimensions[pred.dim_index]
        indexed = model.find_index(entry, pred) is not None
        lines.append(
            f"{'OR bitmaps' if indexed else 'residual filter'}: "
            f"{dim.level_name(pred.level)} ({len(pred.member_ids)} member(s))"
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


def explain_class(model: CostModel, plan_class: PlanClass) -> str:
    """Render one class as its physical operator tree."""
    schema = model.schema
    entry = model.catalog.get(plan_class.source)
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
            for phase in _index_phase_lines(model, entry, plan):
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
            for phase in _index_phase_lines(model, entry, plan):
                lines.append(f"│    {phase}")
    pipes = hash_plans + index_plans if not plan_class.is_pure_index else (
        index_plans
    )
    derive_steps = plan_class.derives
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
        for j, query in enumerate(step.queries):
            sub = "└─" if j == len(step.queries) - 1 else "├─"
            lines.append(
                f"{bar} {sub} derive {query.display_name()}: "
                f"re-aggregate -> GROUP BY {query.groupby.name(schema)}"
            )
    return "\n".join(lines)


# -- per-member estimates (EXPLAIN ANALYZE only) ------------------------------


def _members(
    plan_class: PlanClass, without: Optional[int] = None
) -> Tuple[List[GroupByQuery], List[DeriveStep]]:
    """The class's scan members and derive steps as the cost model takes
    them, optionally minus the member with qid ``without`` (a step it
    empties is dropped)."""
    scan = [
        p.query
        for p in plan_class.plans
        if p.method is not JoinMethod.DERIVE and p.query.qid != without
    ]
    steps = [step.without({without}) for step in plan_class.derives]
    return scan, [step for step in steps if step.queries]


def member_estimates(
    model: CostModel, plan_class: PlanClass
) -> List[Tuple[float, float]]:
    """``(standalone, marginal)`` estimated sim-ms per member, in plan
    order (see the module docstring for the one formula).  Each side of the
    marginal is a whole class costing: the float-order rule of
    :class:`~repro.core.optimizer.cost.MemberTerm` forbids ``total − term``.
    """
    entry = model.catalog.get(plan_class.source)
    scan, steps = _members(plan_class)
    if steps:
        planned = model.derive_class(entry, scan, steps).cost_ms
    else:
        planned = model.class_cost_given(
            entry, plan_class.queries, plan_class.methods
        )
    estimates = []
    for plan in plan_class.plans:
        scan, steps = _members(plan_class, without=plan.query.qid)
        if steps:
            rest = model.derive_class(entry, scan, steps).cost_ms
        elif scan:
            rest = model.plan_class(entry, scan).cost_ms
        else:
            rest = 0.0
        alone = model.standalone(entry, plan.query)
        estimates.append((alone[1] if alone else 0.0, planned - rest))
    return estimates


def _analysis_lines(model: CostModel, execution: "ClassExecution") -> List[str]:
    """The est-vs-actual annotations under one executed class's tree."""
    plan_class, sim, actuals = (
        execution.plan_class, execution.sim, execution.actuals
    )
    est, actual = execution.est_ms, execution.sim_ms
    gap = (actual / est - 1.0) * 100 if est else 0.0
    lines = [
        f"   => est {est:.1f} sim-ms, actual {actual:.1f} "
        f"sim-ms ({gap:+.0f}%, q-error {execution.q_error:.3f}), "
        f"wall {execution.wall_s * 1000:.1f} ms",
        f"   => actual io {sim.io_ms:.1f} + cpu {sim.cpu_ms:.1f} sim-ms; "
        f"{sim.seq_page_reads} seq / {sim.rand_page_reads} rand page "
        f"read(s), {sim.buffer_hits} buffer hit(s)",
    ]
    if actuals.rows_scanned:
        lines.append(
            f"   => scanned {actuals.rows_scanned} row(s) on "
            f"{actuals.pages_scanned} page(s)"
        )
    if actuals.probes_issued:
        lines.append(
            f"   => probed {actuals.probes_issued} row(s) via "
            f"union bitmap (popcount {actuals.union_popcount})"
        )
    for plan, (standalone, marginal) in zip(
        plan_class.plans, member_estimates(model, plan_class)
    ):
        qid = plan.query.qid
        routed = actuals.tuples_routed.get(qid)
        routed = "" if routed is None else f", routed {routed}"
        lines.append(
            f"      {plan.query.display_name()} "
            f"[{plan.method.name.lower()}]: est standalone "
            f"{standalone:.1f} / marginal {marginal:.1f} sim-ms; "
            f"actual pipeline cpu "
            f"{actuals.pipeline_cpu_ms.get(qid, 0.0):.2f} sim-ms "
            f"(rows {actuals.rows_in.get(qid, 0)} -> "
            f"{actuals.rows_passed.get(qid, 0)}{routed}, "
            f"{actuals.n_groups.get(qid, 0)} group(s))"
        )
    return lines


# -- the dag search's record ---------------------------------------------------


def _qids(qids: Sequence[int]) -> str:
    return ", ".join(f"Q{qid}" for qid in qids)


def _dag_block(stats: "SearchStats") -> str:
    """The AND-OR DAG of a ``dag`` plan as an indented tree: every OR-node
    two or more queries unify on or the search materialized, each with its
    alternative producers and the chosen host."""
    dag = stats.dag
    lines = [
        f"PlanDAG[dag] — {dag.n_or_nodes} OR-node(s), "
        f"{dag.n_and_nodes} AND-node(s), {dag.n_unified} unified "
        f"sub-expression(s), {len(dag.candidate_keys)} candidate "
        f"intermediate(s)",
        f"search: {stats.iterations} iteration(s), "
        f"{stats.moves_evaluated} move(s) evaluated "
        f"({stats.costings_memoized} costings memoized), "
        f"est {round(stats.initial_est_ms, 3)} -> "
        f"{round(stats.final_est_ms, 3)} sim-ms",
    ]
    chosen = {m.node_key: m for m in stats.materializations}
    shown = [
        dag.nodes[key]
        for key in sorted(dag.nodes)
        if dag.nodes[key].is_unified or key in chosen
    ][:MAX_DAG_NODES]
    for i, node in enumerate(shown):
        last = i == len(shown) - 1
        tags = [
            tag
            for tag, on in (
                ("unified", node.is_unified),
                ("materialized", node.key in chosen),
            )
            if on
        ]
        lines.append(
            f"{'└─' if last else '├─'} OR {node.key}  <- "
            f"{_qids(sorted(node.consumers))}"
            f"{'  [' + ', '.join(tags) + ']' if tags else ''}"
        )
        move = chosen.get(node.key)
        for j, alt in enumerate(node.alternatives):
            marker = ""
            if (
                move is not None
                and alt.op == "scan-join"
                and alt.source == move.host
            ):
                marker = (
                    f"  (chosen host, saves {round(move.gain_ms, 3)} sim-ms, "
                    f"derives {_qids(move.qids)})"
                )
            lines.append(
                f"{'   ' if last else '│  '} "
                f"{'└─' if j == len(node.alternatives) - 1 else '├─'} "
                f"AND {alt.op}[{alt.source}]{marker}"
            )
    if not shown:
        lines.append(
            "(no unified sub-expressions and no materializations — the "
            "plan is exactly the GG seed)"
        )
    return "\n".join(lines)


def explain_plan(
    db: "Database",
    plan: GlobalPlan,
    report: "Optional[ExecutionReport]" = None,
) -> str:
    """Render ``plan``: one operator tree per class, then a ``dag`` plan's
    DAG block.  With ``report`` — the execution of this plan; any other is
    a ``ValueError`` — the output is EXPLAIN ANALYZE instead: the report's
    summary, then the tree of every class it executed, annotated with
    estimated vs measured cost per class and per member."""
    model = CostModel.for_database(db)
    if report is not None:
        if report.plan is not plan:
            raise ValueError("report is not an execution of this plan")
        # Executions are folded in plan order; a failed class has none.
        blocks = [report.summary()]
        for execution in report.class_executions:
            tree = explain_class(model, execution.plan_class)
            blocks.append(
                "\n".join([tree, *_analysis_lines(model, execution)])
            )
        return "\n\n".join(blocks)
    blocks = [
        f"GlobalPlan[{plan.algorithm}] — {plan.n_queries} queries, "
        f"{len(plan.classes)} class(es), est {plan.est_cost_ms:.1f} sim-ms"
    ]
    blocks.extend(explain_class(model, cls) for cls in plan.classes)
    stats = plan.search_stats.get("dag")
    if stats is not None:
        blocks.append(_dag_block(stats))
    return "\n\n".join(blocks)
