"""Plan execution: lower each class onto the matching shared operator.

* all-hash, mixed, and derive-carrying classes → the shared scan
  (Sections 3.1 / 3.3, plus the DAG layer's derive phase),
* all-index classes → the (shared) index join (Section 3.2).

There is one executor, :func:`execute_plan`, over a (class × shard) grid:
serial, parallel, and sharded execution are the same code with different
grid shapes and worker counts.  It reproduces the paper's measurement
discipline — with ``cold=True`` (default) every class starts from an empty
buffer pool, as the paper "flushed both the Unix file system buffer and
Paradise buffer pool before running each test".  Each class's simulated
cost (from the :class:`~repro.storage.iostats.IOStats` clock) and real wall
time are reported separately.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..faults import InjectedFault, PartialResultError
from ..obs.metrics import default_registry
from ..schema.query import GroupByQuery
from ..storage.iostats import IOStats
from .operators.hash_join import SharedScanStarJoin
from .operators.index_join import IndexStarJoin, SharedIndexStarJoin
from .operators.pipeline import ExecContext
from .operators.results import (
    OperatorActuals,
    QueryResult,
    merge_actuals,
    merge_partial_results,
    q_error,
)
from .optimizer.plans import GlobalPlan, JoinMethod, PlanClass

if TYPE_CHECKING:  # pragma: no cover
    from ..engine.database import Database
    from ..serve.shard import ShardSet


@dataclass
class ClassExecution:
    """The measured execution of one class."""

    plan_class: PlanClass
    results: List[QueryResult]
    sim: IOStats
    wall_s: float
    #: What the physical operator really did (rows scanned, probes issued,
    #: per-query routed tuples, …); summed over shards for a sharded class.
    actuals: OperatorActuals

    @property
    def sim_ms(self) -> float:
        """Total simulated milliseconds (I/O + CPU)."""
        return self.sim.total_ms

    @property
    def est_ms(self) -> float:
        """The optimizer's estimated cost for this class."""
        return self.plan_class.est_cost_ms

    @property
    def q_error(self) -> float:
        """``max(est/actual, actual/est)`` of this class's cost estimate."""
        return q_error(self.est_ms, self.sim_ms)


@dataclass
class ClassFailure:
    """One class that failed mid-execution (fault isolation kept siblings).

    ``sim`` holds the cost charged *before* the failure — real work the
    clock already accounted — so reports stay truthful about spend even
    for aborted classes."""

    plan_class: PlanClass
    error: BaseException
    sim: IOStats
    wall_s: float

    @property
    def qids(self) -> List[int]:
        """The qids whose results this failure took down."""
        return [q.qid for q in self.plan_class.queries]

    @property
    def sim_ms(self) -> float:
        """Simulated milliseconds charged before the class aborted."""
        return self.sim.total_ms


@dataclass
class ExecutionReport:
    """The measured execution of a whole global plan.

    ``failures`` lists classes that aborted on an
    :class:`~repro.faults.InjectedFault`; their sibling classes'
    executions are unaffected and byte-identical to a fault-free run.

    ``cache_hits`` holds the submitted queries :meth:`Database.run_queries
    <repro.engine.database.Database.run_queries>` answered from the result
    cache instead of planning them: ``plan`` and ``class_executions``
    cover only the executed remainder, while :attr:`results`,
    :attr:`n_queries` and :meth:`result_for` describe the whole submitted
    batch."""

    plan: GlobalPlan
    class_executions: List[ClassExecution] = field(default_factory=list)
    failures: List[ClassFailure] = field(default_factory=list)
    cache_hits: Dict[int, QueryResult] = field(default_factory=dict)
    #: Elapsed wall seconds of the execution as its caller saw it (set by
    #: :meth:`Database.execute`); :attr:`wall_s` sums cells across worker
    #: threads and is not elapsed time.
    elapsed_s: float = 0.0

    @property
    def results(self) -> Dict[int, QueryResult]:
        """Results keyed by ``query.qid``: executed ones overlaid with
        the cache hits."""
        out: Dict[int, QueryResult] = {}
        for execution in self.class_executions:
            for result in execution.results:
                out[result.query.qid] = result
        out.update(self.cache_hits)
        return out

    @property
    def n_cache_hits(self) -> int:
        """How many of the submitted queries came from the result cache."""
        return len(self.cache_hits)

    @property
    def n_queries(self) -> int:
        """Number of *submitted* queries: planned ones plus cache hits."""
        return self.plan.n_queries + len(self.cache_hits)

    @property
    def failed_qids(self) -> List[int]:
        """Sorted qids of every query whose class failed."""
        return sorted({qid for f in self.failures for qid in f.qids})

    def result_for(self, query: GroupByQuery) -> QueryResult:
        """The result of one submitted query, by its qid.

        Raises :class:`~repro.faults.PartialResultError` when the plan
        covered the query but its class failed mid-execution (the report is
        partial), and :class:`~repro.check.errors.PlanCoverageError` when
        the plan never covered it at all — both KeyError subclasses, so an
        empty or degenerate plan must not fail with a bare ``KeyError``.
        """
        results = self.results
        try:
            return results[query.qid]
        except KeyError:
            pass
        for failure in self.failures:
            if query.qid in failure.qids:
                raise PartialResultError(
                    f"no result for {query.display_name()} (qid "
                    f"{query.qid}): its class over {failure.plan_class.source!r}"
                    f" failed mid-execution ({failure.error}); "
                    f"{len(results)} sibling result(s) survived"
                ) from failure.error
        from ..check.errors import PlanCoverageError

        raise PlanCoverageError(
            f"no result for {query.display_name()} (qid {query.qid}): "
            f"the {self.plan.algorithm!r} plan placed it in no class "
            f"(answered qids: {sorted(results) or 'none'})"
        ) from None

    @property
    def sim_ms(self) -> float:
        """Total simulated milliseconds (I/O + CPU), including the partial
        cost charged by classes that later failed."""
        return sum(e.sim_ms for e in self.class_executions) + sum(
            f.sim_ms for f in self.failures
        )

    @property
    def sim_io_ms(self) -> float:
        """Simulated I/O milliseconds."""
        return sum(e.sim.io_ms for e in self.class_executions) + sum(
            f.sim.io_ms for f in self.failures
        )

    @property
    def sim_cpu_ms(self) -> float:
        """Simulated CPU milliseconds."""
        return sum(e.sim.cpu_ms for e in self.class_executions) + sum(
            f.sim.cpu_ms for f in self.failures
        )

    @property
    def wall_s(self) -> float:
        """Measured wall-clock seconds."""
        return sum(e.wall_s for e in self.class_executions) + sum(
            f.wall_s for f in self.failures
        )

    @property
    def est_ms(self) -> float:
        """The optimizer's estimated cost of the whole plan."""
        return self.plan.est_cost_ms

    @property
    def q_error(self) -> float:
        """Q-error of the whole plan's cost estimate."""
        return q_error(self.est_ms, self.sim_ms)

    def summary(self) -> str:
        """One-line summary for logs and console output."""
        failed = ""
        if self.failures:
            failed = (
                f", {len(self.failures)} class(es) FAILED "
                f"(qids {self.failed_qids})"
            )
        queries = f"{self.n_queries} queries"
        if self.cache_hits:
            queries += (
                f" ({self.n_cache_hits} from cache, "
                f"{self.plan.n_queries} executed)"
            )
        return (
            f"{self.plan.algorithm}: {queries}, "
            f"{len(self.class_executions)} class(es), "
            f"sim {self.sim_ms:.1f} ms "
            f"(io {self.sim_io_ms:.1f} + cpu {self.sim_cpu_ms:.1f}), "
            f"wall {self.wall_s * 1000:.1f} ms{failed}"
        )


def run_class_accounted(
    ctx: ExecContext, plan_class: PlanClass
) -> Tuple[List[QueryResult], OperatorActuals]:
    """Execute one class with the operator its method mix calls for
    (:attr:`PlanClass.operator_kind`), returning the results *and* the
    operator's measured actuals.

    Results are returned in the class's plan order.  When the context's
    tracer is live, the physical operator runs inside an
    ``operator.<kind>`` span whose cost-clock delta is exactly the class's
    charged work; the operator's actuals land in the span's ``actuals``
    attribute and a shared scan's batch count in ``morsels``.
    """
    kind = plan_class.operator_kind
    queries = plan_class.queries
    source = plan_class.source
    hash_queries = [
        p.query for p in plan_class.plans if p.method is JoinMethod.HASH
    ]
    index_queries = [
        p.query for p in plan_class.plans if p.method is JoinMethod.INDEX
    ]
    derives = plan_class.derives
    if kind in ("shared_hybrid", "shared_dag"):
        attrs = {"n_hash": len(hash_queries), "n_index": len(index_queries)}
        if derives:
            attrs["n_intermediates"] = len(derives)
            attrs["n_derived"] = sum(len(step.queries) for step in derives)
    else:
        attrs = {"n_queries": len(queries)}
    with ctx.tracer.span(f"operator.{kind}", source=source, **attrs) as span:
        if kind == "index_star":
            operator = IndexStarJoin(ctx, source, queries[0])
            results = operator.run()
        elif kind == "shared_index":
            operator = SharedIndexStarJoin(ctx, source, queries)
            results = operator.run()
        else:
            operator = SharedScanStarJoin(
                ctx, source, hash_queries, index_queries, derives
            )
            by_qid = operator.run()
            results = [by_qid[q.qid] for q in queries]
            span.set("morsels", operator.morsels)
        if ctx.tracer.enabled:
            span.set("actuals", operator.actuals.as_dict())
    return results, operator.actuals


def _validate_paranoid(db: "Database", plan: GlobalPlan) -> None:
    """Paranoia pre-flight: structurally validate the plan before running.

    A structural violation is as much a wrong answer as a bad result, so
    it surfaces as :class:`~repro.check.errors.CorrectnessError` too.
    """
    from ..check.errors import CorrectnessError, PlanValidationError
    from ..check.validate import validate_global_plan

    with db.tracer.span(
        "check.validate", algorithm=plan.algorithm, n_queries=plan.n_queries
    ):
        try:
            validate_global_plan(db.schema, db.catalog, plan)
        except PlanValidationError as exc:
            raise CorrectnessError(
                f"global plan failed structural validation: {exc}", plan=plan
            ) from exc
    default_registry().counter(
        "check.plans_validated", "global plans structurally validated"
    ).inc()


@dataclass
class _Cell:
    """One (class × shard) cell of the execution grid, before and after it
    ran.  ``shard_id`` is None when the plan runs unsharded."""

    plan_class: PlanClass
    shard_id: Optional[int]
    ctx: ExecContext
    span: object
    sim: Optional[IOStats] = None
    wall_s: float = 0.0
    results: Optional[List[QueryResult]] = None
    actuals: Optional[OperatorActuals] = None
    error: Optional[InjectedFault] = None

    def run(self) -> "_Cell":
        """Execute the class in this cell's context; an injected fault
        (including a ``shard.exec`` kill) is kept as ``error`` along with
        the cost charged before the abort.  Runs on a worker thread: the
        pre-created span is entered here, on that thread's own stack."""
        ctx, plan_class = self.ctx, self.plan_class
        with self.span as span:
            before = ctx.stats.snapshot()
            started = time.perf_counter()
            try:
                if self.shard_id is not None and ctx.faults is not None:
                    ctx.faults.check(
                        "shard.exec",
                        shard=self.shard_id,
                        table=plan_class.source,
                    )
                self.results, self.actuals = run_class_accounted(
                    ctx, plan_class
                )
            except InjectedFault as exc:
                self.error = exc
                span.set("failed", True)
                span.set("error", str(exc))
            self.wall_s = time.perf_counter() - started
            self.sim = ctx.stats.delta_since(before)
            if self.error is None:
                span.set("sim_ms", round(self.sim.total_ms, 3))
                if self.shard_id is None:
                    span.set("est_ms", round(plan_class.est_cost_ms, 3))
        if self.shard_id is not None:
            metrics = default_registry()
            metrics.histogram(
                "serve.stage.shard_exec_ms",
                "wall ms one (class, shard) scatter cell took to execute",
            ).observe(self.wall_s * 1000.0)
            metrics.histogram(
                "serve.stage.shard_exec_sim_ms",
                "simulated ms one (class, shard) scatter cell charged",
            ).observe(self.sim.total_ms)
        return self


def execute_plan(
    db: "Database",
    plan: GlobalPlan,
    *,
    cold: bool = True,
    n_workers: int = 1,
    shard_set: "Optional[ShardSet]" = None,
    paranoia: Optional[bool] = None,
) -> ExecutionReport:
    """Execute every class of ``plan`` over a (class × shard) grid of
    cells; measure each class separately.

    The contract (stated once, in ``docs/architecture.md``):

    * **cell isolation** — with ``cold=True`` every cell runs in a private
      buffer pool and cost clock (:meth:`Database.ctx` ``private=True``)
      over its catalog: the database's own when unsharded, one shard's
      slice per cell when a :class:`~repro.serve.shard.ShardSet` is given.
      A fresh pool is indistinguishable from a just-flushed one — the
      paper "flushed both the Unix file system buffer and Paradise buffer
      pool before running each test" — so results and simulated cost do
      not depend on ``n_workers`` or on how the workers interleave, and
      the database's own pool is left untouched;
    * **fold order** — finished cells are folded back per class in plan
      order: clocks are merged into the database's clock, a one-cell class
      passes through unmerged, and a sharded class merges its cells'
      partial aggregates, clocks and actuals in shard order
      (:func:`~repro.core.operators.results.merge_partial_results`);
    * **failure granularity** — an :class:`~repro.faults.InjectedFault` in
      any cell fails that cell's whole class (a :class:`ClassFailure`
      carrying the cost charged before the abort); sibling classes are
      byte-identical to a fault-free run.  The ``shard.exec`` site is
      checked only when a shard set is given;
    * **warm = serial** — ``cold=False`` is the one case that runs on the
      database's own pool and clock; classes then see each other's pages,
      so it runs serially in plan order, ignores ``n_workers``, and
      cannot be sharded.

    ``paranoia`` (default: :attr:`Database.paranoia`) validates the plan
    before execution and cross-checks every class's (merged) results
    against the brute-force reference over the full data.  Checking
    happens on the calling thread *outside* the measured sections, so it
    never perturbs a class's reported simulated or wall cost.
    """
    if paranoia is None:
        paranoia = db.paranoia
    if n_workers <= 0:
        raise ValueError(f"n_workers must be positive (got {n_workers})")
    sharded = shard_set is not None
    if sharded and not cold:
        raise ValueError(
            "sharded execution requires cold=True (each shard runs in a "
            "private cold context)"
        )
    report = ExecutionReport(plan=plan)
    classes = list(plan.classes)
    tracer = db.tracer
    metrics = default_registry()
    plan_attrs = {}
    if n_workers > 1:
        plan_attrs.update(parallel=True, n_workers=n_workers)
    if sharded:
        plan_attrs.update(
            sharded=True,
            n_shards=shard_set.n_shards,
            shard_dim=shard_set.dim_name,
        )
    with tracer.span(
        "execute.plan",
        algorithm=plan.algorithm,
        n_classes=len(classes),
        n_queries=plan.n_queries,
        paranoia=paranoia,
        **plan_attrs,
    ) as plan_span:
        if paranoia:
            _validate_paranoid(db, plan)
        if not classes:
            return report
        # One (shard id, catalog) column per shard; unsharded is the single
        # column over the database's own catalog.
        columns = (
            [(shard.shard_id, shard.catalog) for shard in shard_set.shards]
            if sharded
            else [(None, db.catalog)]
        )
        scatter = (
            tracer.span(
                "serve.scatter",
                n_classes=len(classes),
                n_shards=len(columns),
                n_tasks=len(classes) * len(columns),
            )
            if sharded
            else nullcontext(plan_span)
        )
        with scatter as grid_span:
            if sharded:
                metrics.counter(
                    "shard.scatters", "plan classes scattered across shards"
                ).inc(len(classes))
            # Pre-create each cell's context and span here, in grid order:
            # the explicit parent= pins sibling order deterministically,
            # and stats= binds the span's sim delta to the cell's clock
            # (private when cold; other workers merge into the shared one).
            cells = []
            for plan_class in classes:
                for shard_id, catalog in columns:
                    ctx = db.ctx(catalog=catalog, private=cold)
                    span_attrs = {
                        "source": plan_class.source,
                        "n_queries": len(plan_class.queries),
                    }
                    if sharded:
                        span_attrs["shard"] = shard_id
                    else:
                        span_attrs["methods"] = [
                            p.method.name for p in plan_class.plans
                        ]
                    span = tracer.span(
                        "shard.task" if sharded else "execute.class",
                        parent=grid_span,
                        stats=ctx.stats,
                        **span_attrs,
                    )
                    cells.append(_Cell(plan_class, shard_id, ctx, span))
            if not cold or n_workers == 1 or len(cells) == 1:
                for cell in cells:
                    cell.run()
            else:
                with ThreadPoolExecutor(
                    max_workers=min(n_workers, len(cells))
                ) as workers:
                    list(workers.map(_Cell.run, cells))
        gather = (
            tracer.span(
                "serve.gather", n_classes=len(classes), n_shards=len(columns)
            )
            if sharded
            else nullcontext()
        )
        with gather as gather_span:
            width = len(columns)
            for start in range(0, len(cells), width):
                _fold_class(
                    db,
                    report,
                    cells[start:start + width],
                    cold=cold,
                    paranoia=paranoia,
                )
            if sharded:
                metrics.counter(
                    "shard.gathers", "plan classes gathered from shards"
                ).inc(len(classes))
                gather_span.set("n_failed_classes", len(report.failures))
    return report


def _fold_class(
    db: "Database",
    report: ExecutionReport,
    cells: List[_Cell],
    *,
    cold: bool,
    paranoia: bool,
) -> None:
    """Fold one class's finished cells into the report (and, when cold,
    their private clocks into the database's): a failure if any cell
    failed, else one :class:`ClassExecution` — passed through unmerged for
    a one-cell class, merged in shard order otherwise."""
    plan_class = cells[0].plan_class
    sharded = cells[0].shard_id is not None
    tracer = db.tracer
    metrics = default_registry()
    if len(cells) == 1:
        sim = cells[0].sim
    else:
        sim = IOStats(rates=db.stats.rates)
        for cell in cells:
            sim.merge_from(cell.sim)
    if cold:
        db.stats.merge_from(sim)
    if sharded:
        for cell in cells:
            if cell.error is not None:
                metrics.counter(
                    f"shard.{cell.shard_id}.class_failures",
                    "plan classes this shard aborted on an injected fault",
                ).inc()
            else:
                metrics.counter(
                    f"shard.{cell.shard_id}.classes_executed",
                    "plan classes this shard ran to completion",
                ).inc()
    wall_s = sum(cell.wall_s for cell in cells)
    failed = next((cell for cell in cells if cell.error is not None), None)
    if failed is not None:
        # Fault isolation: this class is lost, siblings proceed.
        with tracer.span(
            "fault.class_failure",
            source=plan_class.source,
            n_queries=len(plan_class.queries),
            error=str(failed.error),
            **({"shard": failed.shard_id} if sharded else {}),
        ):
            pass
        metrics.counter(
            "executor.class_failures",
            "plan classes aborted by an injected fault",
        ).inc()
        report.failures.append(
            ClassFailure(
                plan_class=plan_class,
                error=failed.error,
                sim=sim,
                wall_s=wall_s,
            )
        )
        return
    if len(cells) == 1:
        results, actuals = cells[0].results, cells[0].actuals
    else:
        results = merge_partial_results(
            plan_class.queries, [cell.results for cell in cells]
        )
        actuals = merge_actuals([cell.actuals for cell in cells], results)
    metrics.counter(
        "executor.classes_executed", "plan classes run to completion"
    ).inc()
    metrics.counter(
        "executor.queries_executed", "component queries answered"
    ).inc(len(plan_class.queries))
    if paranoia:
        from ..check.paranoia import check_results

        with tracer.span(
            "check.class",
            source=plan_class.source,
            n_results=len(results),
            **({"sharded": True} if sharded else {}),
        ) as check_span:
            checked = check_results(db, results, plan=report.plan)
            check_span.set("n_checked", checked)
    report.class_executions.append(
        ClassExecution(
            plan_class=plan_class,
            results=results,
            sim=sim,
            wall_s=wall_s,
            actuals=actuals,
        )
    )
