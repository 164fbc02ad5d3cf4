"""Plan execution: lower each class onto the one star join
(:class:`~.operators.star_join.StarJoin`) over the row source it calls for:

* all-hash, mixed, and derive-carrying classes → the shared scan
  (``ScanRows``: Sections 3.1 / 3.3, plus the DAG layer's derive phase),
* all-index classes → the (shared) index join's probe (``ProbeRows``:
  Section 3.2).

There is one executor, :func:`execute_plan`: it runs the plan's classes
one after another, in plan order, on the calling thread — as the paper ran
each test's classes on one server.  It reproduces the paper's measurement
discipline — with ``cold=True`` (default) every class starts from an empty
buffer pool, as the paper "flushed both the Unix file system buffer and
Paradise buffer pool before running each test".  Each class's simulated
cost (from the :class:`~repro.storage.iostats.IOStats` clock) and real wall
time are reported separately.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple, Union

from ..faults import InjectedFault, PartialResultError
from ..obs.metrics import default_registry
from ..schema.query import GroupByQuery
from ..storage.iostats import IOStats
from .operators.pipeline import ExecContext
from .operators.results import OperatorActuals, QueryResult, q_error
from .operators.star_join import ProbeRows, ScanRows, StarJoin
from .optimizer.plans import GlobalPlan, JoinMethod, PlanClass, left_sum

if TYPE_CHECKING:  # pragma: no cover
    from ..engine.database import Database


@dataclass
class ClassExecution:
    """The measured execution of one class."""

    plan_class: PlanClass
    results: List[QueryResult]
    sim: IOStats
    wall_s: float
    #: What the physical operator really did (rows scanned, probes issued,
    #: per-query routed tuples, …).
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
    #: :meth:`Database.execute`); :attr:`wall_s` sums only the classes'
    #: measured sections.
    elapsed_s: float = 0.0
    #: What recovery ran (``Database.run_queries(recovery=)``): the first
    #: execution, each re-ask of the failed queries, each ``"degraded"`` plan.
    #: When set, costs sum over it and ``failures`` is what stayed failed.
    attempts: List["ExecutionReport"] = field(default_factory=list)

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

    def _total(self, cost: Callable[[object], float]) -> float:
        """``cost`` summed over every class charged, executed or aborted —
        attempt by attempt when recovery re-ran part of the batch — each
        added left to right (:func:`left_sum`)."""
        if self.attempts:
            return left_sum(attempt._total(cost) for attempt in self.attempts)
        executed, failed = self.class_executions, self.failures
        return left_sum(map(cost, executed)) + left_sum(map(cost, failed))

    @property
    def sim_ms(self) -> float:
        """Total simulated milliseconds (I/O + CPU), including the partial
        cost charged by classes that later failed."""
        return self._total(attrgetter("sim_ms"))

    @property
    def sim_io_ms(self) -> float:
        """Simulated I/O milliseconds."""
        return self._total(attrgetter("sim.io_ms"))

    @property
    def sim_cpu_ms(self) -> float:
        """Simulated CPU milliseconds."""
        return self._total(attrgetter("sim.cpu_ms"))

    @property
    def wall_s(self) -> float:
        """Measured wall-clock seconds."""
        return self._total(attrgetter("wall_s"))

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
    """Execute one class over the row source its plan names
    (:attr:`PlanClass.probes`), returning the results *and* the
    operator's measured actuals.

    Results are returned in the operator's member order: plan order,
    except that a shared scan lists its hash members before its index
    members (results are keyed by qid downstream).  When the context's
    tracer is live, the physical operator runs inside an
    ``operator.<kind>`` span whose cost-clock delta is exactly the class's
    charged work; the operator's actuals land in the span's ``actuals``
    attribute, and the operator counters are written from them (fault or not).
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
        rows = ProbeRows if plan_class.probes else ScanRows
        operator = StarJoin(ctx, source, rows, hash_queries, index_queries, derives)
        try:
            results = operator.run()
        finally:
            _count_operator(operator.actuals)
        if ctx.tracer.enabled:
            span.set("actuals", operator.actuals.as_dict())
    return results, operator.actuals


def _count_operator(actuals: OperatorActuals) -> None:
    """Add one operator run's actuals to the operator counters."""
    metrics = default_registry()
    metrics.counter(
        "executor.morsels", "column batches handed out by shared scans"
    ).inc(actuals.morsels)
    metrics.counter(
        "executor.tuples_routed",
        "retrieved tuples tested against a query's result bitmap",
    ).inc(sum(actuals.tuples_tested.values()))
    metrics.counter(
        "executor.derive_rows",
        "intermediate group rows fed to derived-query pipelines",
    ).inc(actuals.derive_rows)
    metrics.counter(
        "bitmap.and_ops", "bitmap AND operations (across dimensions)"
    ).inc(actuals.and_ops)
    metrics.counter(
        "bitmap.or_ops", "bitmap OR operations (union of result bitmaps)"
    ).inc(actuals.or_ops)


def _run_class(
    db: "Database", plan_class: PlanClass, *, cold: bool
) -> Union[ClassExecution, ClassFailure]:
    """Execute one class in its own context — a private buffer pool and
    cost clock when ``cold`` — inside an ``execute.class`` span.  An
    injected fault becomes a :class:`ClassFailure` carrying the cost
    charged before the abort."""
    ctx = db.ctx(private=cold)
    # stats= binds the span, and every operator span under it, to the
    # class's own clock.
    with db.tracer.span(
        "execute.class",
        stats=ctx.stats,
        source=plan_class.source,
        n_queries=len(plan_class.queries),
        methods=[p.method.name for p in plan_class.plans],
    ) as span:
        before = ctx.stats.snapshot()
        started = time.perf_counter()
        try:
            results, actuals = run_class_accounted(ctx, plan_class)
        except InjectedFault as exc:
            span.set("failed", True)
            span.set("error", str(exc))
            return ClassFailure(
                plan_class=plan_class,
                error=exc,
                sim=ctx.stats.delta_since(before),
                wall_s=time.perf_counter() - started,
            )
        wall_s = time.perf_counter() - started
        sim = ctx.stats.delta_since(before)
        span.set("sim_ms", round(sim.total_ms, 3))
        span.set("est_ms", round(plan_class.est_cost_ms, 3))
    return ClassExecution(
        plan_class=plan_class,
        results=results,
        sim=sim,
        wall_s=wall_s,
        actuals=actuals,
    )


def execute_plan(
    db: "Database",
    plan: GlobalPlan,
    *,
    cold: bool = True,
    paranoia: Optional[bool] = None,
) -> ExecutionReport:
    """Execute every class of ``plan`` in plan order on the calling
    thread; measure each class separately.

    The contract (stated once, in ``docs/architecture.md``):

    * **class isolation** — with ``cold=True`` every class runs in a
      private buffer pool and cost clock (:meth:`Database.ctx`
      ``private=True``) over the database's catalog.  A fresh pool is
      indistinguishable from a just-flushed one — the paper "flushed both
      the Unix file system buffer and Paradise buffer pool before running
      each test" — so a class's results and simulated cost do not depend
      on the classes before it, and the database's own pool is left
      untouched;
    * **fold order** — once every class has run, each is folded back in
      plan order: its clock is merged into the database's clock and its
      results and actuals pass through as the operator produced them;
    * **failure granularity** — an :class:`~repro.faults.InjectedFault`
      fails its class (a :class:`ClassFailure` carrying the cost charged
      before the abort); sibling classes are byte-identical to a
      fault-free run;
    * **warm** — ``cold=False`` runs on the database's own pool and
      clock, so each class sees the pages the classes before it read.

    ``paranoia`` (default: :attr:`Database.paranoia`) validates the plan
    before execution and cross-checks every class's results against the
    brute-force reference over the full data.  Checking happens *outside*
    the measured sections, so it never perturbs a class's reported
    simulated or wall cost.
    """
    if paranoia is None:
        paranoia = db.paranoia
    report = ExecutionReport(plan=plan)
    with db.tracer.span(
        "execute.plan",
        algorithm=plan.algorithm,
        n_classes=len(plan.classes),
        n_queries=plan.n_queries,
        paranoia=paranoia,
    ):
        if paranoia:
            from ..check.invariants import check_plan

            check_plan(db, plan)
        outcomes = [
            _run_class(db, plan_class, cold=cold)
            for plan_class in plan.classes
        ]
        for outcome in outcomes:
            _fold_class(db, report, outcome, cold=cold, paranoia=paranoia)
    return report


def _fold_class(
    db: "Database",
    report: ExecutionReport,
    outcome: Union[ClassExecution, ClassFailure],
    *,
    cold: bool,
    paranoia: bool,
) -> None:
    """Fold one finished class into the report (and, when cold, its
    private clock into the database's)."""
    plan_class = outcome.plan_class
    tracer = db.tracer
    metrics = default_registry()
    if cold:
        db.stats.merge_from(outcome.sim)
    if isinstance(outcome, ClassFailure):
        # Fault isolation: this class is lost, siblings proceed.
        with tracer.span(
            "fault.class_failure",
            source=plan_class.source,
            n_queries=len(plan_class.queries),
            error=str(outcome.error),
        ):
            pass
        metrics.counter(
            "executor.class_failures",
            "plan classes aborted by an injected fault",
        ).inc()
        report.failures.append(outcome)
        return
    metrics.counter(
        "executor.classes_executed", "plan classes run to completion"
    ).inc()
    metrics.counter(
        "executor.queries_executed", "component queries answered"
    ).inc(len(plan_class.queries))
    if paranoia:
        from ..check.invariants import check_results

        with tracer.span(
            "check.class",
            source=plan_class.source,
            n_results=len(outcome.results),
        ) as check_span:
            checked = check_results(db, outcome.results, plan=report.plan)
            check_span.set("n_checked", checked)
    report.class_executions.append(outcome)
