"""Experiment harness regenerating the paper's tables and figures.

Tests 1–3 (Figures 10–12) measure the shared operators against separate
execution with *forced* plans, exactly as the paper forces join method and
base table per test: :func:`run_figure` runs one entry of
:data:`~repro.workload.paper_queries.PAPER_FIGURES` through the one sharing
sweep.  Tests 4–7 (Table 2) compare the global plans the optimizers produce:
:func:`run_algorithm_comparison` is the one loop that plans and executes a
query set per algorithm — the calibration sweep ledgers its rows.

Everything here reads the simulated clock only; wall time is ``perf/``'s.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence

from ..core.executor import ExecutionReport, run_class_accounted
from ..core.operators.results import QueryResult
from ..core.optimizer.plans import JoinMethod, LocalPlan, PlanClass
from ..engine.database import Database
from ..schema.query import GroupByQuery
from ..workload.paper_queries import PAPER_FIGURES, paper_queries


@dataclass
class ForcedRun:
    """One measured execution of a forced plan class."""

    sim_ms: float
    io_ms: float
    cpu_ms: float
    rand_page_reads: int
    seq_page_reads: int
    results: List[QueryResult]


def run_forced_class(
    db: Database,
    source: str,
    queries: Sequence[GroupByQuery],
    methods: Sequence[JoinMethod],
    cold: bool = True,
) -> ForcedRun:
    """Execute ``queries`` on ``source`` with the given join methods as one
    class (sharing applies), measuring simulated time.

    A cold run gets a private pool and clock (``db.ctx(private=True)``, the
    plan executor's cold discipline) folded back into the database's clock;
    ``cold=False`` runs on the database's own pool.
    """
    plans = [
        LocalPlan(query=q, source=source, method=m)
        for q, m in zip(queries, methods)
    ]
    plan_class = PlanClass(source=source, plans=plans)
    ctx = db.ctx(private=cold)
    before = ctx.stats.snapshot()
    results, _actuals = run_class_accounted(ctx, plan_class)
    delta = ctx.stats.delta_since(before)
    if cold:
        db.stats.merge_from(delta)
    return ForcedRun(
        sim_ms=delta.total_ms,
        io_ms=delta.io_ms,
        cpu_ms=delta.cpu_ms,
        rand_page_reads=delta.rand_page_reads,
        seq_page_reads=delta.seq_page_reads,
        results=results,
    )


def run_separately(
    db: Database,
    source: str,
    queries: Sequence[GroupByQuery],
    methods: Sequence[JoinMethod],
) -> ForcedRun:
    """Execute each query in its own cold run (the paper's dotted bars) and
    sum the measurements."""
    total = ForcedRun(0.0, 0.0, 0.0, 0, 0, [])
    for query, method in zip(queries, methods):
        run = run_forced_class(db, source, [query], [method], cold=True)
        total.sim_ms += run.sim_ms
        total.io_ms += run.io_ms
        total.cpu_ms += run.cpu_ms
        total.rand_page_reads += run.rand_page_reads
        total.seq_page_reads += run.seq_page_reads
        total.results.extend(run.results)
    return total


@dataclass
class SharingRow:
    """One bar pair of Figures 10–12: k queries, separate vs shared."""

    HEADERS = ("queries", "separate sim-ms", "shared sim-ms", "speedup")

    n_queries: int
    separate_ms: float
    shared_ms: float
    separate_io_ms: float
    shared_io_ms: float

    @property
    def speedup(self) -> float:
        """separate/shared simulated-time ratio (0 when shared is 0)."""
        return self.separate_ms / self.shared_ms if self.shared_ms else 0.0

    def cells(self) -> tuple:
        """The printed table row under :attr:`HEADERS`."""
        return (
            self.n_queries, self.separate_ms, self.shared_ms,
            f"{self.speedup:.2f}x",
        )


def run_sharing_sweep(
    db: Database,
    source: str,
    fixed: Sequence[GroupByQuery],
    added: Sequence[GroupByQuery],
    method: JoinMethod,
) -> List[SharingRow]:
    """The ``fixed`` queries (hash joins) plus the first k of ``added``
    (each forced to ``method``) on ``source``, run separately and as one
    class, for every k — starting at k = 0 only when something is fixed."""
    rows: List[SharingRow] = []
    for k in range(0 if fixed else 1, len(added) + 1):
        queries = [*fixed, *added[:k]]
        methods = [JoinMethod.HASH] * len(fixed) + [method] * k
        separate = run_separately(db, source, queries, methods)
        shared = run_forced_class(db, source, queries, methods)
        _check_same_results(
            separate.results, shared.results, "shared and separate execution"
        )
        rows.append(
            SharingRow(
                n_queries=len(queries),
                separate_ms=separate.sim_ms,
                shared_ms=shared.sim_ms,
                separate_io_ms=separate.io_ms,
                shared_io_ms=shared.io_ms,
            )
        )
    return rows


def run_figure(db: Database, key: str) -> List[SharingRow]:
    """One of Figures 10–12, as :data:`PAPER_FIGURES` states it."""
    spec, qs = PAPER_FIGURES[key], paper_queries(db.schema)
    return run_sharing_sweep(
        db, spec.source, [qs[i] for i in spec.fixed],
        [qs[i] for i in spec.added], spec.method,
    )


@dataclass
class AlgorithmRow:
    """One algorithm's plan for one query set, estimated and executed: a
    row of Table 2, and a plan outcome of the calibration sweep."""

    HEADERS = ("algorithm", "est sim-ms", "exec sim-ms", "classes", "plan")

    algorithm: str
    est_ms: float
    sim_ms: float
    n_classes: int
    plan: str
    test: str = ""
    #: The execution behind ``sim_ms`` (per-class actuals, results).
    report: Optional[ExecutionReport] = field(repr=False, default=None)

    def cells(self) -> tuple:
        """The printed table row under :attr:`HEADERS`."""
        return (
            self.algorithm, self.est_ms, self.sim_ms, self.n_classes,
            self.plan,
        )


DEFAULT_ALGORITHMS = ("tplo", "etplg", "gg", "optimal")


def run_algorithm_comparison(
    db: Database,
    queries: Sequence[GroupByQuery],
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
    test: str = "",
) -> List[AlgorithmRow]:
    """Plan + execute (cold) one query set with each algorithm, verifying
    every algorithm returns identical answers.  ``test`` names the query
    set on the rows."""
    rows: List[AlgorithmRow] = []
    for algorithm in algorithms:
        plan = db.optimize(list(queries), algorithm)
        report = db.execute(plan)
        if rows:
            _check_same_results(
                report.results.values(), rows[0].report.results.values(),
                f"{algorithm} and {rows[0].algorithm}",
            )
        rows.append(
            AlgorithmRow(
                algorithm=algorithm,
                est_ms=plan.est_cost_ms,
                sim_ms=report.sim_ms,
                n_classes=len(plan.classes),
                plan=plan.signature,
                test=test,
                report=report,
            )
        )
    return rows


def _check_same_results(
    left: Iterable[QueryResult], right: Iterable[QueryResult], who: str
) -> None:
    by_qid = {r.query.qid: r for r in right}
    for result in left:
        twin = by_qid.get(result.query.qid)
        if twin is None or not result.approx_equals(twin):
            raise AssertionError(
                f"{who} returned different answers for "
                f"{result.query.display_name()}"
            )
