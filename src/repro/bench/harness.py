"""Experiment harness regenerating the paper's tables and figures.

Tests 1–3 (Figures 10–12) measure the shared operators against separate
execution with *forced* plans, exactly as the paper forces join method and
base table per test — :func:`forced_plan`, run by ``Database.execute`` like
any plan.  :func:`run_figure` runs one entry of
:data:`~repro.workload.paper_queries.PAPER_FIGURES` through the one sharing
sweep.  Tests 4–7 (Table 2) compare the global plans the optimizers produce:
:func:`run_algorithm_comparison` is the one loop that plans and executes a
query set per algorithm — the calibration sweep ledgers its rows.
:func:`paper_tables` is the one loop over both that ``repro report`` and
the benchmark record read the tables from.

Everything here reads the simulated clock only; wall time is ``perf/``'s.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, NamedTuple, Optional, Sequence

from ..check.invariants import assert_same_answers
from ..core.executor import ExecutionReport
from ..core.optimizer.plans import GlobalPlan, JoinMethod, LocalPlan, PlanClass
from ..engine.database import Database
from ..schema.query import GroupByQuery
from ..workload.paper_queries import PAPER_FIGURES, PAPER_TESTS, paper_queries


def forced_plan(
    source: str,
    queries: Sequence[GroupByQuery],
    methods: Sequence[JoinMethod],
    separate: bool = False,
) -> GlobalPlan:
    """The paper's forced plan: ``queries`` on ``source`` with the given
    join methods, as one class (sharing applies) — or, ``separate``, one
    class per query (the paper's dotted bars), so that
    :meth:`Database.execute` runs each query in its own cold class."""
    plans = [LocalPlan(q, source, m) for q, m in zip(queries, methods)]
    groups = [[plan] for plan in plans] if separate else [plans]
    return GlobalPlan("forced", [PlanClass(source, group) for group in groups])


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
        separate = db.execute(
            forced_plan(source, queries, methods, separate=True)
        )
        shared = db.execute(forced_plan(source, queries, methods))
        assert_same_answers(  # result_for names a failed class
            map(separate.result_for, queries), map(shared.result_for, queries),
            "shared and separate execution",
        )
        rows.append(SharingRow(
            len(queries), separate.sim_ms, shared.sim_ms,
            separate.sim_io_ms, shared.sim_io_ms,
        ))
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
            assert_same_answers(
                rows[0].report.results.values(), report.results.values(),
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


class PaperTable(NamedTuple):
    """One of the paper's tables: a figure's sharing rows or a test's
    algorithm rows, each printed by its ``cells()`` under ``headers``."""

    title: str
    headers: Sequence[str]
    rows: list


def paper_tables(
    db: Database,
    figures: Iterable[str] = PAPER_FIGURES,
    tests: Iterable[str] = PAPER_TESTS,
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
) -> Iterator[PaperTable]:
    """The paper's tables in its order — the chosen Figures 10–12 (keys of
    :data:`PAPER_FIGURES`), then Table 2 for each chosen test of
    :data:`PAPER_TESTS` under ``algorithms`` — each run as it is reached."""
    for key in figures:
        yield PaperTable(
            PAPER_FIGURES[key].title, SharingRow.HEADERS, run_figure(db, key)
        )
    qs = paper_queries(db.schema)
    for test in tests:
        ids = PAPER_TESTS[test]
        yield PaperTable(
            f"{test} (Queries {ids})", AlgorithmRow.HEADERS,
            run_algorithm_comparison(db, [qs[i] for i in ids], algorithms),
        )
