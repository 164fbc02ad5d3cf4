"""Experiment harness regenerating the paper's tables and figures.

Tests 1–3 (Figures 10–12) measure the shared operators against separate
execution with *forced* plans, exactly as the paper forces join method and
base table per test.  Tests 4–7 (Table 2) compare the global plans produced
by TPLO, ETPLG, GG, and the exact optimal planner.

All functions return structured rows (also printable with
:mod:`repro.bench.reporting`) so benchmark code can assert the paper's
qualitative shapes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.executor import run_class_accounted
from ..core.operators.results import QueryResult
from ..core.optimizer.plans import JoinMethod, LocalPlan, PlanClass
from ..engine.database import Database
from ..schema.query import GroupByQuery


@dataclass
class ForcedRun:
    """One measured execution of a forced plan class."""

    sim_ms: float
    io_ms: float
    cpu_ms: float
    rand_page_reads: int
    seq_page_reads: int
    wall_s: float
    results: List[QueryResult]


def run_forced_class(
    db: Database,
    source: str,
    queries: Sequence[GroupByQuery],
    methods: Sequence[JoinMethod],
    cold: bool = True,
) -> ForcedRun:
    """Execute ``queries`` on ``source`` with the given join methods as one
    class (sharing applies), measuring simulated and wall time.

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
    started = time.perf_counter()
    results, _actuals = run_class_accounted(ctx, plan_class)
    wall_s = time.perf_counter() - started
    delta = ctx.stats.delta_since(before)
    if cold:
        db.stats.merge_from(delta)
    return ForcedRun(
        sim_ms=delta.total_ms,
        io_ms=delta.io_ms,
        cpu_ms=delta.cpu_ms,
        rand_page_reads=delta.rand_page_reads,
        seq_page_reads=delta.seq_page_reads,
        wall_s=wall_s,
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
    total = ForcedRun(0.0, 0.0, 0.0, 0, 0, 0.0, [])
    for query, method in zip(queries, methods):
        run = run_forced_class(db, source, [query], [method], cold=True)
        total.sim_ms += run.sim_ms
        total.io_ms += run.io_ms
        total.cpu_ms += run.cpu_ms
        total.rand_page_reads += run.rand_page_reads
        total.seq_page_reads += run.seq_page_reads
        total.wall_s += run.wall_s
        total.results.extend(run.results)
    return total


@dataclass
class SharingRow:
    """One bar pair of Figures 10–12: k queries, separate vs shared."""

    n_queries: int
    separate_ms: float
    shared_ms: float
    separate_io_ms: float
    shared_io_ms: float
    separate_wall_s: float
    shared_wall_s: float

    @property
    def speedup(self) -> float:
        """separate/shared simulated-time ratio (0 when shared is 0)."""
        return self.separate_ms / self.shared_ms if self.shared_ms else 0.0


def _sharing_sweep(
    db: Database,
    source: str,
    queries: Sequence[GroupByQuery],
    methods: Sequence[JoinMethod],
) -> List[SharingRow]:
    rows: List[SharingRow] = []
    for k in range(1, len(queries) + 1):
        subset = list(queries[:k])
        sub_methods = list(methods[:k])
        separate = run_separately(db, source, subset, sub_methods)
        shared = run_forced_class(db, source, subset, sub_methods)
        _check_same_results(separate.results, shared.results)
        rows.append(
            SharingRow(
                n_queries=k,
                separate_ms=separate.sim_ms,
                shared_ms=shared.sim_ms,
                separate_io_ms=separate.io_ms,
                shared_io_ms=shared.io_ms,
                separate_wall_s=separate.wall_s,
                shared_wall_s=shared.wall_s,
            )
        )
    return rows


def run_test1_shared_scan(
    db: Database, queries: Sequence[GroupByQuery], source: str = "ABCD"
) -> List[SharingRow]:
    """Test 1 / Figure 10: Queries 1–4 forced to hash joins on ABCD."""
    return _sharing_sweep(db, source, queries, [JoinMethod.HASH] * len(queries))


def run_test2_shared_index(
    db: Database, queries: Sequence[GroupByQuery], source: str = "A'B'C'D"
) -> List[SharingRow]:
    """Test 2 / Figure 11: Queries 5–8 forced to index joins on A'B'C'D."""
    return _sharing_sweep(db, source, queries, [JoinMethod.INDEX] * len(queries))


def run_test3_hybrid(
    db: Database,
    hash_queries: Sequence[GroupByQuery],
    index_queries: Sequence[GroupByQuery],
    source: str = "A'B'C'D",
) -> List[SharingRow]:
    """Test 3 / Figure 12: hash queries plus index queries added one at a
    time, sharing one scan of the base table."""
    rows: List[SharingRow] = []
    for k in range(len(index_queries) + 1):
        queries = list(hash_queries) + list(index_queries[:k])
        methods = [JoinMethod.HASH] * len(hash_queries) + [
            JoinMethod.INDEX
        ] * k
        separate = run_separately(db, source, queries, methods)
        shared = run_forced_class(db, source, queries, methods)
        _check_same_results(separate.results, shared.results)
        rows.append(
            SharingRow(
                n_queries=len(queries),
                separate_ms=separate.sim_ms,
                shared_ms=shared.sim_ms,
                separate_io_ms=separate.io_ms,
                shared_io_ms=shared.io_ms,
                separate_wall_s=separate.wall_s,
                shared_wall_s=shared.wall_s,
            )
        )
    return rows


@dataclass
class AlgorithmRow:
    """One cell row of Table 2: one algorithm's plan on one MDX expression."""

    algorithm: str
    est_ms: float
    sim_ms: float
    wall_s: float
    n_classes: int
    plan: str
    results: Dict[int, QueryResult] = field(repr=False, default_factory=dict)


DEFAULT_ALGORITHMS = ("tplo", "etplg", "gg", "optimal")


def run_algorithm_comparison(
    db: Database,
    queries: Sequence[GroupByQuery],
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
) -> List[AlgorithmRow]:
    """Tests 4–7 / Table 2: plan + execute one query set with each
    algorithm, verifying every algorithm returns identical answers."""
    rows: List[AlgorithmRow] = []
    reference: Optional[Dict[int, QueryResult]] = None
    for algorithm in algorithms:
        plan = db.optimize(list(queries), algorithm)
        report = db.execute(plan)
        results = report.results
        if reference is None:
            reference = results
        else:
            for qid, result in results.items():
                if not result.approx_equals(reference[qid]):
                    raise AssertionError(
                        f"{algorithm} returned different answers for "
                        f"{result.query.display_name()}"
                    )
        rows.append(
            AlgorithmRow(
                algorithm=algorithm,
                est_ms=plan.est_cost_ms,
                sim_ms=report.sim_ms,
                wall_s=report.wall_s,
                n_classes=len(plan.classes),
                plan="; ".join(
                    f"{cls.source}({'+'.join(p.method.name[0] for p in cls.plans)})"
                    for cls in plan.classes
                ),
                results=results,
            )
        )
    return rows


def table1_rows(db: Database) -> List[Tuple[str, int, int]]:
    """Table 1: materialized group-by sizes (name, rows, pages)."""
    return db.table_report()


def _check_same_results(
    left: Sequence[QueryResult], right: Sequence[QueryResult]
) -> None:
    by_qid = {r.query.qid: r for r in right}
    for result in left:
        twin = by_qid.get(result.query.qid)
        if twin is None or not result.approx_equals(twin):
            raise AssertionError(
                f"shared and separate execution disagree for "
                f"{result.query.display_name()}"
            )
