"""Plan accounting: per-operator actuals, estimated-vs-actual ledgers, and
cost-model calibration over the paper workload.

The paper's claims (Tests 1–7, Figures 10–12, Table 2) rest on the cost
model *ranking* plans the same way execution does.  This module makes that
checkable:

* :class:`OperatorActuals` — what a shared operator really did: rows
  scanned, probes issued, union-bitmap popcount, per-query routed tuples,
  per-query pipeline row counts and CPU charge.  Every shared operator
  (:class:`~repro.core.operators.hash_join.SharedScanStarJoin`,
  :class:`~repro.core.operators.index_join.SharedIndexStarJoin`, …)
  fills one in while running; the executor attaches it to each
  :class:`~repro.core.executor.ClassExecution` and to the
  ``operator.*`` span's attributes.
* :func:`q_error` / :func:`account_execution` / :func:`account_report` —
  the estimated-vs-actual ledger: per-class and per-query Q-error
  (``max(est/actual, actual/est)``), the standard cost-model fidelity
  metric.
* :func:`run_calibration` — sweeps Tests 1–7 under every registered
  algorithm (see :func:`calibration_algorithms`),
  reporting per-class Q-error quantiles and flagging every **misranking**:
  a pair of plans where the estimated-cheaper one measured slower.  A
  misranking is the failure mode that silently breaks TPLO/ETPLG/GG
  sharing decisions, so the report explains each one it finds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from .metrics import Histogram

if TYPE_CHECKING:  # pragma: no cover
    from ..bench.harness import AlgorithmRow
    from ..core.executor import ClassExecution, ExecutionReport
    from ..engine.database import Database


def q_error(est: float, actual: float) -> float:
    """``max(est/actual, actual/est)`` — 1.0 is a perfect estimate.

    Degenerate inputs (either side non-positive) return ``inf`` unless both
    are ~zero, which counts as perfect agreement.
    """
    if est <= 0.0 and actual <= 0.0:
        return 1.0
    if est <= 0.0 or actual <= 0.0:
        return float("inf")
    return max(est / actual, actual / est)


@dataclass
class OperatorActuals:
    """What one shared-operator execution really did.

    All counters are in tuples/pages, keyed by ``query.qid`` where
    per-query.  ``tuples_routed`` is the count *delivered* to a query's
    pipeline after the "Filter tuples" routing step; ``tuples_tested`` the
    count tested against the query's result bitmap (shared-index and
    hybrid operators only).
    """

    operator: str
    source: str = ""
    rows_scanned: int = 0
    pages_scanned: int = 0
    #: Rows fetched through the union-bitmap probe (shared index join).
    probes_issued: int = 0
    #: Popcount of the OR of the per-query result bitmaps.
    union_popcount: int = 0
    #: qid -> popcount of the query's own result bitmap.
    bitmap_popcounts: Dict[int, int] = field(default_factory=dict)
    #: qid -> probed/scanned tuples tested against the query's bitmap.
    tuples_tested: Dict[int, int] = field(default_factory=dict)
    #: qid -> tuples delivered to the query's pipeline by routing.
    tuples_routed: Dict[int, int] = field(default_factory=dict)
    #: qid -> tuples fed into the query's probe/filter/aggregate pipeline.
    rows_in: Dict[int, int] = field(default_factory=dict)
    #: qid -> tuples surviving the query's filters.
    rows_passed: Dict[int, int] = field(default_factory=dict)
    #: qid -> result groups produced.
    n_groups: Dict[int, int] = field(default_factory=dict)
    #: qid -> simulated CPU ms the query's pipeline charged (exact share).
    pipeline_cpu_ms: Dict[int, float] = field(default_factory=dict)

    def record_pipeline(self, qid: int, pipeline, result, rates) -> None:
        """Capture one query pipeline's row counters and CPU share."""
        self.rows_in[qid] = pipeline.rows_in
        self.rows_passed[qid] = pipeline.rows_passed
        self.n_groups[qid] = result.n_groups
        self.pipeline_cpu_ms[qid] = pipeline.actual_cpu_ms(rates)

    def as_dict(self) -> dict:
        """JSON-able dump (per-query dicts keyed by stringified qid)."""
        return {
            "operator": self.operator,
            "source": self.source,
            "rows_scanned": self.rows_scanned,
            "pages_scanned": self.pages_scanned,
            "probes_issued": self.probes_issued,
            "union_popcount": self.union_popcount,
            "bitmap_popcounts": {str(k): v for k, v in self.bitmap_popcounts.items()},
            "tuples_tested": {str(k): v for k, v in self.tuples_tested.items()},
            "tuples_routed": {str(k): v for k, v in self.tuples_routed.items()},
            "rows_in": {str(k): v for k, v in self.rows_in.items()},
            "rows_passed": {str(k): v for k, v in self.rows_passed.items()},
            "n_groups": {str(k): v for k, v in self.n_groups.items()},
            "pipeline_cpu_ms": {
                str(k): round(v, 6) for k, v in self.pipeline_cpu_ms.items()
            },
        }


def merge_actuals(
    partials: Sequence[OperatorActuals], results: Sequence
) -> OperatorActuals:
    """Sum per-partition operator actuals into one class-level ledger.

    Every counter is additive across row-disjoint partitions (rows scanned,
    probes issued, per-query pipeline counts and CPU charge), so
    partition-order summation is exact.  ``n_groups`` is the exception — a
    group present on two partitions is still one group — so it is read off
    the merged ``results`` instead.  A DAG class's *intermediate* has no
    merged result (only its members do), so its ``n_groups`` entry is not
    a merged quantity and is omitted.
    """
    first = partials[0]
    merged = OperatorActuals(operator=first.operator, source=first.source)
    for part in partials:
        merged.rows_scanned += part.rows_scanned
        merged.pages_scanned += part.pages_scanned
        merged.probes_issued += part.probes_issued
        merged.union_popcount += part.union_popcount
        for attr in (
            "bitmap_popcounts",
            "tuples_tested",
            "tuples_routed",
            "rows_in",
            "rows_passed",
            "pipeline_cpu_ms",
        ):
            target = getattr(merged, attr)
            for qid, value in getattr(part, attr).items():
                target[qid] = target.get(qid, 0) + value
    for result in results:
        merged.n_groups[result.query.qid] = result.n_groups
    return merged


@dataclass
class QueryAccounting:
    """The estimated-vs-actual ledger of one query inside its class."""

    qid: int
    label: str
    method: str
    est_standalone_ms: float
    est_marginal_ms: float
    actual_cpu_ms: float
    rows_in: int
    rows_passed: int
    tuples_routed: Optional[int]
    n_groups: int


@dataclass
class ClassAccounting:
    """The estimated-vs-actual ledger of one executed plan class."""

    source: str
    operator: str
    n_queries: int
    est_ms: float
    actual_ms: float
    actual_io_ms: float
    actual_cpu_ms: float
    buffer_hits: int
    seq_page_reads: int
    rand_page_reads: int
    actuals: OperatorActuals
    queries: List[QueryAccounting] = field(default_factory=list)

    @property
    def q_error(self) -> float:
        """Q-error of the class's total cost estimate."""
        return q_error(self.est_ms, self.actual_ms)


def account_execution(execution: "ClassExecution") -> ClassAccounting:
    """Build the ledger of one measured class execution."""
    plan_class = execution.plan_class
    actuals = execution.actuals
    sim = execution.sim
    accounting = ClassAccounting(
        source=plan_class.source,
        operator=actuals.operator,
        n_queries=len(plan_class.plans),
        est_ms=plan_class.est_cost_ms,
        actual_ms=sim.total_ms,
        actual_io_ms=sim.io_ms,
        actual_cpu_ms=sim.cpu_ms,
        buffer_hits=sim.buffer_hits,
        seq_page_reads=sim.seq_page_reads,
        rand_page_reads=sim.rand_page_reads,
        actuals=actuals,
    )
    for plan in plan_class.plans:
        qid = plan.query.qid
        accounting.queries.append(
            QueryAccounting(
                qid=qid,
                label=plan.query.display_name(),
                method=plan.method.name.lower(),
                est_standalone_ms=plan.est_standalone_ms,
                est_marginal_ms=plan.est_marginal_ms,
                actual_cpu_ms=actuals.pipeline_cpu_ms.get(qid, 0.0),
                rows_in=actuals.rows_in.get(qid, 0),
                rows_passed=actuals.rows_passed.get(qid, 0),
                tuples_routed=actuals.tuples_routed.get(qid),
                n_groups=actuals.n_groups.get(qid, 0),
            )
        )
    return accounting


def account_report(report: "ExecutionReport") -> List[ClassAccounting]:
    """Ledgers for every class of an executed plan, in execution order."""
    return [account_execution(e) for e in report.class_executions]


# -- calibration over the paper workload -------------------------------------

def calibration_algorithms() -> Tuple[str, ...]:
    """Algorithms swept by calibration, derived from the optimizer registry.

    Every registered optimizer participates unless it opts out with
    ``in_calibration = False`` (the naive baseline and the dp duplicate of
    ``optimal``).  Newly registered algorithms are picked up automatically —
    the hard-coded list this replaces silently skipped ``bgg`` and ``dag``.
    """
    from ..core.optimizer import OPTIMIZERS

    return tuple(
        name
        for name, cls in OPTIMIZERS.items()
        if getattr(cls, "in_calibration", True)
    )

#: Relative margin under which two costs are considered tied; inversions
#: inside the margin are measurement noise, not misrankings.
RANK_TIE_MARGIN = 0.01


@dataclass
class CalibrationRow:
    """Q-error of one executed class during the calibration sweep."""

    test: str
    algorithm: str
    source: str
    methods: str
    est_ms: float
    actual_ms: float

    @property
    def q_error(self) -> float:
        return q_error(self.est_ms, self.actual_ms)


@dataclass
class Misranking:
    """The model preferred ``cheap_est`` but execution preferred the other.

    This is the failure mode that breaks sharing decisions: an optimizer
    trusting the estimate would pick the measured-slower plan.
    """

    test: str
    cheap_est: "AlgorithmRow"
    cheap_actual: "AlgorithmRow"

    @property
    def est_gap(self) -> float:
        """Relative estimate gap between the two plans."""
        if self.cheap_actual.est_ms == 0:
            return float("inf")
        return self.cheap_actual.est_ms / self.cheap_est.est_ms - 1.0

    @property
    def actual_gap(self) -> float:
        """Relative measured gap between the two plans."""
        if self.cheap_est.sim_ms == 0:
            return float("inf")
        return self.cheap_est.sim_ms / self.cheap_actual.sim_ms - 1.0

    def explanation(self) -> str:
        """Why this inversion happened, as far as the ledger can tell."""
        if self.est_gap < 0.10 or self.actual_gap < 0.10:
            return (
                f"near-tie: estimates differ by {self.est_gap * 100:.1f}% "
                f"and measurements by {self.actual_gap * 100:.1f}% — the "
                f"plans are interchangeable at this scale; the inversion "
                f"does not change which sharing decision is right"
            )
        return (
            f"model inversion: {self.cheap_est.algorithm} estimated "
            f"{self.est_gap * 100:.1f}% cheaper than "
            f"{self.cheap_actual.algorithm} but measured "
            f"{self.actual_gap * 100:.1f}% slower — inspect the classes of "
            f"plan [{self.cheap_est.plan}] with `repro explain --analyze`"
        )


@dataclass
class CalibrationReport:
    """The calibration sweep's full output."""

    rows: List[CalibrationRow] = field(default_factory=list)
    #: One row per (test, algorithm): the whole plan's estimate vs execution.
    plans: List["AlgorithmRow"] = field(default_factory=list)
    misrankings: List[Misranking] = field(default_factory=list)

    def q_error_histogram(self) -> Histogram:
        """All per-class Q-errors folded into one histogram (p50/p95/p99)."""
        hist = Histogram("calibration.q_error", "per-class cost Q-error")
        for row in self.rows:
            hist.observe(row.q_error)
        return hist

    def algorithm_summary(self) -> Dict[str, dict]:
        """Per-algorithm plan quality: Q-error quantiles over the
        algorithm's executed classes, and the number of misrankings in
        which the model *wrongly preferred* that algorithm's plan (the
        ``cheap_est`` side — the side an optimizer trusting the estimate
        would actually pick).  This is what the leaderboard's plan-quality
        columns render."""
        out: Dict[str, dict] = {}
        by_algo: Dict[str, Histogram] = {}
        counts: Dict[str, int] = {}
        for row in self.rows:
            hist = by_algo.get(row.algorithm)
            if hist is None:
                hist = by_algo[row.algorithm] = Histogram(
                    f"calibration.q_error.{row.algorithm}",
                    "per-class cost Q-error",
                )
            hist.observe(row.q_error)
            counts[row.algorithm] = counts.get(row.algorithm, 0) + 1
        mispreferred: Dict[str, int] = {}
        for miss in self.misrankings:
            algo = miss.cheap_est.algorithm
            mispreferred[algo] = mispreferred.get(algo, 0) + 1
        for algo in sorted(by_algo):
            dump = by_algo[algo].dump()
            out[algo] = {
                "n_classes": counts[algo],
                "q_error_p50": round(dump["p50"], 4),
                "q_error_p95": round(dump["p95"], 4),
                "misrankings": mispreferred.get(algo, 0),
            }
        return out

    def summary(self) -> dict:
        """JSON-able summary for benchmark history records."""
        hist = self.q_error_histogram()
        dump = hist.dump()
        return {
            "n_classes": len(self.rows),
            "n_plans": len(self.plans),
            "misrankings": len(self.misrankings),
            "q_error_mean": round(dump["mean"], 4) if self.rows else None,
            "q_error_p50": round(dump["p50"], 4) if self.rows else None,
            "q_error_p95": round(dump["p95"], 4) if self.rows else None,
            "q_error_p99": round(dump["p99"], 4) if self.rows else None,
            "q_error_max": round(dump["max"], 4) if self.rows else None,
            "algorithms": self.algorithm_summary(),
        }

    def render(self) -> str:
        """The human-readable calibration report."""
        from ..bench.reporting import format_table

        blocks: List[str] = []
        blocks.append(
            format_table(
                ["test", "algorithm", "class", "methods", "est sim-ms",
                 "actual sim-ms", "q-error"],
                [
                    (r.test, r.algorithm, r.source, r.methods, r.est_ms,
                     r.actual_ms, f"{r.q_error:.3f}")
                    for r in self.rows
                ],
                title="Per-class estimated vs actual cost",
            )
        )
        hist = self.q_error_histogram()
        dump = hist.dump()
        if self.rows:
            blocks.append(
                f"Q-error over {dump['count']} class(es): "
                f"mean {dump['mean']:.3f}, p50 {dump['p50']:.3f}, "
                f"p95 {dump['p95']:.3f}, p99 {dump['p99']:.3f}, "
                f"max {dump['max']:.3f}"
            )
        blocks.append(
            format_table(
                ["test", "algorithm", "est sim-ms", "actual sim-ms", "plan"],
                [
                    (p.test, p.algorithm, p.est_ms, p.sim_ms, p.plan)
                    for p in self.plans
                ],
                title="Per-plan estimated vs actual cost",
            )
        )
        blocks.append(f"misrankings: {len(self.misrankings)}")
        for miss in self.misrankings:
            blocks.append(
                f"  {miss.test}: model ranks {miss.cheap_est.algorithm} "
                f"(est {miss.cheap_est.est_ms:.1f}) below "
                f"{miss.cheap_actual.algorithm} "
                f"(est {miss.cheap_actual.est_ms:.1f}), but execution "
                f"measured {miss.cheap_est.sim_ms:.1f} vs "
                f"{miss.cheap_actual.sim_ms:.1f} sim-ms\n"
                f"    => {miss.explanation()}"
            )
        if not self.misrankings:
            blocks.append(
                "  the estimated-cheapest plan was the measured-cheapest "
                "in every test — cost-model ranking is faithful on this "
                "workload"
            )
        return "\n\n".join(blocks)


def find_misrankings(
    plans: Sequence["AlgorithmRow"], margin: float = RANK_TIE_MARGIN
) -> List[Misranking]:
    """Pairwise rank inversions between plans of the same test.

    A pair inverts when one plan is estimated cheaper and measured slower,
    both by more than ``margin`` (ties are not inversions).  Plans with
    identical class structure (different algorithms converging on the same
    plan) have identical deterministic costs and can never invert.
    """
    misrankings: List[Misranking] = []
    by_test: Dict[str, List["AlgorithmRow"]] = {}
    for outcome in plans:
        by_test.setdefault(outcome.test, []).append(outcome)
    for test_plans in by_test.values():
        for i, a in enumerate(test_plans):
            for b in test_plans[i + 1:]:
                if a.plan == b.plan:
                    continue
                cheap_est, other = (a, b) if a.est_ms <= b.est_ms else (b, a)
                if cheap_est.est_ms >= other.est_ms * (1.0 - margin):
                    continue  # estimates tied
                if cheap_est.sim_ms <= other.sim_ms * (1.0 + margin):
                    continue  # measurement agrees (or tied)
                misrankings.append(
                    Misranking(
                        test=cheap_est.test,
                        cheap_est=cheap_est,
                        cheap_actual=other,
                    )
                )
    return misrankings


def run_calibration(
    db: "Database",
    tests: Optional[Sequence[str]] = None,
    algorithms: Optional[Sequence[str]] = None,
    on_execution: Optional[
        Callable[[str, str, "ClassExecution"], None]
    ] = None,
) -> CalibrationReport:
    """Sweep the paper tests under every algorithm and ledger each executed
    class's estimated vs actual cost.

    ``tests`` defaults to all of
    :data:`~repro.workload.paper_queries.ALL_PAPER_TESTS`; ``algorithms``
    defaults to :func:`calibration_algorithms` (the registry minus opt-outs).
    Planning and (cold, hence deterministic) execution are
    :func:`~repro.bench.harness.run_algorithm_comparison`'s; its rows are
    the report's ``plans``.

    ``on_execution(test, algorithm, class_execution)`` is invoked for every
    executed class, letting the calibration fitter
    (:mod:`repro.calibrate`) collect its observations from the *same*
    sweep that produces this report instead of paying for a second one.
    """
    from ..bench.harness import run_algorithm_comparison
    from ..workload.paper_queries import ALL_PAPER_TESTS, paper_queries

    if algorithms is None:
        algorithms = calibration_algorithms()
    names = list(tests) if tests is not None else list(ALL_PAPER_TESTS)
    unknown = [t for t in names if t not in ALL_PAPER_TESTS]
    if unknown:
        raise ValueError(
            f"unknown calibration tests {unknown}; choose from "
            f"{list(ALL_PAPER_TESTS)}"
        )
    queries = paper_queries(db.schema)
    report = CalibrationReport()
    for test in names:
        batch = [queries[i] for i in ALL_PAPER_TESTS[test]]
        for row in run_algorithm_comparison(db, batch, algorithms, test=test):
            for cls_exec in row.report.class_executions:
                if on_execution is not None:
                    on_execution(test, row.algorithm, cls_exec)
                report.rows.append(
                    CalibrationRow(
                        test=test,
                        algorithm=row.algorithm,
                        source=cls_exec.plan_class.source,
                        methods=cls_exec.plan_class.method_signature,
                        est_ms=cls_exec.plan_class.est_cost_ms,
                        actual_ms=cls_exec.sim_ms,
                    )
                )
            report.plans.append(row)
    report.misrankings = find_misrankings(report.plans)
    return report
