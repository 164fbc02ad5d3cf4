"""The calibration sweep: does the cost model *rank* plans the way execution
does?

The paper's claims (Tests 1–7, Figures 10–12, Table 2) rest on that ranking.
:func:`run_calibration` sweeps Tests 1–7 under every registered algorithm
(see :func:`calibration_algorithms`), reporting per-class Q-error quantiles
and flagging every **misranking**: a pair of plans where the
estimated-cheaper one measured slower.  A misranking is the failure mode
that silently breaks TPLO/ETPLG/GG sharing decisions, so the report
explains each one it finds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..bench.harness import AlgorithmRow, run_algorithm_comparison
from ..bench.reporting import format_table
from ..core.executor import ClassExecution
from ..core.operators.results import q_error
from ..core.optimizer import OPTIMIZERS
from ..engine.database import Database
from ..obs.metrics import Histogram
from ..workload.paper_queries import ALL_PAPER_TESTS, paper_queries


def calibration_algorithms() -> Tuple[str, ...]:
    """Algorithms swept by calibration, derived from the optimizer registry.

    Every registered optimizer participates unless it opts out with
    ``in_calibration = False`` (the naive baseline).  Newly registered
    algorithms are picked up automatically — the hard-coded list this
    replaces silently skipped ``bgg`` and ``dag``.
    """
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
    cheap_est: AlgorithmRow
    cheap_actual: AlgorithmRow

    @property
    def est_gap(self) -> float:
        """Relative estimate gap between the two plans."""
        if self.cheap_est.est_ms == 0:
            return float("inf")
        return self.cheap_actual.est_ms / self.cheap_est.est_ms - 1.0

    @property
    def actual_gap(self) -> float:
        """Relative measured gap between the two plans."""
        if self.cheap_actual.sim_ms == 0:
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
            f"plan [{self.cheap_est.plan}] with `repro run --analyze`"
        )


@dataclass
class CalibrationReport:
    """The calibration sweep's full output."""

    rows: List[CalibrationRow] = field(default_factory=list)
    #: One row per (test, algorithm): the whole plan's estimate vs execution.
    plans: List[AlgorithmRow] = field(default_factory=list)
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
        would actually pick).  A benchmark record keeps it as
        ``calibration.algorithms``."""
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
    plans: Sequence[AlgorithmRow], margin: float = RANK_TIE_MARGIN
) -> List[Misranking]:
    """Pairwise rank inversions between plans of the same test.

    A pair inverts when one plan is estimated cheaper and measured slower,
    both by more than ``margin`` (ties are not inversions).  Plans with
    identical class structure (different algorithms converging on the same
    plan) have identical deterministic costs and can never invert.
    """
    misrankings: List[Misranking] = []
    by_test: Dict[str, List[AlgorithmRow]] = {}
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
    db: Database,
    tests: Optional[Sequence[str]] = None,
    algorithms: Optional[Sequence[str]] = None,
    on_execution: Optional[
        Callable[[str, str, ClassExecution], None]
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
