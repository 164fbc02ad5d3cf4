"""Persistent benchmark telemetry: structured run records and regression
gating.

A :class:`RunRecord` captures one benchmark run of the paper workload —
per-figure sharing rows, per-test algorithm comparisons (Table 2), the
cost-model calibration summary (Q-error quantiles and misranking count from
:mod:`repro.calibrate.sweep`), and a schema+config fingerprint — and persists
it as ``BENCH_<label>.json``.  Simulated costs are deterministic, so two
records with the same fingerprint are byte-comparable: any drift is a real
behavioural change, not noise.

:func:`compare_records` is the regression gate: it walks the shared
metrics of two records and flags every one that moved past its per-metric
threshold (:data:`DEFAULT_THRESHOLDS`).  A record holds the deterministic
cost clock and the calibration summary only; wall time is measured by
``perf/run.py``.

CLI: ``repro bench --record`` / ``repro bench --compare --baseline FILE``.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ..calibrate.sweep import run_calibration
from ..document import DocumentError, PathLike, field_of, load_json
from ..engine.database import Database
from ..workload.paper_queries import PAPER_FIGURES
from ..workload.paper_schema import build_paper_database
from .harness import run_figure

#: Format version of the persisted record; bump on breaking layout change.
RECORD_VERSION = 1

#: Per-metric regression thresholds.  Relative metrics are the allowed
#: fractional worsening (0.10 = latest may be up to 10% worse); absolute
#: metrics (``misrankings``, ``n_classes``) allow no increase at all.
DEFAULT_THRESHOLDS: Dict[str, float] = {
    "sim_ms": 0.10,
    "est_ms": 0.10,
    "shared_ms": 0.10,
    "separate_ms": 0.10,
    "q_error_p95": 0.25,
    "q_error_max": 0.50,
    "misrankings": 0.0,
    "n_classes": 0.0,
}

#: The numbers a record's rows and calibration summary carry for the gate
#: (:func:`compare_records`) and the leaderboard to read.
TEST_METRICS = ("sim_ms", "est_ms", "n_classes")
FIGURE_METRICS = ("shared_ms", "separate_ms", "speedup")
CALIBRATION_METRICS = ("q_error_p95", "q_error_max", "misrankings")


def database_fingerprint(db: Database, scale: Optional[float] = None) -> dict:
    """Schema + configuration identity of a run: two records gate against
    each other only when their fingerprints match (same dimensions, same
    tables, same cost rates — otherwise cost deltas are meaningless)."""
    schema = db.schema
    out = {
        "schema": schema.name,
        "dimensions": [
            {
                "name": dim.name,
                "levels": [level.name for level in dim.levels],
                "members": [dim.n_members(lv) for lv in range(dim.n_levels)],
            }
            for dim in schema.dimensions
        ],
        "tables": {
            entry.name: {"rows": entry.n_rows, "pages": entry.n_pages}
            for entry in db.catalog.entries()
        },
        "rates": asdict(db.stats.rates),
        "page_size": db.page_size,
        "scale": scale,
    }
    # A loaded calibration profile is part of the run's identity even
    # though its rates are already captured above: two *different*
    # profiles could fit identical rates tomorrow, and — more importantly —
    # the profile label says *why* the rates differ.  The key is added
    # only when a profile is loaded, so records written before this field
    # existed (and default-rates records generally) keep their exact
    # fingerprints and continue to gate.
    profile = db.calibration_profile
    if profile is not None:
        out["profile"] = profile.identity()
    return out


@dataclass
class RunRecord:
    """One persisted benchmark run."""

    label: str
    created_at: str
    fingerprint: dict
    #: figure name -> list of sharing-row dicts (Figures 10–12).
    figures: Dict[str, List[dict]] = field(default_factory=dict)
    #: test name -> list of per-algorithm dicts (Table 2).
    tests: Dict[str, List[dict]] = field(default_factory=dict)
    #: Calibration summary (see CalibrationReport.summary()).
    calibration: dict = field(default_factory=dict)
    #: Identity of the calibration profile the run was recorded under
    #: (``{"label", "digest"}``), or None for hand-set default rates.
    #: Mirrored in the fingerprint: fitted rates change simulated costs, so
    #: profiled and unprofiled records must never gate each other.
    profile: Optional[dict] = None
    version: int = RECORD_VERSION

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "label": self.label,
            "created_at": self.created_at,
            "fingerprint": self.fingerprint,
            "profile": self.profile,
            "figures": self.figures,
            "tests": self.tests,
            "calibration": self.calibration,
        }

    @classmethod
    def from_dict(cls, data: object) -> "RunRecord":
        """Build a record from parsed JSON, typing every field the gate and
        the leaderboard read (docs/architecture.md §"Files from outside the
        program"); unknown keys are ignored."""
        version = field_of(data, "version", int, 0)
        if version > RECORD_VERSION:
            raise DocumentError(
                f"record version {version} is newer than supported "
                f"({RECORD_VERSION}); refusing to mis-compare"
            )
        calibration = field_of(data, "calibration", dict, {})
        for metric in CALIBRATION_METRICS:
            field_of(calibration, metric, (float, None), None, "calibration")
        algorithms = field_of(calibration, "algorithms", dict, {}, "calibration")
        for name in algorithms:
            field_of(algorithms, name, dict, where="calibration.algorithms")
        profile = field_of(data, "profile", (dict, None), None)
        if profile is not None:
            for key in ("label", "digest"):
                field_of(profile, key, str, None, "profile")
        return cls(
            label=field_of(data, "label", str, "?"),
            created_at=field_of(data, "created_at", str, ""),
            fingerprint=field_of(data, "fingerprint", dict, {}),
            figures=_rows(data, "figures", "n_queries", int, FIGURE_METRICS),
            tests=_rows(data, "tests", "algorithm", str, TEST_METRICS),
            calibration=calibration,
            profile=profile,
            version=version,
        )

    def save(self, path: PathLike) -> Path:
        """Write the record as indented JSON; returns the path written."""
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path

    @classmethod
    def load(cls, path: PathLike) -> "RunRecord":
        return load_json(
            path, "benchmark record", cls.from_dict,
            hint="record one first with `repro bench --record`",
        )


def _rows(
    data: dict, section: str, key: str, kind: type, metrics: Sequence[str]
) -> Dict[str, List[dict]]:
    """A ``{name: [row, ...]}`` section (figures / tests) whose rows carry
    ``key`` and a number or null under each of ``metrics``."""
    rows_by_name = field_of(data, section, dict, {})
    for name in rows_by_name:
        rows = field_of(rows_by_name, name, [dict], where=section)
        for index, row in enumerate(rows):
            where = f"{section}.{name}[{index}]"
            field_of(row, key, kind, where=where)
            for metric in metrics:
                field_of(row, metric, (float, None), None, where)
    return rows_by_name


def default_record_path(label: str, directory: Optional[PathLike] = None) -> Path:
    """``BENCH_<label>.json`` in ``directory`` (default: current dir — the
    repo root when invoked from a checkout)."""
    base = Path(directory) if directory is not None else Path.cwd()
    return base / f"BENCH_{label}.json"


def record_run(
    db: Optional[Database] = None,
    label: str = "paper",
    scale: float = 0.01,
    tests: Optional[Sequence[str]] = None,
    algorithms: Optional[Sequence[str]] = None,
    figures: bool = True,
    profile=None,
) -> RunRecord:
    """Run the paper workload and build its telemetry record.

    ``db`` defaults to a freshly built paper database at ``scale``.
    ``tests`` restricts the calibration/Table-2 sweep (see
    :data:`repro.workload.paper_queries.ALL_PAPER_TESTS`); ``figures=False``
    skips the Figures 10–12 sharing sweeps (the slow part at larger scales).
    ``profile`` (a :class:`repro.calibrate.profile.CalibrationProfile`)
    applies fitted cost rates to the database before the run and stamps the
    record — and its fingerprint — with the profile's identity.
    """
    if db is None:
        db = build_paper_database(scale=scale)
    if profile is not None:
        db.apply_profile(profile)
    active_profile = db.calibration_profile
    record = RunRecord(
        label=label,
        created_at=time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        fingerprint=database_fingerprint(db, scale=scale),
        profile=(
            active_profile.identity() if active_profile is not None else None
        ),
    )
    if figures:
        for key in PAPER_FIGURES:
            record.figures[key] = [
                {
                    "n_queries": row.n_queries,
                    "separate_ms": round(row.separate_ms, 3),
                    "shared_ms": round(row.shared_ms, 3),
                    "speedup": round(row.speedup, 4),
                }
                for row in run_figure(db, key)
            ]
    calibration = run_calibration(db, tests=tests, algorithms=algorithms)
    record.calibration = calibration.summary()
    for row in calibration.plans:
        record.tests.setdefault(row.test, []).append(
            {
                "algorithm": row.algorithm,
                "est_ms": round(row.est_ms, 3),
                "sim_ms": round(row.sim_ms, 3),
                "n_classes": row.n_classes,
                "plan": row.plan,
            }
        )
    return record


@dataclass
class Regression:
    """One gated metric that worsened past its threshold."""

    metric: str
    context: str
    baseline: float
    latest: float
    threshold: float

    @property
    def change(self) -> float:
        """Fractional change (positive = worse) for relative metrics; raw
        delta for absolute ones (threshold 0)."""
        if self.threshold == 0.0 or self.baseline == 0.0:
            return self.latest - self.baseline
        return self.latest / self.baseline - 1.0

    def describe(self) -> str:
        if self.threshold == 0.0 or self.baseline == 0.0:
            return (
                f"{self.context}: {self.metric} {self.baseline:g} -> "
                f"{self.latest:g} (any increase gates)"
            )
        return (
            f"{self.context}: {self.metric} {self.baseline:g} -> "
            f"{self.latest:g} ({self.change * 100:+.1f}%, allowed "
            f"+{self.threshold * 100:.0f}%)"
        )


@dataclass
class RegressionReport:
    """Outcome of comparing a run record against a baseline."""

    regressions: List[Regression] = field(default_factory=list)
    improvements: List[Regression] = field(default_factory=list)
    n_compared: int = 0
    fingerprint_mismatch: Optional[str] = None

    @property
    def passed(self) -> bool:
        return self.fingerprint_mismatch is None and not self.regressions

    def render(self) -> str:
        lines: List[str] = []
        if self.fingerprint_mismatch is not None:
            lines.append(
                f"INCOMPARABLE: {self.fingerprint_mismatch}"
            )
        lines.append(
            f"compared {self.n_compared} metric(s): "
            f"{len(self.regressions)} regression(s), "
            f"{len(self.improvements)} improvement(s)"
        )
        for reg in self.regressions:
            lines.append(f"  REGRESSION {reg.describe()}")
        for imp in self.improvements:
            lines.append(f"  improved   {imp.describe()}")
        lines.append("PASS" if self.passed else "FAIL")
        return "\n".join(lines)


def _gate(
    report: RegressionReport,
    thresholds: Dict[str, float],
    metric: str,
    context: str,
    baseline: Optional[float],
    latest: Optional[float],
) -> None:
    """Compare one metric pair; higher is always worse for gated metrics."""
    if baseline is None or latest is None:
        return
    threshold = thresholds.get(metric)
    if threshold is None:
        return
    report.n_compared += 1
    entry = Regression(
        metric=metric,
        context=context,
        baseline=float(baseline),
        latest=float(latest),
        threshold=threshold,
    )
    if threshold == 0.0 or baseline == 0.0:
        if latest > baseline:
            report.regressions.append(entry)
        elif latest < baseline:
            report.improvements.append(entry)
        return
    if latest > baseline * (1.0 + threshold):
        report.regressions.append(entry)
    elif latest < baseline * (1.0 - threshold):
        report.improvements.append(entry)


def compare_records(
    latest: RunRecord,
    baseline: RunRecord,
    thresholds: Optional[Dict[str, float]] = None,
) -> RegressionReport:
    """Gate ``latest`` against ``baseline`` with per-metric thresholds.

    Only metrics present in *both* records are compared (a baseline from a
    narrower sweep gates what it has).  Mismatched fingerprints make the
    comparison fail outright: cost deltas between different schemas,
    scales, or rates are not regressions, they are different experiments.
    """
    thresholds = dict(DEFAULT_THRESHOLDS, **(thresholds or {}))
    report = RegressionReport()
    if latest.fingerprint != baseline.fingerprint:
        differing = sorted(
            key
            for key in set(latest.fingerprint) | set(baseline.fingerprint)
            if latest.fingerprint.get(key) != baseline.fingerprint.get(key)
        )
        report.fingerprint_mismatch = (
            f"fingerprints differ on {differing}; re-record the baseline at "
            f"the same schema/scale/rates before gating"
        )
        return report
    for test, latest_rows in sorted(latest.tests.items()):
        baseline_rows = {
            row["algorithm"]: row for row in baseline.tests.get(test, [])
        }
        for row in latest_rows:
            base = baseline_rows.get(row["algorithm"])
            if base is None:
                continue
            context = f"{test}/{row['algorithm']}"
            for metric in TEST_METRICS:
                _gate(
                    report, thresholds, metric, context,
                    base.get(metric), row.get(metric),
                )
    for figure, latest_rows in sorted(latest.figures.items()):
        baseline_rows = {
            row["n_queries"]: row for row in baseline.figures.get(figure, [])
        }
        for row in latest_rows:
            base = baseline_rows.get(row["n_queries"])
            if base is None:
                continue
            context = f"{figure}/k={row['n_queries']}"
            for metric in ("shared_ms", "separate_ms"):
                _gate(
                    report, thresholds, metric, context,
                    base.get(metric), row.get(metric),
                )
    for metric in CALIBRATION_METRICS:
        _gate(
            report, thresholds, metric, "calibration",
            baseline.calibration.get(metric),
            latest.calibration.get(metric),
        )
    return report
