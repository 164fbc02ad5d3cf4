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
from typing import Dict, List, Optional, Sequence, Union

from ..calibrate.sweep import run_calibration
from ..engine.database import Database
from ..workload.paper_queries import PAPER_FIGURES
from ..workload.paper_schema import build_paper_database
from .harness import run_figure

PathLike = Union[str, Path]

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
    #: Retired fields (which of two since-merged execution paths ran;
    #: coarse wall-clock totals).  Nothing sets them any more; records that
    #: carry them still load, validate and write them back.
    kernels: Optional[bool] = None
    wall: Dict[str, float] = field(default_factory=dict)
    version: int = RECORD_VERSION

    def to_dict(self) -> dict:
        out = {
            "version": self.version,
            "label": self.label,
            "created_at": self.created_at,
            "fingerprint": self.fingerprint,
            "kernels": self.kernels,
            "profile": self.profile,
            "wall": self.wall,
            "figures": self.figures,
            "tests": self.tests,
            "calibration": self.calibration,
        }
        if self.kernels is None:
            del out["kernels"]
        if not self.wall:
            del out["wall"]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RunRecord":
        """Build a record from parsed JSON, validating field *types*.

        A committed record whose layout has drifted (a ``wall`` list, a
        string ``total_s``, non-dict test rows, …) must fail here with a
        :class:`ValueError` naming the bad field — not as an
        ``AttributeError``/``TypeError`` traceback deep inside the
        leaderboard renderer or the regression gate.
        """
        if not isinstance(data, dict):
            raise ValueError(
                f"record must be a JSON object, got {type(data).__name__}"
            )
        version = data.get("version", 0)
        if not isinstance(version, int):
            raise ValueError(
                f"field 'version' must be an integer, got "
                f"{type(version).__name__}"
            )
        if version > RECORD_VERSION:
            raise ValueError(
                f"record version {version} is newer than supported "
                f"({RECORD_VERSION}); refusing to mis-compare"
            )
        record = cls(
            label=_typed(data, "label", str, "?"),
            created_at=_typed(data, "created_at", str, ""),
            fingerprint=_typed(data, "fingerprint", dict, {}),
            figures=_rows_by_name(data, "figures"),
            tests=_rows_by_name(data, "tests"),
            calibration=_typed(data, "calibration", dict, {}),
            kernels=data.get("kernels"),
            profile=data.get("profile"),
            wall=_typed(data, "wall", dict, {}),
            version=version,
        )
        if record.kernels is not None and not isinstance(record.kernels, bool):
            raise ValueError(
                f"field 'kernels' must be a boolean or null, got "
                f"{type(record.kernels).__name__}"
            )
        if record.profile is not None and not isinstance(record.profile, dict):
            raise ValueError(
                f"field 'profile' must be an object or null, got "
                f"{type(record.profile).__name__}"
            )
        for key, value in record.wall.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(
                    f"field 'wall.{key}' must be a number, got "
                    f"{type(value).__name__}"
                )
        return record

    def save(self, path: PathLike) -> Path:
        """Write the record as indented JSON; returns the path written."""
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path

    @classmethod
    def load(cls, path: PathLike) -> "RunRecord":
        return cls.from_dict(json.loads(Path(path).read_text()))


def _typed(data: dict, key: str, expected: type, default):
    """``data[key]`` when present and of ``expected`` type; the default
    when absent; :class:`ValueError` otherwise."""
    value = data.get(key, default)
    if not isinstance(value, expected):
        raise ValueError(
            f"field {key!r} must be a {expected.__name__}, got "
            f"{type(value).__name__}"
        )
    return value


def _rows_by_name(data: dict, key: str) -> Dict[str, List[dict]]:
    """Validate a ``{name: [row-dict, ...]}`` mapping (figures / tests)."""
    section = _typed(data, key, dict, {})
    for name, rows in section.items():
        if not isinstance(rows, list) or not all(
            isinstance(row, dict) for row in rows
        ):
            raise ValueError(
                f"field {key!r}[{name!r}] must be a list of objects"
            )
    return section


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
            for metric in ("sim_ms", "est_ms", "n_classes"):
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
    for metric in ("q_error_p95", "q_error_max", "misrankings"):
        _gate(
            report, thresholds, metric, "calibration",
            baseline.calibration.get(metric),
            latest.calibration.get(metric),
        )
    return report
