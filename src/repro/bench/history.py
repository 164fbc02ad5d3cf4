"""Persistent benchmark telemetry: structured run records and their exact
check.

A :class:`RunRecord` captures one benchmark run of the paper workload —
per-figure sharing rows, per-test algorithm comparisons (Table 2), the
cost-model calibration summary (Q-error quantiles and misranking count from
:mod:`repro.calibrate.sweep`), and a schema+config fingerprint — and persists
it as ``BENCH_<label>.json``.  A record holds the deterministic simulated
clock and the calibration summary only (wall time is ``perf/run.py``'s), so
the one check is equality: :func:`check_record` re-runs :func:`record_run`
with the record's own arguments and lists every value that came out
different.

CLI: ``repro bench --record`` / ``repro bench --check RECORD``.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from ..calibrate.sweep import run_calibration
from ..document import DocumentError, PathLike, field_of, load_json
from ..engine.database import Database
from ..workload.paper_queries import ALL_PAPER_TESTS, PAPER_FIGURES
from ..workload.paper_schema import build_paper_database
from .harness import paper_tables

#: Format version of the persisted record; bump on breaking layout change.
RECORD_VERSION = 1

#: The numbers a record's rows and calibration summary carry, typed at load.
TEST_METRICS = ("sim_ms", "est_ms", "n_classes")
FIGURE_METRICS = ("shared_ms", "separate_ms", "speedup")
CALIBRATION_METRICS = ("q_error_p95", "q_error_max", "misrankings")

#: What a re-run must reproduce: ``label`` and ``created_at`` name a run,
#: they are not its outcome.
CHECKED_SECTIONS = ("fingerprint", "figures", "tests", "calibration")

#: Stands in for a value only one of two compared records has.
ABSENT = "<absent>"


def database_fingerprint(db: Database, scale: Optional[float] = None) -> dict:
    """Schema + configuration identity of a run: the dimensions, tables,
    cost rates, page size and scale a record's costs were measured on."""
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
    # only when a profile is loaded, so default-rates records carry none.
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
    #: a record is checked only under the profile it was recorded with.
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
        """Build a record from parsed JSON, typing every field
        :func:`check_record` reads (docs/architecture.md §"Files from
        outside the program"); unknown keys are ignored."""
        version = field_of(data, "version", int, 0)
        if version > RECORD_VERSION:
            raise DocumentError(
                f"record version {version} is newer than supported "
                f"({RECORD_VERSION}); refusing to mis-compare"
            )
        fingerprint = field_of(data, "fingerprint", dict)
        field_of(fingerprint, "scale", float, where="fingerprint")
        calibration = field_of(data, "calibration", dict, {})
        for metric in CALIBRATION_METRICS:
            field_of(calibration, metric, (float, None), None, "calibration")
        algorithms = field_of(calibration, "algorithms", dict, {}, "calibration")
        for name in algorithms:
            field_of(algorithms, name, dict, where="calibration.algorithms")
        tests = _rows(data, "tests", "algorithm", str, TEST_METRICS)
        for test in tests:
            if test not in ALL_PAPER_TESTS:
                raise DocumentError(
                    f"field 'tests.{test}' names no paper test; choose from "
                    f"{list(ALL_PAPER_TESTS)}"
                )
        _profile_identity(fingerprint, dict, "fingerprint")
        return cls(
            label=field_of(data, "label", str, "?"),
            created_at=field_of(data, "created_at", str, ""),
            fingerprint=fingerprint,
            figures=_rows(data, "figures", "n_queries", int, FIGURE_METRICS),
            tests=tests,
            calibration=calibration,
            profile=_profile_identity(data, (dict, None)),
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


def _profile_identity(doc: dict, kind, where: str = "") -> Optional[dict]:
    """``doc["profile"]``: a ``{label, digest}`` profile identity, or None
    when absent (or null, where ``kind`` allows it)."""
    profile = field_of(doc, "profile", kind, None, where)
    if profile is not None:
        for key in ("label", "digest"):
            field_of(profile, key, str, where=f"{where}.profile".lstrip("."))
    return profile


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
        for key, table in zip(PAPER_FIGURES, paper_tables(db, tests=())):
            record.figures[key] = [
                {
                    "n_queries": row.n_queries,
                    "separate_ms": round(row.separate_ms, 3),
                    "shared_ms": round(row.shared_ms, 3),
                    "speedup": round(row.speedup, 4),
                }
                for row in table.rows
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


class Difference(NamedTuple):
    """One value on which a committed record and its re-run disagree."""

    path: str
    committed: object
    fresh: object


def rerun_arguments(record: RunRecord, profile=None) -> dict:
    """The :func:`record_run` arguments that regenerate ``record``: its own
    label, scale, tests and figures, under ``profile``.  ``profile`` must be
    the one the record was recorded under (none for a default-rates record):
    a mismatch is a :class:`DocumentError`, never a difference."""
    recorded = record.fingerprint.get("profile")
    given = profile.identity() if profile is not None else None
    if given != recorded:
        wanted = (
            "on the hand-set default rates; drop --profile" if recorded is None
            else f"under profile {recorded['label']}@{recorded['digest']}; "
            f"pass --profile FILE with that profile"
        )
        got = f" (given {given['label']}@{given['digest']})" if given else ""
        raise DocumentError(f"record {record.label!r} was recorded {wanted}{got}")
    return {
        "label": record.label,
        "scale": record.fingerprint["scale"],
        "tests": list(record.tests),
        "figures": bool(record.figures),
        "profile": profile,
    }


def diff_records(committed: RunRecord, fresh: RunRecord) -> List[Difference]:
    """Every value under :data:`CHECKED_SECTIONS` on which two records
    differ, in document order; a value only one of them has is paired with
    :data:`ABSENT`."""
    old, new = (
        dict(_leaves({key: record.to_dict()[key] for key in CHECKED_SECTIONS}))
        for record in (committed, fresh)
    )
    return [
        Difference(path, old.get(path, ABSENT), new.get(path, ABSENT))
        for path in {**old, **new}
        if old.get(path, ABSENT) != new.get(path, ABSENT)
    ]


def _leaves(doc: object, path: str = "") -> Iterator[Tuple[str, object]]:
    """``(path, value)`` of every leaf of a JSON document (an empty object
    or list is a leaf), paths like ``tests/test4/0/sim_ms``."""
    if not isinstance(doc, (dict, list)) or not doc:
        yield path, doc
        return
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, child in items:
        yield from _leaves(child, f"{path}/{key}" if path else str(key))


def check_record(record: RunRecord, profile=None) -> List[Difference]:
    """Re-run ``record`` with its own arguments (:func:`rerun_arguments`)
    and diff the result against it (:func:`diff_records`): empty when the
    tree reproduces the record exactly."""
    return diff_records(record, record_run(**rerun_arguments(record, profile)))


def describe_differences(differences: Sequence[Difference]) -> str:
    """The first difference, its two values, and how many values differ."""
    path, committed, fresh = differences[0]
    return (
        f"{path}: committed {committed!r}, now {fresh!r} "
        f"({len(differences)} value(s) differ)"
    )
