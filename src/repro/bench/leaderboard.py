"""Markdown leaderboard over committed benchmark records.

The repo commits one ``BENCH_<label>.json`` per tracked configuration
(``BENCH_kernels.json`` on the hand-set default rates,
``BENCH_calibrated.json`` under ``PROFILE_paper.json``).
:func:`load_records` collects every such file in a directory and
:func:`render_leaderboard` turns them into the markdown table embedded in
``docs/performance.md`` — simulated costs and plan quality side by side.

CLI: ``repro bench --leaderboard [--dir DIR] [--output FILE]``.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from .history import PathLike, RunRecord
from .reporting import format_markdown_table


def load_records(
    directory: Optional[PathLike] = None,
) -> List[Tuple[Path, RunRecord]]:
    """Every ``BENCH_*.json`` in ``directory`` (default: current dir),
    sorted by label.  A file that does not load raises (docs/architecture.md
    §"Files from outside the program") — a committed record that no longer
    parses is a repo bug, not something to skip silently."""
    base = Path(directory) if directory is not None else Path.cwd()
    return [(path, RunRecord.load(path)) for path in sorted(base.glob("BENCH_*.json"))]


def _algo_sim_total(
    record: RunRecord, algorithm: str
) -> Optional[float]:
    """Total simulated cost of one algorithm's plans across the record's
    tests — one deterministic number summarizing the whole Table-2 sweep."""
    total = 0.0
    seen = False
    for rows in record.tests.values():
        for row in rows:
            if row["algorithm"] == algorithm and row.get("sim_ms") is not None:
                total += row["sim_ms"]
                seen = True
    return round(total, 3) if seen else None


def _best_speedup(record: RunRecord) -> Optional[float]:
    """Largest shared-vs-separate speedup across the figure sweeps."""
    best: Optional[float] = None
    for rows in record.figures.values():
        for row in rows:
            speedup = row.get("speedup")
            if speedup is not None and (best is None or speedup > best):
                best = speedup
    return best


def _cell(value: object, fmt: str = "{}") -> str:
    return "-" if value is None else fmt.format(value)


def _profile_name(record: RunRecord) -> Optional[str]:
    if not record.profile:
        return None
    label = record.profile.get("label", "?")
    digest = record.profile.get("digest", "")
    return f"{label}@{digest[:8]}" if digest else str(label)


def render_plan_quality(
    records: Sequence[Tuple[PathLike, RunRecord]],
) -> str:
    """The per-algorithm plan-quality table: Q-error p50/p95 over each
    algorithm's executed classes and the count of misrankings in which the
    model wrongly preferred that algorithm's plan (see
    :meth:`CalibrationReport.algorithm_summary
    <repro.calibrate.sweep.CalibrationReport.algorithm_summary>`).  Records
    written before the per-algorithm summary existed are skipped; an empty
    result is the empty string so the caller can splice it conditionally.
    """
    rows: List[tuple] = []
    for path, record in sorted(records, key=lambda item: str(item[0])):
        algos = record.calibration.get("algorithms", {})
        for name in sorted(algos):
            row = algos[name]
            rows.append(
                (
                    Path(path).name,
                    name,
                    _cell(row.get("n_classes")),
                    _cell(row.get("q_error_p50")),
                    _cell(row.get("q_error_p95")),
                    _cell(row.get("misrankings")),
                )
            )
    if not rows:
        return ""
    return format_markdown_table(
        ["record", "algorithm", "classes", "q-error p50", "q-error p95",
         "mispreferred"],
        rows,
    )


def render_leaderboard(
    records: Sequence[Tuple[PathLike, RunRecord]],
) -> str:
    """The leaderboard as markdown, by record name: the headline table,
    then (when any record carries per-algorithm calibration data) the
    plan-quality table.

    Simulated columns are byte-comparable across rows that share a
    fingerprint.  The ``profile`` column names the calibration profile a
    record ran under (``label@digest``), ``-`` for hand-set default rates.
    """
    if not records:
        raise ValueError("no benchmark records to render")
    table = format_markdown_table(
        ["record", "profile", "recorded", "gg sim-ms", "dag sim-ms",
         "best speedup", "q-error p95", "misrankings"],
        [
            (
                Path(path).name,
                _cell(_profile_name(record)),
                record.created_at or "-",
                _cell(_algo_sim_total(record, "gg"), "{:.1f}"),
                _cell(_algo_sim_total(record, "dag"), "{:.1f}"),
                _cell(_best_speedup(record), "{:.2f}x"),
                _cell(record.calibration.get("q_error_p95")),
                _cell(record.calibration.get("misrankings")),
            )
            for path, record in sorted(records, key=lambda item: str(item[0]))
        ],
    )
    quality = render_plan_quality(records)
    if quality:
        table += "\n\nPer-algorithm plan quality (mispreferred = misrankings "
        table += "where the model wrongly preferred this algorithm's plan):\n\n"
        table += quality
    return table
