"""One-shot reproduction report.

``generate_report`` runs every paper experiment — Table 1, Tests 1–3
(Figures 10–12), Tests 4–7 (Table 2) — against a freshly built database and
renders a self-contained markdown document, so anyone can regenerate the
numbers behind EXPERIMENTS.md with one call (or ``python -m repro report``).
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional

from ..workload.paper_schema import PaperConfig, build_paper_database
from .harness import AlgorithmRow, paper_tables
from .reporting import format_markdown_table

ALGORITHMS = ("naive", "tplo", "etplg", "bgg", "gg", "optimal")


def generate_report(
    scale: float = 0.01,
    output: Optional[str | Path] = None,
    config: Optional[PaperConfig] = None,
) -> str:
    """Run every paper experiment and return (and optionally write) the
    markdown report."""
    if config is None:
        config = PaperConfig(scale=scale)
    db = build_paper_database(config=config)
    sections: List[str] = [
        "# Reproduction report",
        "",
        f"Scale {config.scale} ({db.catalog.get('ABCD').n_rows} base rows, "
        f"{config.page_size}-byte pages); all costs in simulated ms from "
        f"the deterministic cost clock.  Generated by "
        f"`repro.bench.paper_report.generate_report`.",
    ]

    sections.append("\n## Table 1 — materialized group-by sizes\n")
    sections.append(
        format_markdown_table(["group-by", "rows", "pages"], db.table_report())
    )

    for table in paper_tables(db, algorithms=ALGORITHMS):
        prefix = "Table 2 — " if table.headers == AlgorithmRow.HEADERS else ""
        sections.append(f"\n## {prefix}{table.title}\n")
        sections.append(
            format_markdown_table(table.headers, [r.cells() for r in table.rows])
        )

    sections.append(
        "\n---\nevery row verified shared-vs-separate and cross-algorithm "
        "answer equality."
    )
    text = "\n".join(sections) + "\n"
    if output is not None:
        Path(output).write_text(text)
    return text
