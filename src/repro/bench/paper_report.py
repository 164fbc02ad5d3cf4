"""The reproduction report: the paper's tables as one markdown document.

``generate_report`` renders a database it is given — Table 1, Figures
10–12 (Tests 1–3) and Table 2 (Tests 4–7) under every registered optimizer
— so anyone can regenerate the numbers behind EXPERIMENTS.md with one call
(or ``python -m repro report``).
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Sequence

from ..core.optimizer import OPTIMIZERS
from ..engine.database import Database
from ..workload.paper_queries import PAPER_FIGURES, PAPER_TESTS
from .harness import AlgorithmRow, paper_tables
from .reporting import format_markdown_table


def generate_report(
    db: Database,
    tests: Sequence[str] = tuple(PAPER_TESTS),
    figures: bool = True,
    output: Optional[str | Path] = None,
) -> str:
    """Render Table 1, Figures 10–12 (unless ``figures`` is false) and
    Table 2 for ``tests`` (keys of :data:`PAPER_TESTS`) on ``db``; return
    (and optionally write) the markdown."""
    sections: List[str] = [
        "# Reproduction report",
        "",
        f"{db.catalog.get('ABCD').n_rows} base rows, {db.page_size}-byte "
        f"pages; all costs in simulated ms from the deterministic cost "
        f"clock.  Generated by `repro.bench.paper_report.generate_report`.",
        "\n## Table 1 — materialized group-by sizes\n",
        format_markdown_table(["group-by", "rows", "pages"], db.table_report()),
    ]
    for table in paper_tables(
        db, PAPER_FIGURES if figures else (), tests, tuple(OPTIMIZERS)
    ):
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
