"""Plain-text and markdown tables for benchmark output (paper-style rows)."""

from __future__ import annotations

from typing import Iterable, List, Sequence


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]], title: str = ""
) -> str:
    """Render an aligned ASCII table."""
    str_rows: List[List[str]] = []
    for row in rows:
        str_rows.append([format_cell(value) for value in row])
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_cell(value: object) -> str:
    """One table cell: floats to one decimal, anything else as ``str``."""
    if isinstance(value, float):
        return f"{value:.1f}"
    return str(value)


def format_markdown_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]]
) -> str:
    """Render a markdown table (cells formatted as :func:`format_table`'s)."""
    lines = [
        "| " + " | ".join(headers) + " |",
        "|" + "|".join("---" for _ in headers) + "|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(format_cell(v) for v in row) + " |")
    return "\n".join(lines)
