"""Plain-text table rendering for bench output (paper tables/figures)."""

from __future__ import annotations

from typing import Any, Callable, List, Sequence, Tuple

#: One table = one list of ``(header, cell -> value)`` pairs, so a column's
#: heading and its formatter cannot drift apart (``format_table`` applies
#: ``str`` to whatever the formatter returns).
Columns = Sequence[Tuple[str, Callable[[Any], Any]]]


def format_table(headers: Sequence[str], rows: Sequence[Sequence[str]], title: str = "") -> str:
    """Render an ASCII table with per-column widths."""
    columns = [list(map(str, col)) for col in zip(headers, *rows)] if rows else [[h] for h in headers]
    widths = [max(len(cell) for cell in col) for col in columns]
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_table(columns: Columns, cells: Sequence[Any], title: str = "") -> str:
    """:func:`format_table` over ``(header, cell -> value)`` pairs, one row per cell."""
    return format_table(
        [header for header, _ in columns],
        [[fmt(cell) for _, fmt in columns] for cell in cells],
        title=title,
    )


def format_seconds(seconds: float) -> str:
    """Paper-style time formatting: ms-scale epochs, s or hr totals."""
    if seconds < 1.0:
        return f"{seconds:.4f}s"
    if seconds < 3600.0:
        return f"{seconds:.2f}s"
    return f"{seconds / 3600.0:.2f}hr"
