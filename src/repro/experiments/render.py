"""Plain-text rendering of experiment results as tables.

The paper presents its evaluation as figures; this reproduction renders the
same series as ASCII tables so that the
``examples/reproduce_figures.py`` script (and the benchmark summaries in
``EXPERIMENTS.md``) can show paper-style comparisons without any plotting
dependency.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["format_table"]


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render a simple aligned ASCII table.

    Examples
    --------
    >>> print(format_table(["x", "y"], [[1, 2.5], [10, 3.25]]))
    x   | y
    ----+-----
    1   | 2.5
    10  | 3.25
    """
    rendered_rows = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [len(str(header)) for header in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def render_line(cells: Sequence[str]) -> str:
        return " | ".join(cell.ljust(widths[index]) for index, cell in enumerate(cells)).rstrip()

    separator = "-+-".join("-" * width for width in widths)
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(render_line([str(h) for h in headers]))
    lines.append(separator)
    lines.extend(render_line(row) for row in rendered_rows)
    return "\n".join(lines)


def _format_cell(value: object) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.2f}"
    if isinstance(value, int) and abs(value) >= 1000:
        return f"{value:,}"
    return str(value)
