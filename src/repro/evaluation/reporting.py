"""Plain-text table rendering for harnesses.

Every benchmark prints the rows the paper reports; this module renders
them as aligned monospace tables so the output can be diffed against
EXPERIMENTS.md. Machine-readable telemetry lives in :mod:`repro.obs`
(``write_telemetry_json``).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import Union

Cell = Union[str, int, float, None]


def format_cell(value: Cell, float_digits: int = 3) -> str:
    """Render one table cell: floats rounded, ``None`` as a dash."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        magnitude = abs(value)
        if magnitude != 0 and (magnitude >= 1e6 or magnitude < 10 ** (-float_digits)):
            return f"{value:.{float_digits}e}"
        return f"{value:.{float_digits}f}"
    return str(value)


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Cell]],
    float_digits: int = 3,
    title: str | None = None,
) -> str:
    """Render an aligned text table with a header separator.

    Raises ``ValueError`` when a row's width differs from the header's.
    """
    rendered_rows: list[list[str]] = []
    for row in rows:
        cells = [format_cell(cell, float_digits) for cell in row]
        if len(cells) != len(headers):
            raise ValueError(
                f"row has {len(cells)} cells but table has {len(headers)} columns"
            )
        rendered_rows.append(cells)

    widths = [len(h) for h in headers]
    for cells in rendered_rows:
        for i, cell in enumerate(cells):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()

    parts: list[str] = []
    if title:
        parts.append(title)
        parts.append("=" * len(title))
    parts.append(line(headers))
    parts.append(line(["-" * w for w in widths]))
    parts.extend(line(cells) for cells in rendered_rows)
    return "\n".join(parts)


def print_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Cell]],
    float_digits: int = 3,
    title: str | None = None,
) -> None:
    """Print :func:`render_table` output followed by a blank line."""
    print(render_table(headers, rows, float_digits, title))
    print()


def percent(value: float) -> str:
    """Format a fraction as a percentage string, e.g. ``0.824 → '82%'``."""
    return f"{round(value * 100)}%"
