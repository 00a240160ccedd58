"""Plain-text rendering of result tables (used by the CLI, the
examples, and anyone who wants a quick look at a Table)."""

from __future__ import annotations

from typing import Any, Optional

from repro.engine.table import Table


def render_value(value: Any, float_digits: int = 4) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, float):
        text = f"{value:.{float_digits}f}"
        return text.rstrip("0").rstrip(".") if "." in text else text
    return str(value)


def render_table(table: Table, max_rows: Optional[int] = 50,
                 float_digits: int = 4) -> str:
    """An aligned text rendering of a result table.

    Shows at most ``max_rows`` rows (None for all) and appends a
    truncation note when rows were cut.
    """
    names = table.column_names()
    rows = []
    truncated = 0
    for i, row in enumerate(table.rows()):
        if max_rows is not None and i >= max_rows:
            truncated = table.n_rows - max_rows
            break
        rows.append([render_value(v, float_digits) for v in row])

    widths = [len(n) for n in names]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells):
        return " | ".join(c.ljust(w) for c, w in zip(cells, widths))

    out = [line(names), "-+-".join("-" * w for w in widths)]
    out.extend(line(row) for row in rows)
    if truncated:
        out.append(f"... ({truncated} more rows)")
    out.append(f"({table.n_rows} row{'s' if table.n_rows != 1 else ''})")
    return "\n".join(out)
