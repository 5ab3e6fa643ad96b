"""Plain-text rendering of experiment results.

The benchmark targets print paper-style rows through these helpers so
that ``pytest benchmarks/ -s`` output can be compared against the
paper's tables/figures line by line.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence],
    title: str | None = None,
) -> str:
    """Render an aligned monospace table."""
    str_rows = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))

    out = []
    if title:
        out.append(title)
    out.append(line(list(headers)))
    out.append(line(["-" * w for w in widths]))
    out.extend(line(row) for row in str_rows)
    return "\n".join(out)


def format_series(
    name: str,
    points: Iterable[tuple],
    x_label: str = "x",
    y_label: str = "y",
) -> str:
    """Render one figure series as ``name: x=…, y=…`` lines."""
    out = [f"{name}:"]
    for x, y in points:
        out.append(f"  {x_label}={_fmt(x)}  {y_label}={_fmt(y)}")
    return "\n".join(out)


def _fmt(v) -> str:
    if isinstance(v, float):
        if v == 0:
            return "0"
        if abs(v) >= 1000 or abs(v) < 0.001:
            return f"{v:.3g}"
        return f"{v:.3f}".rstrip("0").rstrip(".")
    return str(v)

