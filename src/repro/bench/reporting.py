"""Plain-text and CSV rendering of experiment rows."""

from __future__ import annotations

import csv
import io
from typing import Sequence


def _columns(rows: Sequence[dict]) -> list[str]:
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    return columns


def format_table(rows: Sequence[dict], title: str = "") -> str:
    """Render rows as an aligned plain-text table (one line per row)."""
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    columns = _columns(rows)
    cells = [[str(row.get(c, "")) for c in columns] for row in rows]
    widths = [max(len(c), *(len(line[i]) for line in cells)) for i, c in enumerate(columns)]

    def render_line(values: list[str]) -> str:
        return "  ".join(v.ljust(widths[i]) for i, v in enumerate(values)).rstrip()

    lines = []
    if title:
        lines.append(title)
    lines.append(render_line(list(columns)))
    lines.append(render_line(["-" * w for w in widths]))
    lines.extend(render_line(line) for line in cells)
    return "\n".join(lines)


def rows_to_csv(rows: Sequence[dict], path: str | None = None) -> str:
    """Render rows as CSV text; optionally also write them to ``path``."""
    columns = _columns(rows)
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    text = buffer.getvalue()
    if path is not None:
        with open(path, "w", newline="") as handle:
            handle.write(text)
    return text
