"""Plain-text report tables for the benchmark harness.

Every benchmark prints the rows/series its paper table or figure reports;
:class:`Table` keeps that output aligned and diff-friendly.
"""

from __future__ import annotations

from typing import Sequence


class Table:
    """A fixed-column text table.

    >>> table = Table(["host", "reads"])
    >>> table.add_row(["host1", 13_500_000])
    >>> print(table.render())
    host  | reads
    ------+---------
    host1 | 13500000
    """

    def __init__(self, headers: Sequence[str], *, title: str | None = None) -> None:
        if not headers:
            raise ValueError("a table needs at least one column")
        self.title = title
        self._headers = [str(h) for h in headers]
        self._rows: list[list[str]] = []

    def add_row(self, cells: Sequence[object]) -> None:
        if len(cells) != len(self._headers):
            raise ValueError(
                f"row has {len(cells)} cells, table has {len(self._headers)} columns"
            )
        self._rows.append([str(c) for c in cells])

    def render(self) -> str:
        widths = [len(h) for h in self._headers]
        for row in self._rows:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))
        lines = []
        if self.title:
            lines.append(self.title)
        lines.append(
            " | ".join(h.ljust(w) for h, w in zip(self._headers, widths)).rstrip()
        )
        lines.append("-+-".join("-" * w for w in widths))
        for row in self._rows:
            lines.append(
                " | ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
            )
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def format_bytes(nbytes: float) -> str:
    """Human-readable byte counts: ``format_bytes(2**20) == '1.0 MiB'``."""
    size = float(nbytes)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB", "PiB"):
        if abs(size) < 1024 or unit == "PiB":
            return f"{size:.1f} {unit}" if unit != "B" else f"{int(size)} B"
        size /= 1024
    raise AssertionError("unreachable")
