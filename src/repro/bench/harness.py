"""Result tables: collection, formatting, and simple assertions.

Also the shared tail of the benchmark scripts that keep a ``BENCH_*.json``
history: :func:`bench_record` stamps an entry, :func:`publish_record`
prints, appends and gates it.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence


@dataclass
class Table:
    """A formatted experiment result."""

    title: str
    headers: List[str]
    rows: List[List[Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, *cells: Any) -> None:
        """Append a row; cell count must match the headers."""
        if len(cells) != len(self.headers):
            raise ValueError(
                f"row has {len(cells)} cells, expected {len(self.headers)}"
            )
        self.rows.append(list(cells))

    def column(self, name: str) -> List[Any]:
        """All values of one named column."""
        idx = self.headers.index(name)
        return [row[idx] for row in self.rows]

    def format(self) -> str:
        """Render the table as aligned monospace text."""
        def text(cell: Any) -> str:
            if isinstance(cell, float):
                return f"{cell:.2f}"
            return str(cell)

        widths = [len(h) for h in self.headers]
        rendered = [[text(c) for c in row] for row in self.rows]
        for row in rendered:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        sep = "-+-".join("-" * w for w in widths)
        lines = [self.title, "=" * len(self.title)]
        lines.append(
            " | ".join(h.ljust(w) for h, w in zip(self.headers, widths))
        )
        lines.append(sep)
        for row in rendered:
            lines.append(
                " | ".join(c.ljust(w) for c, w in zip(row, widths))
            )
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-friendly dict of the table."""
        return {
            "title": self.title,
            "headers": list(self.headers),
            "rows": [list(r) for r in self.rows],
            "notes": list(self.notes),
        }


def geomean(values: Sequence[float]) -> float:
    """Geometric mean (NaN for an empty sequence)."""
    if not values:
        return float("nan")
    prod = 1.0
    for v in values:
        prod *= v
    return prod ** (1.0 / len(values))


def bench_record(bench: str, **fields: Any) -> Dict[str, Any]:
    """A ``BENCH_*.json`` entry: the bench name, a UTC timestamp, ``fields``."""
    stamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    return {"bench": bench, "timestamp": stamp, **fields}


def publish_record(
    path: Path,
    entry: Dict[str, Any],
    summary: str,
    appended: str,
    check: Optional[Callable[[Dict[str, Any]], int]] = None,
) -> None:
    """Print, append and gate one benchmark run by its CLI flags.

    ``--json`` prints ``entry`` instead of ``summary``; unless
    ``--no-record`` is given, ``entry`` is appended to the JSON list at
    ``path``; with ``--check``, the process exits with ``check(entry)``.
    """
    print(json.dumps(entry, indent=2) if "--json" in sys.argv else summary)
    if "--no-record" not in sys.argv:
        history = json.loads(path.read_text()) if path.exists() else []
        history.append(entry)
        path.write_text(json.dumps(history, indent=2) + "\n")
        print(f"appended {appended} to {path}")
    if check is not None and "--check" in sys.argv:
        sys.exit(check(entry))
