"""Result containers for the experiment harness.

Every experiment produces one or more :class:`ResultTable` objects —
rows of named values matching the series the paper plots — wrapped in an
:class:`ExperimentResult` together with free-form notes (deviations,
calibration remarks).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.errors import ReproError

__all__ = ["ResultTable", "ExperimentResult"]


class ResultTable:
    """A named table of experiment rows."""

    def __init__(self, title: str, columns: Iterable[str]):
        self.title = title
        self.columns = list(columns)
        if not self.columns:
            raise ReproError(f"table {title!r} needs at least one column")
        self.rows: list[dict[str, Any]] = []

    def add(self, **values: Any) -> None:
        """Append a row; every column must be supplied."""
        missing = [c for c in self.columns if c not in values]
        extra = [k for k in values if k not in self.columns]
        if missing or extra:
            raise ReproError(
                f"table {self.title!r}: row mismatch (missing {missing}, "
                f"extra {extra})")
        self.rows.append(dict(values))

    def column(self, name: str) -> list[Any]:
        if name not in self.columns:
            raise ReproError(f"table {self.title!r} has no column {name!r}")
        return [row[name] for row in self.rows]

    def row_for(self, key_col: str, key: Any) -> dict[str, Any]:
        """The first row whose ``key_col`` equals ``key``."""
        for row in self.rows:
            if row[key_col] == key:
                return row
        raise ReproError(f"table {self.title!r}: no row with {key_col}={key!r}")

    def normalized(self, value_cols: Iterable[str], basis_col: str,
                   *, title: str | None = None) -> "ResultTable":
        """A copy with ``value_cols`` divided by ``basis_col`` per row.

        Matches the paper's "relative to the vanilla JVM" presentation.
        """
        value_cols = list(value_cols)
        out = ResultTable(title or f"{self.title} (normalized)", self.columns)
        for row in self.rows:
            basis = row[basis_col]
            new = dict(row)
            for c in value_cols:
                new[c] = (row[c] / basis) if basis else float("nan")
            out.rows.append(new)
        return out

    # -- rendering ----------------------------------------------------------

    def to_text(self) -> str:
        def fmt(v: Any) -> str:
            if isinstance(v, bool):
                return str(v)
            if isinstance(v, float):
                return f"{v:.3f}"
            return str(v)

        header = list(self.columns)
        body = [[fmt(row[c]) for c in header] for row in self.rows]
        widths = [max(len(h), *(len(r[i]) for r in body)) if body else len(h)
                  for i, h in enumerate(header)]
        lines = [self.title,
                 "  ".join(h.ljust(w) for h, w in zip(header, widths)),
                 "  ".join("-" * w for w in widths)]
        for r in body:
            lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.rows)


@dataclass
class ExperimentResult:
    """Output of one paper experiment (figure or table)."""

    experiment: str                       # e.g. "fig06"
    description: str
    tables: dict[str, ResultTable] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def add_table(self, key: str, table: ResultTable) -> ResultTable:
        self.tables[key] = table
        return table

    def note(self, text: str) -> None:
        self.notes.append(text)

    def to_text(self) -> str:
        parts = [f"=== {self.experiment}: {self.description} ==="]
        for table in self.tables.values():
            parts.append(table.to_text())
            parts.append("")
        for n in self.notes:
            parts.append(f"note: {n}")
        return "\n".join(parts)
