"""Plain-text table rendering for the experiment harness.

Every experiment module produces an :class:`ExperimentTable` whose rows
mirror the corresponding table/figure of the paper; the CLI and the
benchmark harness print them, and EXPERIMENTS.md embeds the markdown form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["ExperimentTable"]


def _format_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


@dataclass
class ExperimentTable:
    """A titled table of experiment results.

    Attributes:
        title: table caption (usually the paper figure id).
        columns: header names.
        rows: row tuples (mixed str/int/float; floats render with 2
            decimals).
        notes: free-form footnotes appended under the table.
    """

    title: str
    columns: list[str]
    rows: list[tuple] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, *values) -> None:
        """Append one row (must match the column count)."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} cells, got {len(values)}"
            )
        self.rows.append(tuple(values))

    def add_note(self, note: str) -> None:
        """Append a footnote."""
        self.notes.append(note)

    def _rendered_rows(self) -> list[list[str]]:
        return [[_format_cell(cell) for cell in row] for row in self.rows]

    def to_text(self) -> str:
        """Fixed-width text rendering."""
        rendered = self._rendered_rows()
        widths = [len(col) for col in self.columns]
        for row in rendered:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [self.title, "=" * len(self.title)]
        header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(self.columns))
        lines.append(header)
        lines.append("-" * len(header))
        for row in rendered:
            lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def to_markdown(self) -> str:
        """GitHub-flavored markdown rendering."""
        rendered = self._rendered_rows()
        lines = [f"**{self.title}**", ""]
        lines.append("| " + " | ".join(self.columns) + " |")
        lines.append("|" + "|".join("---" for __ in self.columns) + "|")
        for row in rendered:
            lines.append("| " + " | ".join(row) + " |")
        for note in self.notes:
            lines.append(f"\n_{note}_")
        return "\n".join(lines)

    def column(self, name: str) -> list:
        """All raw values of one column (for assertions in tests/benches)."""
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]
