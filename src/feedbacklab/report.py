"""Bit-stable report structures and renderers.

A report is a Record: metadata, named tables and a free-form detail
section. Each table formats its cells once, when it is built, by one
fixed rule per cell type, so a report built by a command and the same
report read back from eval_report.json hold the same strings, and every
format renders the same bytes from them.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

from .core import Record
from .errors import PipelineError

METRIC_DECIMALS = 3


def format_metric(value: float) -> str:
    return f"{value:.{METRIC_DECIMALS}f}"


def _format_cell(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_metric(value)
    if isinstance(value, int):
        return str(value)
    if value is None:
        return ""
    return str(value)


@dataclass(frozen=True)
class ReportTable(Record):
    columns: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...] = ()

    def __post_init__(self) -> None:
        if not self.columns:
            raise PipelineError("report table needs columns")
        object.__setattr__(self, "columns", tuple(self.columns))
        rows = tuple(tuple(map(_format_cell, r)) for r in self.rows)
        for row in rows:
            if len(row) != len(self.columns):
                raise PipelineError(
                    f"report row width {len(row)} != {len(self.columns)} columns"
                )
        object.__setattr__(self, "rows", rows)

    @classmethod
    def by_key(
        cls, columns: Sequence[str], rows: Iterable[Mapping[str, Any]]
    ) -> "ReportTable":
        """A table of these columns, one row per mapping keyed by them."""
        return cls(
            columns=tuple(columns),
            rows=tuple(tuple(row[c] for c in columns) for row in rows),
        )


@dataclass(frozen=True)
class EvalReport(Record):
    """Run metadata, named tables, and a free-form detail section."""

    metadata: Mapping[str, Any]
    tables: Mapping[str, ReportTable]
    details: Mapping[str, Any]

    def __post_init__(self) -> None:
        object.__setattr__(self, "metadata", dict(self.metadata))
        object.__setattr__(self, "tables", dict(self.tables))
        object.__setattr__(self, "details", dict(self.details))


def _render_json(report: EvalReport) -> str:
    return (
        json.dumps(report.to_dict(), sort_keys=True, indent=2, ensure_ascii=False)
        + "\n"
    )


def _render_csv(report: EvalReport) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    for name in sorted(report.tables):
        table = report.tables[name]
        writer.writerow([f"# {name}"])
        writer.writerow(table.columns)
        writer.writerows(table.rows)
        writer.writerow([])
    return buffer.getvalue()


def _render_markdown(report: EvalReport) -> str:
    lines: list[str] = []
    for name in sorted(report.tables):
        table = report.tables[name]
        widths = [len(c) for c in table.columns]
        for row in table.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        header = " | ".join(
            c.ljust(widths[i]) for i, c in enumerate(table.columns)
        )
        separator = " | ".join("-" * widths[i] for i in range(len(widths)))
        lines.append(f"## {name}")
        lines.append("")
        lines.append(f"| {header} |")
        lines.append(f"| {separator} |")
        for row in table.rows:
            body = " | ".join(
                cell.ljust(widths[i]) for i, cell in enumerate(row)
            )
            lines.append(f"| {body} |")
        lines.append("")
    return "\n".join(lines)


_RENDERERS = {
    "json": _render_json,
    "csv": _render_csv,
    "markdown-table": _render_markdown,
}

REPORT_FORMATS = tuple(sorted(_RENDERERS))


def render_report(report: EvalReport, fmt: str) -> str:
    """Render to one of json, csv, markdown-table. Deterministic."""
    try:
        renderer = _RENDERERS[fmt]
    except KeyError:
        raise PipelineError(
            f"unknown report format {fmt!r}; expected one of {REPORT_FORMATS}"
        ) from None
    return renderer(report)
