"""Bit-stable report structures and renderers.

Reports carry prebuilt tables; rendering applies one fixed formatting
rule per cell type, so the same report always produces the same bytes
in every format.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Any, Mapping

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
class ReportTable:
    columns: tuple[str, ...]
    rows: tuple[tuple[Any, ...], ...] = ()

    def __post_init__(self) -> None:
        if not self.columns:
            raise PipelineError("report table needs columns")
        object.__setattr__(self, "columns", tuple(self.columns))
        rows = tuple(tuple(r) for r in self.rows)
        for row in rows:
            if len(row) != len(self.columns):
                raise PipelineError(
                    f"report row width {len(row)} != {len(self.columns)} columns"
                )
        object.__setattr__(self, "rows", rows)

    def formatted_rows(self) -> list[list[str]]:
        return [[_format_cell(v) for v in row] for row in self.rows]

    def to_dict(self) -> dict[str, Any]:
        return {
            "columns": list(self.columns),
            "rows": self.formatted_rows(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ReportTable":
        return cls(
            columns=tuple(data["columns"]),
            rows=tuple(tuple(r) for r in data["rows"]),
        )


@dataclass(frozen=True)
class EvalReport:
    """Run metadata, named tables, and a free-form detail section."""

    metadata: Mapping[str, Any]
    tables: Mapping[str, ReportTable]
    details: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "metadata", dict(self.metadata))
        object.__setattr__(self, "tables", dict(self.tables))
        object.__setattr__(self, "details", dict(self.details))

    def to_dict(self) -> dict[str, Any]:
        return {
            "metadata": dict(self.metadata),
            "tables": {name: t.to_dict() for name, t in self.tables.items()},
            "details": dict(self.details),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EvalReport":
        return cls(
            metadata=data["metadata"],
            tables={
                name: ReportTable.from_dict(t)
                for name, t in data["tables"].items()
            },
            details=data.get("details", {}),
        )


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
        for row in table.formatted_rows():
            writer.writerow(row)
        writer.writerow([])
    return buffer.getvalue()


def _render_markdown(report: EvalReport) -> str:
    lines: list[str] = []
    for name in sorted(report.tables):
        table = report.tables[name]
        formatted = table.formatted_rows()
        widths = [len(c) for c in table.columns]
        for row in formatted:
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
        for row in formatted:
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
