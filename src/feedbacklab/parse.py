"""Thread parsing: review discussions to labeled feedback units.

One judge call per thread; the judge segments the reviewer's critique,
pairs each unit with the authors' reply, and labels validity, action,
aspects, and dimensions in a single pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from .core import (
    AspectTag,
    AuthorAction,
    FeedbackDimension,
    FeedbackUnit,
    PaperRecord,
    ReviewThread,
    Source,
    Speaker,
    Validity,
    make_unit_id,
)
from .errors import JudgeFormatError, PipelineError, StatsError
from .ingest import AnnotationRecord
from .judge import EndpointConfig, JudgeClient
from .prompts import THREAD_PARSE

if TYPE_CHECKING:
    from .stats import ContingencyTable


@dataclass(frozen=True)
class ParseResult:
    """Labeled units extracted from one review thread."""

    paper_id: str
    reviewer_id: str
    units: tuple[FeedbackUnit, ...]
    dropped_note: int
    template_version: str

    def to_audit_dict(self) -> dict[str, Any]:
        return {
            "paper_id": self.paper_id,
            "reviewer_id": self.reviewer_id,
            "template": THREAD_PARSE.name,
            "template_version": self.template_version,
            "unit_count": len(self.units),
            "dropped_note": self.dropped_note,
        }


def render_conversation(thread: ReviewThread) -> str:
    lines = []
    for turn in thread.turns:
        label = "Reviewer" if turn.speaker is Speaker.REVIEWER else "Authors"
        lines.append(f"{label}: {turn.text}")
    return "\n\n".join(lines)


def parse_thread(
    client: JudgeClient,
    endpoint: EndpointConfig,
    record: PaperRecord,
    thread: ReviewThread,
) -> ParseResult:
    """Extract labeled feedback units from one thread via the judge.

    An empty unit list is valid output (the thread may be all praise);
    malformed judge output raises rather than returning partial results.
    """
    response = client.complete(
        endpoint,
        THREAD_PARSE,
        {
            "title": record.title,
            "abstract": record.abstract,
            "conversation": render_conversation(thread),
        },
    )
    units: list[FeedbackUnit] = []
    seen: set[str] = set()
    for entry in response.parsed["units"]:
        try:
            unit = FeedbackUnit(
                id=make_unit_id(
                    record.paper_id, thread.reviewer_id, entry["feedback_text"]
                ),
                paper_id=record.paper_id,
                reviewer_id=thread.reviewer_id,
                source=Source.HUMAN,
                text=entry["feedback_text"],
                author_response_text=entry.get("author_response_text"),
                validity=Validity(entry["validity"]),
                action=AuthorAction(entry["author_action"]),
                aspects=frozenset(AspectTag(a) for a in entry["aspects"]),
                dimensions=frozenset(
                    FeedbackDimension(d) for d in entry["dimensions"]
                ),
            )
        except (ValueError, KeyError) as exc:
            raise JudgeFormatError(
                f"thread_parse: unusable unit from judge: {exc}",
                raw_text=response.raw_text,
            ) from None
        if unit.id in seen:
            raise PipelineError(
                f"thread_parse: judge emitted duplicate unit text in "
                f"{record.paper_id}/{thread.reviewer_id}"
            )
        seen.add(unit.id)
        units.append(unit)
    return ParseResult(
        paper_id=record.paper_id,
        reviewer_id=thread.reviewer_id,
        units=tuple(units),
        dropped_note=response.parsed["skipped_positive_count"],
        template_version=response.template_version,
    )


def parse_papers(
    client: JudgeClient,
    endpoint: EndpointConfig,
    records: Sequence[PaperRecord],
) -> tuple[list[PaperRecord], list[ParseResult]]:
    """Parse every thread of many papers; returns the updated records.

    Threads fan out through JudgeClient.map; records and results come
    back in input order, results flattened paper by paper.
    """
    jobs = [(record, thread) for record in records for thread in record.threads]
    results = client.map(lambda job: parse_thread(client, endpoint, *job), jobs)
    updated: list[PaperRecord] = []
    start = 0
    for record in records:
        per_paper = results[start : start + len(record.threads)]
        start += len(record.threads)
        updated.append(
            record.with_units(u for r in per_paper for u in r.units)
        )
    return updated, results


def _pooled_pair_table(
    per_unit_labels: Iterable[Sequence[str]],
) -> tuple[ContingencyTable | None, int, int]:
    """Symmetrized annotator-pair contingency table.

    Every unordered annotator pair inside a unit contributes both
    orientations, making the table rater-order invariant. Returns
    (table, pair count, unit count); table is None when no unit has
    two or more labels.
    """
    # stats imports numpy; parsing threads needs neither.
    from .stats import ContingencyTable

    pairs: list[tuple[str, str]] = []
    units_used = 0
    for labels in per_unit_labels:
        if len(labels) < 2:
            continue
        units_used += 1
        for i in range(len(labels)):
            for j in range(i + 1, len(labels)):
                pairs.append((labels[i], labels[j]))
                pairs.append((labels[j], labels[i]))
    if not pairs:
        return None, 0, units_used
    categories = sorted({c for pair in pairs for c in pair})
    index = {c: k for k, c in enumerate(categories)}
    counts = [[0] * len(categories) for _ in categories]
    for a, b in pairs:
        counts[index[a]][index[b]] += 1
    return ContingencyTable(tuple(map(tuple, counts))), len(pairs) // 2, units_used


def agreement_report(
    annotations: Sequence[AnnotationRecord],
    reference: Sequence[FeedbackUnit] = (),
) -> dict[str, Any]:
    """Agreement table per label kind (validity, action).

    Inter-annotator rows pool symmetrized annotator pairs per unit;
    reference rows compare each annotation against the reference unit's
    label (accuracy plus its PABAK rescaling).
    """
    from .stats import cohen_kappa, observed_agreement, pabak

    ref_by_id = {u.id: u for u in reference}
    report: dict[str, Any] = {}
    for kind in ("validity", "action"):
        per_unit: dict[str, list[str]] = {}
        comparisons: list[bool] = []
        for ann in annotations:
            label = getattr(ann, kind)
            if label is None:
                continue
            per_unit.setdefault(ann.unit_id, []).append(label.value)
            ref_unit = ref_by_id.get(ann.unit_id)
            if ref_unit is not None:
                ref_label = getattr(ref_unit, kind)
                if ref_label is not None:
                    comparisons.append(ref_label.value == label.value)
        table, n_pairs, n_units = _pooled_pair_table(per_unit.values())
        if table is None and not comparisons:
            raise StatsError(f"agreement_report: no usable {kind} annotations")
        entry: dict[str, Any] = {}
        if table is not None:
            observed = observed_agreement(table)
            entry["inter_annotator"] = {
                "observed_agreement": observed,
                "pabak": pabak(observed),
                "cohen_kappa": cohen_kappa(table),
                "n_pairs": n_pairs,
                "n_units": n_units,
            }
        if comparisons:
            accuracy = sum(comparisons) / len(comparisons)
            entry["vs_reference"] = {
                "accuracy": accuracy,
                "pabak": pabak(accuracy),
                "n": len(comparisons),
            }
        report[kind] = entry
    return report
