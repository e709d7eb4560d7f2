"""The record codec (`core.Record`) against the hand-written to_dict and
from_dict methods it replaced, kept below as plain functions (the oracle).

For every record class, hypothesis draws instances (None optionals, empty
and non-empty tag sets, nested verifications, empty likert maps) and
checks that the codec writes the oracle's canonical JSON, reads back the
oracle's dicts, and refuses what the oracle refused. The intended
differences are named in their own tests at the end.
"""

from dataclasses import MISSING, fields
from typing import Any, Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feedbacklab.consensus import HUMAN_HUMAN, HUMAN_MODEL, MatchEdge
from feedbacklab.core import (
    AspectTag,
    AuthorAction,
    Decision,
    FeedbackDimension,
    FeedbackUnit,
    PaperRecord,
    ReviewThread,
    Source,
    Speaker,
    Turn,
    Validity,
    canonical_json,
)
from feedbacklab.errors import PipelineError
from feedbacklab.forge import (
    CorruptionVariant,
    FilterStats,
    TrainingManifest,
    VariantVerification,
)
from feedbacklab.ingest import AnnotationRecord
from feedbacklab.prompts import CORRUPTION_DIMENSIONS
from feedbacklab.report import EvalReport, ReportTable, render_report
from feedbacklab.successeval import UnitEvaluation

# What read_jsonl turns into `path:line: malformed ...`.
REFUSED = (AttributeError, KeyError, TypeError, ValueError, PipelineError)


# ---- the oracle: the hand-written methods, verbatim in behaviour ----


def _enum_or_none(cls: type, value: Any) -> Any:
    if value is None:
        return None
    try:
        return cls(value)
    except ValueError:
        raise ValueError(f"unknown {cls.__name__} value: {value!r}") from None


def unit_to_dict(u: FeedbackUnit) -> dict[str, Any]:
    out: dict[str, Any] = {
        "id": u.id,
        "paper_id": u.paper_id,
        "reviewer_id": u.reviewer_id,
        "source": u.source.value,
        "text": u.text,
    }
    if u.author_response_text is not None:
        out["author_response_text"] = u.author_response_text
    if u.validity is not None:
        out["validity"] = u.validity.value
    if u.action is not None:
        out["action"] = u.action.value
    if u.aspects:
        out["aspects"] = sorted(a.value for a in u.aspects)
    if u.dimensions:
        out["dimensions"] = sorted(d.value for d in u.dimensions)
    return out


def unit_from_dict(data: Mapping[str, Any]) -> FeedbackUnit:
    return FeedbackUnit(
        id=data["id"],
        paper_id=data["paper_id"],
        reviewer_id=data["reviewer_id"],
        source=Source(data["source"]),
        text=data["text"],
        author_response_text=data.get("author_response_text"),
        validity=_enum_or_none(Validity, data.get("validity")),
        action=_enum_or_none(AuthorAction, data.get("action")),
        aspects=frozenset(
            _enum_or_none(AspectTag, a) for a in data.get("aspects", [])
        ),
        dimensions=frozenset(
            _enum_or_none(FeedbackDimension, d) for d in data.get("dimensions", [])
        ),
    )


def turn_to_dict(t: Turn) -> dict[str, Any]:
    out: dict[str, Any] = {"speaker": t.speaker.value, "text": t.text}
    if t.timestamp is not None:
        out["timestamp"] = t.timestamp
    return out


def turn_from_dict(data: Mapping[str, Any]) -> Turn:
    return Turn(
        speaker=Speaker(data["speaker"]),
        text=data["text"],
        timestamp=data.get("timestamp"),
    )


def thread_to_dict(t: ReviewThread) -> dict[str, Any]:
    return {"reviewer_id": t.reviewer_id, "turns": [turn_to_dict(x) for x in t.turns]}


def thread_from_dict(data: Mapping[str, Any]) -> ReviewThread:
    return ReviewThread(
        reviewer_id=data["reviewer_id"],
        turns=tuple(turn_from_dict(t) for t in data["turns"]),
    )


def paper_to_dict(p: PaperRecord) -> dict[str, Any]:
    out: dict[str, Any] = {
        "paper_id": p.paper_id,
        "title": p.title,
        "abstract": p.abstract,
        "venue_year": p.venue_year,
        "decision": p.decision.value,
        "threads": [thread_to_dict(t) for t in p.threads],
        "units": [unit_to_dict(u) for u in p.units],
    }
    if p.body_markdown is not None:
        out["body_markdown"] = p.body_markdown
    return out


def paper_from_dict(data: Mapping[str, Any]) -> PaperRecord:
    return PaperRecord(
        paper_id=data["paper_id"],
        title=data["title"],
        abstract=data["abstract"],
        venue_year=int(data["venue_year"]),
        decision=Decision(data.get("decision", "unknown")),
        threads=tuple(thread_from_dict(t) for t in data["threads"]),
        units=tuple(unit_from_dict(u) for u in data["units"]),
        body_markdown=data.get("body_markdown"),
    )


def variant_to_dict(v: CorruptionVariant) -> dict[str, Any]:
    out: dict[str, Any] = {
        "source_unit_id": v.source_unit_id,
        "dimension": v.dimension,
        "text": v.text,
    }
    if v.verification is not None:
        out["verification"] = {
            "predicted_dimension": v.verification.predicted_dimension,
            "target_degradation": v.verification.target_degradation,
            "collateral_preservation": v.verification.collateral_preservation,
        }
    return out


def variant_from_dict(data: Mapping[str, Any]) -> CorruptionVariant:
    verification = data.get("verification")
    return CorruptionVariant(
        source_unit_id=data["source_unit_id"],
        dimension=data["dimension"],
        text=data["text"],
        verification=VariantVerification(**verification) if verification else None,
    )


def filter_stats_to_dict(s: FilterStats) -> dict[str, Any]:
    return {
        "source_unit_id": s.source_unit_id,
        "judged_order": list(s.judged_order),
        "per_dimension": {k: dict(v) for k, v in sorted(s.per_dimension.items())},
    }


def manifest_to_dict(m: TrainingManifest) -> dict[str, Any]:
    return {
        "kind": m.kind,
        "dataset_path": m.dataset_path,
        "record_count": m.record_count,
        "hyperparameters": dict(m.hyperparameters),
        "prompt_version": m.prompt_version,
    }


def edge_to_dict(e: MatchEdge) -> dict[str, Any]:
    out: dict[str, Any] = {
        "left_unit_id": e.left_unit_id,
        "right_unit_id": e.right_unit_id,
        "pair_type": e.pair_type,
        "cosine": e.cosine,
    }
    if e.judged is not None:
        out["judged"] = e.judged
    if e.explanation is not None:
        out["explanation"] = e.explanation
    return out


def edge_from_dict(data: Mapping[str, Any]) -> MatchEdge:
    return MatchEdge(
        left_unit_id=data["left_unit_id"],
        right_unit_id=data["right_unit_id"],
        pair_type=data["pair_type"],
        cosine=data["cosine"],
        judged=data.get("judged"),
        explanation=data.get("explanation"),
    )


def annotation_to_dict(a: AnnotationRecord) -> dict[str, Any]:
    out: dict[str, Any] = {"unit_id": a.unit_id, "annotator_id": a.annotator_id}
    if a.validity is not None:
        out["validity"] = a.validity.value
    if a.action is not None:
        out["action"] = a.action.value
    if a.match_label is not None:
        out["match_label"] = a.match_label
    if a.likert:
        out["likert"] = dict(sorted(a.likert.items()))
    return out


def annotation_from_dict(data: Mapping[str, Any]) -> AnnotationRecord:
    validity = data.get("validity")
    action = data.get("action")
    return AnnotationRecord(
        unit_id=data["unit_id"],
        annotator_id=data["annotator_id"],
        validity=Validity(validity) if validity is not None else None,
        action=AuthorAction(action) if action is not None else None,
        match_label=data.get("match_label"),
        likert=data.get("likert", {}),
    )


def evaluation_to_dict(e: UnitEvaluation) -> dict[str, Any]:
    return {
        "unit_id": e.unit_id,
        "paper_id": e.paper_id,
        "passes_quality": e.passes_quality,
        "predicted_validity": e.predicted_validity.value,
        "predicted_action": e.predicted_action.value,
    }


def evaluation_from_dict(data: Mapping[str, Any]) -> UnitEvaluation:
    return UnitEvaluation(
        unit_id=data["unit_id"],
        paper_id=data["paper_id"],
        passes_quality=data["passes_quality"],
        predicted_validity=Validity(data["predicted_validity"]),
        predicted_action=AuthorAction(data["predicted_action"]),
    )


# ---- strategies ----

ids = st.text(min_size=1, max_size=12)
texts = st.text(min_size=1, max_size=40).filter(str.strip)
maybe_text = st.none() | st.text(max_size=20)
scalars = st.none() | st.booleans() | st.integers() | st.text(max_size=8)


@st.composite
def units(draw, paper_id=None, reviewers=None):
    source = draw(st.sampled_from(Source))
    if reviewers and source is Source.HUMAN:
        reviewer = draw(st.sampled_from(reviewers))
    else:
        reviewer = draw(ids if source is Source.HUMAN else st.text(max_size=8))
    return FeedbackUnit(
        id=draw(ids),
        paper_id=paper_id if paper_id is not None else draw(st.text(max_size=8)),
        reviewer_id=reviewer,
        source=source,
        text=draw(texts),
        author_response_text=draw(maybe_text),
        validity=draw(st.none() | st.sampled_from(Validity)),
        action=draw(st.none() | st.sampled_from(AuthorAction)),
        aspects=draw(st.frozensets(st.sampled_from(AspectTag))),
        dimensions=draw(st.frozensets(st.sampled_from(FeedbackDimension))),
    )


turns = st.builds(
    Turn, speaker=st.sampled_from(Speaker), text=texts, timestamp=maybe_text
)


def threads(reviewer_id=ids):
    return st.builds(
        ReviewThread,
        reviewer_id=reviewer_id,
        turns=st.lists(turns, min_size=1, max_size=3).map(tuple),
    )


@st.composite
def papers(draw):
    paper_id = draw(ids)
    reviewers = draw(st.lists(ids, max_size=3, unique=True))
    paper_units = draw(
        st.lists(
            units(paper_id, reviewers),
            max_size=4,
            unique_by=lambda u: u.id,
        ).filter(
            lambda us: reviewers or all(u.source is Source.MODEL for u in us)
        )
    )
    return PaperRecord(
        paper_id=paper_id,
        title=draw(st.text(max_size=20)),
        abstract=draw(st.text(max_size=20)),
        venue_year=draw(st.integers(1990, 2030)),
        decision=draw(st.sampled_from(Decision)),
        threads=tuple([draw(threads(st.just(r))) for r in reviewers]),
        units=tuple(paper_units),
        body_markdown=draw(maybe_text),
    )


scores = st.integers(1, 3)
dimensions = st.sampled_from(CORRUPTION_DIMENSIONS)
verifications = st.builds(
    VariantVerification,
    predicted_dimension=dimensions,
    target_degradation=scores,
    collateral_preservation=scores,
)
variants = st.builds(
    CorruptionVariant,
    source_unit_id=st.text(max_size=8),
    dimension=dimensions,
    text=st.text(min_size=1, max_size=20),
    verification=st.none() | verifications,
)
filter_stats = st.builds(
    FilterStats,
    source_unit_id=st.text(max_size=8),
    judged_order=st.lists(dimensions, max_size=5).map(tuple),
    per_dimension=st.dictionaries(
        dimensions, st.dictionaries(st.text(max_size=6), scalars, max_size=3)
    ),
)
manifests = st.builds(
    TrainingManifest,
    kind=st.sampled_from(["sft", "dpo"]),
    dataset_path=st.text(max_size=12),
    record_count=st.integers(0, 10**6),
    hyperparameters=st.dictionaries(st.text(max_size=6), scalars, max_size=4),
    prompt_version=st.text(max_size=4),
)
edges = st.builds(
    MatchEdge,
    left_unit_id=st.just("left"),
    right_unit_id=st.text(max_size=8).filter(lambda t: t != "left"),
    pair_type=st.sampled_from([HUMAN_HUMAN, HUMAN_MODEL]),
    cosine=st.floats(-1.0, 1.0),
    judged=st.none() | st.booleans(),
    explanation=maybe_text,
)


@st.composite
def annotations(draw):
    labels = {
        "validity": draw(st.none() | st.sampled_from(Validity)),
        "action": draw(st.none() | st.sampled_from(AuthorAction)),
        "match_label": draw(st.none() | st.booleans()),
        "likert": draw(
            st.dictionaries(st.text(max_size=6), st.integers(1, 5), max_size=3)
        ),
    }
    if all(v is None or v == {} for v in labels.values()):
        labels["match_label"] = draw(st.booleans())
    return AnnotationRecord(unit_id=draw(ids), annotator_id=draw(ids), **labels)


evaluations = st.builds(
    UnitEvaluation,
    unit_id=ids,
    paper_id=ids,
    passes_quality=st.booleans(),
    predicted_validity=st.sampled_from(Validity),
    predicted_action=st.sampled_from(AuthorAction),
)

# (class, strategy, oracle to_dict, oracle from_dict, enum-valued keys)
CASES = {
    "FeedbackUnit": (
        FeedbackUnit,
        units(),
        unit_to_dict,
        unit_from_dict,
        ("source", "validity", "action", "aspects", "dimensions"),
    ),
    "Turn": (Turn, turns, turn_to_dict, turn_from_dict, ("speaker",)),
    "ReviewThread": (ReviewThread, threads(), thread_to_dict, thread_from_dict, ()),
    "PaperRecord": (
        PaperRecord,
        papers(),
        paper_to_dict,
        paper_from_dict,
        ("decision",),
    ),
    "CorruptionVariant": (
        CorruptionVariant,
        variants,
        variant_to_dict,
        variant_from_dict,
        (),
    ),
    "FilterStats": (FilterStats, filter_stats, filter_stats_to_dict, None, ()),
    "TrainingManifest": (TrainingManifest, manifests, manifest_to_dict, None, ()),
    "MatchEdge": (MatchEdge, edges, edge_to_dict, edge_from_dict, ()),
    "AnnotationRecord": (
        AnnotationRecord,
        annotations(),
        annotation_to_dict,
        annotation_from_dict,
        ("validity", "action"),
    ),
    "UnitEvaluation": (
        UnitEvaluation,
        evaluations,
        evaluation_to_dict,
        evaluation_from_dict,
        ("predicted_validity", "predicted_action"),
    ),
}
READERS = [name for name, case in CASES.items() if case[3] is not None]


@pytest.mark.parametrize("name", CASES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_codec_writes_and_reads_what_the_oracle_did(name, data):
    cls, strategy, oracle_to_dict, oracle_from_dict, _ = CASES[name]
    record = data.draw(strategy)
    written = oracle_to_dict(record)
    assert canonical_json(record.to_dict()) == canonical_json(written)
    assert cls.from_dict(written) == record
    assert cls.from_dict({**written, "unknown_key": 1}) == record
    if oracle_from_dict is not None:
        assert oracle_from_dict(record.to_dict()) == record


@pytest.mark.parametrize("name", READERS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_codec_refuses_what_the_oracle_refused(name, data):
    cls, strategy, oracle_to_dict, oracle_from_dict, enum_keys = CASES[name]
    written = oracle_to_dict(data.draw(strategy))
    required = [
        f.name
        for f in fields(cls)
        if f.default is MISSING and f.default_factory is MISSING
    ]
    key = data.draw(st.sampled_from(required))
    broken = [{k: v for k, v in written.items() if k != key}]
    if enum_keys:
        key = data.draw(st.sampled_from(enum_keys))
        bogus = ["bogus"] if key in ("aspects", "dimensions") else "bogus"
        broken.append({**written, key: bogus})
    for data_in in broken:
        for read in (cls.from_dict, oracle_from_dict):
            with pytest.raises(REFUSED):
                read(data_in)


# ---- intended differences ----
# Besides these, a bad enum value reads "'x' is not a valid Validity"
# where the oracle's _enum_or_none said "unknown Validity value: 'x'".

UNIT = {
    "id": "u1",
    "paper_id": "p1",
    "reviewer_id": "r1",
    "source": "human",
    "text": "t",
}
VARIANT = {"source_unit_id": "u1", "dimension": "vague", "text": "t"}


@pytest.mark.parametrize("tags", ["aspects", "dimensions"])
def test_null_tag_is_refused_on_read(tags):
    # The oracle let a null tag through, and its to_dict then crashed on
    # it; the codec decodes each element with the tag enum.
    loaded = unit_from_dict({**UNIT, tags: [None]})
    with pytest.raises(AttributeError):
        unit_to_dict(loaded)
    with pytest.raises(ValueError):
        FeedbackUnit.from_dict({**UNIT, tags: [None]})


def test_empty_verification_is_refused_on_read():
    # The oracle read `"verification": {}` as no verification; the codec
    # reads a nested record like any other, so its fields are required.
    data = {**VARIANT, "verification": {}}
    assert variant_from_dict(data).verification is None
    with pytest.raises(KeyError):
        CorruptionVariant.from_dict(data)


def test_absent_fields_with_defaults_take_the_default():
    # The oracle required `threads` and `units`; the codec lets every
    # field that has a default be absent, as `decision` already was.
    data = {"paper_id": "p1", "title": "T", "abstract": "A", "venue_year": "2026"}
    with pytest.raises(KeyError):
        paper_from_dict(data)
    record = PaperRecord.from_dict(data)
    assert (record.threads, record.units, record.venue_year) == ((), (), 2026)


def test_unknown_keys_are_ignored_in_nested_records_too():
    verification = {
        "predicted_dimension": "vague",
        "target_degradation": 2,
        "collateral_preservation": 3,
        "note": "extra",
    }
    data = {**VARIANT, "verification": verification}
    with pytest.raises(TypeError):
        variant_from_dict(data)
    assert CorruptionVariant.from_dict(data).verification == VariantVerification(
        "vague", 2, 3
    )


@pytest.mark.parametrize(
    "labels",
    [
        {"match_label": "0"},
        {"match_label": 1},
        {"match_label": False, "likert": {"accuracy": True}},
    ],
)
def test_annotation_labels_of_another_json_type_are_refused(labels):
    # Both were once taken: "0" then counted as a match, and true as the
    # likert score 1 (bool is an int). The record's own checks refuse
    # them, so the oracle, which builds the record, refuses them too.
    data = {"unit_id": "u1", "annotator_id": "a1", **labels}
    with pytest.raises(PipelineError, match="match_label|likert accuracy=True"):
        AnnotationRecord.from_dict(data)
    with pytest.raises(PipelineError):
        annotation_from_dict(data)


def test_report_cells_are_formatted_once_and_read_back_equal():
    # A table formats its cells when it is built, so a report read back
    # from its dict holds the same strings as the report that wrote it.
    columns = ("name", "n", "rate", "ok", "gap")
    row = {"name": "a", "n": 2, "rate": 0.5, "ok": True, "gap": None, "x": 1}
    table = ReportTable.by_key(columns, [row])
    assert table.rows == (("a", "2", "0.500", "true", ""),)
    empty = ReportTable.by_key(columns, [])
    report = EvalReport(
        metadata={"seed": 0}, tables={"t": table, "empty": empty}, details={}
    )
    data = report.to_dict()
    assert data["tables"]["empty"] == {"columns": list(columns), "rows": []}
    assert data["details"] == {}
    assert EvalReport.from_dict(data) == report
    assert render_report(report, "csv").startswith("# empty\nname,n,rate,ok,gap\n\n")
