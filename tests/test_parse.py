import pytest

from feedbacklab.core import (
    AspectTag,
    AuthorAction,
    FeedbackDimension,
    FeedbackUnit,
    PaperRecord,
    ReviewThread,
    Source,
    Speaker,
    Turn,
    Validity,
    canonical_json,
    make_unit_id,
)
from feedbacklab.errors import JudgeFormatError, PipelineError, StatsError
from feedbacklab.ingest import AnnotationRecord
from feedbacklab.judge import EndpointConfig, JudgeClient, StubBackend
from feedbacklab.parse import (
    agreement_report,
    parse_papers,
    parse_thread,
    render_conversation,
)

ENDPOINT = EndpointConfig()


def thread(reviewer, text):
    return ReviewThread(
        reviewer_id=reviewer,
        turns=(
            Turn(speaker=Speaker.REVIEWER, text=text),
            Turn(speaker=Speaker.AUTHOR, text="we will address this"),
        ),
    )


def record(pid="p1", reviewers=("r1",)):
    return PaperRecord(
        paper_id=pid,
        title=f"Title {pid}",
        abstract="abstract",
        venue_year=2026,
        threads=tuple(thread(r, f"comment from {r} on {pid}") for r in reviewers),
    )


def judge_unit(text, validity="agreed", action="will_revise", **kw):
    return {
        "feedback_text": text,
        "author_response_text": kw.get("reply", "we will fix it"),
        "validity": validity,
        "author_action": action,
        "aspects": kw.get("aspects", ["clarity_presentation"]),
        "dimensions": kw.get("dimensions", ["feed_back"]),
    }


def stub_for(conversation_units, skipped=0):
    """conversation text -> list of judge unit dicts."""
    cases = [
        {
            "when": {"conversation": conv},
            "respond": {"units": units, "skipped_positive_count": skipped},
        }
        for conv, units in conversation_units.items()
    ]
    return JudgeClient(
        StubBackend(
            {
                "templates": {
                    "thread_parse": {
                        "default": {"units": [], "skipped_positive_count": 0},
                        "cases": cases,
                    }
                }
            }
        )
    )


def test_render_conversation():
    t = thread("r1", "too vague")
    assert render_conversation(t) == (
        "Reviewer: too vague\n\nAuthors: we will address this"
    )


def test_parse_thread_happy_path():
    rec = record()
    conv = render_conversation(rec.threads[0])
    client = stub_for(
        {
            conv: [
                judge_unit("the baseline comparison is missing"),
                judge_unit(
                    "theory section lacks a proof",
                    validity="rebutted",
                    action="no_revision_contest",
                    aspects=["theoretical_soundness"],
                    dimensions=["feed_back", "feed_forward"],
                ),
            ]
        },
        skipped=2,
    )
    result = parse_thread(client, ENDPOINT, rec, rec.threads[0])
    assert result.dropped_note == 2
    assert result.template_version == "1"
    assert [u.text for u in result.units] == [
        "the baseline comparison is missing",
        "theory section lacks a proof",
    ]
    first = result.units[0]
    assert first.id == make_unit_id("p1", "r1", first.text)
    assert first.source is Source.HUMAN
    assert first.validity is Validity.AGREED
    assert first.action is AuthorAction.WILL_REVISE
    assert first.is_successful
    second = result.units[1]
    assert second.aspects == frozenset({AspectTag.THEORETICAL_SOUNDNESS})
    assert second.dimensions == frozenset(
        {FeedbackDimension.FEED_BACK, FeedbackDimension.FEED_FORWARD}
    )
    assert not second.is_successful
    audit = result.to_audit_dict()
    assert audit["unit_count"] == 2
    assert "cache_hit" not in audit  # persisted audits must be run-stable


def test_parse_thread_reads_an_integral_float_count_as_an_int():
    # JSON Schema counts 2.0 as an integer, so the reply is valid
    rec = record()
    conv = render_conversation(rec.threads[0])
    client = stub_for({conv: [judge_unit("a point")]}, skipped=2.0)
    result = parse_thread(client, ENDPOINT, rec, rec.threads[0])
    assert type(result.dropped_note) is int and result.dropped_note == 2
    assert '"dropped_note":2,' in canonical_json(result.to_audit_dict())


def test_parse_thread_empty_is_valid():
    rec = record()
    client = stub_for({})  # default: no units
    result = parse_thread(client, ENDPOINT, rec, rec.threads[0])
    assert result.units == ()


def test_parse_thread_duplicate_text_rejected():
    rec = record()
    conv = render_conversation(rec.threads[0])
    client = stub_for({conv: [judge_unit("same point"), judge_unit("same  point")]})
    with pytest.raises(PipelineError, match="duplicate"):
        parse_thread(client, ENDPOINT, rec, rec.threads[0])


def test_parse_thread_schema_valid_but_unusable_unit():
    rec = record()
    conv = render_conversation(rec.threads[0])
    # whitespace-only text passes the schema but cannot become a unit
    client = stub_for({conv: [judge_unit("   ")]})
    with pytest.raises(JudgeFormatError) as err:
        parse_thread(client, ENDPOINT, rec, rec.threads[0])
    assert err.value.exit_code == 4


def test_parse_papers_merges_threads():
    rec = record(reviewers=("r1", "r2"))
    convs = [render_conversation(t) for t in rec.threads]
    client = stub_for(
        {
            convs[0]: [judge_unit("needs ablations")],
            convs[1]: [judge_unit("add a baseline"), judge_unit("fix fig 2")],
        }
    )
    (updated,), results = parse_papers(client, ENDPOINT, [rec])
    assert [r.reviewer_id for r in results] == ["r1", "r2"]
    assert [u.reviewer_id for u in updated.units] == ["r1", "r2", "r2"]
    assert updated.title == rec.title
    # re-parsing replaces, never appends
    (updated2,), _ = parse_papers(client, ENDPOINT, [updated])
    assert len(updated2.units) == 3


def test_parse_papers_preserves_input_order():
    records = [record(pid=f"p{i}", reviewers=("r1", "r2")) for i in range(5)]
    mapping = {}
    for rec in records:
        for t in rec.threads:
            mapping[render_conversation(t)] = [
                judge_unit(f"point about {rec.paper_id} from {t.reviewer_id}")
            ]
    client = stub_for(mapping)
    endpoint = EndpointConfig(max_concurrency=4)
    updated, results = parse_papers(client, endpoint, records)
    assert [p.paper_id for p in updated] == [f"p{i}" for i in range(5)]
    assert [(r.paper_id, r.reviewer_id) for r in results] == [
        (f"p{i}", r) for i in range(5) for r in ("r1", "r2")
    ]
    for rec in updated:
        assert [u.text for u in rec.units] == [
            f"point about {rec.paper_id} from r1",
            f"point about {rec.paper_id} from r2",
        ]


# ---- agreement reporting ----


def ann(unit_id, annotator, validity=None, action=None):
    return AnnotationRecord(
        unit_id=unit_id,
        annotator_id=annotator,
        validity=Validity(validity) if validity else None,
        action=AuthorAction(action) if action else None,
    )


def test_agreement_report_inter_annotator():
    annotations = [
        ann("u1", "a1", validity="agreed"),
        ann("u1", "a2", validity="agreed"),
        ann("u2", "a1", validity="agreed"),
        ann("u2", "a2", validity="rebutted"),
        ann("u3", "a1", validity="rebutted"),
        ann("u3", "a2", validity="rebutted"),
        ann("u1", "a1", action="will_revise"),
        ann("u1", "a2", action="will_revise"),
    ]
    report = agreement_report(annotations)
    validity = report["validity"]["inter_annotator"]
    # 3 pairs, 2 agree
    assert validity["n_pairs"] == 3
    assert validity["n_units"] == 3
    assert validity["observed_agreement"] == pytest.approx(2 / 3)
    assert validity["pabak"] == pytest.approx(2 * (2 / 3) - 1, abs=1e-12)
    action = report["action"]["inter_annotator"]
    assert action["observed_agreement"] == 1.0
    assert action["pabak"] == 1.0


def test_agreement_report_is_rater_order_invariant():
    base = [
        ann("u1", "a1", validity="agreed", action="will_revise"),
        ann("u1", "a2", validity="rebutted", action="will_revise"),
        ann("u2", "a1", validity="rebutted", action="no_revision_contest"),
        ann("u2", "a2", validity="agreed", action="will_revise"),
        ann("u3", "a1", validity="agreed", action="defer_future_work"),
        ann("u3", "a2", validity="agreed", action="defer_future_work"),
    ]
    swapped = [
        ann(a.unit_id, {"a1": "a2", "a2": "a1"}[a.annotator_id],
            validity=a.validity.value, action=a.action.value)
        for a in base
    ]
    left = agreement_report(base)["validity"]["inter_annotator"]
    right = agreement_report(swapped)["validity"]["inter_annotator"]
    assert left == right


def test_agreement_report_vs_reference():
    reference = [
        FeedbackUnit(
            id="u1", paper_id="p1", reviewer_id="r1", source=Source.HUMAN,
            text="x", validity=Validity.AGREED, action=AuthorAction.WILL_REVISE,
        ),
        FeedbackUnit(
            id="u2", paper_id="p1", reviewer_id="r1", source=Source.HUMAN,
            text="y", validity=Validity.REBUTTED,
            action=AuthorAction.NO_REVISION_CONTEST,
        ),
    ]
    annotations = [
        ann("u1", "a1", validity="agreed"),
        ann("u2", "a1", validity="agreed"),
        ann("u1", "a2", validity="agreed"),
        ann("u1", "a1", action="will_revise"),
    ]
    report = agreement_report(annotations, reference)
    vs = report["validity"]["vs_reference"]
    assert vs["n"] == 3
    assert vs["accuracy"] == pytest.approx(2 / 3)
    assert report["action"]["vs_reference"]["accuracy"] == 1.0


def test_agreement_report_without_data_raises():
    with pytest.raises(StatsError):
        agreement_report([ann("u1", "a1", validity="agreed")])
