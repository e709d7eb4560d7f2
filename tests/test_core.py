import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

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
    atomic_write,
    canonical_json,
    connected_components,
    content_hash,
    is_actionable,
    make_unit_id,
    success_indicator,
)

ACTIONS = list(AuthorAction)
VALIDITIES = list(Validity)


def test_enum_inventories():
    assert {a.value for a in AuthorAction} == {
        "will_revise",
        "defer_future_work",
        "point_to_existing_content",
        "no_revision_accept",
        "no_revision_contest",
        "no_action_other",
        "unclear_or_no_response",
    }
    assert {v.value for v in Validity} == {"agreed", "rebutted", "unclear"}
    assert {d.value for d in FeedbackDimension} == {
        "feed_up",
        "feed_back",
        "feed_forward",
    }
    assert {d.value for d in Decision} == {"accepted", "rejected", "unknown"}
    assert len(AspectTag) == 11
    assert {a.value for a in AspectTag} == {
        "add_experiments_more_datasets",
        "add_ablations",
        "algorithm_efficiency",
        "theoretical_soundness",
        "implications",
        "ethical_aspects",
        "missing_citations",
        "novelty",
        "clarity_presentation",
        "comparison_previous_studies",
        "reproducibility",
    }


def test_success_rule_exhaustive():
    # independent statement of the rule: agreed AND one of the two
    # actionable commitments, nothing else
    actionable = {AuthorAction.WILL_REVISE, AuthorAction.DEFER_FUTURE_WORK}
    for validity in VALIDITIES:
        for action in ACTIONS:
            expected = validity is Validity.AGREED and action in actionable
            assert success_indicator(validity, action) == expected
    grid = {(v, a): success_indicator(v, a) for v in VALIDITIES for a in ACTIONS}
    assert len(grid) == 21
    assert sum(1 for ok in grid.values() if ok) == 2
    assert grid[(Validity.AGREED, AuthorAction.WILL_REVISE)]
    assert grid[(Validity.AGREED, AuthorAction.DEFER_FUTURE_WORK)]


def test_is_actionable_rejects_strings():
    with pytest.raises(TypeError):
        is_actionable("will_revise")
    assert is_actionable(AuthorAction.WILL_REVISE)
    assert is_actionable(AuthorAction.DEFER_FUTURE_WORK)
    assert not is_actionable(AuthorAction.NO_REVISION_ACCEPT)


def test_canonical_json_is_sorted_and_compact():
    s = canonical_json({"b": 1, "a": [2, 1], "c": {"y": None, "x": "é"}})
    assert s == '{"a":[2,1],"b":1,"c":{"x":"é","y":null}}'
    # round trip is byte-stable
    assert canonical_json(json.loads(s)) == s


@given(
    st.dictionaries(
        st.text(min_size=1, max_size=8),
        st.one_of(st.integers(), st.text(max_size=8), st.booleans(), st.none()),
        max_size=6,
    )
)
def test_canonical_json_round_trip(d):
    s = canonical_json(d)
    assert canonical_json(json.loads(s)) == s


def test_atomic_write_replaces_the_file_whole_or_not_at_all(tmp_path):
    path = tmp_path / "out.jsonl"
    path.write_text("old\n")
    with pytest.raises(KeyboardInterrupt):
        with atomic_write(path) as fh:
            fh.write("partial")
            raise KeyboardInterrupt
    assert path.read_text() == "old\n"
    assert list(tmp_path.iterdir()) == [path]
    with atomic_write(path, "wb") as fh:
        fh.write(b"new\n")
    assert path.read_bytes() == b"new\n"
    assert list(tmp_path.iterdir()) == [path]


def test_content_hash_separator_prevents_collisions():
    assert content_hash("ab", "c") != content_hash("a", "bc")
    assert content_hash("x") == content_hash("x")


@given(
    st.integers(min_value=0, max_value=12).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                max_size=3 * n,
            )
            if n
            else st.just([]),
        )
    )
)
def test_connected_components_matches_bfs(graph):
    n, edges = graph
    adjacent = {i: set() for i in range(n)}
    for i, j in edges:
        adjacent[i].add(j)
        adjacent[j].add(i)
    expected, seen = [], set()
    for start in range(n):
        if start in seen:
            continue
        component, frontier = {start}, [start]
        while frontier:
            nxt = [j for i in frontier for j in adjacent[i] if j not in component]
            component.update(nxt)
            frontier = nxt
        seen |= component
        expected.append(sorted(component))
    assert connected_components(n, edges) == expected


def test_make_unit_id_collapses_whitespace():
    a = make_unit_id("p1", "r1", "add   a\nbaseline")
    b = make_unit_id("p1", "r1", "add a baseline")
    assert a == b
    assert a.startswith("fu-") and len(a) == 19
    assert a != make_unit_id("p1", "r2", "add a baseline")


def unit(uid="u1", paper="p1", reviewer="r1", text="needs a baseline", **kw):
    return FeedbackUnit(
        id=uid,
        paper_id=paper,
        reviewer_id=reviewer,
        source=kw.pop("source", Source.HUMAN),
        text=text,
        **kw,
    )


def test_unit_validation():
    with pytest.raises(ValueError):
        unit(text="   ")
    with pytest.raises(ValueError):
        unit(reviewer="")
    # model units may omit the reviewer
    FeedbackUnit(
        id="m1", paper_id="p1", reviewer_id="", source=Source.MODEL, text="x"
    )


def test_unlabeled_unit_is_not_successful():
    u = unit()
    assert not u.is_labeled
    assert not u.is_successful
    ok = unit(validity=Validity.AGREED, action=AuthorAction.WILL_REVISE)
    assert ok.is_labeled and ok.is_successful
    no = unit(validity=Validity.AGREED, action=AuthorAction.NO_REVISION_ACCEPT)
    assert no.is_labeled and not no.is_successful


def test_unit_round_trip_omits_none():
    u = unit(
        validity=Validity.AGREED,
        action=AuthorAction.DEFER_FUTURE_WORK,
        aspects=frozenset({AspectTag.NOVELTY, AspectTag.ADD_ABLATIONS}),
    )
    d = u.to_dict()
    assert "author_response_text" not in d
    assert d["aspects"] == ["add_ablations", "novelty"]  # sorted
    assert FeedbackUnit.from_dict(d) == u
    bare = unit()
    assert set(bare.to_dict()) == {"id", "paper_id", "reviewer_id", "source", "text"}
    assert FeedbackUnit.from_dict(bare.to_dict()) == bare


def thread(reviewer="r1", text="the baseline is missing"):
    return ReviewThread(
        reviewer_id=reviewer,
        turns=(
            Turn(speaker=Speaker.REVIEWER, text=text),
            Turn(speaker=Speaker.AUTHOR, text="we will add it"),
        ),
    )


def test_thread_needs_turns():
    with pytest.raises(ValueError):
        ReviewThread(reviewer_id="r1", turns=())


def test_turn_timestamp_round_trip():
    t = Turn(speaker=Speaker.REVIEWER, text="hi", timestamp="2026-01-02T03:04:05Z")
    assert Turn.from_dict(t.to_dict()) == t
    bare = Turn(speaker=Speaker.AUTHOR, text="hi")
    assert "timestamp" not in bare.to_dict()


def paper(**kw):
    kw.setdefault("paper_id", "p1")
    kw.setdefault("title", "T")
    kw.setdefault("abstract", "A")
    kw.setdefault("venue_year", 2026)
    kw.setdefault("threads", (thread("r1"), thread("r2")))
    return PaperRecord(**kw)


def test_paper_validation():
    with pytest.raises(ValueError):
        paper(threads=(thread("r1"), thread("r1")))
    with pytest.raises(ValueError):
        paper(units=(unit(paper="other"),))
    with pytest.raises(ValueError):
        paper(units=(unit(reviewer="ghost"),))
    with pytest.raises(ValueError):
        paper(units=(unit(), unit()))


def test_paper_round_trip_and_grouping():
    p = paper(
        decision=Decision.ACCEPTED,
        units=(
            unit("u1", validity=Validity.AGREED, action=AuthorAction.WILL_REVISE),
            unit("u2", reviewer="r2", text="too long"),
        ),
        body_markdown="# T\n\nbody",
    )
    assert PaperRecord.from_dict(p.to_dict()) == p
    assert sorted(p.units_by_reviewer()) == ["r1", "r2"]
    assert [u.id for u in p.successful_units()] == ["u1"]
    assert [u.is_successful for u in p.units] == [True, False]
    replaced = p.with_units([unit("u9", text="other point")])
    assert [u.id for u in replaced.units] == ["u9"]
    assert replaced.title == p.title


@given(
    st.sampled_from(VALIDITIES),
    st.sampled_from(ACTIONS),
    st.booleans(),
)
def test_success_requires_both_labels(validity, action, drop_action):
    u = unit(
        validity=validity if not drop_action else None,
        action=None if drop_action else action,
    )
    if drop_action:
        assert not u.is_successful
    else:
        assert u.is_successful == success_indicator(validity, action)
