import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from feedbacklab.core import (
    AuthorAction,
    FeedbackUnit,
    PaperRecord,
    ReviewThread,
    Source,
    Speaker,
    Turn,
    Validity,
    make_unit_id,
)
from feedbacklab.errors import ConfigError, PipelineError
from feedbacklab.judge import EndpointConfig, JudgeClient, StubBackend
from feedbacklab.prompts import QUALITY_DIMENSIONS
from feedbacklab.successeval import (
    FILTER_DIMENSIONS,
    QualityScores,
    QualityThresholds,
    SuccessMode,
    UnitEvaluation,
    bootstrap_eval,
    evaluate_unit,
    passes_quality,
    predict_response,
    score_quality,
    success_rate,
)

ENDPOINT = EndpointConfig()


def munit(uid="m1", paper_id="p1", text="add the missing baseline"):
    return FeedbackUnit(
        id=uid,
        paper_id=paper_id,
        reviewer_id="model",
        source=Source.MODEL,
        text=text,
    )


def paper_record(pid="p1"):
    return PaperRecord(
        paper_id=pid,
        title="A Paper",
        abstract="Abstract.",
        venue_year=2026,
        threads=(
            ReviewThread(
                reviewer_id="r1",
                turns=(Turn(speaker=Speaker.REVIEWER, text="review"),),
            ),
        ),
    )


def scores(**overrides):
    values = dict.fromkeys(QUALITY_DIMENSIONS, 5)
    values.update(overrides)
    return QualityScores(**values)


def evaluation(
    uid="m1",
    paper_id="p1",
    quality=True,
    validity=Validity.AGREED,
    action=AuthorAction.WILL_REVISE,
):
    return UnitEvaluation(
        unit_id=uid,
        paper_id=paper_id,
        passes_quality=quality,
        predicted_validity=validity,
        predicted_action=action,
    )


# ---- quality filter ----


def test_filter_dimensions_and_default_thresholds():
    assert set(FILTER_DIMENSIONS) == {
        "accuracy",
        "paper_specific_grounding",
        "constructive_tone",
        "prioritisation",
    }
    assert "actionability" not in FILTER_DIMENSIONS
    t = QualityThresholds()
    assert t.accuracy == 4.37
    assert t.paper_specific_grounding == 4.36
    assert t.constructive_tone == 4.62
    assert t.prioritisation == 4.44
    assert dataclasses.asdict(t) == {
        "accuracy": 4.37,
        "paper_specific_grounding": 4.36,
        "constructive_tone": 4.62,
        "prioritisation": 4.44,
    }
    with pytest.raises(ConfigError):
        QualityThresholds(accuracy=0.5)
    with pytest.raises(ConfigError):
        QualityThresholds(prioritisation=5.5)


def test_passes_quality_thresholds_are_inclusive():
    t = QualityThresholds()
    assert passes_quality(scores(), t)
    # integer scores sit strictly below the default cutoffs at 4
    for dim in FILTER_DIMENSIONS:
        assert not passes_quality(scores(**{dim: 4}), t)
    # actionability never filters
    assert passes_quality(scores(actionability=1), t)
    flat = QualityThresholds(
        accuracy=4.0,
        paper_specific_grounding=4.0,
        constructive_tone=4.0,
        prioritisation=4.0,
    )
    assert passes_quality(scores(accuracy=4), flat)  # >= is inclusive
    assert not passes_quality(scores(accuracy=3), flat)


def test_quality_scores_validation():
    with pytest.raises(PipelineError):
        scores(accuracy=0)
    with pytest.raises(PipelineError):
        scores(actionability=6)
    with pytest.raises(PipelineError):
        scores(accuracy=4.5)


# ---- judged scoring and prediction ----


def quality_stub(score=5, except_dim=None, except_score=None):
    payload = {
        d: {"score": score, "justification": "scripted"}
        for d in QUALITY_DIMENSIONS
    }
    if except_dim:
        payload[except_dim] = {
            "score": except_score,
            "justification": "scripted",
        }
    return payload


def make_client(quality=None, prediction=None):
    templates = {}
    if quality is not None:
        templates["quality_score"] = {"default": quality}
    if prediction is not None:
        templates["response_predict"] = {"default": prediction}
    return JudgeClient(StubBackend({"templates": templates}))


def test_score_quality_via_judge():
    client = make_client(quality=quality_stub(5, "prioritisation", 2))
    got = score_quality(client, ENDPOINT, munit(), paper_record())
    assert got.prioritisation == 2
    assert got.accuracy == 5


def test_predict_response_via_judge():
    client = make_client(
        prediction={
            "validity": "agreed",
            "author_action": "defer_future_work",
            "response_text": "will add in a revision",
        }
    )
    got = predict_response(client, ENDPOINT, munit(), paper_record())
    assert got.predicted_validity is Validity.AGREED
    assert got.predicted_action is AuthorAction.DEFER_FUTURE_WORK


def test_evaluate_unit_combines_both_judgments():
    client = make_client(
        quality=quality_stub(5),
        prediction={"validity": "rebutted", "author_action": "will_revise"},
    )
    ev = evaluate_unit(
        client, ENDPOINT, ENDPOINT, munit(), paper_record(), QualityThresholds()
    )
    assert ev.passes_quality
    assert ev.predicted_validity is Validity.REBUTTED
    assert not ev.succeeds(SuccessMode.COMBINED)
    assert ev.succeeds(SuccessMode.ACTION_ONLY)
    assert UnitEvaluation.from_dict(ev.to_dict()) == ev


# ---- the success conjunction ----


def test_succeeds_truth_table():
    actionable = {AuthorAction.WILL_REVISE, AuthorAction.DEFER_FUTURE_WORK}
    for validity, action, quality in itertools.product(
        Validity, AuthorAction, (True, False)
    ):
        ev = evaluation(quality=quality, validity=validity, action=action)
        validity_ok = validity is Validity.AGREED
        action_ok = action in actionable
        assert ev.succeeds(SuccessMode.COMBINED) == (
            quality and validity_ok and action_ok
        )
        assert ev.succeeds(SuccessMode.VALIDITY_ONLY) == (quality and validity_ok)
        assert ev.succeeds(SuccessMode.ACTION_ONLY) == (quality and action_ok)
        # unfiltered variants ignore the quality bit
        assert ev.succeeds(SuccessMode.COMBINED, quality_filter=False) == (
            validity_ok and action_ok
        )


def test_combined_rate_never_exceeds_single_criteria():
    rng = np.random.default_rng(0)
    validities = list(Validity)
    actions = list(AuthorAction)
    for trial in range(100):
        evs = [
            evaluation(
                uid=f"u{i}",
                quality=bool(rng.integers(2)),
                validity=validities[rng.integers(len(validities))],
                action=actions[rng.integers(len(actions))],
            )
            for i in range(int(rng.integers(1, 12)))
        ]
        for qf in (True, False):
            combined = success_rate(evs, SuccessMode.COMBINED, qf)
            validity_only = success_rate(evs, SuccessMode.VALIDITY_ONLY, qf)
            action_only = success_rate(evs, SuccessMode.ACTION_ONLY, qf)
            assert combined <= min(validity_only, action_only)


def test_success_rate_denominator_keeps_filtered_units():
    evs = [
        evaluation(uid="u1", quality=True),
        evaluation(uid="u2", quality=False),
        evaluation(uid="u3", quality=False),
        evaluation(uid="u4", quality=True, validity=Validity.REBUTTED),
    ]
    assert success_rate(evs, SuccessMode.COMBINED) == 0.25
    assert success_rate(evs, "combined", quality_filter=False) == 0.75
    with pytest.raises(PipelineError):
        success_rate([], SuccessMode.COMBINED)


# ---- bootstrap ----


def small_corpus(rng, n_papers=4, max_units=6):
    per_paper = {}
    validities = list(Validity)
    actions = list(AuthorAction)
    for i in range(n_papers):
        pid = f"p{i}"
        per_paper[pid] = [
            evaluation(
                uid=f"{pid}_u{j}",
                paper_id=pid,
                quality=bool(rng.integers(2)),
                validity=validities[rng.integers(len(validities))],
                action=actions[rng.integers(len(actions))],
            )
            for j in range(int(rng.integers(1, max_units + 1)))
        ]
    return per_paper


def test_bootstrap_small_papers_have_zero_width():
    per_paper = small_corpus(np.random.default_rng(3), max_units=4)
    out = bootstrap_eval(per_paper, k=5, iterations=100, seed=0)
    all_evs = [e for evs in per_paper.values() for e in evs]
    for mode in SuccessMode:
        stats = out[mode.value]
        expected = success_rate(all_evs, mode)
        assert stats["ci_half_width"] == 0.0
        assert stats["ci_lower"] == stats["ci_upper"]
        assert stats["mean"] == pytest.approx(expected, abs=1e-12)


def test_bootstrap_deterministic_and_order_invariant():
    per_paper = small_corpus(np.random.default_rng(5), n_papers=6, max_units=9)
    a = bootstrap_eval(per_paper, k=3, iterations=300, seed=2)
    b = bootstrap_eval(per_paper, k=3, iterations=300, seed=2)
    assert a == b
    shuffled = dict(reversed(list(per_paper.items())))
    assert bootstrap_eval(shuffled, k=3, iterations=300, seed=2) == a
    assert bootstrap_eval(per_paper, k=3, iterations=300, seed=4) != a


def test_bootstrap_golden_values():
    # Pins the per-paper streams: values recorded from the original
    # sha256-seeded implementation. p4 has n <= k, the rest are drawn.
    per_paper = small_corpus(np.random.default_rng(5), n_papers=6, max_units=9)
    out = bootstrap_eval(per_paper, k=3, iterations=50, seed=2)
    assert out == {
        "k": 3,
        "iterations": 50,
        "seed": 2,
        "quality_filter": True,
        "papers": 6,
        "combined": {
            "mean": 0.04,
            "ci_lower": 0.0,
            "ci_upper": 0.058823529411764705,
            "ci_half_width": 0.029411764705882353,
        },
        "validity_only": {
            "mean": 0.20705882352941174,
            "ci_lower": 0.058823529411764705,
            "ci_upper": 0.35294117647058826,
            "ci_half_width": 0.14705882352941177,
        },
        "action_only": {
            "mean": 0.25058823529411767,
            "ci_lower": 0.11764705882352941,
            "ci_upper": 0.35294117647058826,
            "ci_half_width": 0.11764705882352942,
        },
    }


def exhaustive_subset_expectation(evaluations, k, mode, quality_filter=True):
    """Oracle: expected (pass sum over draws, draw size) for one paper.

    Averaging over all size-min(k,n) subsets, each unit appears with
    equal probability, so the expected drawn pass count is
    m * min(k,n) / n for m passing units, returned as the exact ratio
    (m * min(k,n), n) so that papers pool without rounding.
    """
    n = len(evaluations)
    if n == 0:
        raise PipelineError("exhaustive_subset_expectation: no units")
    m = sum(1 for e in evaluations if e.succeeds(mode, quality_filter))
    return m * min(k, n), n


def test_bootstrap_mean_matches_exhaustive_expectation():
    """Subset expectations are exact, so B only adds sampling noise;
    with every paper at n<=6 and B large the mean lands within noise,
    and for n<=k it must match to float precision."""
    per_paper = small_corpus(np.random.default_rng(11), n_papers=5, max_units=6)
    k = 3
    out = bootstrap_eval(per_paper, k=k, iterations=4000, seed=7)
    for mode in SuccessMode:
        total = Fraction(0)
        denom = 0
        for evs in per_paper.values():
            numer, n = exhaustive_subset_expectation(evs, k, mode)
            total += Fraction(numer, n)
            denom += min(k, n)
        expected = total / denom
        got = out[mode.value]["mean"]
        # CLT bound: pooled rate varies within ~0.5/sqrt(B) of expectation
        assert math.isclose(got, float(expected), abs_tol=0.03)


def test_bootstrap_quality_filter_flag():
    evs = [
        evaluation(uid="u1", quality=False),
        evaluation(uid="u2", quality=False),
    ]
    filtered = bootstrap_eval({"p1": evs}, k=5, iterations=10, seed=0)
    raw = bootstrap_eval(
        {"p1": evs}, k=5, iterations=10, seed=0, quality_filter=False
    )
    assert filtered["quality_filter"] is True
    assert filtered["validity_only"]["mean"] == 0.0
    assert raw["validity_only"]["mean"] == 1.0
    # the flag governs the proxy modes; combined is always filtered
    assert filtered["combined"]["mean"] == raw["combined"]["mean"] == 0.0


def test_bootstrap_validation():
    evs = [evaluation()]
    with pytest.raises(PipelineError):
        bootstrap_eval({}, k=5)
    with pytest.raises(PipelineError):
        bootstrap_eval({"p1": evs}, iterations=1)
    with pytest.raises(PipelineError):
        bootstrap_eval({"p1": evs}, k=0)
    with pytest.raises(PipelineError):
        bootstrap_eval({"p1": []})


def test_exhaustive_subset_expectation_matches_enumeration():
    rng = np.random.default_rng(13)
    validities = list(Validity)
    actions = list(AuthorAction)
    for trial in range(40):
        n = int(rng.integers(1, 7))
        evs = [
            evaluation(
                uid=f"u{j}",
                quality=bool(rng.integers(2)),
                validity=validities[rng.integers(len(validities))],
                action=actions[rng.integers(len(actions))],
            )
            for j in range(n)
        ]
        for k in (1, 2, 3, 5, 8):
            for mode in SuccessMode:
                numer, denom = exhaustive_subset_expectation(evs, k, mode)
                size = min(k, n)
                subsets = list(itertools.combinations(evs, size))
                mean_over_subsets = Fraction(
                    sum(
                        sum(e.succeeds(mode) for e in subset)
                        for subset in subsets
                    ),
                    len(subsets),
                )
                assert Fraction(numer, denom) == mean_over_subsets


def test_exhaustive_subset_expectation_requires_units():
    with pytest.raises(PipelineError):
        exhaustive_subset_expectation([], 3, SuccessMode.COMBINED)
