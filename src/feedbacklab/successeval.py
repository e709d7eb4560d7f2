"""Success-rate proxy: quality filtering plus response prediction.

A generated unit counts as a success when it passes the quality filter
and the predicted author response satisfies the mode's conjunction
(validity, actionability, or both). Units failing the quality filter
stay in the denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Mapping, Sequence

import numpy as np

from .config import FILTER_DIMENSIONS, QualityThresholds
from .core import AuthorAction, FeedbackUnit, PaperRecord, Validity, is_actionable
from .errors import PipelineError
from .judge import EndpointConfig, JudgeClient
from .prompts import QUALITY_DIMENSIONS, QUALITY_SCORE, RESPONSE_PREDICT
from .stats import ci_summary, draw_without_replacement, keyed_rng


class SuccessMode(str, Enum):
    COMBINED = "combined"
    VALIDITY_ONLY = "validity_only"
    ACTION_ONLY = "action_only"

    def filters_quality(self, in_proxy_modes: bool) -> bool:
        """Combined is always quality-filtered; the flag governs the rest."""
        return in_proxy_modes or self is SuccessMode.COMBINED


@dataclass(frozen=True)
class QualityScores:
    """Integer Likert scores across the five quality dimensions."""

    accuracy: int
    prioritisation: int
    constructive_tone: int
    paper_specific_grounding: int
    actionability: int

    def __post_init__(self) -> None:
        for dim in QUALITY_DIMENSIONS:
            value = getattr(self, dim)
            if not isinstance(value, int) or not 1 <= value <= 5:
                raise PipelineError(f"quality score {dim}={value!r} outside 1..5")


@dataclass(frozen=True)
class PredictedResponse:
    unit_id: str
    predicted_validity: Validity
    predicted_action: AuthorAction


def score_quality(
    client: JudgeClient,
    endpoint: EndpointConfig,
    unit: FeedbackUnit,
    paper: PaperRecord,
) -> QualityScores:
    """Five-dimension Likert scoring of one unit by the judge."""
    response = client.complete(
        endpoint,
        QUALITY_SCORE,
        {
            "title": paper.title,
            "abstract": paper.abstract,
            "feedback_text": unit.text,
        },
    )
    parsed = response.parsed
    return QualityScores(
        accuracy=parsed["accuracy"]["score"],
        prioritisation=parsed["prioritisation"]["score"],
        constructive_tone=parsed["constructive_tone"]["score"],
        paper_specific_grounding=parsed["paper_specific_grounding"]["score"],
        actionability=parsed["actionability"]["score"],
    )


def passes_quality(
    scores: QualityScores, thresholds: QualityThresholds
) -> bool:
    """True iff every filtering dimension meets its threshold."""
    return all(
        getattr(scores, dim) >= getattr(thresholds, dim)
        for dim in FILTER_DIMENSIONS
    )


def predict_response(
    client: JudgeClient,
    endpoint: EndpointConfig,
    unit: FeedbackUnit,
    paper: PaperRecord,
) -> PredictedResponse:
    """Predicted author reaction to one unit, via the predictor endpoint."""
    response = client.complete(
        endpoint,
        RESPONSE_PREDICT,
        {
            "title": paper.title,
            "abstract": paper.abstract,
            "feedback_text": unit.text,
        },
    )
    parsed = response.parsed
    return PredictedResponse(
        unit_id=unit.id,
        predicted_validity=Validity(parsed["validity"]),
        predicted_action=AuthorAction(parsed["author_action"]),
    )


@dataclass(frozen=True)
class UnitEvaluation:
    """Everything success_rate needs to know about one unit."""

    unit_id: str
    paper_id: str
    passes_quality: bool
    predicted_validity: Validity
    predicted_action: AuthorAction

    def succeeds(
        self, mode: SuccessMode, quality_filter: bool = True
    ) -> bool:
        if quality_filter and not self.passes_quality:
            return False
        validity_ok = self.predicted_validity is Validity.AGREED
        action_ok = is_actionable(self.predicted_action)
        if mode is SuccessMode.COMBINED:
            return validity_ok and action_ok
        if mode is SuccessMode.VALIDITY_ONLY:
            return validity_ok
        return action_ok

    def to_dict(self) -> dict[str, Any]:
        return {
            "unit_id": self.unit_id,
            "paper_id": self.paper_id,
            "passes_quality": self.passes_quality,
            "predicted_validity": self.predicted_validity.value,
            "predicted_action": self.predicted_action.value,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "UnitEvaluation":
        return cls(
            unit_id=data["unit_id"],
            paper_id=data["paper_id"],
            passes_quality=data["passes_quality"],
            predicted_validity=Validity(data["predicted_validity"]),
            predicted_action=AuthorAction(data["predicted_action"]),
        )


def evaluate_unit(
    client: JudgeClient,
    scoring_endpoint: EndpointConfig,
    predictor_endpoint: EndpointConfig,
    unit: FeedbackUnit,
    paper: PaperRecord,
    thresholds: QualityThresholds,
) -> UnitEvaluation:
    scores = score_quality(client, scoring_endpoint, unit, paper)
    prediction = predict_response(client, predictor_endpoint, unit, paper)
    return UnitEvaluation(
        unit_id=unit.id,
        paper_id=paper.paper_id,
        passes_quality=passes_quality(scores, thresholds),
        predicted_validity=prediction.predicted_validity,
        predicted_action=prediction.predicted_action,
    )


def success_rate(
    evaluations: Sequence[UnitEvaluation],
    mode: SuccessMode | str,
    quality_filter: bool = True,
) -> float:
    """Fraction of units succeeding under the mode's conjunction.

    The quality filter applies in every mode by default (pass
    quality_filter=False for the unfiltered variant); filtered-out
    units remain in the denominator.
    """
    if not evaluations:
        raise PipelineError("success_rate: empty unit set")
    mode = SuccessMode(mode)
    hits = sum(1 for e in evaluations if e.succeeds(mode, quality_filter))
    return hits / len(evaluations)


def bootstrap_eval(
    per_paper: Mapping[str, Sequence[UnitEvaluation]],
    k: int = 5,
    iterations: int = 1000,
    seed: int = 0,
    quality_filter: bool = True,
) -> dict[str, Any]:
    """Bootstrap success rates: draw min(k, n) units per paper, pool.

    Within an iteration the drawn units pool across papers into one
    rate per mode; the report gives the mean and percentile 95% CI over
    iterations. Per-paper generators derive from (seed, paper_id), so
    paper order cannot change the draws. quality_filter governs the
    proxy modes only; the combined rate is always filtered.
    """
    if iterations < 2:
        raise PipelineError("bootstrap_eval: iterations must be >= 2")
    if k < 1:
        raise PipelineError("bootstrap_eval: k must be >= 1")
    if not per_paper:
        raise PipelineError("bootstrap_eval: no papers")
    modes = list(SuccessMode)
    filtered = {mode: mode.filters_quality(quality_filter) for mode in modes}
    b = iterations
    numer = {mode: np.zeros(b) for mode in modes}
    denom = np.zeros(b)
    for paper_id in sorted(per_paper):
        evaluations = per_paper[paper_id]
        if not evaluations:
            raise PipelineError(f"bootstrap_eval: paper {paper_id} has no units")
        n = len(evaluations)
        passes = {
            mode: np.array(
                [e.succeeds(mode, filtered[mode]) for e in evaluations],
                dtype=float,
            )
            for mode in modes
        }
        idx = draw_without_replacement(keyed_rng(seed, paper_id), b, n, k)
        for mode in modes:
            numer[mode] += passes[mode][idx].sum(axis=1)
        denom += idx.shape[1]

    out: dict[str, Any] = {
        "k": k,
        "iterations": iterations,
        "seed": seed,
        "quality_filter": quality_filter,
        "papers": len(per_paper),
    }
    for mode in modes:
        out[mode.value] = ci_summary(numer[mode] / denom)
    return out

