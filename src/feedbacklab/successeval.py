"""Success-rate proxy: quality filtering plus response prediction.

A generated unit counts as a success when it passes the quality filter
and the predicted author response satisfies the mode's conjunction
(validity, actionability, or both). Units failing the quality filter
stay in the denominator. evaluate_unit applies the quality rule to the
quality_score reply as it arrives: the schema has already checked it,
so a unit passes when each FILTER_DIMENSIONS score meets its threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Mapping, Sequence

import numpy as np

from .config import FILTER_DIMENSIONS, QualityThresholds, Sampling
from .core import (
    AuthorAction,
    FeedbackUnit,
    PaperRecord,
    Record,
    Validity,
    is_actionable,
)
from .errors import PipelineError
from .judge import EndpointConfig, JudgeClient
from .prompts import QUALITY_SCORE, RESPONSE_PREDICT
from .stats import ci_summary, draw_without_replacement, keyed_rng


class SuccessMode(str, Enum):
    COMBINED = "combined"
    VALIDITY_ONLY = "validity_only"
    ACTION_ONLY = "action_only"

    def filters_quality(self, in_proxy_modes: bool) -> bool:
        """Combined is always quality-filtered; the flag governs the rest."""
        return in_proxy_modes or self is SuccessMode.COMBINED


@dataclass(frozen=True)
class UnitEvaluation(Record):
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


def evaluate_unit(
    client: JudgeClient,
    scoring_endpoint: EndpointConfig,
    predictor_endpoint: EndpointConfig,
    unit: FeedbackUnit,
    paper: PaperRecord,
    thresholds: QualityThresholds,
) -> UnitEvaluation:
    """Score one unit's quality, then predict the authors' response."""
    bindings = {
        "title": paper.title,
        "abstract": paper.abstract,
        "feedback_text": unit.text,
    }
    scores = client.complete(scoring_endpoint, QUALITY_SCORE, bindings)
    prediction = client.complete(predictor_endpoint, RESPONSE_PREDICT, bindings)
    return UnitEvaluation(
        unit_id=unit.id,
        paper_id=paper.paper_id,
        passes_quality=all(
            scores.parsed[dim]["score"] >= getattr(thresholds, dim)
            for dim in FILTER_DIMENSIONS
        ),
        predicted_validity=Validity(prediction.parsed["validity"]),
        predicted_action=AuthorAction(prediction.parsed["author_action"]),
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
    k: int = Sampling.k,
    iterations: int = Sampling.iterations,
    seed: int = Sampling.seed,
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

