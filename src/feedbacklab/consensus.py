"""Consensus construction and model-feedback matching metrics.

The pipeline: calibrate cosine thresholds on annotated pair samples,
prefilter candidate pairs by embedding similarity, judge survivors for
semantic match, collect cross-reviewer consensus among successful human
units, then score model feedback against that consensus.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from .config import Thresholds
from .core import FeedbackUnit, connected_components
from .errors import ConfigError, PipelineError
from .judge import EndpointConfig, JudgeClient, similar_pairs
from .prompts import PAIR_MATCH
from .stats import ci_summary, draw_without_replacement, keyed_rng

DEFAULT_BOUNDARIES: tuple[float, ...] = (0.15, 0.25, 0.35, 0.45, 0.55, 0.65)
# Published rounded stratum weights can miss 1.0 by up to rounding error.
WEIGHT_SUM_TOLERANCE = 0.005

HUMAN_HUMAN = "human_human"
HUMAN_MODEL = "human_model"


@dataclass(frozen=True)
class MatchEdge:
    """A candidate or judged pair of feedback units."""

    left_unit_id: str
    right_unit_id: str
    pair_type: str
    cosine: float
    judged: bool | None = None
    explanation: str | None = None

    def __post_init__(self) -> None:
        if self.pair_type not in (HUMAN_HUMAN, HUMAN_MODEL):
            raise PipelineError(f"unknown pair_type {self.pair_type!r}")
        if not -1.0 <= self.cosine <= 1.0:
            raise PipelineError(f"cosine {self.cosine} outside [-1,1]")
        if self.left_unit_id == self.right_unit_id:
            raise PipelineError("match edge endpoints must differ")

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "left_unit_id": self.left_unit_id,
            "right_unit_id": self.right_unit_id,
            "pair_type": self.pair_type,
            "cosine": self.cosine,
        }
        if self.judged is not None:
            out["judged"] = self.judged
        if self.explanation is not None:
            out["explanation"] = self.explanation
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MatchEdge":
        return cls(
            left_unit_id=data["left_unit_id"],
            right_unit_id=data["right_unit_id"],
            pair_type=data["pair_type"],
            cosine=data["cosine"],
            judged=data.get("judged"),
            explanation=data.get("explanation"),
        )


@dataclass(frozen=True)
class ConsensusSet:
    """Successful human units raised by more than one reviewer."""

    paper_id: str
    members: frozenset[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", frozenset(self.members))


@dataclass(frozen=True)
class MatchScore:
    matched_model_units: frozenset[str]
    matched_consensus_units: frozenset[str]
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class StratumRow:
    lower: float
    upper: float
    annotated_match_rate: float | None = None
    distribution_weight: float | None = None
    metrics: Mapping[str, float] | None = None

    def __post_init__(self) -> None:
        if self.metrics is not None:
            object.__setattr__(self, "metrics", dict(self.metrics))


@dataclass(frozen=True)
class StratumTable:
    """Cosine strata: cut points plus per-stratum data rows."""

    boundaries: tuple[float, ...] = DEFAULT_BOUNDARIES
    rows: tuple[StratumRow, ...] = ()

    def __post_init__(self) -> None:
        bounds = tuple(float(b) for b in self.boundaries)
        if list(bounds) != sorted(set(bounds)):
            raise ConfigError("stratum boundaries must be strictly increasing")
        if bounds and (bounds[0] <= -1.0 or bounds[-1] >= 1.0):
            raise ConfigError("stratum boundaries must lie inside (-1, 1)")
        object.__setattr__(self, "boundaries", bounds)
        if self.rows:
            expected = stratum_bounds(bounds)
            got = [(r.lower, r.upper) for r in self.rows]
            if got != expected:
                raise ConfigError(
                    f"stratum rows {got} do not partition [-1,1] per "
                    f"boundaries {bounds}"
                )
        object.__setattr__(self, "rows", tuple(self.rows))


def stratum_bounds(
    boundaries: Sequence[float] = DEFAULT_BOUNDARIES,
) -> list[tuple[float, float]]:
    """The (lower, upper) ranges the cut points induce over [-1, 1]."""
    edges = [-1.0, *boundaries, 1.0]
    return [(edges[i], edges[i + 1]) for i in range(len(edges) - 1)]


def stratum_index(
    value: float, boundaries: Sequence[float] = DEFAULT_BOUNDARIES
) -> int:
    """Index of the stratum containing a cosine value.

    Strata are half-open [lower, upper) except the last, which includes
    its upper endpoint.
    """
    if not -1.0 <= value <= 1.0:
        raise PipelineError(f"cosine {value} outside [-1,1]")
    return bisect_right(list(boundaries), value)


def build_stratum_table(
    annotated: Sequence[MatchEdge],
    boundaries: Sequence[float] = DEFAULT_BOUNDARIES,
) -> StratumTable:
    """Annotated match rate per stratum from human-labeled edges."""
    bounds = stratum_bounds(boundaries)
    totals = [0] * len(bounds)
    matches = [0] * len(bounds)
    for edge in annotated:
        if edge.judged is None:
            raise PipelineError(
                f"build_stratum_table: edge {edge.left_unit_id}-"
                f"{edge.right_unit_id} lacks a label"
            )
        idx = stratum_index(edge.cosine, boundaries)
        totals[idx] += 1
        matches[idx] += int(edge.judged)
    rows = [
        StratumRow(
            lower=lo,
            upper=hi,
            annotated_match_rate=(matches[i] / totals[i]) if totals[i] else None,
        )
        for i, (lo, hi) in enumerate(bounds)
    ]
    return StratumTable(boundaries=tuple(boundaries), rows=tuple(rows))


def calibrate_threshold(
    table: StratumTable, cutoff: float = Thresholds.match_rate_cutoff
) -> float:
    """Lower bound of the lowest stratum whose match rate reaches cutoff.

    Everything below that bound gets prefiltered away downstream.
    Strata with no annotated pairs cannot qualify.
    """
    if not table.rows:
        raise PipelineError("calibrate_threshold: table has no rows")
    for row in table.rows:
        if row.annotated_match_rate is not None and (
            row.annotated_match_rate >= cutoff
        ):
            return row.lower
    raise PipelineError("calibrate_threshold: no usable threshold")


def prefilter_pairs(
    units_a: Sequence[FeedbackUnit],
    units_b: Sequence[FeedbackUnit],
    embeddings_a: Sequence[np.ndarray],
    embeddings_b: Sequence[np.ndarray],
    threshold: float,
    pair_type: str,
) -> list[MatchEdge]:
    """Candidate edges with cosine >= threshold, unjudged.

    human_human pairs are kept only across distinct reviewers (the
    consensus definition needs multiple reviewers, so same-reviewer
    pairs are never judged); each unordered pair appears once with
    endpoint ids in sorted order. human_model pairs keep the human unit
    on the left.
    """
    if len(units_a) != len(embeddings_a) or len(units_b) != len(embeddings_b):
        raise PipelineError("prefilter_pairs: embeddings must align with units")
    if embeddings_b is embeddings_a and not (
        pair_type == HUMAN_HUMAN and units_b is units_a
    ):
        # similar_pairs gives one list's pairs only once (i < j), which
        # covers unordered pairs over one unit list and nothing else.
        embeddings_b = list(embeddings_b)
    edges: list[MatchEdge] = []
    seen: set[tuple[str, str]] = set()
    for i, j, sim in similar_pairs(embeddings_a, embeddings_b, threshold):
        ua, ub = units_a[i], units_b[j]
        if ua.id == ub.id:
            continue
        if pair_type == HUMAN_HUMAN:
            if ua.reviewer_id == ub.reviewer_id:
                continue
            left, right = sorted((ua.id, ub.id))
            if (left, right) in seen:
                continue
            seen.add((left, right))
        else:
            left, right = ua.id, ub.id
        edges.append(
            MatchEdge(
                left_unit_id=left,
                right_unit_id=right,
                pair_type=pair_type,
                cosine=sim,
            )
        )
    return edges


# One batch of edges to judge: the edges, their units by id, and the
# abstract of the paper they come from.
EdgeBatch = tuple[Sequence[MatchEdge], Mapping[str, FeedbackUnit], str]


def judge_edges(
    client: JudgeClient,
    endpoint: EndpointConfig,
    batches: Sequence[EdgeBatch],
) -> list[list[MatchEdge]]:
    """Judge the edges of every batch in one fan-out.

    Returns each batch's judged edges, batches and edges in input order.
    Unit ids need only be unique within a batch.
    """
    bindings = [
        {
            "abstract": abstract,
            "left_text": units_by_id[e.left_unit_id].text,
            "right_text": units_by_id[e.right_unit_id].text,
        }
        for edges, units_by_id, abstract in batches
        for e in edges
    ]
    responses = iter(client.map_complete(endpoint, PAIR_MATCH, bindings))

    def judged(edge: MatchEdge) -> MatchEdge:
        parsed = next(responses).parsed
        return replace(
            edge, judged=parsed["match"] == "1", explanation=parsed["explanation"]
        )

    return [[judged(edge) for edge in edges] for edges, _, _ in batches]


def build_consensus(
    paper_id: str,
    units: Sequence[FeedbackUnit],
    edges: Sequence[MatchEdge],
    require_partner_success: bool = False,
) -> ConsensusSet:
    """Item-level consensus from judged human-human edges.

    A unit joins when it is successful and shares a judged-true edge
    with a unit from another reviewer. With require_partner_success the
    partner must be successful too (stricter reading, off by default).
    """
    by_id = {u.id: u for u in units}
    members: set[str] = set()
    for edge in edges:
        if edge.pair_type != HUMAN_HUMAN or edge.judged is not True:
            continue
        left = by_id.get(edge.left_unit_id)
        right = by_id.get(edge.right_unit_id)
        if left is None or right is None:
            continue
        if left.reviewer_id == right.reviewer_id:
            continue
        for unit, partner in ((left, right), (right, left)):
            if not unit.is_successful:
                continue
            if require_partner_success and not partner.is_successful:
                continue
            members.add(unit.id)
    return ConsensusSet(paper_id=paper_id, members=frozenset(members))


def consensus_clusters(
    consensus: ConsensusSet, edges: Sequence[MatchEdge]
) -> list[frozenset[str]]:
    """Connected components of consensus members under true edges.

    Supports cluster-level scoring; item-level scoring is the default.
    """
    members = sorted(consensus.members)
    index = {m: i for i, m in enumerate(members)}
    links = [
        (index[edge.left_unit_id], index[edge.right_unit_id])
        for edge in edges
        if edge.pair_type == HUMAN_HUMAN
        and edge.judged is True
        and edge.left_unit_id in index
        and edge.right_unit_id in index
    ]
    return [
        frozenset(members[i] for i in component)
        for component in connected_components(len(members), links)
    ]


def _true_match_map(
    edges: Iterable[MatchEdge],
    model_ids: set[str],
    consensus_members: frozenset[str],
) -> dict[str, set[str]]:
    """model unit id -> consensus members it truly matches."""
    matches: dict[str, set[str]] = {}
    for edge in edges:
        if edge.judged is not True:
            continue
        a, b = edge.left_unit_id, edge.right_unit_id
        if a in model_ids and b in consensus_members:
            model_id, member = a, b
        elif b in model_ids and a in consensus_members:
            model_id, member = b, a
        else:
            continue
        matches.setdefault(model_id, set()).add(member)
    return matches


def f1_score(precision: float, recall: float) -> float:
    if precision == 0.0 and recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def score_model(
    consensus: ConsensusSet,
    model_units: Sequence[FeedbackUnit | str],
    edges: Sequence[MatchEdge],
    clusters: Sequence[frozenset[str]] | None = None,
) -> MatchScore:
    """Precision/recall/F1 of model units against the consensus set.

    Precision counts model units with a true edge to any member; recall
    counts members with a true edge to any evaluated model unit. With
    `clusters`, recall counts clusters instead of members.
    """
    if not consensus.members:
        raise PipelineError(
            f"score_model: paper {consensus.paper_id} has no consensus; "
            "exclude it upstream"
        )
    if not model_units:
        raise PipelineError("score_model: empty model unit set")
    model_ids = [u if isinstance(u, str) else u.id for u in model_units]
    if len(set(model_ids)) != len(model_ids):
        raise PipelineError("score_model: duplicate model unit ids")
    match_map = _true_match_map(edges, set(model_ids), consensus.members)
    matched_model = frozenset(match_map)
    matched_members = frozenset(
        m for members in match_map.values() for m in members
    )
    precision = len(matched_model) / len(model_ids)
    if clusters is None:
        recall = len(matched_members) / len(consensus.members)
    else:
        if not clusters:
            raise PipelineError("score_model: empty cluster list")
        hit = sum(1 for c in clusters if c & matched_members)
        recall = hit / len(clusters)
    return MatchScore(
        matched_model_units=matched_model,
        matched_consensus_units=matched_members,
        precision=precision,
        recall=recall,
        f1=f1_score(precision, recall),
    )


def distribution_weighted(
    table: StratumTable | Sequence[StratumRow],
) -> dict[str, float]:
    """Weighted sum of per-stratum metrics by distribution weight.

    Only rows carrying both a weight and metrics participate. Weights
    must sum to 1 within WEIGHT_SUM_TOLERANCE, which admits weights
    rounded to three decimals. Metrics are combined as plain weighted
    sums, without renormalizing, so rounded weights reproduce published
    rows.
    """
    rows = table.rows if isinstance(table, StratumTable) else tuple(table)
    active = [
        r for r in rows if r.distribution_weight is not None and r.metrics
    ]
    if not active:
        raise PipelineError("distribution_weighted: no weighted rows")
    total = sum(r.distribution_weight for r in active)
    if abs(total - 1.0) > WEIGHT_SUM_TOLERANCE:
        raise PipelineError(
            f"distribution_weighted: weights sum to {total}, not 1 "
            f"(tolerance {WEIGHT_SUM_TOLERANCE})"
        )
    keys = list(active[0].metrics)
    for r in active:
        if list(r.metrics) != keys:
            raise PipelineError(
                "distribution_weighted: rows carry different metric keys"
            )
    return {
        key: sum(r.distribution_weight * r.metrics[key] for r in active)
        for key in keys
    }


def decompose_novel_aligned(
    model_units: Sequence[FeedbackUnit],
    matched_ids: Iterable[str],
    success_by_id: Mapping[str, bool],
    baseline: Mapping[str, Mapping[str, float]] | None = None,
) -> dict[str, Any]:
    """Aligned (matched & successful) vs novel (unmatched & successful).

    Rates are over all generated units; the per-aspect table buckets
    units by aspect tag (multi-tag units count in each, untagged units
    under "no_aspect"). With a baseline table, relative improvement is
    (candidate - baseline)/baseline, "N/A" when the baseline rate is 0
    with a nonzero candidate rate.
    """
    if not model_units:
        raise PipelineError("decompose_novel_aligned: no units")
    matched = set(matched_ids)
    total = len(model_units)
    aligned_ids = set()
    novel_ids = set()
    for unit in model_units:
        if unit.id not in success_by_id:
            raise PipelineError(
                f"decompose_novel_aligned: no success label for {unit.id}"
            )
        if not success_by_id[unit.id]:
            continue
        (aligned_ids if unit.id in matched else novel_ids).add(unit.id)

    per_aspect: dict[str, dict[str, float]] = {}
    buckets: dict[str, list[FeedbackUnit]] = {}
    for unit in model_units:
        tags = [a.value for a in unit.aspects] or ["no_aspect"]
        for tag in tags:
            buckets.setdefault(tag, []).append(unit)
    for tag, units in sorted(buckets.items()):
        per_aspect[tag] = {
            "aligned_rate": sum(1 for u in units if u.id in aligned_ids) / total,
            "novel_rate": sum(1 for u in units if u.id in novel_ids) / total,
            "unit_count": len(units),
        }

    out: dict[str, Any] = {
        "aligned_rate": len(aligned_ids) / total,
        "novel_rate": len(novel_ids) / total,
        "per_aspect": per_aspect,
    }
    if baseline is not None:
        improvement: dict[str, dict[str, Any]] = {}
        for tag, rates in per_aspect.items():
            base = baseline.get(tag, {})
            entry: dict[str, Any] = {}
            for key in ("aligned_rate", "novel_rate"):
                b = base.get(key)
                c = rates[key]
                if b is None or b == 0.0:
                    entry[key] = "N/A" if c > 0.0 else 0.0
                else:
                    entry[key] = (c - b) / b
            improvement[tag] = entry
        out["relative_improvement"] = improvement
    return out


@dataclass(frozen=True)
class PaperMatchData:
    """Per-paper inputs for the bootstrap: who truly matches whom."""

    paper_id: str
    consensus_size: int
    model_unit_ids: tuple[str, ...]
    # member -> model unit ids with a judged-true edge to it
    member_matches: Mapping[str, tuple[str, ...]]

    def __post_init__(self) -> None:
        if self.consensus_size <= 0:
            raise PipelineError(
                f"paper {self.paper_id}: bootstrap needs nonempty consensus"
            )
        if not self.model_unit_ids:
            raise PipelineError(f"paper {self.paper_id}: no model units")
        object.__setattr__(
            self,
            "member_matches",
            {m: tuple(v) for m, v in self.member_matches.items()},
        )


def paper_match_data(
    consensus: ConsensusSet,
    model_unit_ids: Sequence[str],
    edges: Sequence[MatchEdge],
) -> PaperMatchData:
    match_map = _true_match_map(
        edges, set(model_unit_ids), consensus.members
    )
    member_matches: dict[str, list[str]] = {}
    for model_id, members in match_map.items():
        for m in members:
            member_matches.setdefault(m, []).append(model_id)
    return PaperMatchData(
        paper_id=consensus.paper_id,
        consensus_size=len(consensus.members),
        model_unit_ids=tuple(model_unit_ids),
        member_matches={m: tuple(sorted(v)) for m, v in member_matches.items()},
    )


def bootstrap_match_eval(
    papers: Sequence[PaperMatchData],
    k: int = 5,
    iterations: int = 1000,
    seed: int = 0,
    macro: bool = False,
) -> dict[str, Any]:
    """Bootstrap precision/recall/F1 over per-paper model subsamples.

    Each iteration draws min(k, n) model units per paper without
    replacement; counts pool across papers (micro) or average per-paper
    metrics (macro) before aggregating over iterations. Per-paper
    generators are derived from (seed, paper_id), so paper order does
    not affect draws.
    """
    if not papers:
        raise PipelineError("bootstrap_match_eval: no papers")
    if iterations < 2:
        raise PipelineError("bootstrap_match_eval: iterations must be >= 2")
    b = iterations
    matched_model = np.zeros((b, len(papers)))
    drawn_total = np.zeros((b, len(papers)))
    matched_members = np.zeros((b, len(papers)))
    member_total = np.zeros((b, len(papers)))
    for p_idx, paper in enumerate(papers):
        n = len(paper.model_unit_ids)
        unit_index = {uid: i for i, uid in enumerate(paper.model_unit_ids)}
        unit_matched = np.zeros(n, dtype=bool)
        members = sorted(paper.member_matches)
        incidence = np.zeros((len(members), n), dtype=bool)
        for m_idx, member in enumerate(members):
            for uid in paper.member_matches[member]:
                if uid not in unit_index:
                    raise PipelineError(
                        f"paper {paper.paper_id}: matched unit {uid} not in "
                        "model unit list"
                    )
                incidence[m_idx, unit_index[uid]] = True
                unit_matched[unit_index[uid]] = True
        idx = draw_without_replacement(keyed_rng(seed, paper.paper_id), b, n, k)
        matched_model[:, p_idx] = unit_matched[idx].sum(axis=1)
        drawn_total[:, p_idx] = idx.shape[1]
        if members:
            hit = incidence[:, idx]  # (members, B, k)
            matched_members[:, p_idx] = hit.any(axis=2).sum(axis=0)
        member_total[:, p_idx] = paper.consensus_size

    if macro:
        precision_draws = (matched_model / drawn_total).mean(axis=1)
        recall_draws = (matched_members / member_total).mean(axis=1)
        p_paper = matched_model / drawn_total
        r_paper = matched_members / member_total
        with np.errstate(invalid="ignore"):
            f1_paper = np.where(
                (p_paper + r_paper) > 0,
                2 * p_paper * r_paper / (p_paper + r_paper),
                0.0,
            )
        f1_draws = f1_paper.mean(axis=1)
    else:
        precision_draws = matched_model.sum(axis=1) / drawn_total.sum(axis=1)
        recall_draws = matched_members.sum(axis=1) / member_total.sum(axis=1)
        with np.errstate(invalid="ignore"):
            f1_draws = np.where(
                (precision_draws + recall_draws) > 0,
                2
                * precision_draws
                * recall_draws
                / (precision_draws + recall_draws),
                0.0,
            )

    out: dict[str, Any] = {
        "k": k,
        "iterations": iterations,
        "seed": seed,
        "aggregation": "macro" if macro else "micro",
        "papers": len(papers),
    }
    for name, draws in (
        ("precision", precision_draws),
        ("recall", recall_draws),
        ("f1", f1_draws),
    ):
        out[name] = ci_summary(draws)
    return out


__all__ = [
    "MatchEdge",
    "ConsensusSet",
    "MatchScore",
    "StratumRow",
    "StratumTable",
    "PaperMatchData",
    "DEFAULT_BOUNDARIES",
    "HUMAN_HUMAN",
    "HUMAN_MODEL",
    "stratum_bounds",
    "stratum_index",
    "build_stratum_table",
    "calibrate_threshold",
    "prefilter_pairs",
    "judge_edges",
    "build_consensus",
    "consensus_clusters",
    "score_model",
    "f1_score",
    "distribution_weighted",
    "decompose_novel_aligned",
    "paper_match_data",
    "bootstrap_match_eval",
]
