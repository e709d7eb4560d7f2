"""Training-data forging: corruptions, SFT examples, DPO pairs.

The three pipelines here turn labeled units into trainer-ready files:
controlled quality corruptions (with a verification filter), one SFT
example per (paper, reviewer) over successful units, and preference
pairs under the success-delta and corruption-swap rules.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from .config import Sampling, Thresholds
from .core import FeedbackUnit, PaperRecord, canonical_json, connected_components
from .core import atomic_write
from .errors import JudgeFormatError, PipelineError
from .ingest import DatasetStore
from .judge import EndpointConfig, JudgeClient, similar_pairs
from .prompts import CORRUPTION, CORRUPTION_DIMENSIONS, CORRUPTION_VERIFY
from .stats import keyed_rng

GENERATION_PROMPT_VERSION = "1"
GENERATION_PROMPT = (
    "You are an expert reviewer. Read the following research paper and "
    "write constructive feedback the authors can act on. Focus on valid, "
    "specific, high-impact issues.\n\nPaper:\n{paper_markdown}"
)

SFT_HYPERPARAMETERS: dict[str, Any] = {
    "base_model": "Qwen3-8B",
    "max_sequence_length": 30000,
    "train_batch_size": 128,
    "micro_batch_size": 8,
    "learning_rate": 5e-06,
    "epochs": 1,
    "precision": "BF16",
    "zero_stage": 3,
    "flash_attention": 2,
    "ring_attention_size": 8,
    "head_stride": 2,
}

DPO_HYPERPARAMETERS: dict[str, Any] = {
    "base_model": "sft_checkpoint",
    "max_sequence_length": 30000,
    "train_batch_size": 128,
    "micro_batch_size": 4,
    "learning_rate": 5e-06,
    "epochs": 1,
    "precision": "BF16",
    "beta": 0.1,
    "nll_loss_coefficient": 0.2,
    "early_stop_step": 50,
    "zero_stage": 3,
    "flash_attention": 2,
    "ring_attention_size": 8,
    "head_stride": 2,
}


@dataclass(frozen=True)
class VariantVerification:
    predicted_dimension: str
    target_degradation: int
    collateral_preservation: int

    def __post_init__(self) -> None:
        if self.predicted_dimension not in CORRUPTION_DIMENSIONS:
            raise PipelineError(
                f"unknown corruption dimension {self.predicted_dimension!r}"
            )
        for name in ("target_degradation", "collateral_preservation"):
            value = getattr(self, name)
            if not 1 <= value <= 3:
                raise PipelineError(f"{name}={value} outside 1..3")


@dataclass(frozen=True)
class CorruptionVariant:
    source_unit_id: str
    dimension: str
    text: str
    verification: VariantVerification | None = None

    def __post_init__(self) -> None:
        if self.dimension not in CORRUPTION_DIMENSIONS:
            raise PipelineError(f"unknown corruption dimension {self.dimension!r}")
        if not self.text:
            raise PipelineError("corruption variant text must be nonempty")

    @property
    def kept(self) -> bool:
        """The keep rule: correct dimension prediction, both scores >= 2."""
        v = self.verification
        return (
            v is not None
            and v.predicted_dimension == self.dimension
            and v.target_degradation >= 2
            and v.collateral_preservation >= 2
        )

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "source_unit_id": self.source_unit_id,
            "dimension": self.dimension,
            "text": self.text,
        }
        if self.verification is not None:
            out["verification"] = {
                "predicted_dimension": self.verification.predicted_dimension,
                "target_degradation": self.verification.target_degradation,
                "collateral_preservation": self.verification.collateral_preservation,
            }
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CorruptionVariant":
        verification = data.get("verification")
        return cls(
            source_unit_id=data["source_unit_id"],
            dimension=data["dimension"],
            text=data["text"],
            verification=VariantVerification(**verification)
            if verification
            else None,
        )


def corrupt(
    client: JudgeClient,
    endpoint: EndpointConfig,
    unit: FeedbackUnit,
    paper: PaperRecord,
) -> list[CorruptionVariant]:
    """Five rewrites of a successful unit, one per corruption dimension."""
    if not unit.is_successful:
        raise PipelineError(
            f"corrupt: unit {unit.id} is not successful; only successful "
            "units are corrupted"
        )
    response = client.complete(
        endpoint,
        CORRUPTION,
        {
            "title": paper.title,
            "abstract": paper.abstract,
            "feedback_text": unit.text,
        },
    )
    return [
        CorruptionVariant(
            source_unit_id=unit.id,
            dimension=dim,
            text=response.parsed[dim],
        )
        for dim in CORRUPTION_DIMENSIONS
    ]


@dataclass(frozen=True)
class FilterStats:
    """Verification outcome for one unit's batch of variants."""

    source_unit_id: str
    judged_order: tuple[str, ...]
    per_dimension: Mapping[str, Mapping[str, Any]]

    def to_dict(self) -> dict[str, Any]:
        return {
            "source_unit_id": self.source_unit_id,
            "judged_order": list(self.judged_order),
            "per_dimension": {
                k: dict(v) for k, v in sorted(self.per_dimension.items())
            },
        }


def verify_and_filter(
    client: JudgeClient,
    endpoint: EndpointConfig,
    variants: Sequence[CorruptionVariant],
    unit: FeedbackUnit,
    paper: PaperRecord,
    seed: int = 0,
) -> tuple[list[CorruptionVariant], FilterStats]:
    """Judge variants blind (seeded random order) and apply the keep rule.

    The judge sees the rewrites without dimension labels; a variant is
    kept only when the judged dimension equals the intended one and both
    the degradation and preservation scores are at least 2.
    """
    if not variants:
        raise PipelineError("verify_and_filter: no variants")
    order = keyed_rng(seed, unit.id).permutation(len(variants))
    shuffled = [variants[i] for i in order]
    response = client.complete(
        endpoint,
        CORRUPTION_VERIFY,
        {
            "title": paper.title,
            "abstract": paper.abstract,
            "feedback_text": unit.text,
            "rewrites_json": json.dumps([v.text for v in shuffled]),
        },
    )
    results = response.parsed["results"]
    indices = sorted(r["rewrite_index"] for r in results)
    if indices != list(range(len(shuffled))):
        raise JudgeFormatError(
            f"corruption_verify: rewrite indices {indices} do not cover "
            f"0..{len(shuffled) - 1} exactly once",
            raw_text=response.raw_text,
        )
    verified: dict[str, CorruptionVariant] = {}
    for entry in results:
        variant = shuffled[entry["rewrite_index"]]
        verified[variant.dimension] = replace(
            variant,
            verification=VariantVerification(
                predicted_dimension=entry["predicted_dimension"],
                target_degradation=entry["target_degradation"],
                collateral_preservation=entry["collateral_preservation"],
            ),
        )
    in_original_order = [verified[v.dimension] for v in variants]
    kept = [v for v in in_original_order if v.kept]
    stats = FilterStats(
        source_unit_id=unit.id,
        judged_order=tuple(shuffled[i].dimension for i in range(len(shuffled))),
        per_dimension={
            v.dimension: {
                "predicted_dimension": v.verification.predicted_dimension,
                "predicted_correct": v.verification.predicted_dimension
                == v.dimension,
                "target_degradation": v.verification.target_degradation,
                "collateral_preservation": v.verification.collateral_preservation,
                "kept": v.kept,
            }
            for v in in_original_order
        },
    )
    return kept, stats


def aggregate_filter_stats(
    stats: Iterable[FilterStats],
) -> dict[str, dict[str, float]]:
    """Per-dimension prediction accuracy, mean scores, and keep rate."""
    sums: dict[str, dict[str, float]] = {
        d: {"n": 0, "correct": 0, "degradation": 0, "preservation": 0, "kept": 0}
        for d in CORRUPTION_DIMENSIONS
    }
    for s in stats:
        for dim, row in s.per_dimension.items():
            agg = sums[dim]
            agg["n"] += 1
            agg["correct"] += int(row["predicted_correct"])
            agg["degradation"] += row["target_degradation"]
            agg["preservation"] += row["collateral_preservation"]
            agg["kept"] += int(row["kept"])
    out: dict[str, dict[str, float]] = {}
    for dim, acc in sums.items():
        n = acc["n"]
        if n == 0:
            continue
        out[dim] = {
            "n": n,
            "prediction_accuracy": acc["correct"] / n,
            "mean_target_degradation": acc["degradation"] / n,
            "mean_collateral_preservation": acc["preservation"] / n,
            "keep_rate": acc["kept"] / n,
        }
    return out


def dedup_units(
    units: Sequence[FeedbackUnit],
    embeddings: Sequence[np.ndarray],
    threshold: float = Thresholds.dedup,
    seed: int = 0,
) -> list[FeedbackUnit]:
    """Drop near-duplicates by transitive cosine clustering.

    Units whose pairwise cosine exceeds the threshold share a cluster
    (union of edges, so clustering is transitive); one seeded-random
    representative survives per cluster. Output preserves input order.
    """
    if len(units) != len(embeddings):
        raise PipelineError("dedup_units: embeddings must align with units")
    n = len(units)
    links = (
        (i, j)
        for i, j, sim in similar_pairs(embeddings, embeddings, threshold)
        if sim > threshold
    )
    survivors: set[int] = set()
    for members in connected_components(n, links):
        if len(members) == 1:
            survivors.add(members[0])
            continue
        ordered = sorted(members, key=lambda i: units[i].id)
        rng = keyed_rng(seed, *(units[i].id for i in ordered))
        survivors.add(ordered[int(rng.integers(len(ordered)))])
    return [units[i] for i in range(n) if i in survivors]


@dataclass(frozen=True)
class PreferencePair:
    paper_id: str
    chosen: tuple[str, ...]
    rejected: tuple[str, ...]
    pair_kind: str
    chosen_success_count: int
    rejected_success_count: int
    delta: int = Thresholds.delta  # real_label floor; not written out

    def __post_init__(self) -> None:
        if self.pair_kind not in ("real_label", "corruption"):
            raise PipelineError(f"unknown pair_kind {self.pair_kind!r}")
        if not self.chosen or not self.rejected:
            raise PipelineError("preference pair sets must be nonempty")
        if (
            self.pair_kind == "real_label"
            and self.chosen_success_count - self.rejected_success_count
            < self.delta
        ):
            raise PipelineError(
                f"real_label pair for {self.paper_id}: success delta "
                f"{self.chosen_success_count - self.rejected_success_count} "
                f"< {self.delta}"
            )

    def to_dict(self, prompt: str) -> dict[str, Any]:
        return {
            "paper_id": self.paper_id,
            "pair_kind": self.pair_kind,
            "prompt": prompt,
            "chosen": "\n\n".join(self.chosen),
            "rejected": "\n\n".join(self.rejected),
            "chosen_items": list(self.chosen),
            "rejected_items": list(self.rejected),
            "chosen_success_count": self.chosen_success_count,
            "rejected_success_count": self.rejected_success_count,
        }


@dataclass(frozen=True)
class TrainingManifest:
    kind: str
    dataset_path: str
    record_count: int
    hyperparameters: Mapping[str, Any]
    prompt_version: str

    def __post_init__(self) -> None:
        if self.kind not in ("sft", "dpo"):
            raise PipelineError(f"unknown manifest kind {self.kind!r}")
        object.__setattr__(self, "hyperparameters", dict(self.hyperparameters))

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "dataset_path": self.dataset_path,
            "record_count": self.record_count,
            "hyperparameters": dict(self.hyperparameters),
            "prompt_version": self.prompt_version,
        }

    def write(self, path: str | Path) -> None:
        with atomic_write(Path(path)) as fh:
            fh.write(canonical_json(self.to_dict()) + "\n")


def _generation_prompt(paper: PaperRecord) -> str:
    if not paper.body_markdown:
        raise PipelineError(
            f"paper {paper.paper_id}: body_markdown required for training "
            "example prompts"
        )
    return GENERATION_PROMPT.format(paper_markdown=paper.body_markdown)


def build_sft(
    store: DatasetStore,
    split: str,
    out_path: str | Path,
) -> TrainingManifest:
    """One example per (paper, reviewer): target is that reviewer's
    successful units only; reviewers with none contribute nothing."""
    out_path = Path(out_path)
    count = 0
    with atomic_write(out_path) as fh:
        for paper in store.papers(split):
            by_reviewer = paper.units_by_reviewer()
            for thread in paper.threads:
                successful = [
                    u
                    for u in by_reviewer.get(thread.reviewer_id, [])
                    if u.is_successful
                ]
                if not successful:
                    continue
                example = {
                    "messages": [
                        {"role": "user", "content": _generation_prompt(paper)},
                        {
                            "role": "assistant",
                            "content": "\n\n".join(u.text for u in successful),
                        },
                    ],
                    "paper_id": paper.paper_id,
                    "reviewer_id": thread.reviewer_id,
                    "unit_ids": [u.id for u in successful],
                }
                fh.write(canonical_json(example) + "\n")
                count += 1
        if count == 0:  # raised inside: the previous file stays
            raise PipelineError(f"build_sft: no successful units in split {split!r}")
    return TrainingManifest(
        kind="sft",
        dataset_path=str(out_path),
        record_count=count,
        hyperparameters=SFT_HYPERPARAMETERS,
        prompt_version=GENERATION_PROMPT_VERSION,
    )


def _feasible_strata(
    k: int,
    delta: int,
    n_successful: int,
    n_unsuccessful: int,
    chosen_successful_only: bool,
) -> list[tuple[int, int]]:
    """(chosen, rejected) success-count pairs drawable disjointly."""
    out = []
    for s_c in range(delta, k + 1):
        if chosen_successful_only and s_c != k:
            continue
        for s_r in range(0, s_c - delta + 1):
            if s_c + s_r > n_successful:
                continue
            if (k - s_c) + (k - s_r) > n_unsuccessful:
                continue
            out.append((s_c, s_r))
    return out


def _draw_real_pair(
    paper: PaperRecord,
    successful: Sequence[FeedbackUnit],
    unsuccessful: Sequence[FeedbackUnit],
    k: int,
    delta: int,
    rng: np.random.Generator,
    chosen_successful_only: bool,
) -> PreferencePair | None:
    strata = _feasible_strata(
        k, delta, len(successful), len(unsuccessful), chosen_successful_only
    )
    if not strata:
        return None
    s_c, s_r = strata[int(rng.integers(len(strata)))]
    succ_perm = [successful[i] for i in rng.permutation(len(successful))]
    unsucc_perm = [unsuccessful[i] for i in rng.permutation(len(unsuccessful))]
    chosen = succ_perm[:s_c] + unsucc_perm[: k - s_c]
    rejected = succ_perm[s_c : s_c + s_r] + unsucc_perm[k - s_c : 2 * k - s_c - s_r]
    return PreferencePair(
        paper_id=paper.paper_id,
        chosen=tuple(u.text for u in chosen),
        rejected=tuple(u.text for u in rejected),
        pair_kind="real_label",
        chosen_success_count=s_c,
        rejected_success_count=s_r,
        delta=delta,
    )


def _draw_corruption_pair(
    paper: PaperRecord,
    deduped: Sequence[FeedbackUnit],
    bank: Mapping[str, Sequence[CorruptionVariant]],
    k: int,
    rng: np.random.Generator,
) -> PreferencePair | None:
    candidates = [
        (unit, variant)
        for unit in deduped
        if unit.is_successful
        for variant in bank.get(unit.id, [])
        if variant.kept
    ]
    if not candidates or len(deduped) < k:
        return None
    unit, variant = candidates[int(rng.integers(len(candidates)))]
    others = [u for u in deduped if u.id != unit.id]
    fill = [others[i] for i in rng.permutation(len(others))[: k - 1]]
    chosen = [unit] + fill
    chosen_texts = tuple(u.text for u in chosen)
    rejected_texts = (variant.text,) + tuple(u.text for u in fill)
    successes = sum(1 for u in chosen if u.is_successful)
    return PreferencePair(
        paper_id=paper.paper_id,
        chosen=chosen_texts,
        rejected=rejected_texts,
        pair_kind="corruption",
        chosen_success_count=successes,
        rejected_success_count=successes - 1,
    )


def build_dpo(
    store: DatasetStore,
    split: str,
    corruption_bank: Mapping[str, Sequence[CorruptionVariant]],
    out_path: str | Path,
    embed_fn: Callable[[Sequence[str]], Sequence[np.ndarray]],
    k: int = Sampling.k,
    delta: int = Thresholds.delta,
    dedup_threshold: float = Thresholds.dedup,
    pairs_per_paper: int = 1,
    corruption_pairs_per_paper: int = 1,
    seed: int = 0,
    chosen_successful_only: bool = False,
    on_skip: Callable[[str, str], None] | None = None,
) -> TrainingManifest:
    """Preference pairs per paper from deduped, labeled units.

    real_label pairs draw disjoint fixed-size sets whose success counts
    differ by at least `delta`, the stratum chosen uniformly among the
    feasible ones; corruption pairs swap one successful original for its
    kept corrupted variant, all other items identical. A paper without
    labeled units or a feasible pair is skipped, and on_skip(paper_id,
    reason) hears of it, in paper order.
    """
    skip = on_skip or (lambda paper_id, reason: None)
    out_path = Path(out_path)
    count = 0
    with atomic_write(out_path) as fh:
        for paper in store.papers(split):
            labeled = [u for u in paper.units if u.is_labeled]
            if not labeled:
                skip(paper.paper_id, "no labeled units")
                continue
            embeddings = list(embed_fn([u.text for u in labeled]))
            deduped = dedup_units(
                labeled, embeddings, threshold=dedup_threshold, seed=seed
            )
            successful = [u for u in deduped if u.is_successful]
            unsuccessful = [u for u in deduped if not u.is_successful]
            rng = keyed_rng(seed, paper.paper_id)
            prompt = _generation_prompt(paper)
            emitted = 0
            for _ in range(pairs_per_paper):
                pair = _draw_real_pair(
                    paper,
                    successful,
                    unsuccessful,
                    k,
                    delta,
                    rng,
                    chosen_successful_only,
                )
                if pair is not None:
                    fh.write(canonical_json(pair.to_dict(prompt)) + "\n")
                    count += 1
                    emitted += 1
            for _ in range(corruption_pairs_per_paper):
                pair = _draw_corruption_pair(
                    paper, deduped, corruption_bank, k, rng
                )
                if pair is not None:
                    fh.write(canonical_json(pair.to_dict(prompt)) + "\n")
                    count += 1
                    emitted += 1
            if emitted == 0:
                skip(paper.paper_id, "no qualifying pair")
        if count == 0:  # raised inside: the previous file stays
            raise PipelineError(f"build_dpo: no pairs produced for split {split!r}")
    return TrainingManifest(
        kind="dpo",
        dataset_path=str(out_path),
        record_count=count,
        hyperparameters=DPO_HYPERPARAMETERS,
        prompt_version=GENERATION_PROMPT_VERSION,
    )


def build_corruption_bank(
    client: JudgeClient,
    endpoint_corrupt: EndpointConfig,
    endpoint_verify: EndpointConfig,
    papers: Sequence[PaperRecord],
    seed: int = 0,
    max_units_per_paper: int | None = None,
) -> tuple[dict[str, list[CorruptionVariant]], list[FilterStats]]:
    """Corrupt and verify every successful unit across papers.

    Each target's corrupt-then-verify chain is one JudgeClient.map item;
    bank and stats keep the papers' and units' input order.
    """
    targets = [
        (paper, unit)
        for paper in papers
        for unit in paper.successful_units()[:max_units_per_paper]
    ]

    def corrupt_and_verify(target):
        paper, unit = target
        variants = corrupt(client, endpoint_corrupt, unit, paper)
        return verify_and_filter(
            client, endpoint_verify, variants, unit, paper, seed=seed
        )

    results = client.map(corrupt_and_verify, targets)
    bank = {unit.id: kept for (_, unit), (kept, _) in zip(targets, results)}
    return bank, [stats for _, stats in results]
