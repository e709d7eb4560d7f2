"""Seeded synthetic inputs for the benchmark workloads.

Each generator writes a corpus store, model feedback, a stub fixture and
a config into one directory and returns what it planted, so the runner
can check the program's results against it. The same (workload, seed)
always produces byte-identical files.

Unplanted texts get the stub's hash-derived embeddings. At
EMBEDDING_DIM = 256 their pairwise cosines have a standard deviation of
1/16, so the 0.45-0.55 thresholds sit more than seven deviations above
them. Planted near-duplicates share a base vector and land near 0.8.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

EMBEDDING_DIM = 256
REVIEWERS = ("R1", "R2", "R3", "R4")
MODEL_NAME = "bench-model"

WORDS = (
    "ablation accuracy analysis assumption baseline benchmark bias "
    "calibration claim clarity comparison complexity convergence corpus "
    "dataset definition derivation discussion distribution effect "
    "efficiency encoder error estimate evaluation evidence experiment "
    "figure framework generalization gradient hyperparameter hypothesis "
    "implementation inference intuition label latency layer limitation "
    "loss metric method model motivation noise notation novelty objective "
    "optimization overhead parameter performance pipeline precision "
    "prior proof protocol recall regularization reproducibility result "
    "robustness runtime sample scaling section sensitivity setting "
    "significance signal statistic structure study table task theorem "
    "training transfer trend uncertainty validation variance weight "
    "should could must clearly further additional missing unclear "
    "stronger weaker larger smaller recent standard proposed reported "
    "the the the of of to to and and in in for with on is is are be"
).split()

SUCCESS_LABELS = (("agreed", "will_revise"), ("agreed", "defer_future_work"))
FAILURE_LABELS = (
    ("rebutted", "no_revision_contest"),
    ("agreed", "no_revision_accept"),
    ("unclear", "unclear_or_no_response"),
    ("agreed", "point_to_existing_content"),
)

# consensus: the pair_match stub answers "1" except on this abstract, so
# every paper that carries it ends with an empty consensus.
MATCH_ABSTRACT = (
    "We propose a retrieval method for long documents and evaluate it on "
    "three public benchmarks against strong baselines."
)
NOMATCH_ABSTRACT = (
    "We study sparse attention for summarization and report results on "
    "two public corpora."
)
CONSENSUS_PAPERS = 40
CONSENSUS_UNITS_PER_REVIEWER = 8
CONSENSUS_MODEL_UNITS = 20
# Near-duplicate groups per paper, by number of reviewers in each. The
# group structure, and so the number of judge calls, is the same for
# every seed; only the texts, vectors and other labels change.
CONSENSUS_GROUP_SIZES = (3, 2, 3)
CONSENSUS_GROUPS_WITH_MODEL_DUP = 2
NOMATCH_EVERY = 10  # every tenth paper gets NOMATCH_ABSTRACT

# judge-latency: success-eval responses are keyed on the paper title.
# Each class: (passes quality, predicted validity, predicted action).
LATENCY_CLASSES = (
    (True, "agreed", "will_revise"),
    (True, "agreed", "no_revision_accept"),
    (True, "rebutted", "defer_future_work"),
    (False, "agreed", "will_revise"),
)
LATENCY_PAPERS = 16
LATENCY_UNITS_PER_PAPER = 10
LATENCY_MS = 20.0

# forge: thread_parse responses are keyed on the paper title.
FORGE_PAPERS = 40
FORGE_TITLE_CLASSES = 4
FORGE_PARSE_UNITS = 8  # units in each thread_parse response
FORGE_UNITS_PER_REVIEWER = 6
FORGE_DUP_PAIRS = 2  # planted near-duplicate pairs per paper
FORGE_BODY_PARAGRAPHS = 24
FORGE_SAMPLING = {
    "k": 5,
    "pairs_per_paper": 2,
    "corruption_pairs_per_paper": 1,
    "max_corruption_units_per_paper": 2,
}
CORRUPTION_DIMENSIONS = (
    "generic",
    "vague",
    "inaccurate",
    "nonessential",
    "unsupportive",
)


@dataclass(frozen=True)
class Inputs:
    """Generated files for one workload plus what the generator planted."""

    config: Path
    runs_root: Path
    commands: tuple[str, ...]
    latency_ms: float
    expected: dict[str, Any] = field(default_factory=dict)


class _Texts:
    """Unique pseudo-sentences and planted embeddings from one seed."""

    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"{workload}:{seed}")
        self.vectors = np.random.default_rng([seed, *workload.encode()])
        self.used: set[str] = set()
        self.embeddings: dict[str, list[float]] = {}

    def sentence(self, lo: int = 12, hi: int = 18) -> str:
        while True:
            words = [self.rng.choice(WORDS) for _ in range(self.rng.randint(lo, hi))]
            text = " ".join(words).capitalize() + "."
            if text not in self.used:
                self.used.add(text)
                return text

    def base(self) -> np.ndarray:
        return self.vectors.standard_normal(EMBEDDING_DIM)

    def plant(self, text: str, base: np.ndarray) -> None:
        """Give `text` an embedding near `base` (cosine about 0.8)."""
        noise = self.vectors.standard_normal(EMBEDDING_DIM)
        vec = base / np.linalg.norm(base) + 0.5 * noise / np.linalg.norm(noise)
        vec /= np.linalg.norm(vec)
        self.embeddings[text] = [round(float(x), 6) for x in vec]

    def labels(self, successful: bool) -> tuple[str, str]:
        return self.rng.choice(SUCCESS_LABELS if successful else FAILURE_LABELS)


def _dump(path: Path, value: Any) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(value, sort_keys=True, separators=(",", ":")) + "\n", encoding="utf-8"
    )


def _dump_lines(path: Path, rows: list[dict[str, Any]]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        "".join(
            json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n" for r in rows
        ),
        encoding="utf-8",
    )


def _unit(paper_id: str, reviewer: str, j: int, text: str, labels) -> dict:
    validity, action = labels
    return {
        "id": f"fu-{paper_id}-{reviewer}-{j:02d}",
        "paper_id": paper_id,
        "reviewer_id": reviewer,
        "source": "human",
        "text": text,
        "validity": validity,
        "action": action,
    }


def _write(
    out: Path,
    records: list[dict],
    fixture: dict,
    config: dict,
    model_feedback: list[dict] | None = None,
) -> Path:
    _dump(
        out / "corpus" / "manifest.json",
        {"format_version": 1, "splits": {"test": [r["paper_id"] for r in records]}},
    )
    _dump_lines(out / "corpus" / "records" / "test.jsonl", records)
    paths = {"corpus_root": "corpus", "runs_root": "../runs"}
    if model_feedback is not None:
        _dump_lines(out / "model_feedback.jsonl", model_feedback)
        paths["model_feedback"] = "model_feedback.jsonl"
    _dump(out / "stub.json", fixture)
    config_path = out / "config.json"
    _dump(
        config_path,
        {"mode": "stub", "split": "test", "stub_fixture": "stub.json",
         "paths": paths, **config},
    )
    return config_path


def consensus(seed: int, out: Path, papers: int = CONSENSUS_PAPERS) -> Inputs:
    """consensus-eval corpus with planted cross-reviewer near-duplicates.

    Per paper, each group of CONSENSUS_GROUP_SIZES takes one unit from
    that many reviewers; alternate group units are successful, starting
    with the first. The consensus is the successful group units. The first
    CONSENSUS_GROUPS_WITH_MODEL_DUP groups get one model unit planted
    near them, which matches every member of its group; one more model
    unit is planted near a unit outside every group and matches nothing.
    """
    t = _Texts("consensus", seed)
    records, feedback = [], []
    expected: dict[str, Any] = {"papers": {}, "excluded": []}
    for p in range(papers):
        pid = f"paper-{p:04d}"
        nomatch = p % NOMATCH_EVERY == NOMATCH_EVERY - 1
        texts = {
            r: [t.sentence() for _ in range(CONSENSUS_UNITS_PER_REVIEWER)]
            for r in REVIEWERS
        }
        success = {
            (r, j): t.rng.random() < 0.5
            for r in REVIEWERS
            for j in range(CONSENSUS_UNITS_PER_REVIEWER)
        }
        group_members: list[list[tuple[str, int]]] = []
        bases = []
        for g, size in enumerate(CONSENSUS_GROUP_SIZES):
            chosen = t.rng.sample(REVIEWERS, size)
            members = [(r, g) for r in chosen]
            for k, member in enumerate(members):
                success[member] = k % 2 == 0
            base = t.base()
            for r, j in members:
                t.plant(texts[r][j], base)
            group_members.append(members)
            bases.append(base)
        model_texts = [t.sentence() for _ in range(CONSENSUS_MODEL_UNITS)]
        for g in range(CONSENSUS_GROUPS_WITH_MODEL_DUP):
            t.plant(model_texts[g], bases[g])
        decoy = t.base()  # this unit of R1 is in no group
        t.plant(texts["R1"][len(CONSENSUS_GROUP_SIZES)], decoy)
        t.plant(model_texts[CONSENSUS_GROUPS_WITH_MODEL_DUP], decoy)

        units = [
            _unit(pid, r, j, texts[r][j], t.labels(success[(r, j)]))
            for r in REVIEWERS
            for j in range(CONSENSUS_UNITS_PER_REVIEWER)
        ]
        records.append(
            {
                "paper_id": pid,
                "title": f"Synthetic paper {p}",
                "abstract": NOMATCH_ABSTRACT if nomatch else MATCH_ABSTRACT,
                "venue_year": 2026,
                "decision": "unknown",
                "threads": [
                    {"reviewer_id": r, "turns": [
                        {"speaker": "reviewer", "text": " ".join(texts[r])},
                        {"speaker": "author", "text": "We thank the reviewer."},
                    ]}
                    for r in REVIEWERS
                ],
                "units": units,
            }
        )
        feedback += [
            {"model_name": MODEL_NAME, "paper_id": pid, "text": text}
            for text in model_texts
        ]
        if nomatch:
            expected["excluded"].append(pid)
            continue
        in_consensus = [[m for m in g if success[m]] for g in group_members]
        matched = in_consensus[:CONSENSUS_GROUPS_WITH_MODEL_DUP]
        expected["papers"][pid] = {
            "consensus_size": sum(len(g) for g in in_consensus),
            "model_units": CONSENSUS_MODEL_UNITS,
            "matched_model": sum(1 for g in matched if g),
            "matched_consensus": sum(len(g) for g in matched),
        }
    fixture = {
        "embedding_dim": EMBEDDING_DIM,
        "embeddings": t.embeddings,
        "templates": {
            "pair_match": {
                "default": {"explanation": "same point", "match": "1"},
                "cases": [
                    {
                        "when": {"abstract": NOMATCH_ABSTRACT},
                        "respond": {"explanation": "different points", "match": "0"},
                    }
                ],
            }
        },
    }
    config = _write(
        out,
        records,
        fixture,
        {"sampling": {"iterations": 1000, "k": 5, "seed": seed}},
        feedback,
    )
    return Inputs(config, out.parent / "runs", ("consensus-eval",), 0.0, expected)


def _quality_response(passes: bool) -> dict:
    score = 5 if passes else 3
    return {
        dim: {"score": score, "justification": "synthetic"}
        for dim in (
            "accuracy",
            "prioritisation",
            "constructive_tone",
            "paper_specific_grounding",
            "actionability",
        )
    }


def judge_latency(
    seed: int,
    out: Path,
    papers: int = LATENCY_PAPERS,
    units_per_paper: int = LATENCY_UNITS_PER_PAPER,
) -> Inputs:
    """success-eval corpus: two judge calls per model unit.

    Every paper belongs to one LATENCY_CLASSES class through its title,
    so the full-set success rate of each mode follows from how many
    papers each class has.
    """
    t = _Texts("judge-latency", seed)
    titles = [f"Synthetic paper class {c}" for c in range(len(LATENCY_CLASSES))]
    records, feedback = [], []
    hits = {"combined": 0, "validity_only": 0, "action_only": 0}
    for p in range(papers):
        pid = f"paper-{p:04d}"
        c = t.rng.randrange(len(LATENCY_CLASSES))
        passes, validity, action = LATENCY_CLASSES[c]
        records.append(
            {
                "paper_id": pid,
                "title": titles[c],
                "abstract": MATCH_ABSTRACT,
                "venue_year": 2026,
                "decision": "unknown",
                "threads": [],
                "units": [],
            }
        )
        feedback += [
            {"model_name": MODEL_NAME, "paper_id": pid, "text": t.sentence()}
            for _ in range(units_per_paper)
        ]
        valid = validity == "agreed"
        actionable = action in ("will_revise", "defer_future_work")
        if passes:
            hits["combined"] += units_per_paper * (valid and actionable)
            hits["validity_only"] += units_per_paper * valid
            hits["action_only"] += units_per_paper * actionable
    total = papers * units_per_paper
    fixture = {
        "templates": {
            "quality_score": {
                "default": _quality_response(True),
                "cases": [
                    {"when": {"title": titles[c]},
                     "respond": _quality_response(cls[0])}
                    for c, cls in enumerate(LATENCY_CLASSES)
                ],
            },
            "response_predict": {
                "default": {"validity": "unclear",
                            "author_action": "unclear_or_no_response"},
                "cases": [
                    {"when": {"title": titles[c]},
                     "respond": {"validity": cls[1], "author_action": cls[2],
                                 "response_text": "We will consider this."}}
                    for c, cls in enumerate(LATENCY_CLASSES)
                ],
            },
        },
    }
    config = _write(
        out,
        records,
        fixture,
        {"sampling": {"iterations": 1000, "k": 5, "seed": seed}},
        feedback,
    )
    expected = {
        "units": total,
        "full_set_rate": {mode: n / total for mode, n in hits.items()},
    }
    return Inputs(
        config, out.parent / "runs", ("success-eval",), LATENCY_MS, expected
    )


def _parse_response(t: _Texts, c: int) -> dict:
    units = []
    for j in range(FORGE_PARSE_UNITS):
        validity, action = t.labels(j % 2 == 0)
        units.append(
            {
                "feedback_text": f"[{c}.{j}] " + " ".join(
                    t.sentence() for _ in range(4)
                ),
                "author_response_text": t.sentence(),
                "validity": validity,
                "author_action": action,
                "aspects": ["clarity_presentation"] if j % 3 else [],
                "dimensions": ["feed_back"],
            }
        )
    return {"units": units, "skipped_positive_count": c % 3}


def forge(seed: int, out: Path, papers: int = FORGE_PAPERS) -> Inputs:
    """parse + forge-dpo corpus: raw threads, labeled units, long bodies.

    Each reviewer has FORGE_UNITS_PER_REVIEWER labeled units, half of
    them successful; FORGE_DUP_PAIRS cross-reviewer pairs with equal
    labels are planted as near-duplicates, so after dedup every paper
    keeps enough successful and unsuccessful units for every real-label
    draw to succeed.
    """
    t = _Texts("forge", seed)
    titles = [f"Synthetic paper class {c}" for c in range(FORGE_TITLE_CLASSES)]
    records = []
    for p in range(papers):
        pid = f"paper-{p:04d}"
        c = p % FORGE_TITLE_CLASSES
        texts = {
            r: [t.sentence() for _ in range(FORGE_UNITS_PER_REVIEWER)]
            for r in REVIEWERS
        }
        for d in range(FORGE_DUP_PAIRS):
            a, b = t.rng.sample(REVIEWERS, 2)
            base = t.base()
            t.plant(texts[a][d], base)
            t.plant(texts[b][d], base)
        units = [
            _unit(pid, r, j, texts[r][j], t.labels(j % 2 == 0))
            for r in REVIEWERS
            for j in range(FORGE_UNITS_PER_REVIEWER)
        ]
        threads = []
        for r in REVIEWERS:
            turns = []
            for j in range(0, FORGE_UNITS_PER_REVIEWER, 2):
                turns.append({"speaker": "reviewer",
                              "text": " ".join(texts[r][j:j + 2])})
                turns.append({"speaker": "author", "text": t.sentence()})
            threads.append({"reviewer_id": r, "turns": turns})
        body = "\n\n".join(
            f"## Section {k}\n\n" + " ".join(t.sentence() for _ in range(6))
            for k in range(FORGE_BODY_PARAGRAPHS)
        )
        records.append(
            {
                "paper_id": pid,
                "title": titles[c],
                "abstract": MATCH_ABSTRACT,
                "venue_year": 2026,
                "decision": "unknown",
                "threads": threads,
                "units": units,
                "body_markdown": f"# {titles[c]}\n\n{body}",
            }
        )
    responses = [_parse_response(t, c) for c in range(FORGE_TITLE_CLASSES)]
    parsed = [responses[p % FORGE_TITLE_CLASSES] for p in range(papers)]
    fixture = {
        "embedding_dim": EMBEDDING_DIM,
        "embeddings": t.embeddings,
        "templates": {
            "thread_parse": {
                "default": responses[0],
                "cases": [
                    {"when": {"title": titles[c]}, "respond": responses[c]}
                    for c in range(1, FORGE_TITLE_CLASSES)
                ],
            },
            "corruption": {
                "default": {d: f"A {d} rewrite: {t.sentence()}"
                            for d in CORRUPTION_DIMENSIONS},
            },
            "corruption_verify": {
                "default": {
                    "results": [
                        {"rewrite_index": i, "predicted_dimension": d,
                         "target_degradation": 2, "collateral_preservation": 3,
                         "reasoning": "synthetic"}
                        for i, d in enumerate(CORRUPTION_DIMENSIONS)
                    ]
                }
            },
        },
    }
    config = _write(
        out,
        records,
        fixture,
        {"sampling": {**FORGE_SAMPLING, "iterations": 1000, "seed": seed}},
    )
    expected = {
        "parse_summary": {
            "papers": papers,
            "threads": papers * len(REVIEWERS),
            "units": len(REVIEWERS) * sum(len(r["units"]) for r in parsed),
            "skipped_positive": len(REVIEWERS)
            * sum(r["skipped_positive_count"] for r in parsed),
        },
        "real_label_pairs": papers * FORGE_SAMPLING["pairs_per_paper"],
        "max_corruption_pairs": papers * FORGE_SAMPLING["corruption_pairs_per_paper"],
    }
    return Inputs(
        config, out.parent / "runs", ("parse", "forge-dpo"), 0.0, expected
    )


GENERATORS = {
    "consensus": consensus,
    "judge-latency": judge_latency,
    "forge": forge,
}
