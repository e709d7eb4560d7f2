"""Spans recorded from the benchmark's side of each layer boundary.

`install` wraps the public functions of feedbacklab's modules in the
current process. Each call records a span: name, start, end, process
and thread ids, plus counts taken from its arguments or result. Spans
stay in memory until `Recorder.write`. `layer_metrics` turns the spans
of one phase (cold or warm) into the per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

# Per-layer metric names, in report order. Each is reported once per
# phase, prefixed "cold." or "warm.".
LAYER_METRICS: dict[str, str] = {
    "ingest.load_corpus_s": "s",
    "cli.load_model_units_s": "s",
    "judge.complete_calls": "count",
    "judge.cache_hit_ratio": "ratio",
    "judge.backend_calls": "count",
    "judge.repair_calls": "count",
    "judge.backend_s": "s",
    "judge.complete_self_s": "s",
    "judge.backend_calls_per_s": "1/s",
    "judge.backend_concurrency": "ratio",
    "judge.map_complete_batches": "count",
    "judge.map_complete_mean_batch": "count",
    "judge.embed_s": "s",
    "judge.embed_texts": "count",
    "judge.backend_embed_texts": "count",
    "judge.cache_files": "count",
    "consensus.prefilter_pairs_s": "s",
    "consensus.prefilter_candidates": "count",
    "consensus.prefilter_keep_ratio": "ratio",
    "consensus.judge_edges_s": "s",
    "consensus.bootstrap_match_eval_s": "s",
    "successeval.evaluate_unit_s": "s",
    "successeval.bootstrap_eval_s": "s",
    "parse.parse_papers_s": "s",
    "parse.threads": "count",
    "forge.build_corruption_bank_s": "s",
    "forge.dedup_units_s": "s",
    "forge.dedup_pairs": "count",
    "forge.build_dpo_s": "s",
    "report.render_report_s": "s",
}

# Metrics that are summed durations of one wrapped function.
_DURATION_METRICS = {
    "ingest.load_corpus_s": "ingest.load_corpus",
    "cli.load_model_units_s": "cli.load_model_units",
    "judge.backend_s": "judge.backend_complete",
    "judge.embed_s": "judge.embed",
    "consensus.prefilter_pairs_s": "consensus.prefilter_pairs",
    "consensus.judge_edges_s": "consensus.judge_edges",
    "consensus.bootstrap_match_eval_s": "consensus.bootstrap_match_eval",
    "successeval.evaluate_unit_s": "successeval.evaluate_unit",
    "successeval.bootstrap_eval_s": "successeval.bootstrap_eval",
    "parse.parse_papers_s": "parse.parse_papers",
    "forge.build_corruption_bank_s": "forge.build_corruption_bank",
    "forge.dedup_units_s": "forge.dedup_units",
    "forge.build_dpo_s": "forge.build_dpo",
    "report.render_report_s": "report.render_report",
}


class Recorder:
    """In-memory span list shared by every wrapper in one process."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._lock = threading.Lock()

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        counts: Callable[[tuple, dict, Any], Mapping[str, Any]] | None = None,
    ) -> None:
        """Replace owner.attr with a wrapper that records one span per call.

        `counts(args, kwargs, result)` runs after the span closes, so its
        cost stays out of the span.
        """
        inner = getattr(owner, attr)
        pid = os.getpid()

        @functools.wraps(inner)
        def traced(*args, **kwargs):
            start = time.perf_counter()
            try:
                result = inner(*args, **kwargs)
            finally:
                end = time.perf_counter()
            span = {
                "name": name,
                "start": start,
                "end": end,
                "pid": pid,
                "tid": threading.get_ident(),
            }
            if counts is not None:
                span.update(counts(args, kwargs, result))
            with self._lock:
                self.spans.append(span)
            return result

        setattr(owner, attr, traced)

    def write(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.spans), encoding="utf-8")


def _prefilter_counts(args, kwargs, result) -> dict[str, int]:
    units_a, units_b, pair_type = args[0], args[1], args[5]
    if pair_type == "human_human" and units_a is units_b:
        n = len(units_a)
        per_reviewer = Counter(u.reviewer_id for u in units_a)
        candidates = n * (n - 1) // 2 - sum(
            c * (c - 1) // 2 for c in per_reviewer.values()
        )
    elif pair_type == "human_human":
        candidates = len(
            {
                tuple(sorted((a.id, b.id)))
                for a in units_a
                for b in units_b
                if a.id != b.id and a.reviewer_id != b.reviewer_id
            }
        )
    else:
        candidates = sum(1 for a in units_a for b in units_b if a.id != b.id)
    return {"candidates": candidates, "kept": len(result)}


def install(recorder: Recorder) -> None:
    """Wrap the public functions of every traced layer.

    cli imports load_corpus and render_report by name, so those are
    patched on cli; cli calls cons.*, parse.*, successeval.* and forge.*
    through the module, and build_dpo finds dedup_units as a module
    global, so those are patched on their modules; client and backend
    methods are patched on the class.
    """
    from feedbacklab import cli, consensus, forge, parse, successeval
    from feedbacklab.judge import JudgeClient, StubBackend

    wrap = recorder.wrap
    wrap(cli, "load_corpus", "ingest.load_corpus")
    wrap(cli, "load_model_units", "cli.load_model_units")
    wrap(cli, "render_report", "report.render_report")
    wrap(JudgeClient, "complete", "judge.complete",
         lambda a, k, r: {"hit": r.cache_hit})
    wrap(JudgeClient, "map_complete", "judge.map_complete",
         lambda a, k, r: {"n": len(r)})
    wrap(JudgeClient, "embed", "judge.embed", lambda a, k, r: {"n": len(r)})
    wrap(StubBackend, "complete", "judge.backend_complete")
    wrap(StubBackend, "embed", "judge.backend_embed",
         lambda a, k, r: {"n": len(r)})
    wrap(consensus, "prefilter_pairs", "consensus.prefilter_pairs",
         _prefilter_counts)
    wrap(consensus, "judge_edges", "consensus.judge_edges")
    wrap(consensus, "bootstrap_match_eval", "consensus.bootstrap_match_eval")
    wrap(successeval, "evaluate_unit", "successeval.evaluate_unit")
    wrap(successeval, "bootstrap_eval", "successeval.bootstrap_eval")
    wrap(parse, "parse_papers", "parse.parse_papers",
         lambda a, k, r: {"n": len(r[1])})
    wrap(forge, "build_corruption_bank", "forge.build_corruption_bank")
    wrap(forge, "dedup_units", "forge.dedup_units",
         lambda a, k, r: {"n": len(a[0]) * (len(a[0]) - 1) // 2})
    wrap(forge, "build_dpo", "forge.build_dpo")


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by the union of [start, end] intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(
    parents: Sequence[Mapping[str, Any]], children: Sequence[Mapping[str, Any]]
) -> float:
    """Sum over parents of duration minus what same-thread children cover.

    A child counts against a parent only when both ran in the same
    process and thread, and only for the part of the child inside the
    parent's interval.
    """
    by_thread: dict[tuple[int, int], list[tuple[float, float]]] = {}
    for c in children:
        by_thread.setdefault((c["pid"], c["tid"]), []).append((c["start"], c["end"]))
    total = 0.0
    for p in parents:
        inside = [
            (max(s, p["start"]), min(e, p["end"]))
            for s, e in by_thread.get((p["pid"], p["tid"]), ())
            if s < p["end"] and e > p["start"]
        ]
        total += (p["end"] - p["start"]) - union_length(inside)
    return total


def layer_metrics(
    spans: Sequence[Mapping[str, Any]], wall_s: float, cache_files: int
) -> dict[str, float]:
    """Per-layer metrics of one phase from its spans.

    judge.cache_hit_ratio is over judge.complete_calls (JudgeClient.complete
    calls); judge.backend_calls_per_s is over the phase's wall time.
    """
    by_name: dict[str, list[Mapping[str, Any]]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def named(name: str) -> list[Mapping[str, Any]]:
        return by_name.get(name, [])

    def total(name: str, key: str) -> int:
        return sum(s[key] for s in named(name))

    out = {
        metric: sum(s["end"] - s["start"] for s in named(name))
        for metric, name in _DURATION_METRICS.items()
    }
    complete = named("judge.complete")
    backend = named("judge.backend_complete")
    calls = len(complete)
    hits = sum(1 for s in complete if s["hit"])
    batches = named("judge.map_complete")
    candidates = total("consensus.prefilter_pairs", "candidates")
    union = union_length((s["start"], s["end"]) for s in backend)
    out.update(
        {
            "judge.complete_calls": calls,
            "judge.cache_hit_ratio": hits / calls if calls else 0.0,
            "judge.backend_calls": len(backend),
            "judge.repair_calls": len(backend) - (calls - hits),
            "judge.complete_self_s": self_time(complete, backend),
            "judge.backend_calls_per_s": len(backend) / wall_s,
            "judge.backend_concurrency": out["judge.backend_s"] / union
            if union
            else 0.0,
            "judge.map_complete_batches": len(batches),
            "judge.map_complete_mean_batch": total("judge.map_complete", "n")
            / len(batches)
            if batches
            else 0.0,
            "judge.embed_texts": total("judge.embed", "n"),
            "judge.backend_embed_texts": total("judge.backend_embed", "n"),
            "judge.cache_files": cache_files,
            "consensus.prefilter_candidates": candidates,
            "consensus.prefilter_keep_ratio": total(
                "consensus.prefilter_pairs", "kept"
            )
            / candidates
            if candidates
            else 0.0,
            "parse.threads": total("parse.parse_papers", "n"),
            "forge.dedup_pairs": total("forge.dedup_units", "n"),
        }
    )
    return {name: out[name] for name in LAYER_METRICS}
