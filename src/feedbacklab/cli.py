"""Command-line front end: config loading, run directories, reports.

Every command executes under a run directory keyed by the config hash
(so re-running an unchanged stub config rewrites identical bytes), and
renders its report in all three formats. Exit codes: 0 ok, 2 config
error, 3 pipeline error, 4 judge-format error.

The modules that compute with numpy (consensus, forge, parse's agreement
statistics, successeval) are imported inside the commands that use
them, so start-up, `ingest`, `parse` and `report` do without it.
"""

from __future__ import annotations

import argparse
import fcntl
import os
import sys
import traceback
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Mapping, NamedTuple, Sequence

from .config import PipelineConfig, config_hash, load_config
from .core import FeedbackUnit, PaperRecord, Source, canonical_json, make_unit_id
from .core import atomic_write, read_json, read_jsonl
from .errors import ConfigError, FeedbackLabError, IngestError, PipelineError
from .ingest import (
    DatasetStore,
    group_by_unit,
    load_annotations,
    load_corpus,
    majority_vote,
    save_corpus,
)
from .judge import HttpBackend, JudgeClient, StubBackend
from .prompts import prompt_versions
from .report import EvalReport, ReportTable, render_report

if TYPE_CHECKING:
    from .consensus import MatchEdge
    from .forge import TrainingManifest
    from .ingest import AnnotationRecord

RUN_ID_CHARS = 16
Feedback = dict[str, list[FeedbackUnit]]  # model feedback units by paper id


class RunContext:
    """One command execution inside its locked run directory."""

    def __init__(self, config: PipelineConfig, command: str):
        self.config = config
        self.command = command
        self.hash = config_hash(config)
        runs_root = Path(config.resolved_paths()["runs_root"])
        self.run_dir = runs_root / self.hash[:RUN_ID_CHARS]
        self.artifacts = self.run_dir / "artifacts"
        self.cache_dir = self.run_dir / "cache"
        self.events: list[dict[str, Any]] = []

    def __enter__(self) -> "RunContext":
        try:
            self.artifacts.mkdir(parents=True, exist_ok=True)
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # runs_root names a file, say
            raise ConfigError(
                f"paths.runs_root: cannot make run directory {self.run_dir}: "
                f"{exc.strerror}"
            ) from None
        # The kernel drops a flock when its holder dies. The file stays:
        # unlinking it would let two processes lock different inodes.
        lock = self.run_dir / "lock"
        try:
            self._lock_fd = os.open(lock, os.O_CREAT | os.O_RDWR)
        except OSError as exc:  # a directory, say
            raise PipelineError(
                f"cannot open run directory lock {lock}: {exc.strerror}"
            ) from None
        try:
            fcntl.flock(self._lock_fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            os.close(self._lock_fd)
            raise PipelineError(
                f"run directory {self.run_dir} is locked by another process"
            ) from None
        # A .tmp here is a killed writer's; no other process writes now.
        try:
            for tmp in self.run_dir.rglob("*.tmp"):
                tmp.unlink()
        except OSError as exc:  # a directory named x.tmp, say
            os.close(self._lock_fd)
            raise PipelineError(
                f"cannot remove stale {exc.filename}: {exc.strerror}"
            ) from None
        return self

    def __exit__(self, *exc_info) -> None:
        os.close(self._lock_fd)

    def log(self, event: str, **data: Any) -> None:
        self.events.append({"event": event, **data})

    def base_metadata(self) -> dict[str, Any]:
        return {
            "command": self.command,
            "config_hash": self.hash,
            "prompt_versions": prompt_versions(),
            "mode": self.config.mode,
            "split": self.config.split,
            "seed": self.config.sampling.seed,
        }

    def write_jsonl(self, name: str, rows: Sequence[Mapping[str, Any]]) -> None:
        with atomic_write(self.artifacts / name) as fh:
            fh.writelines(canonical_json(dict(r)) + "\n" for r in rows)

    def finish(self, report: EvalReport) -> None:
        with atomic_write(self.artifacts / "eval_report.json") as fh:
            fh.write(canonical_json(report.to_dict()) + "\n")
        self.render(report)
        with atomic_write(self.run_dir / "log.jsonl") as fh:
            fh.writelines(canonical_json(e) + "\n" for e in self.events)

    def render(self, report: EvalReport) -> None:
        for name, fmt in (
            ("report.json", "json"),
            ("report.csv", "csv"),
            ("report.md", "markdown-table"),
        ):
            with atomic_write(self.run_dir / name) as fh:
                fh.write(render_report(report, fmt))


def load_model_units(path: Path, papers: Mapping[str, PaperRecord]) -> Feedback:
    """Model feedback JSONL: one unit per line.

    Required fields: paper_id, text. Optional: model_name (defaults to
    "model"; doubles as the unit's reviewer_id). Unit ids derive from
    content, so the file carries none.
    """
    def parse_unit(data: Mapping[str, Any]) -> FeedbackUnit:
        paper_id, text = data["paper_id"], data["text"]
        model_name = data.get("model_name", "model")
        return FeedbackUnit(
            id=make_unit_id(paper_id, model_name, text),
            paper_id=paper_id,
            reviewer_id=model_name,
            source=Source.MODEL,
            text=text,
        )

    out: Feedback = {}
    seen: set[str] = set()
    for lineno, unit in read_jsonl(path, parse_unit, "model feedback"):
        if unit.paper_id not in papers:
            raise IngestError(
                f"{path}:{lineno}: unknown paper_id {unit.paper_id!r}"
            )
        if unit.id in seen:
            raise IngestError(
                f"{path}:{lineno}: duplicate model feedback text for "
                f"{unit.paper_id}"
            )
        seen.add(unit.id)
        out.setdefault(unit.paper_id, []).append(unit)
    return out


class Input(NamedTuple):
    """A paths.* field and its loader, called as load(ctx, path, inputs
    loaded before it). An optional input loads as None while unset."""

    key: str
    load: Callable[[RunContext, Path, list[Any]], Any]
    required: bool = True


def _corpus(ctx: RunContext, path: Path, loaded: list[Any]) -> DatasetStore:
    store = load_corpus(path)
    ctx.log("load_corpus", **store.counts())
    return store


def _pairs(ctx: RunContext, path: Path, loaded: list[Any]) -> list[MatchEdge]:
    from .consensus import MatchEdge  # consensus imports numpy; start-up must not

    return [edge for _, edge in read_jsonl(path, MatchEdge.from_dict, "pair")]


# The loaders look load_corpus and load_model_units up when called, so a
# wrapper set on this module sees every call.
CORPUS = Input("corpus_root", _corpus)
PAIRS = Input("annotated_pairs", _pairs)
MODEL_FEEDBACK = Input(
    "model_feedback",
    lambda ctx, path, loaded: load_model_units(path, loaded[0].records),
)
ANNOTATIONS = Input("annotations", lambda ctx, path, loaded: load_annotations(path))


# -- commands ----------------------------------------------------------


def cmd_ingest(ctx: RunContext, store: DatasetStore) -> EvalReport:
    counts = store.counts()
    papers = store.records.values()
    rows = [
        ("papers", counts["papers"]),
        *((f"split:{k}", n) for k, n in sorted(counts["by_split"].items())),
        *((f"decision:{k}", n) for k, n in sorted(counts["by_decision"].items())),
        ("units", sum(len(p.units) for p in papers)),
        ("successful_units", sum(len(p.successful_units()) for p in papers)),
    ]
    return EvalReport(
        metadata=ctx.base_metadata(),
        tables={
            "corpus": ReportTable(columns=("key", "value"), rows=tuple(rows))
        },
        details={},
    )


def cmd_parse(
    ctx: RunContext,
    client: JudgeClient,
    store: DatasetStore,
    annotations: list[AnnotationRecord] | None,
) -> EvalReport:
    from . import parse

    config = ctx.config
    records = store.papers(config.split)
    parsed, results = parse.parse_papers(
        client, config.endpoint("thread_parse"), records
    )
    updated = {**store.records, **{r.paper_id: r for r in parsed}}
    save_corpus(replace(store, records=updated), ctx.artifacts / "parsed_store")
    ctx.write_jsonl("parse_audit.jsonl", [r.to_audit_dict() for r in results])
    summary = {
        "papers": len(records),
        "threads": len(results),
        "units": sum(len(r.units) for r in results),
    }
    ctx.log("parse", **summary)
    tables = {
        "parse_summary": ReportTable(
            columns=("key", "value"),
            rows=(
                *summary.items(),
                ("skipped_positive", sum(r.dropped_note for r in results)),
            ),
        )
    }
    if annotations is not None:
        reference = [u for record in parsed for u in record.units]
        agreement = parse.agreement_report(annotations, reference)
        rows = []
        for kind, entry in sorted(agreement.items()):
            if inter := entry.get("inter_annotator"):
                rows.append(
                    (
                        kind,
                        "inter_annotator",
                        inter["observed_agreement"],
                        inter["pabak"],
                        inter["cohen_kappa"],
                        inter["n_pairs"],
                    )
                )
            if ref := entry.get("vs_reference"):
                rows.append(
                    (kind, "vs_reference", ref["accuracy"], ref["pabak"], "", ref["n"])
                )
        tables["agreement"] = ReportTable(
            columns=("label", "scope", "agreement", "pabak", "kappa", "n"),
            rows=tuple(rows),
        )
    return EvalReport(metadata=ctx.base_metadata(), tables=tables, details={})


def _manifest_report(
    ctx: RunContext, manifest: TrainingManifest, **tables: ReportTable
) -> EvalReport:
    """A forge command's report: its manifest as a table and in details."""
    return EvalReport(
        metadata=ctx.base_metadata(),
        tables={
            "manifest": ReportTable(
                columns=("key", "value"),
                rows=(
                    ("kind", manifest.kind),
                    ("records", manifest.record_count),
                    ("prompt_version", manifest.prompt_version),
                ),
            ),
            **tables,
        },
        details={"manifest": manifest.to_dict()},
    )


def cmd_forge_sft(ctx: RunContext, store: DatasetStore) -> EvalReport:
    from . import forge

    manifest = forge.build_sft(store, ctx.config.split, ctx.artifacts / "sft.jsonl")
    manifest.write(ctx.artifacts / "sft_manifest.json")
    ctx.log("forge_sft", records=manifest.record_count)
    return _manifest_report(ctx, manifest)


def cmd_forge_dpo(
    ctx: RunContext, client: JudgeClient, store: DatasetStore
) -> EvalReport:
    from . import forge

    config = ctx.config
    papers = store.papers(config.split)
    bank, filter_stats = forge.build_corruption_bank(
        client,
        config.endpoint("corruption"),
        config.endpoint("corruption_verify"),
        papers,
        seed=config.sampling.seed,
        max_units_per_paper=config.sampling.max_corruption_units_per_paper,
    )
    embedding_endpoint = config.endpoint("embedding")

    def embed_fn(texts: Sequence[str]):
        return client.embed(embedding_endpoint, texts)

    manifest = forge.build_dpo(
        store,
        config.split,
        bank,
        ctx.artifacts / "dpo.jsonl",
        embed_fn,
        k=config.sampling.k,
        delta=config.thresholds.delta,
        dedup_threshold=config.thresholds.dedup,
        pairs_per_paper=config.sampling.pairs_per_paper,
        corruption_pairs_per_paper=config.sampling.corruption_pairs_per_paper,
        seed=config.sampling.seed,
        chosen_successful_only=config.flags.chosen_successful_only,
        on_skip=lambda paper_id, reason: ctx.log(
            "skip_paper", paper_id=paper_id, reason=reason
        ),
    )
    manifest.write(ctx.artifacts / "dpo_manifest.json")
    ctx.write_jsonl("corruption_filter.jsonl", [s.to_dict() for s in filter_stats])
    ctx.log("forge_dpo", records=manifest.record_count)
    aggregate = forge.aggregate_filter_stats(filter_stats)
    return _manifest_report(
        ctx,
        manifest,
        corruption_filter=ReportTable.by_key(
            (
                "dimension",
                "n",
                "prediction_accuracy",
                "mean_target_degradation",
                "mean_collateral_preservation",
                "keep_rate",
            ),
            ({"dimension": dim, **row} for dim, row in sorted(aggregate.items())),
        ),
    )


def cmd_calibrate(
    ctx: RunContext, edges: list[MatchEdge], annotations: list[AnnotationRecord]
) -> EvalReport:
    from . import consensus as cons

    config = ctx.config
    by_pair = group_by_unit(a for a in annotations if a.match_label is not None)
    judged: list[cons.MatchEdge] = []
    for edge in edges:
        pair_id = f"{edge.left_unit_id}|{edge.right_unit_id}"
        labels = [a.match_label for a in by_pair.get(pair_id, [])]
        if not labels:
            raise PipelineError(
                f"calibrate: pair {pair_id} has no match annotations"
            )
        judged.append(replace(edge, judged=bool(majority_vote(labels))))
    threshold_rows = []
    rate_rows = []
    for pair_type in (cons.HUMAN_HUMAN, cons.HUMAN_MODEL):
        sample = [e for e in judged if e.pair_type == pair_type]
        if not sample:
            continue
        table = cons.build_stratum_table(sample)
        threshold = cons.calibrate_threshold(
            table, cutoff=config.thresholds.match_rate_cutoff
        )
        threshold_rows.append((pair_type, threshold))
        for row in table.rows:
            rate = "" if row.annotated_match_rate is None else row.annotated_match_rate
            rate_rows.append((pair_type, f"[{row.lower:g},{row.upper:g})", rate))
        ctx.log("calibrate", pair_type=pair_type, threshold=threshold)
    if not threshold_rows:
        raise PipelineError("calibrate: no annotated pairs of any type")
    return EvalReport(
        metadata=ctx.base_metadata(),
        tables={
            "thresholds": ReportTable(
                columns=("pair_type", "threshold"), rows=tuple(threshold_rows)
            ),
            "match_rates": ReportTable(
                columns=("pair_type", "stratum", "match_rate"),
                rows=tuple(rate_rows),
            ),
        },
        details={},
    )


def cmd_consensus_eval(
    ctx: RunContext, client: JudgeClient, store: DatasetStore, model_by_paper: Feedback
) -> EvalReport:
    from . import consensus as cons

    config = ctx.config
    papers = store.papers(config.split)
    match_endpoint = config.endpoint("pair_match")
    embedding_endpoint = config.endpoint("embedding")

    # Candidates and embeddings stay per paper: one embed call over every
    # paper would hold all of their vectors at once. Each kind of edge is
    # judged in one fan-out over all papers.
    scored = [p for p in papers if p.paper_id in model_by_paper]
    human_of = {
        p.paper_id: [u for u in p.units if u.source is Source.HUMAN] for p in scored
    }

    def human_edges(paper: PaperRecord) -> cons.EdgeBatch:
        human_units = human_of[paper.paper_id]
        human_emb = client.embed(embedding_endpoint, [u.text for u in human_units])
        edges = cons.prefilter_pairs(
            human_units,
            human_units,
            human_emb,
            human_emb,
            config.thresholds.human_human,
            cons.HUMAN_HUMAN,
        )
        return edges, {u.id: u for u in human_units}, paper.abstract

    hh_judged = dict(
        zip(
            human_of,
            cons.judge_edges(
                client, match_endpoint, [human_edges(p) for p in scored]
            ),
        )
    )
    consensus_of: dict[str, cons.ConsensusSet] = {}
    for paper in scored:
        consensus = cons.build_consensus(
            paper.paper_id,
            human_of[paper.paper_id],
            hh_judged[paper.paper_id],
            require_partner_success=config.flags.require_partner_success,
        )
        if consensus.members:
            consensus_of[paper.paper_id] = consensus

    def model_edges(paper: PaperRecord) -> cons.EdgeBatch:
        units_by_id = {u.id: u for u in human_of[paper.paper_id]}
        members = [
            units_by_id[m] for m in sorted(consensus_of[paper.paper_id].members)
        ]
        # Cache hits: the members were embedded with their paper's units.
        member_emb = client.embed(embedding_endpoint, [u.text for u in members])
        model_units = model_by_paper[paper.paper_id]
        model_emb = client.embed(embedding_endpoint, [u.text for u in model_units])
        edges = cons.prefilter_pairs(
            members,
            model_units,
            member_emb,
            model_emb,
            config.thresholds.human_model,
            cons.HUMAN_MODEL,
        )
        return edges, {**units_by_id, **{u.id: u for u in model_units}}, paper.abstract

    hm_judged = dict(
        zip(
            consensus_of,
            cons.judge_edges(
                client,
                match_endpoint,
                [model_edges(p) for p in scored if p.paper_id in consensus_of],
            ),
        )
    )

    per_paper_rows = []
    scores: list[cons.MatchScore] = []
    edge_dump: list[dict[str, Any]] = []
    consensus_detail: dict[str, Any] = {}
    excluded: list[str] = []
    for paper in papers:
        if paper.paper_id not in hh_judged:
            excluded.append(paper.paper_id)
            ctx.log("skip_paper", paper_id=paper.paper_id, reason="no model feedback")
            continue
        hh_edges = hh_judged.pop(paper.paper_id)
        edge_dump.extend(e.to_dict() for e in hh_edges)
        if paper.paper_id not in consensus_of:
            excluded.append(paper.paper_id)
            ctx.log("skip_paper", paper_id=paper.paper_id, reason="no consensus")
            continue
        consensus = consensus_of[paper.paper_id]
        model_units = model_by_paper[paper.paper_id]
        hm_edges = hm_judged.pop(paper.paper_id)
        edge_dump.extend(e.to_dict() for e in hm_edges)
        clusters = (
            cons.consensus_clusters(consensus, hh_edges)
            if config.flags.cluster_level
            else None
        )
        score = cons.score_model(
            consensus, model_units, hm_edges, clusters=clusters
        )
        scores.append(score)
        per_paper_rows.append(
            (
                paper.paper_id,
                score.consensus_size,
                len(score.model_unit_ids),
                len(score.matched_model_units),
                len(score.matched_consensus_units),
                score.precision,
                score.recall,
                score.f1,
            )
        )
        consensus_detail[paper.paper_id] = {
            "members": sorted(consensus.members),
            "matched_model_units": sorted(score.matched_model_units),
            "matched_consensus_units": sorted(score.matched_consensus_units),
        }
    if not scores:
        raise PipelineError(
            "consensus-eval: no paper has both consensus and model feedback"
        )
    ctx.write_jsonl("match_edges.jsonl", edge_dump)
    aggregate = cons.bootstrap_match_eval(
        scores,
        k=config.sampling.k,
        iterations=config.sampling.iterations,
        seed=config.sampling.seed,
        macro=config.flags.macro,
    )
    return EvalReport(
        metadata={
            **ctx.base_metadata(),
            "k": aggregate["k"],
            "iterations": aggregate["iterations"],
            "aggregation": aggregate["aggregation"],
            "papers_scored": aggregate["papers"],
            "papers_excluded": len(excluded),
            "cluster_level": config.flags.cluster_level,
        },
        tables={
            "match_metrics": ReportTable.by_key(
                ("metric", "mean", "ci_lower", "ci_upper", "ci_half_width"),
                (
                    {"metric": name, **aggregate[name]}
                    for name in ("precision", "recall", "f1")
                ),
            ),
            "per_paper": ReportTable(
                columns=(
                    "paper_id",
                    "consensus_size",
                    "model_units",
                    "matched_model",
                    "matched_consensus",
                    "precision",
                    "recall",
                    "f1",
                ),
                rows=tuple(per_paper_rows),
            ),
        },
        details={
            "consensus": consensus_detail,
            "excluded_papers": sorted(excluded),
        },
    )


def cmd_success_eval(
    ctx: RunContext, client: JudgeClient, store: DatasetStore, model_by_paper: Feedback
) -> EvalReport:
    from . import successeval

    config = ctx.config
    papers = store.papers(config.split)
    quality_endpoint = config.endpoint("quality_score")
    predictor_endpoint = config.endpoint("response_predict")
    for paper in papers:
        if paper.paper_id not in model_by_paper:
            ctx.log("skip_paper", paper_id=paper.paper_id, reason="no model feedback")
    jobs = [(p, unit) for p in papers for unit in model_by_paper.get(p.paper_id, [])]

    def evaluate(job):
        paper, unit = job
        return successeval.evaluate_unit(
            client,
            quality_endpoint,
            predictor_endpoint,
            unit,
            paper,
            config.thresholds.quality,
        )

    evaluations = client.map(evaluate, jobs)
    per_paper: dict[str, list[successeval.UnitEvaluation]] = {}
    for (paper, _), evaluation in zip(jobs, evaluations):
        per_paper.setdefault(paper.paper_id, []).append(evaluation)
    if not per_paper:
        raise PipelineError("success-eval: no model feedback for this split")
    all_evals = [e for evals in per_paper.values() for e in evals]
    ctx.write_jsonl("unit_evaluations.jsonl", [e.to_dict() for e in all_evals])
    quality_filter = config.flags.quality_filter_in_proxy_modes
    aggregate = successeval.bootstrap_eval(
        per_paper,
        k=config.sampling.k,
        iterations=config.sampling.iterations,
        seed=config.sampling.seed,
        quality_filter=quality_filter,
    )
    rows = []
    for mode in successeval.SuccessMode:
        full = successeval.success_rate(
            all_evals, mode, mode.filters_quality(quality_filter)
        )
        entry = aggregate[mode.value]
        rows.append(
            (
                mode.value,
                full,
                entry["mean"],
                entry["ci_lower"],
                entry["ci_upper"],
                entry["ci_half_width"],
            )
        )
    ctx.log("success_eval", papers=len(per_paper), units=len(all_evals))
    return EvalReport(
        metadata={
            **ctx.base_metadata(),
            "k": aggregate["k"],
            "iterations": aggregate["iterations"],
            "quality_filter_in_proxy_modes": quality_filter,
            "papers_scored": len(per_paper),
            "units_scored": len(all_evals),
        },
        tables={
            "success_rates": ReportTable(
                columns=(
                    "mode",
                    "full_set_rate",
                    "bootstrap_mean",
                    "ci_lower",
                    "ci_upper",
                    "ci_half_width",
                ),
                rows=tuple(rows),
            )
        },
        details={},
    )


def cmd_report(ctx: RunContext) -> EvalReport:
    stored = ctx.artifacts / "eval_report.json"
    report = read_json(stored, EvalReport.from_dict, "stored report", IngestError)
    ctx.render(report)
    return report


class Command(NamedTuple):
    handler: Callable[..., EvalReport]  # handler(ctx, [client,] *inputs)
    inputs: tuple[Input, ...] = ()
    judge: bool = False  # whether the handler takes a judge client


COMMANDS: dict[str, Command] = {
    "ingest": Command(cmd_ingest, (CORPUS,)),
    "parse": Command(
        cmd_parse, (CORPUS, Input("annotations", ANNOTATIONS.load, False)), judge=True
    ),
    "forge-sft": Command(cmd_forge_sft, (CORPUS,)),
    "forge-dpo": Command(cmd_forge_dpo, (CORPUS,), judge=True),
    "calibrate": Command(cmd_calibrate, (PAIRS, ANNOTATIONS)),
    "consensus-eval": Command(cmd_consensus_eval, (CORPUS, MODEL_FEEDBACK), judge=True),
    "success-eval": Command(cmd_success_eval, (CORPUS, MODEL_FEEDBACK), judge=True),
    "report": Command(cmd_report),
}


def run(command: str, config: PipelineConfig) -> EvalReport:
    """Execute one pipeline command under its run directory.

    Its inputs load in the order declared, and its judge client is built
    only once they all have, so a bad input fails before any judge call.
    """
    if command not in COMMANDS:
        raise ConfigError(
            f"unknown command {command!r}; expected one of {tuple(COMMANDS)}"
        )
    handler, inputs, judge = COMMANDS[command]
    with RunContext(config, command) as ctx:
        loaded: list[Any] = []
        for key, load, required in inputs:
            unset = not required and not getattr(config.paths, key)
            loaded.append(None if unset else load(ctx, config.path(key), loaded))
        if judge:
            if config.mode != "stub":
                backend = HttpBackend()
            elif fixture := config.stub_fixture_path():
                backend = StubBackend.from_file(fixture)
            else:
                backend = StubBackend()
            loaded.insert(0, JudgeClient(backend, cache_dir=ctx.cache_dir))
        report = handler(ctx, *loaded)
        if command != "report":
            # The report command only re-renders; it must not disturb
            # the original run's log or stored report.
            ctx.finish(report)
        return report


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="feedbacklab",
        description=(
            "Pipelines for labeling reviewer feedback, forging preference "
            "data, and evaluating feedback generators."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        p = sub.add_parser(command)
        p.add_argument("--config", required=True, help="path to config JSON")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            dest="overrides",
            metavar="KEY=VALUE",
            help="override a config field via dotted path",
        )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config, args.overrides)
        report = run(args.command, config)
    except FeedbackLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception:
        traceback.print_exc()
        return 3
    summary = report.metadata.get("config_hash", "")[:RUN_ID_CHARS]
    print(f"{args.command}: ok (run {summary})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
