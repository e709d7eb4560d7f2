import dataclasses
import fcntl
import hashlib
import json
import logging
import os
import re
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import feedbacklab
from feedbacklab.cli import COMMANDS, main, run
from feedbacklab.config import (
    JUDGE_TASKS,
    THROUGHPUT_FIELDS,
    Flags,
    PathsConfig,
    PipelineConfig,
    QualityThresholds,
    Sampling,
    Thresholds,
    config_hash,
    load_config,
    parse_config,
)
from feedbacklab.consensus import HUMAN_HUMAN, HUMAN_MODEL, stratum_bounds
from feedbacklab.core import (
    AuthorAction,
    Decision,
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
from feedbacklab.errors import IngestError
from feedbacklab.ingest import load_corpus, make_store, save_corpus
from feedbacklab.judge import EndpointConfig, HttpBackend, StubBackend
from feedbacklab.prompts import PAIR_MATCH
from test_judgeclient import (
    GOOD,
    FakeResponse,
    FakeSession,
    bindings,
    completion_payload,
)

FIXTURE = Path(feedbacklab.__file__).parent / "fixtures" / "consensus_demo"
FIXTURE_CONFIG = str(FIXTURE / "config.json")

GOLDEN_CONSENSUS_TEXTS = {
    "R1": (
        "The evaluation lacks a comparison with the strongest recent "
        "baseline on the main benchmark."
    ),
    "R2": (
        "Missing comparison against the most competitive baseline in "
        "the experiments."
    ),
    "R3": (
        "Baseline comparison is absent for the primary task; the leading "
        "method should be added."
    ),
}
GOLDEN_MATCHED_MODEL_TEXT = (
    "The experiments would benefit from including the strongest recent "
    "baseline for comparison."
)


def snapshot(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def assert_unlocked(run_dir: Path) -> None:
    """A fresh non-blocking flock on the run's lock file succeeds."""
    fd = os.open(run_dir / "lock", os.O_RDWR)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
    finally:
        os.close(fd)


def only_run_dir(runs_root: Path) -> Path:
    dirs = [p for p in runs_root.iterdir() if p.is_dir()]
    assert len(dirs) == 1
    return dirs[0]


def read_report(run_dir: Path) -> dict:
    return json.loads(
        (run_dir / "artifacts" / "eval_report.json").read_text()
    )


def table_dict(report: dict, name: str) -> dict:
    table = report["tables"][name]
    return {row[0]: row[1:] for row in table["rows"]}


# ---- golden end-to-end on the bundled fixture ----


def test_consensus_eval_golden(tmp_path, capsys):
    rc = main(
        [
            "consensus-eval",
            "--config",
            FIXTURE_CONFIG,
            "--set",
            f"paths.runs_root={tmp_path}",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("consensus-eval: ok (run ")

    run_dir = only_run_dir(tmp_path)
    assert len(run_dir.name) == 16
    for name in (
        "artifacts/eval_report.json",
        "artifacts/match_edges.jsonl",
        "report.json",
        "report.csv",
        "report.md",
        "log.jsonl",
    ):
        assert (run_dir / name).exists(), name
    assert_unlocked(run_dir)

    report = read_report(run_dir)
    expected_members = sorted(
        make_unit_id("paper-001", reviewer, text)
        for reviewer, text in GOLDEN_CONSENSUS_TEXTS.items()
    )
    detail = report["details"]["consensus"]["paper-001"]
    assert detail["members"] == expected_members
    matched_id = make_unit_id(
        "paper-001", "demo-model", GOLDEN_MATCHED_MODEL_TEXT
    )
    assert detail["matched_model_units"] == [matched_id]
    assert len(detail["matched_consensus_units"]) == 2

    metrics = table_dict(report, "match_metrics")
    # four model units covered by k=5: every draw is the full set
    assert metrics["precision"] == ["0.250", "0.250", "0.250", "0.000"]
    assert metrics["recall"] == ["0.667", "0.667", "0.667", "0.000"]
    assert metrics["f1"] == ["0.364", "0.364", "0.364", "0.000"]
    assert report["metadata"]["papers_scored"] == 1
    assert report["metadata"]["seed"] == 0


def test_rerun_is_byte_identical(tmp_path):
    args = [
        "consensus-eval",
        "--config",
        FIXTURE_CONFIG,
        "--set",
        f"paths.runs_root={tmp_path}",
    ]
    assert main(args) == 0
    run_dir = only_run_dir(tmp_path)
    first = snapshot(run_dir)
    assert main(args) == 0
    assert only_run_dir(tmp_path) == run_dir
    assert snapshot(run_dir) == first


def segment_keys(segment: Path) -> list[str]:
    with open(segment, "rb") as fh:
        return json.loads(fh.readline())["keys"]


def test_torn_cache_entry_is_a_miss_and_is_rewritten(tmp_path, caplog, monkeypatch):
    args = [
        "consensus-eval",
        "--config",
        FIXTURE_CONFIG,
        "--set",
        f"paths.runs_root={tmp_path}",
    ]
    assert main(args) == 0
    run_dir = only_run_dir(tmp_path)
    first = snapshot(run_dir)
    completion = min((run_dir / "cache").glob("cmp-*.bin"))
    embedding = min((run_dir / "cache").glob("emb-*.bin"))
    torn = {segment: segment_keys(segment) for segment in (completion, embedding)}
    for segment in torn:
        segment.write_bytes(segment.read_bytes()[: segment.stat().st_size // 2])

    completed, embedded = [], []
    complete, embed = StubBackend.complete, StubBackend.embed

    def counting_complete(self, endpoint, template, *rest):
        completed.append(template.name)
        return complete(self, endpoint, template, *rest)

    def counting_embed(self, endpoint, texts):
        embedded.extend(texts)
        return embed(self, endpoint, texts)

    monkeypatch.setattr(StubBackend, "complete", counting_complete)
    monkeypatch.setattr(StubBackend, "embed", counting_embed)
    with caplog.at_level(logging.WARNING, logger="feedbacklab.judge"):
        assert main(args) == 0
    # every record of a torn segment is a miss, and only those are
    assert len(completed) == len(torn[completion])
    assert len(embedded) == len(torn[embedding])
    for segment in torn:
        assert caplog.text.count(f"unreadable entry {segment.name}") == 1
    assert snapshot(run_dir) == first


def test_report_rerenders_without_touching_log(tmp_path):
    args = ["--config", FIXTURE_CONFIG, "--set", f"paths.runs_root={tmp_path}"]
    assert main(["consensus-eval", *args]) == 0
    run_dir = only_run_dir(tmp_path)
    before = snapshot(run_dir)
    (run_dir / "report.md").unlink()
    assert main(["report", *args]) == 0
    assert snapshot(run_dir) == before


def test_report_requires_a_stored_run(tmp_path):
    rc = main(
        [
            "report",
            "--config",
            FIXTURE_CONFIG,
            "--set",
            f"paths.runs_root={tmp_path}",
        ]
    )
    assert rc == 3


@pytest.mark.parametrize("damage", ["truncated", "no tables"])
def test_report_on_a_damaged_stored_report_exits_3(tmp_path, capsys, damage):
    args = ["--config", FIXTURE_CONFIG, "--set", f"paths.runs_root={tmp_path}"]
    assert main(["consensus-eval", *args]) == 0
    stored = only_run_dir(tmp_path) / "artifacts" / "eval_report.json"
    if damage == "truncated":
        stored.write_bytes(stored.read_bytes()[: stored.stat().st_size // 2])
    else:
        data = json.loads(stored.read_text())
        del data["tables"]
        stored.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["report", *args]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: report: stored report {stored} is unreadable")
    assert "rerun the pipeline command" in err and "Traceback" not in err


HOLD_LOCK = """
import fcntl, os, sys
fd = os.open(sys.argv[1], os.O_CREAT | os.O_RDWR)
fcntl.flock(fd, fcntl.LOCK_EX)
print("locked", flush=True)
sys.stdin.read()
"""


def test_locked_run_dir_fails_cleanly(tmp_path, capsys):
    config = load_config(
        FIXTURE_CONFIG, [f"paths.runs_root={tmp_path}"]
    )
    run_dir = tmp_path / config_hash(config)[:16]
    run_dir.mkdir(parents=True)
    args = [
        "consensus-eval",
        "--config",
        FIXTURE_CONFIG,
        "--set",
        f"paths.runs_root={tmp_path}",
    ]
    # another process holds the run directory's lock
    with subprocess.Popen(
        [sys.executable, "-c", HOLD_LOCK, str(run_dir / "lock")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    ) as holder:
        try:
            assert holder.stdout.readline() == "locked\n"
            assert main(args) == 3
            err = capsys.readouterr().err
            assert err == (
                f"error: run directory {run_dir} is locked by another process\n"
            )
            # failing to acquire must not release the holder's lock
            with pytest.raises(BlockingIOError):
                assert_unlocked(run_dir)
        finally:
            holder.kill()
    # the kernel dropped the lock when its holder was killed
    assert main(args) == 0


def test_lock_released_after_failure(tmp_path):
    # missing stored report raises inside the context; the lock is released
    config = load_config(
        FIXTURE_CONFIG, [f"paths.runs_root={tmp_path}"]
    )
    assert main(
        [
            "report",
            "--config",
            FIXTURE_CONFIG,
            "--set",
            f"paths.runs_root={tmp_path}",
        ]
    ) == 3
    run_dir = tmp_path / config_hash(config)[:16]
    assert_unlocked(run_dir)


def test_readme_config_example_parses(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration\n", 1)[1]
    example = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
    (tmp_path / example["stub_fixture"]).write_text("{}")
    config = parse_config(example, base_dir=tmp_path)
    assert set(config.endpoints) == set(example["endpoints"])


# ---- exit codes ----


def test_bad_config_exits_2(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"mode": "telepathy"}))
    assert main(["ingest", "--config", str(cfg)]) == 2
    assert main(["ingest", "--config", str(tmp_path / "absent.json")]) == 2


@pytest.mark.parametrize(
    "data, message",
    [
        ({"endpoints": []}, "endpoints must be an object"),
        ({"endpoints": {"pair_match": 4}}, "endpoints.pair_match must be an object"),
        (
            {"endpoints": {"pair_match": {"max_concurrency": 2.5}}},
            "endpoints.pair_match.max_concurrency must be an integer",
        ),
        ({"sampling": {"k": "5"}}, "sampling.k must be an integer"),
        ({"thresholds": 3}, "thresholds must be an object"),
        ({"thresholds": {"dedup": True}}, "thresholds.dedup must be a number"),
        ({"thresholds": {"quality": []}}, "thresholds.quality must be an object"),
        ({"paths": {"corpus_root": 1}}, "paths.corpus_root must be a string"),
        ({"flags": {"macro": 1}}, "flags.macro must be a boolean"),
        ({"stub_fixture": 5}, "stub_fixture must be a string"),
        ({"sampling": {"seed": -1}}, "sampling.seed=-1 must be >= 0"),
        (
            {"thresholds": {"quality": {"accuracy": "x"}}},
            "thresholds.quality.accuracy must be a number",
        ),
        ({"thresholds": {"delta": 6}}, "thresholds.delta=6 exceeds sampling.k=5"),
    ],
)
def test_malformed_config_section_exits_2(tmp_path, capsys, data, message):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**data, "split": ["test"]}))
    assert main(["ingest", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: configuration invalid:\n")
    # every problem is collected, not only the first
    assert f"  - {message}\n" in err and "  - split must be a string\n" in err


def test_unknown_command_rejected_by_parser():
    with pytest.raises(SystemExit):
        main(["frobnicate", "--config", "x.json"])
    assert set(COMMANDS) == {
        "ingest",
        "parse",
        "forge-sft",
        "forge-dpo",
        "calibrate",
        "consensus-eval",
        "success-eval",
        "report",
    }


def test_run_rejects_unknown_command():
    config = load_config(FIXTURE_CONFIG, [])
    from feedbacklab.errors import ConfigError

    with pytest.raises(ConfigError):
        run("nope", config)


# ---- corpus helpers for synthetic commands ----


def labeled_unit(pid, reviewer, text, successful=True):
    return FeedbackUnit(
        id=make_unit_id(pid, reviewer, text),
        paper_id=pid,
        reviewer_id=reviewer,
        source=Source.HUMAN,
        text=text,
        validity=Validity.AGREED if successful else Validity.REBUTTED,
        action=AuthorAction.WILL_REVISE
        if successful
        else AuthorAction.NO_REVISION_CONTEST,
    )


def synth_paper(pid, units, threads=("R1",)):
    return PaperRecord(
        paper_id=pid,
        title=f"Paper {pid}",
        abstract="An abstract.",
        venue_year=2026,
        decision=Decision.ACCEPTED,
        threads=tuple(
            ReviewThread(
                reviewer_id=r,
                turns=(
                    Turn(speaker=Speaker.REVIEWER, text=f"review by {r}"),
                    Turn(speaker=Speaker.AUTHOR, text="thanks"),
                ),
            )
            for r in threads
        ),
        units=tuple(units),
        body_markdown=f"# Body of {pid}",
    )


def write_corpus(root, papers, split="test"):
    store = make_store(papers, {split: [p.paper_id for p in papers]})
    save_corpus(store, root)
    return root


def write_config(path, **data):
    base = {"mode": "stub", "split": "test"}
    base.update(data)
    path.write_text(json.dumps(base))
    return str(path)


def test_ingest_command(tmp_path):
    papers = [
        synth_paper(
            "p1",
            [
                labeled_unit("p1", "R1", "point one"),
                labeled_unit("p1", "R1", "point two", successful=False),
            ],
        ),
        synth_paper("p2", []),
    ]
    write_corpus(tmp_path / "corpus", papers)
    cfg = write_config(
        tmp_path / "config.json",
        paths={"corpus_root": "corpus", "runs_root": "runs"},
    )
    assert main(["ingest", "--config", cfg]) == 0
    report = read_report(only_run_dir(tmp_path / "runs"))
    corpus = table_dict(report, "corpus")
    assert corpus["papers"] == ["2"]
    assert corpus["split:test"] == ["2"]
    assert corpus["decision:accepted"] == ["2"]
    assert corpus["units"] == ["2"]
    assert corpus["successful_units"] == ["1"]


PARSE_STUB = {
    "templates": {
        "thread_parse": {
            "default": {
                "units": [
                    {
                        "feedback_text": "needs a baseline",
                        "author_response_text": "we will add one",
                        "validity": "agreed",
                        "author_action": "will_revise",
                        "aspects": ["comparison_previous_studies"],
                        "dimensions": ["feed_back"],
                    }
                ],
                "skipped_positive_count": 1,
            }
        }
    }
}


def parse_setup(tmp_path, papers):
    write_corpus(tmp_path / "corpus", papers)
    (tmp_path / "stub.json").write_text(json.dumps(PARSE_STUB))
    return write_config(
        tmp_path / "config.json",
        stub_fixture="stub.json",
        paths={"corpus_root": "corpus", "runs_root": "runs"},
    )


def test_parse_command_writes_store_and_clean_audit(tmp_path):
    cfg = parse_setup(tmp_path, [synth_paper("p1", [], threads=("R1", "R2"))])
    assert main(["parse", "--config", cfg]) == 0
    run_dir = only_run_dir(tmp_path / "runs")

    audit_lines = [
        json.loads(l)
        for l in (run_dir / "artifacts" / "parse_audit.jsonl")
        .read_text()
        .splitlines()
    ]
    assert len(audit_lines) == 2
    for entry in audit_lines:
        assert "cache_hit" not in entry
        assert entry["unit_count"] == 1
        assert entry["dropped_note"] == 1

    parsed = load_corpus(run_dir / "artifacts" / "parsed_store")
    units = parsed.records["p1"].units
    # one identical unit text per reviewer thread
    assert [u.reviewer_id for u in units] == ["R1", "R2"]
    assert all(u.validity is Validity.AGREED for u in units)

    summary = table_dict(read_report(run_dir), "parse_summary")
    assert summary["units"] == ["2"]
    assert summary["skipped_positive"] == ["2"]


def test_forge_sft_command(tmp_path):
    papers = [
        synth_paper(
            "p1",
            [
                labeled_unit("p1", "R1", "add the missing ablation"),
                labeled_unit("p1", "R1", "not useful", successful=False),
            ],
        )
    ]
    write_corpus(tmp_path / "corpus", papers)
    cfg = write_config(
        tmp_path / "config.json",
        paths={"corpus_root": "corpus", "runs_root": "runs"},
    )
    assert main(["forge-sft", "--config", cfg]) == 0
    run_dir = only_run_dir(tmp_path / "runs")
    records = [
        json.loads(l)
        for l in (run_dir / "artifacts" / "sft.jsonl").read_text().splitlines()
    ]
    assert len(records) == 1
    assert records[0]["messages"][1]["content"] == "add the missing ablation"
    manifest = json.loads(
        (run_dir / "artifacts" / "sft_manifest.json").read_text()
    )
    assert manifest["kind"] == "sft" and manifest["record_count"] == 1


def forge_dpo_setup(tmp_path, n_successful=7, n_weak=7, other_papers=()):
    texts = [f"distinct successful point number {i}" for i in range(n_successful)]
    weak = [f"distinct weak point number {i}" for i in range(n_weak)]
    units = [labeled_unit("p1", "R1", t) for t in texts] + [
        labeled_unit("p1", "R1", t, successful=False) for t in weak
    ]
    write_corpus(tmp_path / "corpus", [synth_paper("p1", units), *other_papers])
    # orthogonal embeddings so dedup keeps everything
    dim = 16
    embeddings = {}
    for i, t in enumerate(texts + weak + ["corrupted vague rewrite"]):
        vec = [0.0] * dim
        vec[i % dim] = 1.0
        embeddings[t] = vec
    stub = {
        "embedding_dim": dim,
        "embeddings": embeddings,
        "templates": {
            "corruption": {
                "default": {
                    "generic": "corrupted generic rewrite",
                    "vague": "corrupted vague rewrite",
                    "inaccurate": "corrupted inaccurate rewrite",
                    "nonessential": "corrupted nonessential rewrite",
                    "unsupportive": "corrupted unsupportive rewrite",
                }
            },
            "corruption_verify": {
                "default": {
                    "results": [
                        {
                            "rewrite_index": i,
                            "predicted_dimension": "vague",
                            "target_degradation": 3,
                            "collateral_preservation": 3,
                        }
                        for i in range(5)
                    ]
                }
            },
        },
    }
    (tmp_path / "stub.json").write_text(json.dumps(stub))
    return write_config(
        tmp_path / "config.json",
        stub_fixture="stub.json",
        paths={"corpus_root": "corpus", "runs_root": "runs"},
        sampling={"max_corruption_units_per_paper": 2},
    )


def test_forge_dpo_command(tmp_path):
    cfg = forge_dpo_setup(tmp_path)
    assert main(["forge-dpo", "--config", cfg]) == 0
    run_dir = only_run_dir(tmp_path / "runs")
    pairs = [
        json.loads(l)
        for l in (run_dir / "artifacts" / "dpo.jsonl").read_text().splitlines()
    ]
    kinds = [p["pair_kind"] for p in pairs]
    assert kinds == ["real_label", "corruption"]
    real, corruption = pairs
    assert (
        real["chosen_success_count"] - real["rejected_success_count"] >= 2
    )
    # the blind verifier called everything vague: only that variant is kept
    assert corruption["rejected_items"][0] == "corrupted vague rewrite"
    assert corruption["chosen_items"][1:] == corruption["rejected_items"][1:]

    filter_lines = [
        json.loads(l)
        for l in (run_dir / "artifacts" / "corruption_filter.jsonl")
        .read_text()
        .splitlines()
    ]
    assert len(filter_lines) == 2  # max_corruption_units_per_paper
    for entry in filter_lines:
        for dim, row in entry["per_dimension"].items():
            assert row["kept"] == (dim == "vague")
            assert row["predicted_dimension"] == "vague"

    report = read_report(run_dir)
    agg = table_dict(report, "corruption_filter")
    assert agg["vague"] == ["2", "1.000", "3.000", "3.000", "1.000"]
    assert agg["generic"][1] == "0.000"  # never predicted correctly

    manifest = json.loads(
        (run_dir / "artifacts" / "dpo_manifest.json").read_text()
    )
    assert manifest["kind"] == "dpo" and manifest["record_count"] == 2


def test_forge_dpo_logs_skipped_papers_in_paper_order(tmp_path):
    # p0 has no labeled units; p2's two units fill no set of k=5 items.
    p0 = synth_paper("p0", [])
    p2 = synth_paper(
        "p2",
        [
            labeled_unit("p2", "R1", "a lone strong point"),
            labeled_unit("p2", "R1", "a lone weak point", successful=False),
        ],
    )
    cfg = forge_dpo_setup(tmp_path, other_papers=(p2, p0))
    assert main(["forge-dpo", "--config", cfg]) == 0
    run_dir = only_run_dir(tmp_path / "runs")
    log = [
        json.loads(line) for line in (run_dir / "log.jsonl").read_text().splitlines()
    ]
    assert [e["event"] for e in log] == [
        "load_corpus",
        "skip_paper",
        "skip_paper",
        "forge_dpo",
    ]
    # Paper order is the split's order, p1 p2 p0, not sorted ids.
    assert log[1:3] == [
        {"event": "skip_paper", "paper_id": "p2", "reason": "no qualifying pair"},
        {"event": "skip_paper", "paper_id": "p0", "reason": "no labeled units"},
    ]
    assert log[3] == {"event": "forge_dpo", "records": 2}
    before = snapshot(run_dir)
    assert main(["forge-dpo", "--config", cfg]) == 0
    assert snapshot(run_dir) == before


KILLED_FORGE_DPO = """
import os, signal, sys
from feedbacklab import cli, judge

embed = judge.JudgeClient.embed
calls = []

def dying_embed(self, *args):
    calls.append(1)
    if len(calls) == 2:
        os.kill(os.getpid(), signal.SIGKILL)
    return embed(self, *args)

judge.JudgeClient.embed = dying_embed
sys.exit(cli.main(["forge-dpo", "--config", sys.argv[1]]))
"""


def outside_cache(run_dir: Path) -> dict[str, str]:
    return {
        name: digest
        for name, digest in snapshot(run_dir).items()
        if not name.startswith("cache/")
    }


def test_forge_dpo_killed_mid_write_leaves_the_run_directory_whole(tmp_path):
    p2 = synth_paper(
        "p2",
        [
            labeled_unit("p2", "R1", "a lone strong point"),
            labeled_unit("p2", "R1", "a lone weak point", successful=False),
        ],
    )
    cfg = forge_dpo_setup(tmp_path, other_papers=(p2,))
    for command in ("forge-dpo", "forge-sft", "forge-dpo"):
        assert main([command, "--config", cfg]) == 0
    run_dir = only_run_dir(tmp_path / "runs")
    clean = outside_cache(run_dir)

    # A warm forge-dpo dies at p2's embed call, while dpo.jsonl is open.
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(
            [str(Path(feedbacklab.__file__).parents[1])]
            + list(filter(None, [os.environ.get("PYTHONPATH")]))
        ),
    }
    killed = subprocess.run(
        [sys.executable, "-c", KILLED_FORGE_DPO, cfg],
        env=env,
        capture_output=True,
        timeout=60,
    )
    assert killed.returncode == -signal.SIGKILL
    after_kill = outside_cache(run_dir)
    for name in ("artifacts/dpo.jsonl", "artifacts/dpo_manifest.json"):
        assert after_kill[name] == clean[name]
    assert "artifacts/dpo.jsonl.tmp" in after_kill

    # No stale lock blocks a different command, and it clears the tmp file.
    assert main(["forge-sft", "--config", cfg]) == 0
    assert list(run_dir.rglob("*.tmp")) == []
    assert main(["forge-dpo", "--config", cfg]) == 0
    assert outside_cache(run_dir) == clean


def calibrate_setup(tmp_path):
    bounds = stratum_bounds()
    hh_matches = [0, 0, 0, 0, 1, 13, 15]
    hm_matches = [0, 0, 0, 1, 2, 8, 13]
    pairs = []
    annotations = []
    for pair_type, matches in (
        (HUMAN_HUMAN, hh_matches),
        (HUMAN_MODEL, hm_matches),
    ):
        tag = "hh" if pair_type == HUMAN_HUMAN else "hm"
        for idx, (lo, hi) in enumerate(bounds):
            for j in range(20):
                left = f"{tag}_{idx}_{j}_L"
                right = f"{tag}_{idx}_{j}_R"
                pairs.append(
                    {
                        "left_unit_id": left,
                        "right_unit_id": right,
                        "pair_type": pair_type,
                        "cosine": (lo + hi) / 2,
                    }
                )
                # two annotators agree, a third dissents: majority rules
                verdict = j < matches[idx]
                for annotator, vote in (
                    ("a1", verdict),
                    ("a2", verdict),
                    ("a3", not verdict),
                ):
                    annotations.append(
                        {
                            "unit_id": f"{left}|{right}",
                            "annotator_id": annotator,
                            "match_label": vote,
                        }
                    )
    (tmp_path / "pairs.jsonl").write_text(
        "".join(canonical_json(p) + "\n" for p in pairs)
    )
    (tmp_path / "annotations.jsonl").write_text(
        "".join(canonical_json(a) + "\n" for a in annotations)
    )
    return write_config(
        tmp_path / "config.json",
        paths={
            "annotated_pairs": "pairs.jsonl",
            "annotations": "annotations.jsonl",
            "runs_root": "runs",
        },
    )


def test_calibrate_command(tmp_path):
    cfg = calibrate_setup(tmp_path)
    assert main(["calibrate", "--config", cfg]) == 0
    report = read_report(only_run_dir(tmp_path / "runs"))
    thresholds = table_dict(report, "thresholds")
    assert thresholds["human_human"] == ["0.550"]
    assert thresholds["human_model"] == ["0.450"]
    rates = report["tables"]["match_rates"]["rows"]
    hh_rates = [r[2] for r in rates if r[0] == "human_human"]
    assert hh_rates == [
        "0.000",
        "0.000",
        "0.000",
        "0.000",
        "0.050",
        "0.650",
        "0.750",
    ]


def success_eval_setup(tmp_path):
    # p0 and p2 have no model feedback
    papers = [synth_paper(pid, []) for pid in ("p0", "p1", "p2")]
    write_corpus(tmp_path / "corpus", papers)
    model_units = [
        {"paper_id": "p1", "text": "good grounded point", "model_name": "m"},
        {"paper_id": "p1", "text": "vague point", "model_name": "m"},
    ]
    (tmp_path / "model.jsonl").write_text(
        "".join(canonical_json(u) + "\n" for u in model_units)
    )
    good = {
        d: {"score": 5, "justification": "fine"}
        for d in (
            "accuracy",
            "prioritisation",
            "constructive_tone",
            "paper_specific_grounding",
            "actionability",
        )
    }
    bad = {**good, "accuracy": {"score": 2, "justification": "wrong"}}
    stub = {
        "templates": {
            "quality_score": {
                "default": good,
                "cases": [
                    {"when": {"feedback_text": "vague point"}, "respond": bad}
                ],
            },
            "response_predict": {
                "default": {
                    "validity": "agreed",
                    "author_action": "will_revise",
                }
            },
        }
    }
    (tmp_path / "stub.json").write_text(json.dumps(stub))
    return write_config(
        tmp_path / "config.json",
        stub_fixture="stub.json",
        paths={
            "corpus_root": "corpus",
            "model_feedback": "model.jsonl",
            "runs_root": "runs",
        },
    )


def test_success_eval_command(tmp_path):
    cfg = success_eval_setup(tmp_path)
    assert main(["success-eval", "--config", cfg]) == 0
    run_dir = only_run_dir(tmp_path / "runs")
    evaluations = [
        json.loads(l)
        for l in (run_dir / "artifacts" / "unit_evaluations.jsonl")
        .read_text()
        .splitlines()
    ]
    assert [e["passes_quality"] for e in evaluations] == [True, False]
    report = read_report(run_dir)
    rates = table_dict(report, "success_rates")
    # one of two units passes the filter; predictions always succeed
    assert rates["combined"][0] == "0.500"
    assert rates["combined"][4] == "0.000"  # two units <= k: no width
    assert rates["validity_only"][0] == "0.500"
    assert report["metadata"]["units_scored"] == 2
    assert report["metadata"]["papers_scored"] == 1
    log = [
        json.loads(line) for line in (run_dir / "log.jsonl").read_text().splitlines()
    ]
    assert log[1:] == [
        {"event": "skip_paper", "paper_id": pid, "reason": "no model feedback"}
        for pid in ("p0", "p2")
    ] + [{"event": "success_eval", "papers": 1, "units": 2}]


def test_success_eval_combined_row_filters_quality_whatever_the_flag(tmp_path):
    # Every unit fails quality but is predicted agreed/will_revise. With
    # the proxy-mode filter off, only the proxy rows count them; both
    # columns of the combined row stay quality-filtered.
    write_corpus(tmp_path / "corpus", [synth_paper("p1", [])])
    (tmp_path / "model.jsonl").write_text(
        "".join(
            canonical_json({"paper_id": "p1", "text": f"point {i}"}) + "\n"
            for i in range(3)
        )
    )
    weak = {
        d: {"score": 1, "justification": "weak"}
        for d in (
            "accuracy",
            "prioritisation",
            "constructive_tone",
            "paper_specific_grounding",
            "actionability",
        )
    }
    stub = {
        "templates": {
            "quality_score": {"default": weak},
            "response_predict": {
                "default": {"validity": "agreed", "author_action": "will_revise"}
            },
        }
    }
    (tmp_path / "stub.json").write_text(json.dumps(stub))
    cfg = write_config(
        tmp_path / "config.json",
        stub_fixture="stub.json",
        flags={"quality_filter_in_proxy_modes": False},
        paths={
            "corpus_root": "corpus",
            "model_feedback": "model.jsonl",
            "runs_root": "runs",
        },
    )
    assert main(["success-eval", "--config", cfg]) == 0
    rates = table_dict(read_report(only_run_dir(tmp_path / "runs")), "success_rates")
    assert rates["combined"] == ["0.000", "0.000", "0.000", "0.000", "0.000"]
    for mode in ("validity_only", "action_only"):
        assert rates[mode] == ["1.000", "1.000", "1.000", "1.000", "0.000"]


def assert_same_bytes_at_any_concurrency(tmp_path, command, cfg, *extra):
    """Cold runs of command with every endpoint's max_concurrency at 1, 4
    and 16 leave the same run directory, cache included; each is kept
    as tmp_path/done-<n>."""
    runs = {}
    for max_concurrency in (1, 4, 16):
        args = [command, "--config", cfg, *extra]
        for task in JUDGE_TASKS:
            args += ["--set", f"endpoints.{task}.max_concurrency={max_concurrency}"]
        assert main(args) == 0
        run_dir = only_run_dir(tmp_path / "runs")
        runs[max_concurrency] = (run_dir.name, snapshot(run_dir))
        shutil.move(run_dir, tmp_path / f"done-{max_concurrency}")
    assert runs[1] == runs[4] == runs[16]
    assert any(name.startswith("cache/") for name in runs[1][1])


def test_parse_same_bytes_at_any_concurrency(tmp_path):
    papers = [synth_paper(f"p{i}", [], threads=("R1", "R2", "R3")) for i in range(6)]
    cfg = parse_setup(tmp_path, papers)
    assert_same_bytes_at_any_concurrency(tmp_path, "parse", cfg)


def test_forge_dpo_same_bytes_at_any_concurrency(tmp_path):
    cfg = forge_dpo_setup(tmp_path)
    assert_same_bytes_at_any_concurrency(
        tmp_path, "forge-dpo", cfg, "--set", "sampling.max_corruption_units_per_paper=7"
    )


def test_consensus_eval_same_bytes_at_any_concurrency(tmp_path):
    assert_same_bytes_at_any_concurrency(
        tmp_path,
        "consensus-eval",
        FIXTURE_CONFIG,
        "--set",
        f"paths.runs_root={tmp_path / 'runs'}",
    )


def test_success_eval_same_bytes_at_any_concurrency(tmp_path):
    papers = [synth_paper(f"p{i}", []) for i in range(3)]
    write_corpus(tmp_path / "corpus", papers)
    (tmp_path / "model.jsonl").write_text(
        "".join(
            canonical_json({"paper_id": p.paper_id, "text": f"point {j}"}) + "\n"
            for p in papers
            for j in range(5)
        )
    )
    good = {
        d: {"score": 5, "justification": "fine"}
        for d in (
            "accuracy",
            "prioritisation",
            "constructive_tone",
            "paper_specific_grounding",
            "actionability",
        )
    }
    weak = {**good, "accuracy": {"score": 1, "justification": "wrong"}}
    stub = {
        "templates": {
            "quality_score": {
                "default": good,
                "cases": [
                    {"when": {"feedback_text": "point 3"}, "respond": weak}
                ],
            },
            "response_predict": {
                "default": {"validity": "agreed", "author_action": "will_revise"},
                "cases": [
                    {
                        "when": {"feedback_text": "point 1"},
                        "respond": {
                            "validity": "rebutted",
                            "author_action": "no_revision_contest",
                        },
                    }
                ],
            },
        }
    }
    (tmp_path / "stub.json").write_text(json.dumps(stub))
    cfg = write_config(
        tmp_path / "config.json",
        stub_fixture="stub.json",
        sampling={"k": 2, "iterations": 50},
        paths={
            "corpus_root": "corpus",
            "model_feedback": "model.jsonl",
            "runs_root": "runs",
        },
    )
    assert_same_bytes_at_any_concurrency(tmp_path, "success-eval", cfg)
    evaluations = (
        (tmp_path / "done-4" / "artifacts" / "unit_evaluations.jsonl")
        .read_text()
        .splitlines()
    )
    assert len(evaluations) == 15


def test_success_eval_judge_garbage_exits_4(tmp_path):
    papers = [synth_paper("p1", [])]
    write_corpus(tmp_path / "corpus", papers)
    (tmp_path / "model.jsonl").write_text(
        canonical_json({"paper_id": "p1", "text": "a point"}) + "\n"
    )
    stub = {
        "templates": {
            # a bare string response is returned verbatim: never valid JSON
            "quality_score": {"default": "I refuse to answer with JSON"},
        }
    }
    (tmp_path / "stub.json").write_text(json.dumps(stub))
    cfg = write_config(
        tmp_path / "config.json",
        stub_fixture="stub.json",
        paths={
            "corpus_root": "corpus",
            "model_feedback": "model.jsonl",
            "runs_root": "runs",
        },
    )
    assert main(["success-eval", "--config", cfg]) == 4


def test_model_feedback_validation(tmp_path):
    papers = [synth_paper("p1", [])]
    write_corpus(tmp_path / "corpus", papers)
    (tmp_path / "model.jsonl").write_text(
        canonical_json({"paper_id": "ghost", "text": "a point"}) + "\n"
    )
    cfg = write_config(
        tmp_path / "config.json",
        paths={
            "corpus_root": "corpus",
            "model_feedback": "model.jsonl",
            "runs_root": "runs",
        },
    )
    assert main(["success-eval", "--config", cfg]) == 3


def test_blank_model_feedback_text_names_file_and_line(tmp_path, capsys):
    demo = tmp_path / "demo"
    shutil.copytree(FIXTURE, demo)
    feedback = demo / "model_feedback.jsonl"
    lines = feedback.read_text().splitlines()
    paper_id = json.loads(lines[0])["paper_id"]
    lines.append(canonical_json({"paper_id": paper_id, "text": "   "}))
    feedback.write_text("\n".join(lines) + "\n")
    code = main(["consensus-eval", "--config", str(demo / "config.json")])
    err = capsys.readouterr().err
    assert code == 3
    assert re.search(
        rf"model_feedback\.jsonl:{len(lines)}: malformed model feedback", err
    )
    assert "Traceback" not in err


def test_cli_loaders_name_file_and_line(tmp_path):
    write_corpus(tmp_path / "corpus", [synth_paper("p1", [])])
    (tmp_path / "model.jsonl").write_text(
        canonical_json({"paper_id": "p1", "text": "a point"}) + "\n"
        + '["p1", "another point"]\n'
    )
    cfg = write_config(
        tmp_path / "config.json",
        paths={
            "corpus_root": "corpus",
            "model_feedback": "model.jsonl",
            "annotated_pairs": "pairs.jsonl",
            "annotations": "annotations.jsonl",
            "runs_root": "runs",
        },
    )
    config = load_config(cfg)
    with pytest.raises(IngestError, match=r"model\.jsonl:2: malformed model feedback"):
        run("success-eval", config)
    pair = {
        "left_unit_id": "a",
        "right_unit_id": "b",
        "pair_type": HUMAN_HUMAN,
        "cosine": 0.5,
    }
    for bad in ('["a", "b"]', canonical_json({**pair, "cosine": "high"})):
        (tmp_path / "pairs.jsonl").write_text(canonical_json(pair) + "\n" + bad + "\n")
        with pytest.raises(IngestError, match=r"pairs\.jsonl:2: malformed pair"):
            run("calibrate", config)


def test_record_checks_name_file_and_line(tmp_path, capsys):
    # The records' own checks (MatchEdge, AnnotationRecord) raise inside
    # the reader, which must still name path:line, once.
    cfg = write_config(
        tmp_path / "config.json",
        paths={
            "annotated_pairs": "pairs.jsonl",
            "annotations": "annotations.jsonl",
            "runs_root": "runs",
        },
    )
    pair = {
        "left_unit_id": "a",
        "right_unit_id": "b",
        "pair_type": HUMAN_HUMAN,
        "cosine": 0.5,
    }
    label = {"unit_id": "a|b", "annotator_id": "a1", "match_label": True}
    for name, bad in (
        ("pairs.jsonl", {**pair, "pair_type": "hh"}),
        ("annotations.jsonl", {"unit_id": "a|b", "annotator_id": "a2"}),
    ):
        good = {"pairs.jsonl": pair, "annotations.jsonl": label}
        for file, line in good.items():
            rows = [line, bad] if file == name else [line]
            (tmp_path / file).write_text(
                "".join(canonical_json(r) + "\n" for r in rows)
            )
        assert main(["calibrate", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert err.count(f"{name}:") == 1
        assert f"{name}:2: malformed " in err
        assert "Traceback" not in err


def test_set_overrides_and_hash_sensitivity(tmp_path):
    papers = [synth_paper("p1", [labeled_unit("p1", "R1", "a point")])]
    write_corpus(tmp_path / "corpus", papers)
    cfg = write_config(
        tmp_path / "config.json",
        paths={"corpus_root": "corpus", "runs_root": "runs"},
    )
    assert main(["ingest", "--config", cfg]) == 0
    assert main(["ingest", "--config", cfg, "--set", "sampling.seed=9"]) == 0
    runs = sorted(p.name for p in (tmp_path / "runs").iterdir())
    assert len(runs) == 2  # the seed participates in the config hash

    seeded = load_config(cfg, ["sampling.seed=9"])
    assert seeded.sampling.seed == 9  # JSON-typed override
    named = load_config(cfg, ["split=test"])
    assert named.split == "test"  # bare string fallback
    with pytest.raises(Exception):
        load_config(cfg, ["sampling.seed"])  # missing '='


def test_throughput_settings_do_not_change_the_run_id(tmp_path):
    endpoint = {"model_name": "judge-a", "temperature": 0.0}
    cfg_a = write_config(
        tmp_path / "a.json",
        endpoints={"quality_score": endpoint},
    )
    cfg_b = write_config(
        tmp_path / "b.json",
        endpoints={
            "quality_score": {
                **endpoint,
                "requests_per_minute": 6000,
                "max_concurrency": 32,
            }
        },
    )
    assert config_hash(load_config(cfg_a)) == config_hash(load_config(cfg_b))
    other_model = load_config(cfg_a, ["endpoints.quality_score.model_name=b"])
    assert config_hash(other_model) != config_hash(load_config(cfg_a))
    # Every other setting, down to each leaf, mints a new run id.
    base = load_config(cfg_a)
    walked = set()
    for name, changed in leaf_variants(base):
        walked.add(name)
        throughput = name.rsplit(".", 1)[-1] in THROUGHPUT_FIELDS
        assert (config_hash(changed) == config_hash(base)) == throughput, name
    assert {
        "base_dir",
        "endpoints.quality_score.extra_params",
        "endpoints.quality_score.max_concurrency",
        "thresholds.quality.accuracy",
        "flags.macro",
    } <= walked


def other_value(value):
    """A different value of value's type, valid wherever it stands."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value / 2 if value else 0.5
    if isinstance(value, str):
        return "live" if value == "stub" else value + "x"
    if isinstance(value, Path):
        return value / "x"
    return {**value, "top_p": 0.9}


def leaf_variants(obj, prefix=""):
    """(dotted name, obj with only that leaf changed) for every leaf
    field under the dataclass obj, each configured endpoint's included."""
    for f in dataclasses.fields(obj):
        name, value = prefix + f.name, getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            for leaf, changed in leaf_variants(value, name + "."):
                yield leaf, dataclasses.replace(obj, **{f.name: changed})
        elif f.name == "endpoints":
            for task, endpoint in value.items():
                for leaf, changed in leaf_variants(endpoint, f"{name}.{task}."):
                    endpoints = {**value, task: changed}
                    yield leaf, dataclasses.replace(obj, endpoints=endpoints)
        else:
            yield name, dataclasses.replace(obj, **{f.name: other_value(value)})


CONFIG_CLASSES = (
    PipelineConfig,
    Thresholds,
    QualityThresholds,
    Sampling,
    PathsConfig,
    Flags,
    EndpointConfig,
)
# Reads made inside these decide nothing: hashing and parsing read every
# field, __post_init__ only checks values, and PathsConfig.resolved
# resolves every path (the keys its callers look up count instead).
NOT_DECIDING = {"config_hash", "parse_config", "__post_init__", "resolved"}


def deciding_read():
    """Whether the read that called the caller decides behaviour."""
    frame = sys._getframe(2)
    while frame is not None:
        if frame.f_code.co_name in NOT_DECIDING:
            return False
        frame = frame.f_back
    return True


def test_every_config_setting_is_read(tmp_path, monkeypatch):
    monkeypatch.setenv("TEST_JUDGE_KEY", "sekret")
    live = {"base_url": "http://judge.local/v1", "api_key_env": "TEST_JUDGE_KEY"}
    base = parse_config({"endpoints": {"pair_match": live}}, base_dir=tmp_path)
    owners = {}  # leaf name -> (class name, field name)
    for name, _ in leaf_variants(base):
        *parents, leaf = name.split(".")
        obj = base
        for part in parents:
            obj = obj[part] if isinstance(obj, dict) else getattr(obj, part)
        owners[name] = (type(obj).__name__, leaf)

    reads = set()

    def recording(cls):
        names = {f.name for f in dataclasses.fields(cls)}

        def __getattribute__(self, name):
            if name in names and deciding_read():
                reads.add((cls.__name__, name))
            return object.__getattribute__(self, name)

        return __getattribute__

    class Lookups(dict):
        def __getitem__(self, key):
            if deciding_read():
                reads.add(("PathsConfig", key))
            return super().__getitem__(key)

    for cls in CONFIG_CLASSES:
        monkeypatch.setattr(cls, "__getattribute__", recording(cls))
    resolved = PathsConfig.resolved
    monkeypatch.setattr(
        PathsConfig, "resolved", lambda self, base: Lookups(resolved(self, base))
    )

    demo = ["--config", FIXTURE_CONFIG, "--set", f"paths.runs_root={tmp_path}"]
    for command in ("ingest", "consensus-eval", "report"):
        assert main([command, *demo]) == 0
    for command, setup in (
        ("parse", lambda root: parse_setup(root, [synth_paper("p1", [])])),
        ("forge-sft", forge_dpo_setup),
        ("forge-dpo", forge_dpo_setup),
        ("calibrate", calibrate_setup),
        ("success-eval", success_eval_setup),
    ):
        root = tmp_path / command
        root.mkdir()
        assert main([command, "--config", setup(root)]) == 0, command
    session = FakeSession([FakeResponse(200, completion_payload(GOOD))])
    HttpBackend(session=session, sleeper=lambda s: None).complete(
        base.endpoint("pair_match"), PAIR_MATCH, bindings(), "s", "u"
    )

    assert [name for name, owner in owners.items() if owner not in reads] == []
    walked = {"base_dir", "paths.runs_root", "endpoints.pair_match.api_key_env"}
    assert walked <= owners.keys()


def test_cli_import_loads_no_heavy_packages():
    # scipy and jsonschema (with its dependencies) are test-only
    # references, and requests is imported only by a live backend.
    heavy = ["jsonschema", "referencing", "rpds", "attrs", "scipy", "requests"]
    paths = [str(Path(feedbacklab.__file__).parent.parent)]
    paths += filter(None, [os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    probe = (
        "import sys, feedbacklab.cli; "
        f"print([m for m in {heavy!r} if m in sys.modules])"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert result.stdout.strip() == "[]"


def test_commands_that_never_compute_start_without_numpy(tmp_path):
    # numpy is imported by the modules that compute with it, and cli
    # imports those inside the commands that use them.
    cfg = parse_setup(tmp_path, [synth_paper("p1", [], threads=("R1", "R2"))])
    bad_cfg = write_config(tmp_path / "bad.json", thresholds={"dedup": 5})
    paths = [str(Path(feedbacklab.__file__).parent.parent)]
    paths += filter(None, [os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    probe = f"""
import sys
from feedbacklab.cli import load_config, main
load_config({cfg!r})
steps = [("load_config", 0, "numpy" in sys.modules)]
for command, cfg in [
    ("ingest", {cfg!r}), ("parse", {cfg!r}), ("report", {cfg!r}),
    ("parse", {bad_cfg!r}),
]:
    code = main([command, "--config", cfg])
    steps.append((command, code, "numpy" in sys.modules))
print(steps)
"""
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert result.stdout.strip().splitlines()[-1] == str(
        [
            ("load_config", 0, False),
            ("ingest", 0, False),
            ("parse", 0, False),
            ("report", 0, False),
            ("parse", 2, False),
        ]
    )
