"""Live mode against a loopback judge server: the same run directory as
stub mode, through real HTTP, retries and faults included."""

import json
import shutil
from pathlib import Path

import pytest

from feedbacklab import judge
from feedbacklab.cli import main
from feedbacklab.config import load_config
from feedbacklab.judge import StubBackend
from loopback import TRUNCATED, judge_server, live_args, seeded_faults
from test_cli import (
    FIXTURE_CONFIG,
    forge_dpo_setup,
    only_run_dir,
    parse_setup,
    success_eval_fan_out_setup,
    synth_paper,
)

# The two metadata fields that name the mode, in the reports that carry
# metadata.
MODE_FIELDS = ("mode", "config_hash")
REPORTS = ("artifacts/eval_report.json", "report.json")


def run_files(run_dir: Path) -> dict[str, bytes]:
    """Each file's bytes, with the run id (the config hash's prefix, which
    manifests quote in the dataset's path) written as RUN_ID."""
    run_id = run_dir.name.encode()
    return {
        str(p.relative_to(run_dir)): p.read_bytes().replace(run_id, b"RUN_ID")
        for p in sorted(run_dir.rglob("*"))
        if p.is_file()
    }


def without_mode(report: bytes, mode: str) -> dict:
    data = json.loads(report)
    assert data["metadata"]["mode"] == mode
    for name in MODE_FIELDS:
        del data["metadata"][name]
    return data


def parse_command(tmp_path):
    papers = [synth_paper(f"p{i}", [], threads=("R1", "R2", "R3")) for i in range(6)]
    return parse_setup(tmp_path, papers), []


def forge_dpo_command(tmp_path):
    extra = ["--set", "sampling.max_corruption_units_per_paper=7"]
    return forge_dpo_setup(tmp_path), extra


def consensus_eval_command(tmp_path):
    return FIXTURE_CONFIG, ["--set", f"paths.runs_root={tmp_path / 'runs'}"]


def success_eval_command(tmp_path):
    return success_eval_fan_out_setup(tmp_path), []


@pytest.mark.parametrize(
    "command, setup",
    [
        ("parse", parse_command),
        ("forge-dpo", forge_dpo_command),
        ("consensus-eval", consensus_eval_command),
        ("success-eval", success_eval_command),
    ],
)
def test_live_run_matches_stub_run(tmp_path, monkeypatch, command, setup):
    """At max_concurrency 1 and 16, with a seeded share of requests
    answered 429, 503 or a truncated body, a live run leaves the stub
    run's files, cache included; only the mode fields and the run id
    differ."""
    cfg, extra = setup(tmp_path)
    runs = tmp_path / "runs"
    assert main([command, "--config", cfg, *extra]) == 0
    stub_dir = only_run_dir(runs)
    expected = run_files(stub_dir)
    shutil.rmtree(stub_dir)
    assert any(name.startswith("cache/") for name in expected)

    monkeypatch.setattr(judge, "BACKOFF_BASE_SECONDS", 0.001)
    stub = StubBackend.from_file(load_config(cfg).stub_fixture_path())
    faults = set()
    for max_concurrency in (1, 16):
        with judge_server(monkeypatch, stub, faults=seeded_faults(7)) as server:
            args = [command, "--config", cfg, *extra]
            assert main([*args, *live_args(server.url, max_concurrency)]) == 0
        faults |= {r["fault"] for r in server.requests}
        live_dir = only_run_dir(runs)
        files = run_files(live_dir)
        shutil.rmtree(live_dir)

        assert files.keys() == expected.keys()
        for name in REPORTS:
            assert without_mode(files.pop(name), "live") == without_mode(
                expected[name], "stub"
            )
        assert files == {k: v for k, v in expected.items() if k not in REPORTS}
    assert faults >= {429, 503, TRUNCATED}
