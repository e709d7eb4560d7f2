"""Output checks: each returns (ok, description) operations.

A run directory's outputs are report.json, report.csv, report.md and
every file under artifacts/. The results checks compare them with what
the generator planted (workloads.Inputs.expected).
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path
from typing import Any, Mapping

REPORT_FILES = ("report.json", "report.csv", "report.md")

Operation = tuple[bool, str]


def only_run_dir(runs_root: Path) -> Path | None:
    """The single run directory under runs_root, or None."""
    dirs = [p for p in runs_root.iterdir() if p.is_dir()] if runs_root.is_dir() else []
    return dirs[0] if len(dirs) == 1 else None


def outputs(run_dir: Path | None) -> dict[str, str]:
    """sha256 per output file, keyed by path relative to the run directory."""
    if run_dir is None:
        return {}
    files = [run_dir / name for name in REPORT_FILES]
    files += sorted(p for p in (run_dir / "artifacts").rglob("*") if p.is_file())
    return {
        str(p.relative_to(run_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in files
        if p.is_file()
    }


def command_ok(command: str, code: int, stdout: str) -> Operation:
    lines = stdout.strip().splitlines()
    ok = code == 0 and bool(lines) and bool(
        re.fullmatch(rf"{re.escape(command)}: ok \(run [0-9a-f]+\)", lines[-1])
    )
    return ok, f"{command}: exit code {code}, last line {lines[-1:]!r}"


def same_outputs(command: str, cold: Mapping[str, str], warm: Mapping[str, str]) -> Operation:
    """Every output present after the cold command has the same bytes warm.

    Files the cold pass wrote only in later commands are already there
    when the warm pass reaches this command, so they are not compared.
    """
    differ = sorted(k for k in cold if cold[k] != warm.get(k))
    return bool(cold) and not differ, f"{command}: warm outputs differ from cold: {differ}"


def _report(run_dir: Path) -> dict[str, Any]:
    return json.loads((run_dir / "report.json").read_text(encoding="utf-8"))


def _rows(report: Mapping[str, Any], table: str) -> list[list[str]]:
    return report["tables"][table]["rows"]


def _consensus(run_dir: Path, expected: Mapping[str, Any]) -> list[Operation]:
    report = _report(run_dir)
    got = {
        row[0]: {
            "consensus_size": int(row[1]),
            "model_units": int(row[2]),
            "matched_model": int(row[3]),
            "matched_consensus": int(row[4]),
        }
        for row in _rows(report, "per_paper")
    }
    ops = [
        (got.get(pid) == want, f"consensus-eval {pid}: {got.get(pid)} != {want}")
        for pid, want in expected["papers"].items()
    ]
    extra = sorted(set(got) - set(expected["papers"]))
    ops.append((not extra, f"consensus-eval: unexpected papers scored {extra}"))
    excluded = report["details"]["excluded_papers"]
    ops.append(
        (
            excluded == expected["excluded"],
            f"consensus-eval: excluded {excluded} != {expected['excluded']}",
        )
    )
    return ops


def _success(run_dir: Path, expected: Mapping[str, Any]) -> list[Operation]:
    report = _report(run_dir)
    rates = {row[0]: row[1] for row in _rows(report, "success_rates")}
    ops = [
        (
            rates.get(mode) == f"{want:.3f}",
            f"success-eval {mode}: full_set_rate {rates.get(mode)} != {want:.3f}",
        )
        for mode, want in expected["full_set_rate"].items()
    ]
    units = report["metadata"]["units_scored"]
    ops.append((units == expected["units"], f"success-eval: {units} units scored"))
    return ops


def _parse(run_dir: Path, expected: Mapping[str, Any]) -> list[Operation]:
    got = {row[0]: int(row[1]) for row in _rows(_report(run_dir), "parse_summary")}
    want = expected["parse_summary"]
    return [(got == want, f"parse: summary {got} != {want}")]


def _forge_dpo(run_dir: Path, expected: Mapping[str, Any]) -> list[Operation]:
    lines = (run_dir / "artifacts" / "dpo.jsonl").read_text(encoding="utf-8").splitlines()
    kinds = [json.loads(line)["pair_kind"] for line in lines]
    real = kinds.count("real_label")
    corruption = kinds.count("corruption")
    manifest = json.loads(
        (run_dir / "artifacts" / "dpo_manifest.json").read_text(encoding="utf-8")
    )
    return [
        (
            real == expected["real_label_pairs"],
            f"forge-dpo: {real} real-label pairs != {expected['real_label_pairs']}",
        ),
        (
            corruption <= expected["max_corruption_pairs"],
            f"forge-dpo: {corruption} corruption pairs > {expected['max_corruption_pairs']}",
        ),
        (
            manifest["record_count"] == len(lines),
            f"forge-dpo: manifest says {manifest['record_count']} records, file has {len(lines)}",
        ),
    ]


_RESULTS = {
    "consensus-eval": _consensus,
    "success-eval": _success,
    "parse": _parse,
    "forge-dpo": _forge_dpo,
}


def results(command: str, run_dir: Path | None, expected: Mapping[str, Any]) -> list[Operation]:
    """Compare a command's results with what the generator planted."""
    if run_dir is None:
        return [(False, f"{command}: no run directory")]
    try:
        return _RESULTS[command](run_dir, expected)
    except (OSError, KeyError, IndexError, ValueError) as exc:
        return [(False, f"{command}: unreadable results: {exc!r}")]
