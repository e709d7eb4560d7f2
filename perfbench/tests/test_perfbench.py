"""Tests for the benchmark itself: python3 -m pytest perfbench/tests"""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path

import pytest

import checks
import run
import spans
import workloads

SMALL = {
    "consensus": {"papers": 10},
    "judge-latency": {"papers": 2, "units_per_paper": 3},
    "forge": {"papers": 4},
}


def tree(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.mark.parametrize("name", sorted(SMALL))
def test_generator_is_byte_identical_per_seed(tmp_path, name):
    generate = workloads.GENERATORS[name]
    first = generate(7, tmp_path / "a" / "inputs", **SMALL[name])
    second = generate(7, tmp_path / "b" / "inputs", **SMALL[name])
    generate(8, tmp_path / "c" / "inputs", **SMALL[name])
    assert tree(tmp_path / "a") == tree(tmp_path / "b")
    assert tree(tmp_path / "a") != tree(tmp_path / "c")
    assert first.expected == second.expected


def span(start, end, tid=1, name="judge.complete", **extra):
    return {"name": name, "start": start, "end": end, "pid": 1, "tid": tid, **extra}


def test_union_length_merges_overlaps():
    assert spans.union_length([]) == 0.0
    assert spans.union_length([(0, 2), (1, 3), (5, 6), (6, 7)]) == 5.0
    assert spans.union_length([(0, 10), (2, 3)]) == 10.0


def test_self_time_subtracts_only_same_thread_children_inside_parent():
    parents = [span(0, 10, tid=1), span(0, 4, tid=2)]
    children = [
        span(1, 3, tid=1),
        span(2, 5, tid=1),  # overlaps the previous child: [1, 5] counts once
        span(8, 12, tid=1),  # only [8, 10] lies inside the parent
        span(0, 10, tid=3),  # another thread: never subtracted
        span(1, 2, tid=2),
    ]
    # thread 1: 10 - (4 + 2); thread 2: 4 - 1
    assert spans.self_time(parents, children) == pytest.approx(4.0 + 3.0)


def test_layer_metrics_counts_and_concurrency():
    phase = [
        span(0, 4, tid=1, hit=False),
        span(0, 4, tid=2, hit=False),
        span(5, 6, tid=1, hit=True),
        span(1, 3, tid=1, name="judge.backend_complete"),
        span(2, 4, tid=2, name="judge.backend_complete"),
        span(3, 4, tid=2, name="judge.backend_complete"),  # a repair
        span(0, 6, name="judge.map_complete", n=3),
    ]
    m = spans.layer_metrics(phase, wall_s=2.0, cache_files=5)
    assert set(m) == set(spans.LAYER_METRICS)
    assert m["judge.complete_calls"] == 3
    assert m["judge.cache_hit_ratio"] == pytest.approx(1 / 3)
    assert m["judge.backend_calls"] == 3
    assert m["judge.repair_calls"] == 1
    assert m["judge.backend_s"] == pytest.approx(5.0)
    assert m["judge.complete_self_s"] == pytest.approx((4 - 2) + (4 - 2) + 1)
    assert m["judge.backend_calls_per_s"] == pytest.approx(1.5)
    assert m["judge.backend_concurrency"] == pytest.approx(5.0 / 3.0)
    assert m["judge.map_complete_mean_batch"] == 3
    assert m["judge.cache_files"] == 5


def runner_for(tmp_path, inputs) -> run.Runner:
    return run.Runner(inputs, tmp_path, run.Checks())


def test_output_checks_fail_on_a_corrupted_report(tmp_path):
    inputs = workloads.consensus(3, tmp_path / "inputs", **SMALL["consensus"])
    runner = runner_for(tmp_path, inputs)
    cold = runner.fresh_cold()
    assert runner.checks.failures == []
    assert runner.checks.attempted == 1 + len(inputs.expected["papers"]) + 2

    run_dir = checks.only_run_dir(inputs.runs_root)
    report_path = run_dir / "report.json"
    report = json.loads(report_path.read_text(encoding="utf-8"))
    row = report["tables"]["per_paper"]["rows"][0]
    row[1] = str(int(row[1]) + 1)
    report_path.write_text(json.dumps(report), encoding="utf-8")
    failed = [
        what
        for ok, what in checks.results("consensus-eval", run_dir, inputs.expected)
        if not ok
    ]
    assert len(failed) == 1 and row[0] in failed[0]
    ok, what = checks.same_outputs("consensus-eval", cold.outputs[0], checks.outputs(run_dir))
    assert not ok and "report.json" in what


def test_latency_wrapper_keeps_report_bytes(tmp_path):
    inputs = workloads.judge_latency(5, tmp_path / "inputs", **SMALL["judge-latency"])
    plain = runner_for(tmp_path, dataclasses.replace(inputs, latency_ms=0.0)).fresh_cold()
    slow_inputs = dataclasses.replace(inputs, latency_ms=50.0)
    slow_runner = runner_for(tmp_path, slow_inputs)
    start = time.perf_counter()
    slow = slow_runner.fresh_cold()
    size = SMALL["judge-latency"]
    calls = 2 * size["papers"] * size["units_per_paper"]
    assert time.perf_counter() - start >= calls * 0.050
    assert slow_runner.checks.failures == []
    assert plain.outputs == slow.outputs


def test_benchmark_json_lists_every_reported_metric():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.GENERATORS)
