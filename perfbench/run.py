"""feedbacklab benchmark: CLI wall time, cold and warm, per workload.

    python3 perfbench/run.py --workload consensus --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

The generator (workloads.py) writes a seeded corpus, stub fixture and
config under .bench_work/ in the checkout. Each workload command then
runs through feedbacklab.cli.main in a fresh interpreter (child.py),
one at a time (a closed loop with one client). A cycle runs the
commands on an empty run directory (cold: empty judge cache), then
again on the directory the cold pass filled (warm). Cycles repeat while
the next one is expected to end within --seconds; times are medians over
cycles.

--trace 0 reports the end-to-end metrics:
  cold_wall_s  spawn-to-exit seconds of the commands, cold
  warm_wall_s  the same, warm (the OS page cache is warm in both: the
               benchmark does not drop it)
  setup_s      CLI cold start: import feedbacklab.cli + load_config in a
               fresh interpreter, median of SETUP_PROBES
  peak_rss_mb  largest max-RSS of any command process (os.wait4)
  run_dir_mb   apparent size of the run directory after the cold pass
--trace 1 runs each cycle once untraced (cold) and once with spans
around every layer (child.py --trace-out), and reports the per-layer
metrics of spans.LAYER_METRICS for each phase, plus trace.overhead_s
(traced minus untraced cold wall).

Every command's exit code and "<cmd>: ok" line, warm-vs-cold output
bytes, and results against the planted truth are checks; the last
stdout line is {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
WORK_ROOT = ROOT / ".bench_work"
SETUP_PROBES = 3

END_TO_END = {
    "cold_wall_s": "s",
    "warm_wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "run_dir_mb": "MB",
}
OVERHEAD = "trace.overhead_s"


def per_layer_units() -> dict[str, str]:
    units = {
        f"{phase}.{name}": unit
        for phase in ("cold", "warm")
        for name, unit in spans.LAYER_METRICS.items()
    }
    units[OVERHEAD] = "s"
    return units


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


@dataclass
class Checks:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def add(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"check failed: {what}", file=sys.stderr)


@dataclass
class Phase:
    wall_s: float
    outputs: list[dict[str, str]]


class Runner:
    """Spawns child interpreters for one workload's generated inputs."""

    def __init__(self, inputs: workloads.Inputs, work: Path, found: Checks):
        self.inputs = inputs
        self.work = work
        self.checks = found
        self.env = {**os.environ, "TMPDIR": str(work)}
        self.peak_rss_kb = 0
        self.old_runs = 0

    def spawn(self, args: list[str]) -> tuple[float, int, int, str]:
        """(wall seconds, max RSS KiB, exit code, stdout) of one child."""
        out, err = self.work / "child.out", self.work / "child.err"
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644),
        ]
        argv = [sys.executable, str(CHILD), *args]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, argv, self.env, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            sys.stderr.write(err.read_text(encoding="utf-8", errors="replace")[-2000:])
        return wall, usage.ru_maxrss, code, out.read_text(encoding="utf-8")

    def setup_s(self) -> float:
        """Median CLI cold start, after one probe that fills .pyc caches."""
        walls = []
        for i in range(SETUP_PROBES + 1):
            wall, _, code, _ = self.spawn(["--probe", str(self.inputs.config)])
            self.checks.add(code == 0, f"setup probe: exit code {code}")
            if i:
                walls.append(wall)
        return statistics.median(walls)

    def phase(
        self,
        cold: Phase | None = None,
        trace_dir: Path | None = None,
    ) -> Phase:
        """Run every command once; with `cold`, compare outputs to it."""
        result = Phase(0.0, [])
        for i, command in enumerate(self.inputs.commands):
            args = ["--latency-ms", str(self.inputs.latency_ms)]
            if trace_dir is not None:
                args += ["--trace-out", str(trace_dir / f"{i}.json")]
            args += ["--", command, "--config", str(self.inputs.config)]
            wall, rss, code, stdout = self.spawn(args)
            result.wall_s += wall
            self.peak_rss_kb = max(self.peak_rss_kb, rss)
            self.checks.add(*checks.command_ok(command, code, stdout))
            run_dir = checks.only_run_dir(self.inputs.runs_root)
            result.outputs.append(checks.outputs(run_dir))
            if cold is None:
                for op in checks.results(command, run_dir, self.inputs.expected):
                    self.checks.add(*op)
            else:
                self.checks.add(
                    *checks.same_outputs(command, cold.outputs[i], result.outputs[i])
                )
        return result

    def fresh_cold(self, trace_dir: Path | None = None) -> Phase:
        """Cold pass on an empty runs root.

        The previous run directory is moved aside, not deleted: deleting
        thousands of cache files slows file creation in the pass that
        follows, so deletion waits until the workload is done.
        """
        if self.inputs.runs_root.exists():
            self.old_runs += 1
            self.inputs.runs_root.rename(self.work / f"old-runs-{self.old_runs}")
        if trace_dir is not None:
            fresh_dir(trace_dir)
        return self.phase(trace_dir=trace_dir)

    def run_dir_bytes(self) -> int:
        run_dir = checks.only_run_dir(self.inputs.runs_root)
        if run_dir is None:
            return 0
        return sum(p.stat().st_size for p in run_dir.rglob("*") if p.is_file())

    def cache_files(self) -> int:
        run_dir = checks.only_run_dir(self.inputs.runs_root)
        if run_dir is None:
            return 0
        return sum(1 for p in (run_dir / "cache").iterdir() if p.is_file())


def repeat(seconds: int, cycle: Callable[[], dict[str, float]]) -> dict[str, float]:
    """Median of each value over cycles run for about `seconds`.

    A cycle starts only if, at the mean pace so far, it ends within
    `seconds`; the first always runs.
    """
    samples: list[dict[str, float]] = []
    start = time.perf_counter()
    while True:
        samples.append(cycle())
        elapsed = time.perf_counter() - start
        if elapsed * (len(samples) + 1) / len(samples) > seconds:
            break
    print(f"cycles: {len(samples)}", file=sys.stderr)
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def untraced_cycle(runner: Runner) -> dict[str, float]:
    cold = runner.fresh_cold()
    size = runner.run_dir_bytes()
    warm = runner.phase(cold=cold)
    return {
        "cold_wall_s": cold.wall_s,
        "warm_wall_s": warm.wall_s,
        "run_dir_mb": size / 1e6,
    }


def _load_spans(trace_dir: Path) -> list[dict]:
    return [
        span
        for path in sorted(trace_dir.glob("*.json"))
        for span in json.loads(path.read_text(encoding="utf-8"))
    ]


def traced_cycle(runner: Runner) -> dict[str, float]:
    trace_root = runner.work / "trace"
    untraced = runner.fresh_cold()
    cold = runner.fresh_cold(trace_root / "cold")
    for i, command in enumerate(runner.inputs.commands):
        runner.checks.add(
            *checks.same_outputs(
                f"traced {command}", untraced.outputs[i], cold.outputs[i]
            )
        )
    sample = {OVERHEAD: cold.wall_s - untraced.wall_s}
    cold_files = runner.cache_files()
    warm = runner.phase(cold=cold, trace_dir=fresh_dir(trace_root / "warm"))
    for name, result, files in (
        ("cold", cold, cold_files),
        ("warm", warm, runner.cache_files()),
    ):
        layers = spans.layer_metrics(
            _load_spans(trace_root / name), result.wall_s, files
        )
        sample.update({f"{name}.{k}": v for k, v in layers.items()})
    return sample


def run_workload(name: str, seed: int, seconds: int, trace: bool, work: Path, found: Checks):
    inputs = workloads.GENERATORS[name](seed, work / "inputs")
    runner = Runner(inputs, work, found)
    if trace:
        return repeat(seconds, lambda: traced_cycle(runner)), per_layer_units()
    setup = runner.setup_s()
    values = repeat(seconds, lambda: untraced_cycle(runner))
    values["peak_rss_mb"] = runner.peak_rss_kb * 1024 / 1e6
    return {**values, "setup_s": setup}, END_TO_END


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=[*workloads.GENERATORS, "all"]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "feedbacklab" / "cli.py").is_file():
        print(f"error: feedbacklab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(workloads.GENERATORS) if args.workload == "all" else [args.workload]
    found = Checks()
    metrics: dict[str, dict[str, float | str]] = {}
    WORK_ROOT.mkdir(exist_ok=True)
    for name in names:
        work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
        try:
            values, units = run_workload(
                name, args.seed, args.seconds, bool(args.trace), work, found
            )
        finally:
            shutil.rmtree(work, ignore_errors=True)
        prefix = f"{name}." if args.workload == "all" else ""
        for metric, unit in units.items():
            print(f"{name:14s} {metric:40s} {values[metric]:14.6f} {unit}")
            metrics[prefix + metric] = {"value": values[metric], "unit": unit}
    try:
        WORK_ROOT.rmdir()
    except OSError:
        pass
    if not args.trace:
        print("note: the OS page cache is warm for both cold and warm runs")
    print(
        json.dumps(
            {
                "correct": not found.failures,
                "attempted": found.attempted,
                "failed": len(found.failures),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
