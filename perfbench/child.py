"""Run one feedbacklab CLI command in this (fresh) interpreter.

    python3 perfbench/child.py [--latency-ms MS] [--trace-out PATH] -- ARGS...
    python3 perfbench/child.py --probe CONFIG

ARGS go to feedbacklab.cli.main unchanged. --latency-ms sleeps before
every StubBackend.complete, standing in for a live endpoint's wait.
--trace-out records spans around each layer (see spans.py) and writes
them to PATH after the command. --probe only imports feedbacklab.cli and
loads CONFIG: the CLI's cold start.

feedbacklab is imported from the checkout's src/ directory; nothing is
installed.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def use_source_tree() -> None:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def add_latency(seconds: float) -> None:
    """Sleep `seconds` before every StubBackend.complete in this process."""
    from feedbacklab.judge import StubBackend

    inner = StubBackend.complete

    def complete(self, *args, **kwargs):
        time.sleep(seconds)
        return inner(self, *args, **kwargs)

    StubBackend.complete = complete


def main(argv: list[str]) -> int:
    use_source_tree()
    if argv[:1] == ["--probe"]:
        import feedbacklab.cli  # noqa: F401  (the import is what is timed)
        from feedbacklab.config import load_config

        load_config(argv[1])
        return 0
    split = argv.index("--")
    opts = dict(zip(argv[:split:2], argv[1:split:2]))
    if float(opts.get("--latency-ms", 0)) > 0:
        add_latency(float(opts["--latency-ms"]) / 1000.0)
    recorder = None
    if "--trace-out" in opts:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)
    from feedbacklab.cli import main as cli_main

    code = cli_main(argv[split + 1 :])
    if recorder is not None:
        recorder.write(opts["--trace-out"])
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
