"""A judge server on 127.0.0.1, for driving HttpBackend over real sockets.

It answers the two routes HttpBackend posts to, `/chat/completions`
and `/embeddings` under `/v1`, in one of two ways:

- from a StubBackend: a completion's template is found by its system
  text in prompts.REGISTRY and its bindings are recovered from the user
  text, so a live run against the server replies as a stub run does;
- from `replies`, a list of canned (status, body) pairs served in order,
  for tests of one exchange.

A `faults` schedule can answer any request with 429, 503, a body cut
short (Content-Length promises ten times the bytes sent) or a 200 that
is not JSON. With `retry_after` set, each 429 and 503 fault carries it
as its Retry-After header. A schedule counts attempts per request body
over the server's life, so each run gets a server of its own. Every
request is kept in `server.requests`, with the fault it was answered
with.

    with judge_server(monkeypatch, stub) as server:
        ... EndpointConfig(base_url=server.url) ...
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
import re
import string
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from feedbacklab.config import JUDGE_TASKS
from feedbacklab.judge import EndpointConfig, StubBackend
from feedbacklab.prompts import REGISTRY

TRUNCATED = "truncated"
NOT_JSON = "not-json"


def template_pattern(text: str) -> re.Pattern:
    """A regex that full-matches text.format(**bindings), with one named
    group per placeholder."""
    parts, seen = [], set()
    for literal, name, _, _ in string.Formatter().parse(text):
        parts.append(re.escape(literal))
        if name:
            parts.append(f"(?P={name})" if name in seen else f"(?P<{name}>.*?)")
            seen.add(name)
    return re.compile("".join(parts), re.DOTALL)


TEMPLATES = {
    t.system_text: (t, template_pattern(t.user_text)) for t in REGISTRY.values()
}


def seeded_faults(seed: int):
    """A schedule that fails the first one or two attempts of about 30%
    of all distinct request bodies with 429, 503 or a truncated body.
    What each body gets depends only on seed and the body, so a run sees
    the same faults at any concurrency, and every request succeeds well
    within HttpBackend's five attempts."""

    def fault(body: bytes, attempt: int):
        rng = random.Random(f"{seed}:{hashlib.sha256(body).hexdigest()}")
        failures = rng.choice((1, 2)) if rng.random() < 0.3 else 0
        kinds = [rng.choice((429, 503, TRUNCATED)) for _ in range(failures)]
        return kinds[attempt] if attempt < failures else None

    return fault


class JudgeServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, stub, replies=(), faults=None, retry_after=None):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.stub = stub
        self.replies = list(replies)
        self.faults = faults
        self.retry_after = retry_after
        self.requests: list[dict] = []
        self.attempts: dict[bytes, int] = {}
        self.lock = threading.Lock()
        self.url = f"http://127.0.0.1:{self.server_address[1]}/v1"

    def answer(self, path: str, payload) -> tuple[int, object]:
        if self.replies:
            return self.replies.pop(0)
        endpoint = EndpointConfig(model_name=payload["model"])
        if path == "/v1/embeddings":
            vectors = self.stub.embed(endpoint, payload["input"])
            return 200, {"data": [{"embedding": v.tolist()} for v in vectors]}
        system, user = (m["content"] for m in payload["messages"])
        template, pattern = TEMPLATES[system]
        match = pattern.fullmatch(user)
        if match is None:
            return 400, {"error": f"user text does not match {template.name}"}
        raw, usage = self.stub.complete(
            endpoint, template, match.groupdict(), system, user
        )
        return 200, {"choices": [{"message": {"content": raw}}], "usage": usage}


class _Handler(BaseHTTPRequestHandler):
    server: JudgeServer

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        payload = json.loads(body)
        server = self.server
        with server.lock:
            attempt = server.attempts.get(body, 0)
            server.attempts[body] = attempt + 1
            fault = server.faults(body, attempt) if server.faults else None
            server.requests.append(
                {
                    "path": self.path,
                    "headers": dict(self.headers),
                    "json": payload,
                    "fault": fault,
                }
            )
        if fault in (429, 503):
            status, data = fault, b'{"error": "try again"}'
        elif fault == NOT_JSON:
            status, data = 200, b"<html>busy</html>"
        else:
            status, reply = server.answer(self.path, payload)
            data = json.dumps(reply).encode()
        self.send_response(status)
        if fault in (429, 503) and server.retry_after is not None:
            self.send_header("Retry-After", server.retry_after)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data[: len(data) // 10] if fault == TRUNCATED else data)

    def log_message(self, format, *args):
        pass


def live_args(url: str, max_concurrency: int = 4) -> list[str]:
    """CLI --set overrides that run a command in live mode against the
    server at url, with no rate limit in the way."""
    args = ["--set", "mode=live"]
    for task in JUDGE_TASKS:
        args += [
            "--set", f"endpoints.{task}.base_url={url}",
            "--set", f"endpoints.{task}.requests_per_minute=100000",
            "--set", f"endpoints.{task}.max_concurrency={max_concurrency}",
        ]
    return args


def clear_proxies(monkeypatch) -> None:
    """Unset every *_proxy variable, so that urllib talks to 127.0.0.1
    directly."""
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)


@contextlib.contextmanager
def judge_server(monkeypatch, stub=None, *, replies=(), faults=None, retry_after=None):
    """A running JudgeServer. Proxy variables are cleared first, for the
    rest of the test."""
    clear_proxies(monkeypatch)
    server = JudgeServer(stub or StubBackend(), replies, faults, retry_after)
    # A short poll interval keeps shutdown() quick.
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()
