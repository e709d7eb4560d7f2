"""Gateway for all model inference: completions, embeddings, caching.

Everything that talks to a judge model goes through JudgeClient so that
caching, schema validation, rate limiting, and the deterministic stub
backend apply uniformly. No other module performs network I/O.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import logging
import math
import os
import string
import sys
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterator,
    Mapping,
    Protocol,
    Sequence,
    TypeVar,
)

from . import segments
from .core import canonical_json, read_json
from .errors import ConfigError, JudgeError, JudgeFormatError, PipelineError

if TYPE_CHECKING:
    import numpy as np

logger = logging.getLogger(__name__)

T = TypeVar("T")
R = TypeVar("R")

RETRYABLE_STATUS = frozenset({429, 500, 502, 503, 504})
MAX_HTTP_ATTEMPTS = 5
BACKOFF_BASE_SECONDS = 0.5
MAX_RETRY_AFTER_SECONDS = 60  # the longest Retry-After wait honoured
# Texts per embeddings POST; larger batches are split and the rows joined.
MAX_EMBED_BATCH = 256
# A top-level map() writes its new completion records in segments that it
# cuts at item boundaries once this many records have gathered.
SEGMENT_RECORDS = 32


@dataclass(frozen=True)
class EndpointConfig:
    """Connection and decoding settings for one judge endpoint."""

    base_url: str = ""
    model_name: str = "stub"
    api_key_env: str = ""
    max_output_tokens: int = 2048
    temperature: float = 0.0
    extra_params: Mapping[str, Any] = field(default_factory=dict)
    requests_per_minute: int = 60
    max_concurrency: int = 4

    def __post_init__(self) -> None:
        if self.max_concurrency < 1:
            raise ConfigError("max_concurrency must be >= 1")
        if self.temperature < 0:
            raise ConfigError("temperature must be >= 0")
        if self.requests_per_minute < 1:
            raise ConfigError("requests_per_minute must be >= 1")
        object.__setattr__(self, "extra_params", dict(self.extra_params))

    def decoding_params(self) -> dict[str, Any]:
        return {
            "max_output_tokens": self.max_output_tokens,
            "temperature": self.temperature,
            **self.extra_params,
        }


@dataclass(frozen=True)
class PromptTemplate:
    """Named, versioned prompt with a response schema."""

    name: str
    version: str
    system_text: str
    user_text: str
    response_schema: Mapping[str, Any]

    def placeholders(self) -> set[str]:
        names: set[str] = set()
        for text in (self.system_text, self.user_text):
            for _, fname, _, _ in string.Formatter().parse(text):
                if fname:
                    names.add(fname)
        return names

    def render(self, bindings: Mapping[str, Any]) -> tuple[str, str]:
        missing = self.placeholders() - set(bindings)
        if missing:
            raise PipelineError(
                f"template {self.name}: unbound placeholders {sorted(missing)}"
            )
        return (
            self.system_text.format(**bindings),
            self.user_text.format(**bindings),
        )

    @functools.cached_property
    def validator(self) -> Callable[[Any], str | None]:
        """Response check: instance -> its most relevant violation's message.

        Built once per template. The schema is checked here first; one the
        check cannot enforce raises PipelineError.
        """
        schema = dict(self.response_schema)
        _check_schema(schema, f"template {self.name}: response schema #")

        def check(instance: Any) -> str | None:
            worst = max(_violations(schema, instance, ()), key=_relevance, default=None)
            return None if worst is None else worst[1]

        return check


# Response schemas use the keywords of _KEYWORDS from JSON Schema draft
# 2020-12 (https://json-schema.org/draft/2020-12/json-schema-validation).
# Messages and the choice among violations are jsonschema 4.26's, because
# the message goes into the repair prompt.

_TYPE_CHECKS: dict[str, Callable[[Any], bool]] = {
    "array": lambda v: isinstance(v, list),
    "boolean": lambda v: isinstance(v, bool),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool))
    or (isinstance(v, float) and v.is_integer()),
    "null": lambda v: v is None,
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "object": lambda v: isinstance(v, dict),
    "string": lambda v: isinstance(v, str),
}


def _is_type_name(value: Any) -> bool:
    return isinstance(value, str) and value in _TYPE_CHECKS


# Each supported keyword, with a check of the values it may take.
_KEYWORDS: dict[str, Callable[[Any], bool]] = {
    "type": lambda v: _is_type_name(v)
    or (isinstance(v, list) and v != [] and all(map(_is_type_name, v))),
    "properties": lambda v: isinstance(v, dict),
    "required": lambda v: isinstance(v, list) and all(isinstance(n, str) for n in v),
    "additionalProperties": lambda v: v is False,
    "items": lambda v: isinstance(v, dict),
    # Scalars only, so enum needs no deep equality.
    "enum": lambda v: isinstance(v, list)
    and all(n is None or isinstance(n, (str, int, float)) for n in v),
    "minimum": _TYPE_CHECKS["number"],
    "maximum": _TYPE_CHECKS["number"],
    "minLength": lambda v: _TYPE_CHECKS["integer"](v) and v >= 0,
}


def _check_schema(schema: Any, where: str) -> None:
    if not isinstance(schema, dict):
        raise PipelineError(f"{where}: not a schema object: {schema!r}")
    for key, value in schema.items():
        if key not in _KEYWORDS:
            raise PipelineError(f"{where}: unsupported keyword {key!r}")
        if not _KEYWORDS[key](value):
            raise PipelineError(f"{where}: unsupported {key!r} value {value!r}")
    for name, sub in schema.get("properties", {}).items():
        _check_schema(sub, f"{where}/properties/{name}")
    if "items" in schema:
        _check_schema(schema["items"], f"{where}/items")


def _violations(schema: dict, instance: Any, path: tuple) -> Iterator[tuple]:
    """(instance path, message) per violation; at one node, in the order
    of the schema's keywords."""
    number = _TYPE_CHECKS["number"](instance)
    is_object = isinstance(instance, dict)
    for key, value in schema.items():
        if key == "type":
            names = [value] if isinstance(value, str) else value
            if not any(_TYPE_CHECKS[name](instance) for name in names):
                expected = ", ".join(map(repr, names))
                yield path, f"{instance!r} is not of type {expected}"
        elif key == "enum" and not any(
            v == instance and isinstance(v, bool) == isinstance(instance, bool)
            for v in value
        ):
            yield path, f"{instance!r} is not one of {value!r}"
        elif key == "minimum" and number and instance < value:
            yield path, f"{instance!r} is less than the minimum of {value!r}"
        elif key == "maximum" and number and instance > value:
            yield path, f"{instance!r} is greater than the maximum of {value!r}"
        elif key == "minLength" and isinstance(instance, str) and len(instance) < value:
            short = "should be non-empty" if value == 1 else "is too short"
            yield path, f"{instance!r} {short}"
        elif key == "items" and isinstance(instance, list):
            for i, item in enumerate(instance):
                yield from _violations(value, item, (*path, i))
        elif key == "required" and is_object:
            for name in value:
                if name not in instance:
                    yield path, f"{name!r} is a required property"
        elif key == "properties" and is_object:
            for name, sub in value.items():
                if name in instance:
                    yield from _violations(sub, instance[name], (*path, name))
        elif key == "additionalProperties" and is_object:
            extra = sorted(set(instance) - schema.get("properties", {}).keys())
            if extra:
                names = ", ".join(map(repr, extra))
                verb = "was" if len(extra) == 1 else "were"
                yield path, (
                    f"Additional properties are not allowed ({names} {verb} unexpected)"
                )


def _relevance(violation: tuple) -> tuple:
    """jsonschema 4.26's best_match key: the shallowest path, then the
    greatest sibling path; max() keeps the first of equal keys. Its last
    key, whether the instance has the schema's type, never decides here:
    without combinators one instance path is one schema node."""
    path = violation[0]
    return -len(path), path


@dataclass(frozen=True)
class JudgeResponse:
    raw_text: str
    parsed: Any
    usage: Mapping[str, int]
    cache_hit: bool
    template_version: str


class Backend(Protocol):
    def complete(
        self,
        endpoint: EndpointConfig,
        template: PromptTemplate,
        bindings: Mapping[str, Any],
        system_text: str,
        user_text: str,
    ) -> tuple[str, dict[str, int]]: ...

    def embed(
        self, endpoint: EndpointConfig, texts: Sequence[str]
    ) -> list[np.ndarray]: ...


class RateLimiter:
    """Sliding-window limiter: at most `per_minute` acquisitions in 60 s."""

    def __init__(
        self,
        per_minute: int,
        clock=time.monotonic,
        sleeper=time.sleep,
    ):
        self.per_minute = per_minute
        self._clock = clock
        self._sleep = sleeper
        self._stamps: deque[float] = deque()
        self._lock = threading.Lock()

    def acquire(self) -> None:
        while True:
            with self._lock:
                now = self._clock()
                while self._stamps and now - self._stamps[0] >= 60.0:
                    self._stamps.popleft()
                if len(self._stamps) < self.per_minute:
                    self._stamps.append(now)
                    return
                wait = 60.0 - (now - self._stamps[0])
            self._sleep(max(wait, 0.0))


def _normalize(vector: Sequence[float]) -> np.ndarray:
    import numpy as np

    arr = np.asarray(vector, dtype=float)
    norm = float(np.linalg.norm(arr))
    if norm == 0.0 or not np.isfinite(norm):
        raise JudgeError("embedding vector has zero or non-finite norm")
    return arr / norm


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity of two vectors, clipped to [-1, 1]."""
    import numpy as np

    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise PipelineError(f"cosine: shape mismatch {a.shape} vs {b.shape}")
    na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise PipelineError("cosine: zero vector")
    return float(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0))


# A product of normalized rows can miss cosine()'s value by a few ulps,
# so the screen in similar_pairs lets pairs this far below the threshold
# through and cosine() decides.
SCREEN_MARGIN = 1e-9


def similar_pairs(
    a: Sequence[np.ndarray], b: Sequence[np.ndarray], threshold: float
) -> list[tuple[int, int, float]]:
    """Every (i, j, cosine(a[i], b[j])) with that cosine >= threshold.

    One matrix product over the L2-normalized rows screens all pairs at
    threshold - SCREEN_MARGIN; each pair that passes is rescored with
    cosine(), so the returned value and the >= boundary are exactly
    cosine()'s. Pairs come in row-major order. When a and b are the same
    object, cosine() is symmetric, so only pairs with i < j are returned.
    A zero vector or a shape mismatch anywhere in a or b raises
    cosine()'s PipelineError.
    """
    if not len(a) or not len(b):
        return []
    import numpy as np

    mirrored = a is b
    rows = [np.asarray(v, dtype=float) for v in (a if mirrored else (*a, *b))]
    for row in rows[1:]:
        if row.shape != rows[0].shape:
            raise PipelineError(
                f"cosine: shape mismatch {rows[0].shape} vs {row.shape}"
            )
    unit = np.stack(rows)
    norms = np.linalg.norm(unit, axis=1, keepdims=True)
    if not norms.all():
        raise PipelineError("cosine: zero vector")
    unit /= norms
    if mirrored:
        n = 0
        passed = np.triu(unit @ unit.T >= threshold - SCREEN_MARGIN, k=1)
    else:
        n = len(a)
        passed = unit[:n] @ unit[n:].T >= threshold - SCREEN_MARGIN
    return [
        (i, j, sim)
        for i, j in np.argwhere(passed).tolist()
        if (sim := cosine(rows[i], rows[n + j])) >= threshold
    ]


def _fixture_object(value: Any, name: str) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise ConfigError(f"{name} must be a JSON object")
    return value


def _is_embedding(vec: Any, dim: int) -> bool:
    """Whether vec is a list of dim numbers that _normalize accepts: their
    float64 sum of squares is finite and not zero. Plain Python, so
    building a stub does not import numpy, and no Python-level loop over
    the values, so a large fixture builds fast."""
    if not (
        isinstance(vec, list)
        and len(vec) == dim
        and set(map(type, vec)) <= {int, float}
    ):
        return False
    try:
        norm = math.hypot(*vec)
    except OverflowError:  # an int past the float range
        return False
    return 0.0 < norm * norm < math.inf


class StubBackend:
    """Deterministic offline backend.

    Completions come from a fixture: per template a `default` response
    and optional `cases`, each matching on a subset of binding values.
    A response given as an object is serialized canonically; a response
    given as a string is returned verbatim (useful for exercising the
    schema-failure path). Embeddings are hash-derived unit vectors,
    overridable per text with a list of embedding_dim numbers whose norm
    is finite and not zero. A fixture of the wrong shape raises
    ConfigError.
    """

    def __init__(self, fixture: Mapping[str, Any] | None = None):
        fixture = _fixture_object({} if fixture is None else fixture, "the top level")
        self.templates = _fixture_object(fixture.get("templates", {}), "templates")
        for name, spec in self.templates.items():
            _fixture_object(spec, f"templates.{name}")
            cases = spec.get("cases", [])
            if not isinstance(cases, list):
                raise ConfigError(f"templates.{name}.cases must be a JSON array")
            for i, case in enumerate(cases):
                where = f"templates.{name}.cases[{i}]"
                _fixture_object(case, where)
                _fixture_object(case.get("when", {}), f"{where}.when")
        self.embedding_dim = fixture.get("embedding_dim", 16)
        if type(self.embedding_dim) is not int or self.embedding_dim < 2:
            raise ConfigError("embedding_dim must be an integer >= 2")
        self.embedding_overrides: Mapping[str, Sequence[float]] = _fixture_object(
            fixture.get("embeddings", {}), "embeddings"
        )
        for text, vec in self.embedding_overrides.items():
            if not _is_embedding(vec, self.embedding_dim):
                raise ConfigError(
                    f"embeddings[{text[:40]!r}] must be a list of "
                    f"{self.embedding_dim} numbers with a finite, non-zero norm"
                )

    @classmethod
    def from_file(cls, path: str | Path) -> "StubBackend":
        return read_json(path, cls, "stub fixture", ConfigError)

    def complete(
        self,
        endpoint: EndpointConfig,
        template: PromptTemplate,
        bindings: Mapping[str, Any],
        system_text: str,
        user_text: str,
    ) -> tuple[str, dict[str, int]]:
        spec = self.templates.get(template.name)
        if spec is None:
            raise JudgeError(
                f"stub fixture has no responses for template {template.name!r}"
            )
        chosen = spec.get("default")
        for case in spec.get("cases", []):
            when = case.get("when", {})
            if all(str(bindings.get(k)) == str(v) for k, v in when.items()):
                chosen = case.get("respond")
                break
        if chosen is None:
            raise JudgeError(
                f"stub fixture has no matching response for {template.name!r} "
                f"bindings {sorted(bindings)}"
            )
        raw = chosen if isinstance(chosen, str) else canonical_json(chosen)
        return raw, {"prompt_tokens": 0, "completion_tokens": 0}

    def _vector_for(self, text: str) -> np.ndarray:
        import numpy as np

        if text in self.embedding_overrides:
            return _normalize(self.embedding_overrides[text])
        digest = hashlib.sha256(text.encode("utf-8")).digest()
        rng = np.random.default_rng(int.from_bytes(digest[:8], "big"))
        return _normalize(rng.standard_normal(self.embedding_dim))

    def embed(
        self, endpoint: EndpointConfig, texts: Sequence[str]
    ) -> list[np.ndarray]:
        return [self._vector_for(t) for t in texts]


class HttpBackend:
    """Chat-completions-style HTTP JSON backend with retry and limits.

    Requests go through the standard library's urllib: proxies come from
    the environment, TLS uses Python's default trust store, and each
    call opens its own connection. urllib is imported on the first call,
    so stub runs never load it.
    """

    def __init__(self, sleeper=time.sleep):
        self._sleep = sleeper
        self._limiters: dict[tuple[str, int], RateLimiter] = {}
        self._lock = threading.Lock()

    def _limiter(self, endpoint: EndpointConfig) -> RateLimiter:
        key = (endpoint.base_url, endpoint.requests_per_minute)
        with self._lock:
            if key not in self._limiters:
                self._limiters[key] = RateLimiter(
                    endpoint.requests_per_minute, sleeper=self._sleep
                )
            return self._limiters[key]

    def _headers(self, endpoint: EndpointConfig) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        if endpoint.api_key_env:
            key = os.environ.get(endpoint.api_key_env, "")
            if not key:
                raise ConfigError(
                    f"environment variable {endpoint.api_key_env!r} is not set"
                )
            headers["Authorization"] = f"Bearer {key}"
        return headers

    def _post(self, endpoint: EndpointConfig, route: str, payload: dict) -> dict:
        from http.client import HTTPException
        from urllib.error import HTTPError
        from urllib.request import Request, urlopen

        if not endpoint.base_url:
            raise ConfigError("live endpoint requires a base_url")
        url = endpoint.base_url.rstrip("/") + route
        data = json.dumps(payload).encode("utf-8")
        last_error = ""
        for attempt in range(MAX_HTTP_ATTEMPTS):
            if attempt:  # back off only before another attempt
                self._sleep(wait)
            wait = BACKOFF_BASE_SECONDS * 2**attempt
            self._limiter(endpoint).acquire()
            request = Request(
                url, data=data, headers=self._headers(endpoint), method="POST"
            )
            try:
                with urlopen(request, timeout=120) as resp:
                    status, body, headers = resp.status, resp.read(), resp.headers
            except HTTPError as exc:
                exc.close()
                status, body, headers = exc.code, b"", exc.headers
            # HTTPException covers a reply cut short (IncompleteRead) or
            # garbled; it is not an OSError.
            except (OSError, HTTPException) as exc:
                last_error = str(exc)
                continue
            if status in RETRYABLE_STATUS:
                # A Retry-After in delay-seconds, capped, replaces the backoff
                # (RFC 9110 10.2.3); an HTTP-date or a malformed value does not.
                after = (headers.get("Retry-After") or "").strip()
                if after.isascii() and after.isdigit():
                    wait = min(int(after), MAX_RETRY_AFTER_SECONDS)
                last_error = f"HTTP {status}"
                continue
            if status != 200:
                raise JudgeError(f"HTTP {status} from {url}")
            try:
                return json.loads(body)
            except ValueError:
                raise JudgeError(
                    f"HTTP 200 from {url} with a non-JSON body"
                ) from None
        raise JudgeError(
            f"gave up on {url} after {MAX_HTTP_ATTEMPTS} attempts ({last_error})"
        )

    def complete(
        self,
        endpoint: EndpointConfig,
        template: PromptTemplate,
        bindings: Mapping[str, Any],
        system_text: str,
        user_text: str,
    ) -> tuple[str, dict[str, int]]:
        payload = {
            "model": endpoint.model_name,
            "messages": [
                {"role": "system", "content": system_text},
                {"role": "user", "content": user_text},
            ],
            "temperature": endpoint.temperature,
            "max_tokens": endpoint.max_output_tokens,
            **endpoint.extra_params,
        }
        data = self._post(endpoint, "/chat/completions", payload)
        try:
            raw = data["choices"][0]["message"]["content"]
            usage = dict(data.get("usage", {}))
        except (KeyError, IndexError, TypeError, ValueError):
            raw = None
        if not isinstance(raw, str):
            raise JudgeError("malformed completion payload")
        return raw, usage

    def embed(
        self, endpoint: EndpointConfig, texts: Sequence[str]
    ) -> list[np.ndarray]:
        """One POST per MAX_EMBED_BATCH texts; rows in input order."""
        import numpy as np

        out: list[np.ndarray] = []
        for start in range(0, len(texts), MAX_EMBED_BATCH):
            chunk = list(texts[start : start + MAX_EMBED_BATCH])
            payload = {"model": endpoint.model_name, "input": chunk}
            data = self._post(endpoint, "/embeddings", payload)
            try:
                vectors = [
                    np.asarray(row["embedding"], dtype=float) for row in data["data"]
                ]
            except (KeyError, TypeError, ValueError):
                vectors = None
            if vectors is None or any(v.ndim != 1 for v in vectors):
                raise JudgeError("malformed embeddings payload")
            if len(vectors) != len(chunk):
                raise JudgeError(
                    f"embeddings count mismatch: sent {len(chunk)}, "
                    f"got {len(vectors)}"
                )
            out.extend(_normalize(v) for v in vectors)
        return out


def _extract_json(raw: str) -> Any:
    """Parse raw judge output as JSON, tolerating code fences."""
    text = raw.strip()
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        pass
    if text.startswith("```"):
        lines = text.splitlines()
        body = "\n".join(
            line for line in lines[1:] if not line.strip().startswith("```")
        )
        try:
            return json.loads(body)
        except json.JSONDecodeError:
            text = body
    starts = [i for i in (text.find("{"), text.find("[")) if i >= 0]
    if starts:
        start = min(starts)
        end = max(text.rfind("}"), text.rfind("]"))
        if end > start:
            return json.loads(text[start : end + 1])
    raise json.JSONDecodeError("no JSON value found", raw, 0)


def _embedding_key_material(model_name: str, text: str) -> bytes:
    """What an embedding's cache key hashes: the model name, prefixed by
    its length so that no (model, text) pair runs into another, then the
    text."""
    model = model_name.encode("utf-8")
    return b"emb\0" + len(model).to_bytes(4, "little") + model + text.encode("utf-8")


def _off_cpu_clock() -> float:
    """Wall time less this thread's CPU time: it advances only while the
    thread is off the CPU (sleeping, blocked on I/O, or preempted)."""
    return time.perf_counter() - time.thread_time()


class _Budget:
    """One endpoint's concurrency budget: max_concurrency slots."""

    def __init__(self, size: int):
        self.size = size
        self.slots = threading.BoundedSemaphore(size)


class _Mode(threading.local):
    # The budget of the first backend call on this thread that waited
    # since map() last cleared this.
    waited: _Budget | None = None
    # The new completion records of the map item this thread runs,
    # (key, record) in the order its calls made them; None outside any map.
    records: list[tuple[bytes, bytes]] | None = None


class _Batch:
    """The new completion records of one top-level map().

    add() takes each item's records in input order and keeps each key
    once, at its first item, so the segments do not depend on which
    thread fetched what.
    """

    def __init__(self, write: Callable[[list[tuple[bytes, bytes]]], None]):
        self._write = write
        self._seen: set[bytes] = set()
        self._segment: list[tuple[bytes, bytes]] = []

    def add(self, records: Sequence[tuple[bytes, bytes]]) -> None:
        for key, record in records:
            if key not in self._seen:
                self._seen.add(key)
                self._segment.append((key, record))
        if len(self._segment) >= SEGMENT_RECORDS:
            self.flush()

    def flush(self) -> None:
        if self._segment:
            self._write(self._segment)
            self._segment = []


class JudgeClient:
    """Schema-validated judging with a persistent content-addressed cache.

    One repair re-prompt is attempted on schema violations; a second
    failure raises JudgeFormatError carrying the raw text. Backend calls
    hold a slot of their endpoint's budget, one BoundedSemaphore of
    max_concurrency slots per (base_url, max_concurrency). A call waited
    if it spent at least the interpreter's switch interval
    (sys.getswitchinterval(), 5 ms by default) off this thread's CPU
    time: only then can other threads use the time.
    """

    def __init__(self, backend: Backend, cache_dir: str | Path | None = None):
        self.backend = backend
        self._store = segments.Store(cache_dir)
        self._budgets: dict[tuple[str, int], _Budget] = {}
        self._budgets_lock = threading.Lock()
        self._mode = _Mode()

    def _budget(self, endpoint: EndpointConfig) -> _Budget:
        key = (endpoint.base_url, endpoint.max_concurrency)
        budget = self._budgets.get(key)
        if budget is None:
            with self._budgets_lock:
                budget = self._budgets.setdefault(
                    key, _Budget(endpoint.max_concurrency)
                )
        return budget

    @contextlib.contextmanager
    def _backend_slot(self, endpoint: EndpointConfig) -> Iterator[None]:
        """Hold one slot of endpoint's budget and note whether the call
        waited."""
        budget = self._budget(endpoint)
        with budget.slots:
            start = _off_cpu_clock()
            yield
            waited = _off_cpu_clock() - start >= sys.getswitchinterval()
        if waited and self._mode.waited is None:
            self._mode.waited = budget

    # -- completion ----------------------------------------------------

    def _cache_key(
        self,
        endpoint: EndpointConfig,
        template: PromptTemplate,
        system_text: str,
        user_text: str,
    ) -> bytes:
        material = canonical_json(
            {
                "template": template.name,
                "version": template.version,
                "system": system_text,
                "user": user_text,
                "model": endpoint.model_name,
                "decoding": endpoint.decoding_params(),
            }
        )
        return hashlib.sha256(material.encode("utf-8")).digest()

    def _validate(self, template: PromptTemplate, raw: str) -> Any:
        try:
            parsed = _extract_json(raw)
        except json.JSONDecodeError as exc:
            raise ValueError(f"not valid JSON: {exc}") from None
        message = template.validator(parsed)
        if message is not None:
            raise ValueError(f"schema violation: {message}")
        return parsed

    def complete(
        self,
        endpoint: EndpointConfig,
        template: PromptTemplate,
        bindings: Mapping[str, Any],
    ) -> JudgeResponse:
        system_text, user_text = template.render(bindings)
        key = self._cache_key(endpoint, template, system_text, user_text)
        # The dictionary that key's record is compressed against; a
        # repaired reply's too, though its repair prompt differs.
        prompt = (system_text + "\n" + user_text).encode("utf-8")
        decode = functools.partial(segments.decode_replies, prompt)
        cached = self._store.read([key], decode).get(key)
        if cached is not None:
            raw, usage = cached
            parsed = _extract_json(raw)  # validated before it was cached
        else:
            with self._backend_slot(endpoint):
                raw, usage = self.backend.complete(
                    endpoint, template, bindings, system_text, user_text
                )
            try:
                parsed = self._validate(template, raw)
            except ValueError as first_error:
                logger.warning(
                    "judge %s: invalid response (%s), attempting repair",
                    template.name,
                    first_error,
                )
                repair_user = (
                    user_text
                    + "\n\nYour previous reply could not be used: "
                    + str(first_error)
                    + "\nReturn only a corrected JSON value matching the "
                    "required structure."
                )
                with self._backend_slot(endpoint):
                    raw, usage = self.backend.complete(
                        endpoint, template, bindings, system_text, repair_user
                    )
                try:
                    parsed = self._validate(template, raw)
                except ValueError as second_error:
                    raise JudgeFormatError(
                        f"judge {template.name}: response failed validation "
                        f"after repair attempt: {second_error}",
                        raw_text=raw,
                    ) from None
            # Kept with the current map item's records, or, outside any map,
            # written as a one-record segment.
            record = segments.encode_reply(raw, usage, prompt)
            if self._mode.records is None:
                self._store.write("cmp", [(key, record)])
            else:
                self._mode.records.append((key, record))
        return JudgeResponse(
            raw_text=raw,
            parsed=parsed,
            usage=usage,
            cache_hit=cached is not None,
            template_version=template.version,
        )

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        """fn over items: the single fan-out path for judge work.

        fn runs once per item. Items run one after another on the calling
        thread until a backend call in the item just run waited: while
        calls return without waiting (cache hits never reach the backend)
        there is nothing to overlap, and more threads would only contend
        for the GIL. The rest then go to a thread pool of their own, as
        wide as the budget (max_concurrency) of the first call that waited
        and never wider than the items left; a budget of 1, or a single
        item left, keeps them on the calling thread. Every backend call,
        in any map of this client, holds a slot of its endpoint's budget,
        and nothing holds a slot while it waits, so nested and concurrent
        maps can neither deadlock nor exceed a limit.

        Results come back in input order; the failure of the earliest
        failing item propagates and items not yet started are cancelled.

        The new completion records of each item are taken in input order,
        so the cache's bytes do not depend on the budget: a nested map's
        belong to the item that encloses it, and a top-level map writes
        them in segments cut at item boundaries once SEGMENT_RECORDS have
        gathered (its last segment may hold fewer), each as soon as all
        of its items have finished. Items that ask for one reply before
        its segment is written each fetch it; it is written once, with
        the first. When an item fails, the records of the items before it
        and those it made itself are still written.
        """
        mode = self._mode
        if mode.records is None:
            batch = _Batch(functools.partial(self._store.write, "cmp"))
        else:
            batch = None
        keep = batch.add if batch else mode.records.extend
        records: list[list[tuple[bytes, bytes]] | None] = [None] * len(items)
        done: list[R] = []

        def run(i: int) -> R:
            records[i] = []
            saved, mode.records = mode.records, records[i]
            try:
                return fn(items[i])
            finally:
                mode.records = saved

        def settle(i: int, outcome: Callable[[], R]) -> None:
            """Item i's result, then its records; in input order."""
            try:
                done.append(outcome())
            finally:
                keep(records[i])
                records[i] = None

        try:
            waited = None
            while waited is None and len(done) < len(items):
                mode.waited = None
                settle(len(done), functools.partial(run, len(done)))
                waited = mode.waited
            start = len(done)
            if len(items) - start <= 1 or waited.size == 1:
                for i in range(start, len(items)):
                    settle(i, functools.partial(run, i))
                return done
            pool = ThreadPoolExecutor(max_workers=min(waited.size, len(items) - start))
            # Items are submitted at most `ahead` past the first unsettled
            # one, so the records waiting to be taken stay bounded even
            # when busy pool threads keep this one off the GIL.
            ahead = max(SEGMENT_RECORDS, waited.size)
            try:
                futures = deque(
                    pool.submit(run, i)
                    for i in range(start, min(start + ahead, len(items)))
                )
                for i in range(start, len(items)):
                    if i + ahead < len(items):
                        futures.append(pool.submit(run, i + ahead))
                    settle(i, futures.popleft().result)
                return done
            finally:
                pool.shutdown(cancel_futures=True)
        finally:
            if batch:
                batch.flush()

    def map_complete(
        self,
        endpoint: EndpointConfig,
        template: PromptTemplate,
        bindings_list: Sequence[Mapping[str, Any]],
    ) -> list[JudgeResponse]:
        """complete() over many bindings through map(), in input order."""
        return self.map(lambda b: self.complete(endpoint, template, b), bindings_list)

    # -- embeddings ----------------------------------------------------

    def embed(
        self, endpoint: EndpointConfig, texts: Sequence[str]
    ) -> list[np.ndarray]:
        """L2-normalized embedding per text, cached per (model, text).

        Texts cached by any earlier call are read from their segments;
        the others go to the backend in one call, each distinct text
        once, and are written as one new segment. Every vector is the backend's rounded to segments.ROW_DTYPE
        (float32) and widened back to float64, so a miss and a later hit
        return the same array.
        """
        import numpy as np

        if any(not t for t in texts):
            raise PipelineError("embed: empty string in batch")
        keys = [
            hashlib.sha256(_embedding_key_material(endpoint.model_name, t)).digest()
            for t in texts
        ]
        cached = self._store.read(keys, segments.unpack_rows)
        vectors = {key: row.astype(float) for key, row in cached.items()}
        text_of = {k: t for k, t in zip(keys, texts) if k not in vectors}
        misses = list(text_of)
        if misses:
            with self._backend_slot(endpoint):
                fresh = self.backend.embed(endpoint, list(text_of.values()))
            if len(fresh) != len(misses):
                raise JudgeError("backend returned wrong number of embeddings")
            for key, vec in zip(misses, fresh):
                vectors[key] = np.asarray(vec, segments.ROW_DTYPE).astype(float)
        dims = {v.shape[0] for v in vectors.values()}
        if len(dims) > 1:
            raise JudgeError(f"embedding dimension mismatch in batch: {dims}")
        if misses:
            rows = [vectors[k].astype(segments.ROW_DTYPE).tobytes() for k in misses]
            self._store.write("emb", list(zip(misses, map(segments.pack_row, rows))))
        return [vectors[k] for k in keys]
