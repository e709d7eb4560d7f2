import contextlib
import gc
import hashlib
import itertools
import json
import logging
import math
import os
import re
import signal
import socket
import struct
import subprocess
import sys
import tempfile
import threading
import time
import warnings
import zlib
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from feedbacklab import judge as judge_module
from feedbacklab import segments
from feedbacklab.core import canonical_json
from feedbacklab.errors import (
    ConfigError,
    JudgeError,
    JudgeFormatError,
    PipelineError,
)
from feedbacklab.judge import (
    EndpointConfig,
    HttpBackend,
    MAX_EMBED_BATCH,
    JudgeClient,
    PromptTemplate,
    RateLimiter,
    StubBackend,
    cosine,
    similar_pairs,
)
from feedbacklab.prompts import (
    CORRUPTION_DIMENSIONS,
    PAIR_MATCH,
    QUALITY_DIMENSIONS,
    REGISTRY,
    prompt_versions,
)
from cache_segments import (
    LAYOUTS,
    read_segment,
    record_spans,
    segment_bytes,
    segment_keys,
    table_size,
)
from loopback import NOT_JSON, TRUNCATED, clear_proxies, judge_server

GOOD = canonical_json({"match": "1", "explanation": "same point"})
ENDPOINT = EndpointConfig()


class ScriptedBackend:
    """Returns queued raw strings; records every call."""

    def __init__(self, raws):
        self.raws = list(raws)
        self.calls = []
        self._lock = threading.Lock()
        self.in_flight = 0
        self.max_in_flight = 0

    def complete(self, endpoint, template, bindings, system_text, user_text):
        with self._lock:
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
            self.calls.append(user_text)
            raw = self.raws.pop(0)
        time.sleep(0.005)
        with self._lock:
            self.in_flight -= 1
        return raw, {"prompt_tokens": 1, "completion_tokens": 1}

    def embed(self, endpoint, texts):
        return [np.ones(4) / 2.0 for _ in texts]


def bindings(left="a", right="b"):
    return {"abstract": "A", "left_text": left, "right_text": right}


# ---- prompt registry ----


def test_registry_contains_all_tasks():
    assert set(REGISTRY) == {
        "thread_parse",
        "corruption",
        "corruption_verify",
        "pair_match",
        "quality_score",
        "response_predict",
    }
    versions = prompt_versions()
    assert set(versions) == set(REGISTRY)
    assert all(v for v in versions.values())


def test_template_placeholders_and_render():
    assert PAIR_MATCH.placeholders() == {"abstract", "left_text", "right_text"}
    system, user = PAIR_MATCH.render(bindings())
    assert "a" in user and "b" in user and system
    with pytest.raises(Exception):
        PAIR_MATCH.render({"abstract": "A"})


# ---- endpoint config ----


def test_endpoint_validation():
    with pytest.raises(ConfigError):
        EndpointConfig(max_concurrency=0)
    with pytest.raises(ConfigError):
        EndpointConfig(requests_per_minute=0)
    with pytest.raises(ConfigError):
        EndpointConfig(temperature=-0.5)
    e = EndpointConfig(temperature=0.2, max_output_tokens=64)
    params = e.decoding_params()
    assert params["temperature"] == 0.2
    assert params["max_output_tokens"] == 64


# ---- stub backend ----


def test_stub_case_matching_and_default():
    backend = StubBackend(
        {
            "templates": {
                "pair_match": {
                    "default": {"match": "0", "explanation": "no"},
                    "cases": [
                        {
                            "when": {"left_text": "a", "right_text": "b"},
                            "respond": {"match": "1", "explanation": "yes"},
                        }
                    ],
                }
            }
        }
    )
    client = JudgeClient(backend)
    hit = client.complete(ENDPOINT, PAIR_MATCH, bindings("a", "b"))
    assert hit.parsed["match"] == "1"
    miss = client.complete(ENDPOINT, PAIR_MATCH, bindings("a", "z"))
    assert miss.parsed["match"] == "0"


def test_stub_without_entry_raises():
    client = JudgeClient(StubBackend())
    with pytest.raises(JudgeError):
        client.complete(ENDPOINT, PAIR_MATCH, bindings())


def test_stub_string_response_is_verbatim():
    backend = StubBackend(
        {"templates": {"pair_match": {"default": "not json at all"}}}
    )
    raw, _ = backend.complete(ENDPOINT, PAIR_MATCH, bindings(), "s", "u")
    assert raw == "not json at all"


def test_stub_embeddings_deterministic_and_overridable():
    backend = StubBackend({"embeddings": {"pinned": [1.0] + [0.0] * 15}})
    a1, a2 = backend.embed(ENDPOINT, ["alpha", "alpha"])
    assert np.allclose(a1, a2)
    (b,) = backend.embed(ENDPOINT, ["beta"])
    assert not np.allclose(a1, b)
    (pinned,) = backend.embed(ENDPOINT, ["pinned"])
    assert pinned[0] == 1.0 and np.allclose(pinned[1:], 0.0)
    assert a1.shape == (16,)
    assert math.isclose(float(np.linalg.norm(a1)), 1.0)


# ---- client: validation, repair, cache ----


def test_valid_response_parses_without_repair():
    backend = ScriptedBackend([GOOD])
    client = JudgeClient(backend)
    out = client.complete(ENDPOINT, PAIR_MATCH, bindings())
    assert out.parsed == {"match": "1", "explanation": "same point"}
    assert out.cache_hit is False
    assert len(backend.calls) == 1


def test_code_fenced_json_is_accepted():
    backend = ScriptedBackend(["```json\n" + GOOD + "\n```"])
    out = JudgeClient(backend).complete(ENDPOINT, PAIR_MATCH, bindings())
    assert out.parsed["match"] == "1"


def test_json_with_prose_prefix_is_accepted():
    backend = ScriptedBackend(["Sure, here you go: " + GOOD])
    out = JudgeClient(backend).complete(ENDPOINT, PAIR_MATCH, bindings())
    assert out.parsed["match"] == "1"


def test_repair_reprompt_then_success():
    backend = ScriptedBackend(["garbage", GOOD])
    out = JudgeClient(backend).complete(ENDPOINT, PAIR_MATCH, bindings())
    assert out.parsed["match"] == "1"
    assert len(backend.calls) == 2
    # the repair prompt carries the validation error back to the judge
    assert "could not be used" in backend.calls[1]


def test_second_failure_raises_judge_format_error():
    backend = ScriptedBackend(["garbage", "still garbage"])
    with pytest.raises(JudgeFormatError) as err:
        JudgeClient(backend).complete(ENDPOINT, PAIR_MATCH, bindings())
    assert err.value.exit_code == 4
    assert err.value.raw_text == "still garbage"
    assert len(backend.calls) == 2  # exactly one repair attempt


def test_schema_violation_triggers_repair():
    wrong_enum = canonical_json({"match": "yes", "explanation": "x"})
    backend = ScriptedBackend([wrong_enum, GOOD])
    out = JudgeClient(backend).complete(ENDPOINT, PAIR_MATCH, bindings())
    assert out.parsed["match"] == "1"
    missing_key = canonical_json({"match": "1"})
    backend2 = ScriptedBackend([missing_key, missing_key])
    with pytest.raises(JudgeFormatError):
        JudgeClient(backend2).complete(ENDPOINT, PAIR_MATCH, bindings())


def test_cache_round_trip(tmp_path):
    backend = ScriptedBackend([GOOD])
    client = JudgeClient(backend, cache_dir=tmp_path / "cache")
    first = client.complete(ENDPOINT, PAIR_MATCH, bindings())
    assert first.cache_hit is False
    second = client.complete(ENDPOINT, PAIR_MATCH, bindings())
    assert second.cache_hit is True
    assert second.parsed == first.parsed
    assert len(backend.calls) == 1  # no second backend call
    # a different client over the same directory also hits
    third = JudgeClient(ScriptedBackend([]), cache_dir=tmp_path / "cache")
    assert third.complete(ENDPOINT, PAIR_MATCH, bindings()).cache_hit is True


def test_cache_key_sensitivity(tmp_path):
    client = JudgeClient(ScriptedBackend([GOOD, GOOD]), cache_dir=tmp_path)
    client.complete(ENDPOINT, PAIR_MATCH, bindings())
    other_model = EndpointConfig(model_name="other")
    out = client.complete(other_model, PAIR_MATCH, bindings())
    assert out.cache_hit is False  # model name participates in the key
    bumped = PromptTemplate(
        name=PAIR_MATCH.name,
        version="999",
        system_text=PAIR_MATCH.system_text,
        user_text=PAIR_MATCH.user_text,
        response_schema=PAIR_MATCH.response_schema,
    )
    with pytest.raises(IndexError):
        # exhausted script proves the bumped version misses the cache
        client.complete(ENDPOINT, bumped, bindings())


# ---- compiled response validators ----

VALID_RESPONSES = {
    "thread_parse": {
        "units": [
            {
                "feedback_text": "add an ablation",
                "author_response_text": None,
                "validity": "agreed",
                "author_action": "will_revise",
                "aspects": ["add_ablations"],
                "dimensions": ["feed_forward"],
            }
        ],
        "skipped_positive_count": 1,
    },
    "corruption": {d: f"{d} rewrite" for d in CORRUPTION_DIMENSIONS},
    "corruption_verify": {
        "results": [
            {
                "rewrite_index": 0,
                "predicted_dimension": "vague",
                "target_degradation": 2,
                "collateral_preservation": 3,
                "reasoning": "lost detail",
            }
        ]
    },
    "pair_match": {"match": "1", "explanation": "same point"},
    "quality_score": {
        d: {"score": 4, "justification": "fine"} for d in QUALITY_DIMENSIONS
    },
    "response_predict": {
        "validity": "rebutted",
        "author_action": "no_revision_contest",
        "response_text": "we disagree",
    },
}

WRONG_VALUES = (None, True, -1, 2.5, "not-an-enum-value", "", [], {})


def node_paths(value, path=()):
    """Every path to a node of a JSON value, the root first."""
    yield path
    if isinstance(value, dict):
        for key, child in value.items():
            yield from node_paths(child, path + (key,))
    elif isinstance(value, list):
        for i, child in enumerate(value):
            yield from node_paths(child, path + (i,))


DROP = object()


def replaced(value, path, new):
    """Copy of value with the node at path replaced, or dropped by DROP."""
    if not path:
        return new
    out = json.loads(json.dumps(value))
    node = out
    for step in path[:-1]:
        node = node[step]
    if new is DROP:
        del node[path[-1]]
    else:
        node[path[-1]] = new
    return out


def mutations(value):
    """Missing keys, wrong types, out-of-enum values, extra properties."""
    for path in node_paths(value):
        node = value
        for step in path:
            node = node[step]
        if path and isinstance(path[-1], str):
            yield replaced(value, path, DROP)
        for wrong in WRONG_VALUES:
            yield replaced(value, path, wrong)
        if isinstance(node, dict):
            yield replaced(value, path, {**node, "unexpected": 1})
        if isinstance(node, list):
            yield replaced(value, path, node + ["stray"])


def reference_message(template, instance):
    try:
        jsonschema.validate(instance, dict(template.response_schema))
    except jsonschema.ValidationError as exc:
        return exc.message
    return None


def compiled_message(template, instance):
    try:
        JudgeClient(StubBackend())._validate(template, json.dumps(instance))
    except ValueError as exc:
        prefix = "schema violation: "
        assert str(exc).startswith(prefix)
        return str(exc)[len(prefix) :]
    return None


def test_valid_fixtures_cover_every_template():
    assert set(VALID_RESPONSES) == set(REGISTRY)
    for name, response in VALID_RESPONSES.items():
        assert compiled_message(REGISTRY[name], response) is None


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_compiled_validator_matches_jsonschema_validate(name):
    template = REGISTRY[name]
    cases = list(mutations(VALID_RESPONSES[name]))
    rejected = 0
    for instance in cases:
        expected = reference_message(template, instance)
        assert compiled_message(template, instance) == expected, instance
        rejected += expected is not None
    assert rejected > len(cases) // 2  # the mutations do break the schema


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 7)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(["agreed", "vague", "1", "0", ""])
    | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_compiled_validator_matches_on_random_replacements(data):
    name = data.draw(st.sampled_from(sorted(REGISTRY)))
    valid = VALID_RESPONSES[name]
    path = data.draw(st.sampled_from(list(node_paths(valid))))
    instance = replaced(valid, path, data.draw(JSON_VALUES))
    template = REGISTRY[name]
    assert compiled_message(template, instance) == reference_message(
        template, instance
    )


# Integral floats count as integers in draft 2020-12.
SIBLING_VALUES = JSON_VALUES | st.integers(-3, 7).map(float)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_compiled_validator_matches_on_multi_site_replacements(data):
    # Several violations at one depth are where best_match's tie-breaks
    # decide, and a single replacement rarely produces them.
    name = data.draw(st.sampled_from(sorted(REGISTRY)))
    instance = VALID_RESPONSES[name]
    paths = data.draw(
        st.lists(
            st.sampled_from(list(node_paths(instance))[1:]),
            min_size=2,
            max_size=3,
            unique=True,
        )
    )
    # Deepest first, so every path still exists when it is replaced.
    for path in sorted(paths, key=len, reverse=True):
        instance = replaced(instance, path, data.draw(SIBLING_VALUES))
    template = REGISTRY[name]
    assert compiled_message(template, instance) == reference_message(
        template, instance
    )


def test_shared_validator_under_thread_contention():
    cases = [
        (REGISTRY[name], instance)
        for name in sorted(REGISTRY)
        for instance in mutations(VALID_RESPONSES[name])
    ]
    serial = [compiled_message(t, i) for t, i in cases]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(pool.map(lambda case: compiled_message(*case), cases))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


def test_malformed_schema_still_raises_schema_error():
    broken = PromptTemplate(
        name=PAIR_MATCH.name,
        version=PAIR_MATCH.version,
        system_text=PAIR_MATCH.system_text,
        user_text=PAIR_MATCH.user_text,
        response_schema={"type": "no-such-type"},
    )
    client = JudgeClient(ScriptedBackend([GOOD]))
    with pytest.raises(PipelineError):
        client.complete(ENDPOINT, broken, bindings())
    # Every schema the validator cannot enforce fails at first use,
    # naming the template and the offending part.
    unsupported = {
        "#: unsupported keyword 'pattern'": {"type": "string", "pattern": "x"},
        "#/properties/match: unsupported 'type' value 'no-such-type'": {
            "properties": {"match": {"type": "no-such-type"}}
        },
        "#: unsupported 'additionalProperties' value True": {
            "additionalProperties": True
        },
        "#/properties/units: unsupported 'items' value True": {
            "properties": {"units": {"type": "array", "items": True}}
        },
    }
    for where, schema in unsupported.items():
        template = PromptTemplate(
            name="odd",
            version="1",
            system_text="",
            user_text="",
            response_schema=schema,
        )
        message = f"template odd: response schema {where}"
        with pytest.raises(PipelineError) as info:
            template.validator
        assert str(info.value) == message


def test_validator_is_per_template_not_per_name():
    loose = PromptTemplate(
        name=PAIR_MATCH.name,
        version=PAIR_MATCH.version,
        system_text=PAIR_MATCH.system_text,
        user_text=PAIR_MATCH.user_text,
        response_schema={"type": "object"},
    )
    odd = canonical_json({"anything": 1})
    client = JudgeClient(ScriptedBackend([GOOD, odd]))
    client.complete(ENDPOINT, PAIR_MATCH, bindings())
    assert client.complete(ENDPOINT, loose, bindings()).parsed == {"anything": 1}
    assert PAIR_MATCH.validator is PAIR_MATCH.validator
    assert loose.validator is not PAIR_MATCH.validator


def test_map_complete_preserves_order_and_bounds_concurrency():
    n = 12
    raws = [
        canonical_json({"match": "1" if i % 2 else "0", "explanation": str(i)})
        for i in range(n)
    ]
    backend = ScriptedBackend(raws)
    endpoint = EndpointConfig(max_concurrency=3)
    client = JudgeClient(backend)
    many = [bindings(left=f"L{i}", right="b") for i in range(n)]
    # responses pop in submission order because complete() takes the
    # script lock per call; order must still match the input list
    out = client.map_complete(endpoint, PAIR_MATCH, many)
    assert [r.parsed["explanation"] for r in out] == [str(i) for i in range(n)]
    assert backend.max_in_flight <= 3
    assert client.map_complete(endpoint, PAIR_MATCH, []) == []


class EchoBackend:
    """pair_match replies that echo left_text; tracks backend calls in
    flight per endpoint (keyed by base_url)."""

    def __init__(self, delay=0.01, barrier=None, skip=0):
        self.delay = delay
        # after the first `skip` calls, the next barrier.parties wait on it
        self.barrier = barrier
        self.skip = skip
        self.calls = []
        self.in_flight = Counter()
        self.peak = Counter()
        self._lock = threading.Lock()

    def complete(self, endpoint, template, bindings, system_text, user_text):
        url = endpoint.base_url
        with self._lock:
            self.calls.append(bindings["left_text"])
            self.in_flight[url] += 1
            self.peak[url] = max(self.peak[url], self.in_flight[url])
            wait = (
                self.barrier is not None
                and self.skip < len(self.calls) <= self.skip + self.barrier.parties
            )
        if wait:
            self.barrier.wait()
        if self.delay:
            time.sleep(self.delay)
        with self._lock:
            self.in_flight[url] -= 1
        reply = {"match": "1", "explanation": bindings["left_text"]}
        return canonical_json(reply), {}


def echo(client, endpoint, left):
    return client.complete(endpoint, PAIR_MATCH, bindings(left=left)).parsed[
        "explanation"
    ]


def test_map_keeps_order_and_bounds_in_flight(tmp_path):
    # item 0's call runs inline and waits; the next three backend calls,
    # items 1-3 on the pool, can only pass the barrier together, so three
    # calls must be in flight at once
    backend = EchoBackend(barrier=threading.Barrier(3, timeout=10), skip=1)
    endpoint = EndpointConfig(max_concurrency=3)
    client = JudgeClient(backend, cache_dir=tmp_path)
    # items 0-9 are cached: they run inline, the rest on the pool
    cold = client.map(lambda i: echo(client, endpoint, str(i)), range(10))
    assert cold == [str(i) for i in range(10)]
    warm = client.map(lambda i: echo(client, endpoint, str(i)), range(30))
    assert warm == [str(i) for i in range(30)]
    assert sorted(backend.calls, key=int) == [str(i) for i in range(30)]
    assert backend.peak[""] == 3
    assert client.map(lambda i: echo(client, endpoint, str(i)), []) == []


def test_map_stays_on_the_calling_thread_until_a_call_waits(monkeypatch):
    pools = []
    real_pool = judge_module.ThreadPoolExecutor

    def counting_pool(max_workers):
        pools.append(max_workers)
        return real_pool(max_workers=max_workers)

    # Each thread's off-CPU clock advances by the backend's delay and by
    # nothing else, so whether a call waited does not depend on the
    # host's load (a preempted zero-delay call would count as waiting).
    off_cpu = threading.local()

    class Clocked(EchoBackend):
        def complete(self, *args):
            off_cpu.seconds = getattr(off_cpu, "seconds", 0.0) + self.delay
            return super().complete(*args)

    monkeypatch.setattr(judge_module, "ThreadPoolExecutor", counting_pool)
    monkeypatch.setattr(
        judge_module, "_off_cpu_clock", lambda: getattr(off_cpu, "seconds", 0.0)
    )
    backend = Clocked(delay=0)
    endpoint = EndpointConfig(max_concurrency=4)
    client = JudgeClient(backend)

    def run(items):
        return client.map(lambda i: echo(client, endpoint, str(i)), items)

    # calls that return at once start no pool, on a new endpoint too
    assert run(range(8)) == [str(i) for i in range(8)]
    assert pools == [] and backend.peak[""] == 1
    # item 8 runs inline and its call waits, so items 9-15 go to a pool
    # four wide
    backend.delay = 0.02
    first = len(backend.calls)
    assert run(range(8, 16)) == [str(i) for i in range(8, 16)]
    assert pools == [4] and backend.calls[first] == "8"
    assert backend.peak[""] <= 4
    # nothing is remembered per endpoint: the next map starts inline again
    backend.delay = 0
    backend.peak.clear()
    assert run(range(16, 24)) == [str(i) for i in range(16, 24)]
    assert pools == [4] and backend.peak[""] == 1


def test_map_runs_each_item_once():
    for max_concurrency in (1, 4):
        endpoint = EndpointConfig(max_concurrency=max_concurrency)
        client = JudgeClient(EchoBackend(delay=0.002))
        runs = Counter()
        lock = threading.Lock()

        def fn(i):
            with lock:
                runs[i] += 1
            return echo(client, endpoint, str(i))

        assert client.map(fn, range(12)) == [str(i) for i in range(12)]
        assert runs == Counter(range(12))


def test_map_propagates_earliest_failure_and_cancels_the_rest(tmp_path):
    for max_concurrency, warm in itertools.product((1, 3), (False, True)):
        endpoint = EndpointConfig(max_concurrency=max_concurrency)
        cache_dir = tmp_path / f"{max_concurrency}-{warm}"
        client = JudgeClient(EchoBackend(delay=0.01), cache_dir=cache_dir)
        if warm:  # every item is a hit, so all of them run inline
            client.map(lambda i: echo(client, endpoint, str(i)), range(40))
        started = set()

        def fn(i):
            started.add(i)
            echo(client, endpoint, str(i))
            if i in (2, 5):
                raise ValueError(f"item {i}")
            return i

        with pytest.raises(ValueError, match="item 2"):
            client.map(fn, list(range(40)))
        assert len(started) < 40  # items not yet started were cancelled


def test_map_nested_calls_complete(tmp_path):
    backend = EchoBackend()
    endpoint = EndpointConfig(max_concurrency=2)
    client = JudgeClient(backend, cache_dir=tmp_path)

    def inner(i):
        return client.map(lambda j: echo(client, endpoint, f"{i}-{j}"), range(3))

    want = [[f"{i}-{j}" for j in range(3)] for i in range(4)]
    # Items 0 and 1 are cached whole and run inline; item 2's nested map
    # hits on 2-0 and runs its misses 2-1 and 2-2 itself.
    for left in ("0-0", "0-1", "0-2", "1-0", "1-1", "1-2", "2-0"):
        echo(client, endpoint, left)
    assert client.map(inner, range(4)) == want
    assert sorted(backend.calls) == sorted(x for row in want for x in row)
    assert backend.peak[""] <= 2
    # cold: outer and nested pools share the one budget
    cold = EchoBackend()
    client = JudgeClient(cold)
    assert client.map(inner, range(4)) == want
    assert len(cold.calls) == 12
    assert cold.peak[""] <= 2


def test_concurrent_maps_share_one_budget():
    # eight maps at once, each first to ask for the budget in its own
    # thread: a second semaphore for one endpoint would break the bound
    backend = EchoBackend(delay=0.002)
    endpoint = EndpointConfig(max_concurrency=3)
    client = JudgeClient(backend)
    names = "abcdefgh"
    results = {}

    def run(name):
        results[name] = client.map(
            lambda i: echo(client, endpoint, f"{name}{i}"), range(10)
        )

    threads = [threading.Thread(target=run, args=(name,)) for name in names]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == {n: [f"{n}{i}" for i in range(10)] for n in names}
    assert len(backend.calls) == 80
    assert backend.peak[""] <= 3


def test_chain_over_two_endpoints_keeps_both_budgets():
    # corrupt -> verify style: each item calls a wide endpoint, then a
    # narrow one; both wait, and the pool is as wide as the budget of the
    # first call that waited (3)
    backend = EchoBackend()
    wide = EndpointConfig(base_url="http://wide", max_concurrency=3)
    narrow = EndpointConfig(base_url="http://narrow", max_concurrency=1)
    client = JudgeClient(backend)

    def chain(i):
        return echo(client, narrow, echo(client, wide, str(i)) + "v")

    assert client.map(chain, range(24)) == [f"{i}v" for i in range(24)]
    assert len(backend.calls) == 48
    assert backend.peak["http://wide"] <= 3
    assert backend.peak["http://narrow"] == 1


def test_cached_map_starts_no_thread_and_takes_no_slot(tmp_path, monkeypatch):
    holding, release, timed_out = (threading.Event() for _ in range(3))

    class Blocking(EchoBackend):
        def complete(self, endpoint, template, bindings, *texts):
            if bindings["left_text"] == "block":
                holding.set()
                if not release.wait(5):
                    timed_out.set()  # before the slot is given back
            return super().complete(endpoint, template, bindings, *texts)

    endpoint = EndpointConfig(max_concurrency=1)
    client = JudgeClient(Blocking(), cache_dir=tmp_path)
    want = [str(i) for i in range(6)]
    assert client.map(lambda i: echo(client, endpoint, str(i)), range(6)) == want
    # a backend call holds the endpoint's only slot until released
    holder = threading.Thread(target=echo, args=(client, endpoint, "block"))
    holder.start()
    try:
        assert holding.wait(10)

        def no_pool(*args, **kwargs):
            raise AssertionError("a cached map started a thread pool")

        monkeypatch.setattr(judge_module, "ThreadPoolExecutor", no_pool)
        nested = client.map(
            lambda i: client.map(lambda j: echo(client, endpoint, str(j)), range(i)),
            range(6),
        )
        assert nested == [want[:i] for i in range(6)]
        assert client.map(lambda i: echo(client, endpoint, str(i)), range(6)) == want
        assert not timed_out.is_set()  # the cached maps never waited for it
    finally:
        release.set()
        holder.join(timeout=10)
    assert not holder.is_alive()


def test_embed_caches_per_text(tmp_path):
    class CountingStub(StubBackend):
        def __init__(self):
            super().__init__()
            self.embedded = []

        def embed(self, endpoint, texts):
            self.embedded.extend(texts)
            return super().embed(endpoint, texts)

    backend = CountingStub()
    client = JudgeClient(backend, cache_dir=tmp_path)
    v1 = client.embed(ENDPOINT, ["x", "y"])
    v2 = client.embed(ENDPOINT, ["y", "x", "z"])
    assert backend.embedded == ["x", "y", "z"]  # cached texts not re-sent
    assert np.allclose(v1[0], v2[1])
    assert np.allclose(v1[1], v2[0])


def test_embed_rejects_empty_text():
    client = JudgeClient(StubBackend())
    with pytest.raises(Exception):
        client.embed(ENDPOINT, ["ok", ""])


def test_embed_dimension_mismatch_detected(tmp_path):
    class Lopsided:
        def embed(self, endpoint, texts):
            return [np.ones(4 if t == "a" else 5) for t in texts]

        def complete(self, *a):
            raise AssertionError

    client = JudgeClient(Lopsided(), cache_dir=tmp_path)
    with pytest.raises(JudgeError):
        client.embed(ENDPOINT, ["a", "b"])


class RecordingStub(StubBackend):
    """Stub embeddings; records the texts of every backend call."""

    def __init__(self, fixture=None):
        super().__init__(fixture or {"embedding_dim": 8})
        self.calls = []

    def embed(self, endpoint, texts):
        self.calls.append(list(texts))
        return super().embed(endpoint, texts)


def cache_state(cache_dir):
    """Name -> (inode, mtime, bytes): a rewrite changes the inode."""
    return {
        p.name: (p.stat().st_ino, p.stat().st_mtime_ns, p.read_bytes())
        for p in sorted(cache_dir.iterdir())
    }


EMBED_TEXTS = ["alpha", "beta", "gamma", "delta", "epsilon"]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.lists(st.sampled_from(EMBED_TEXTS), min_size=1, max_size=6),
            st.booleans(),
        ),
        min_size=1,
        max_size=6,
    )
)
def test_embed_segments_match_an_uncached_client(calls):
    uncached = JudgeClient(RecordingStub())
    with tempfile.TemporaryDirectory() as tmp:
        cache_dir = Path(tmp)
        backend = RecordingStub()
        client = JudgeClient(backend, cache_dir=cache_dir)
        for texts, reopen in calls:
            if reopen:
                client = JudgeClient(backend, cache_dir=cache_dir)
            got = client.embed(ENDPOINT, texts)
            for vec, want in zip(got, uncached.embed(ENDPOINT, texts), strict=True):
                assert vec.dtype == np.float64
                assert np.array_equal(vec, want)
        sent = [t for call in backend.calls for t in call]
        assert len(sent) == len(set(sent))  # each text reaches the backend once
        assert len(list(cache_dir.glob("emb-*.bin"))) == len(backend.calls)

        before, backend_calls = cache_state(cache_dir), len(backend.calls)
        for client in (client, JudgeClient(backend, cache_dir=cache_dir)):
            for texts, _ in calls:
                client.embed(ENDPOINT, texts)
        assert len(backend.calls) == backend_calls
        assert cache_state(cache_dir) == before


def test_segment_index_under_thread_contention(tmp_path):
    texts = [f"text {k}" for k in range(200)]
    batches = [texts[k % 198 : k % 198 + 3] for k in range(400)]
    want = JudgeClient(RecordingStub()).embed(ENDPOINT, texts)
    backend = RecordingStub()
    client = JudgeClient(backend, cache_dir=tmp_path)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(lambda b: client.embed(ENDPOINT, b), batches))
    finally:
        sys.setswitchinterval(interval)
    for batch, vectors in zip(batches, got):
        for text, vec in zip(batch, vectors):
            assert np.array_equal(vec, want[texts.index(text)])
    # A lost index update would send a cached text to the backend again.
    calls = len(backend.calls)
    client.embed(ENDPOINT, texts)
    JudgeClient(backend, cache_dir=tmp_path).embed(ENDPOINT, texts)
    assert len(backend.calls) == calls


@pytest.mark.parametrize("torn", ["mid-header", "mid-payload"])
def test_torn_segment_is_a_miss_and_is_rewritten(tmp_path, caplog, torn):
    backend = RecordingStub()
    first = JudgeClient(backend, cache_dir=tmp_path).embed(ENDPOINT, ["x", "y"])
    (segment,) = tmp_path.iterdir()
    whole = segment.read_bytes()
    if torn == "mid-header":
        cut = table_size(whole) // 2
    else:  # three bytes into the second record
        cut = record_spans(whole)[1][0] + 3
    segment.write_bytes(whole[:cut])

    with caplog.at_level(logging.WARNING, logger="feedbacklab.judge"):
        again = JudgeClient(backend, cache_dir=tmp_path).embed(ENDPOINT, ["x", "y"])
    assert f"unreadable entry {segment.name}" in caplog.text
    assert backend.calls == [["x", "y"], ["x", "y"]]  # both keys missed
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    assert list(tmp_path.iterdir()) == [segment]
    assert segment.read_bytes() == whole


def files_and_mtimes(directory):
    return {p.name: (p.stat().st_mtime_ns, p.read_bytes()) for p in directory.iterdir()}


def test_scan_reads_a_cache_without_changing_it(tmp_path):
    writer = JudgeClient(ScriptedBackend([GOOD]), cache_dir=tmp_path)
    writer.embed(ENDPOINT, ["x", "y"])
    writer.complete(ENDPOINT, PAIR_MATCH, bindings())
    (emb,), (cmp_,) = tmp_path.glob("emb-*.bin"), tmp_path.glob("cmp-*.bin")
    torn = tmp_path / "cmp-torn.bin"
    torn.write_bytes(cmp_.read_bytes()[:-1])
    # a whole segment, but its name gives no kind
    unknown = tmp_path / "xyz-unknown.bin"
    unknown.write_bytes(cmp_.read_bytes())
    (tmp_path / "old.json").write_text("{}")  # not a segment: not read
    before = files_and_mtimes(tmp_path)

    index, unreadable = segments.scan(tmp_path)
    assert unreadable == [torn, unknown]
    planted = [(path, *pair) for path in (emb, cmp_) for pair in read_segment(path)]
    assert sorted(index) == sorted(key for _, key, _ in planted)
    for path, key, record in planted:
        segment, offset, size, crc = index[key]
        assert segment == path and path.read_bytes()[offset:][:size] == record
        assert size == len(record) and crc == zlib.crc32(record)
    assert files_and_mtimes(tmp_path) == before


def old_embedding_segment(cache_dir, texts, dtype):
    """What an older version wrote for texts: a JSON header line of hex
    keys, then the rows as dtype."""
    keys = [
        hashlib.sha256(
            canonical_json(
                {"kind": "embedding", "model": ENDPOINT.model_name, "text": t}
            ).encode()
        ).hexdigest()
        for t in texts
    ]
    rows = RecordingStub().embed(ENDPOINT, texts)
    name = hashlib.sha256("".join(keys).encode("ascii")).hexdigest()
    segment = cache_dir / f"emb-{name}.bin"
    header = (canonical_json({"dim": 8, "keys": keys}) + "\n").encode()
    segment.write_bytes(header + b"".join(v.astype(dtype).tobytes() for v in rows))
    return segment


def embedding_key(text):
    return hashlib.sha256(
        judge_module._embedding_key_material(ENDPOINT.model_name, text)
    ).digest()


def float32_rows(texts):
    """The stub's vectors for texts, as raw little-endian float32 bytes."""
    return [v.astype("<f4").tobytes() for v in RecordingStub().embed(ENDPOINT, texts)]


def raw_row_segment(cache_dir, texts, magic):
    """A segment of raw float32 rows for texts, each with a valid crc32,
    under the given magic; named as embed() names its segments."""
    keys = [embedding_key(t) for t in texts]
    segment = cache_dir / f"emb-{hashlib.sha256(b''.join(keys)).hexdigest()}.bin"
    segment.write_bytes(segment_bytes(list(zip(keys, float32_rows(texts))), magic))
    return segment


def test_float64_segment_of_an_older_version_is_a_miss_and_heals(
    tmp_path, caplog
):
    texts = ["x", "y", "z"]
    fresh_dir = tmp_path / "fresh"
    JudgeClient(RecordingStub(), cache_dir=fresh_dir).embed(ENDPOINT, texts)
    (fresh,) = fresh_dir.iterdir()
    cache_dir = tmp_path / "old"
    cache_dir.mkdir()
    # float64 rows, then the float32 rows of the version after it, then
    # the raw float32 rows of the first binary table
    old = sorted(
        [
            old_embedding_segment(cache_dir, texts, "<f8"),
            old_embedding_segment(cache_dir, texts[1:], "<f4"),
            raw_row_segment(cache_dir, texts[:2], b"FLC\x03"),
        ]
    )

    backend = RecordingStub()
    with caplog.at_level(logging.WARNING, logger="feedbacklab.judge"):
        healed = JudgeClient(backend, cache_dir=cache_dir).embed(ENDPOINT, texts)
    warnings = [r.getMessage() for r in caplog.records]
    assert warnings == [
        "judge cache: 3 unreadable segment(s) deleted, treated as misses: "
        + ", ".join(f"unreadable entry {segment.name}" for segment in old)
    ]
    assert backend.calls == [texts]  # one fetch per record
    assert list(cache_dir.iterdir()) == [cache_dir / fresh.name]
    assert (cache_dir / fresh.name).read_bytes() == fresh.read_bytes()

    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="feedbacklab.judge"):
        again = JudgeClient(backend, cache_dir=cache_dir).embed(ENDPOINT, texts)
    assert caplog.records == []
    assert backend.calls == [texts]
    assert all(np.array_equal(a, b) for a, b in zip(healed, again, strict=True))


def test_raw_row_under_the_current_magic_tears_its_segment(tmp_path):
    # A raw float32 row passes its crc32 but does not decode: its segment
    # tears, with one warning, and every text in it is embedded again.
    texts = ["x", "y"]
    fresh_dir = tmp_path / "fresh"
    JudgeClient(RecordingStub(), cache_dir=fresh_dir).embed(ENDPOINT, texts)
    (fresh,) = fresh_dir.iterdir()
    x, (key, _) = read_segment(fresh)
    raw = float32_rows(["y"])[0]
    cache_dir = tmp_path / "planted"
    cache_dir.mkdir()
    segment = cache_dir / fresh.name
    segment.write_bytes(segment_bytes([x, (key, raw)], LAYOUTS["emb"]))

    backend = RecordingStub()
    with Warnings() as warnings:
        healed = JudgeClient(backend, cache_dir=cache_dir).embed(ENDPOINT, texts)
    assert warnings == [
        f"judge cache: unreadable entry {segment.name}, treated as a miss"
    ]
    assert backend.calls == [texts]
    assert list(cache_dir.iterdir()) == [segment]
    assert segment.read_bytes() == fresh.read_bytes()
    with Warnings() as warnings:
        again = JudgeClient(backend, cache_dir=cache_dir).embed(ENDPOINT, texts)
    assert warnings == [] and backend.calls == [texts]
    assert all(np.array_equal(a, b) for a, b in zip(healed, again, strict=True))


# Bit patterns of float32 values that arithmetic rarely makes: zeros,
# infinities, quiet and signalling NaNs with payloads, subnormals.
SPECIAL_FLOAT32_BITS = [
    0x00000000,
    0x80000000,
    0x7F800000,
    0xFF800000,
    0x7FC00000,
    0xFFC00001,
    0x7F800001,
    0xFFBFFFFF,
    0x00000001,
    0x807FFFFF,
    0x00400000,
]
float32_bits = st.sampled_from(SPECIAL_FLOAT32_BITS) | st.integers(0, 2**32 - 1)
raw_rows = st.lists(float32_bits, min_size=1, max_size=300).map(
    lambda bits: struct.pack(f"<{len(bits)}I", *bits)
)


@settings(max_examples=150, deadline=None)
@given(st.lists(raw_rows, min_size=1, max_size=5))
@example([struct.pack("<11I", *SPECIAL_FLOAT32_BITS)])
@example([b"\0\0\x80\x3f" * 1024])
def test_packed_rows_give_back_their_bytes(rows):
    unpacked = segments.unpack_rows([segments.pack_row(r) for r in rows])
    assert [u.dtype for u in unpacked] == [np.dtype("<f4")] * len(rows)
    assert [u.tobytes() for u in unpacked] == rows


def test_record_that_is_not_a_packed_row_decodes_as_a_miss():
    pack, unpack = segments.pack_row, segments.unpack_rows
    rows = float32_rows(["x", "y"])
    packed = [pack(r) for r in rows]
    cut_short = [packed[0][:end] for end in range(len(packed[0]))]
    trailing = packed[0] + b"\0"
    bad = [*cut_short, trailing, rows[0], rows[1]]
    # each bad record is None, and the good ones around it are intact
    unpacked = unpack([packed[0], *bad, packed[1]])
    assert unpacked[1:-1] == [None] * len(bad)
    assert [unpacked[0].tobytes(), unpacked[-1].tobytes()] == rows


finite_coords = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)


@st.composite
def planted_embeddings(draw):
    """A dimension and a few vectors of it, none near zero."""
    dim = draw(st.integers(2, 64))
    vector = st.lists(finite_coords, min_size=dim, max_size=dim).filter(
        lambda v: max(map(abs, v)) > 1e-3
    )
    return dim, draw(st.lists(vector, min_size=2, max_size=6))


@settings(max_examples=60, deadline=None)
@given(planted_embeddings(), st.floats(-1.0, 1.0))
@example((3, [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0000001], [-1.0, 0.5, 0.0]]), 1.0)
def test_float32_store_matches_the_float64_vectors(planted, threshold):
    dim, originals = planted
    texts = [f"text {i}" for i in range(len(originals))]
    backend = RecordingStub(
        {"embedding_dim": dim, "embeddings": dict(zip(texts, originals))}
    )
    exact = [np.asarray(v, dtype=float) for v in originals]
    exact = [v / np.linalg.norm(v) for v in exact]
    with tempfile.TemporaryDirectory() as tmp:
        client = JudgeClient(backend, cache_dir=tmp)
        cold = client.embed(ENDPOINT, texts)
        warm = client.embed(ENDPOINT, texts)
        reopened = JudgeClient(backend, cache_dir=tmp).embed(ENDPOINT, texts)
    assert backend.calls == [texts]
    for c, w, r, v in zip(cold, warm, reopened, exact, strict=True):
        assert c.dtype == w.dtype == r.dtype == np.float64
        assert np.array_equal(c, w) and np.array_equal(c, r)
        assert np.array_equal(c, v.astype("<f4").astype(float))

    kept = {(i, j) for i, j, _ in similar_pairs(cold, cold, threshold)}
    for i, j in itertools.combinations(range(len(texts)), 2):
        want = cosine(exact[i], exact[j])
        assert abs(cosine(cold[i], cold[j]) - want) <= 1e-6
        if abs(want - threshold) > 1e-6:
            assert ((i, j) in kept) == (want >= threshold)


def segment_records(cache_dir):
    """Keys of each completion segment, by file name."""
    paths = sorted(cache_dir.glob("cmp-*.bin"))
    return {path.name: segment_keys(path) for path in paths}


def flip(data, start, count=4):
    """data with `count` bytes from `start` on inverted."""
    end = start + count
    return data[:start] + bytes(b ^ 0xFF for b in data[start:end]) + data[end:]


def test_torn_completion_is_a_miss_and_warns_once(tmp_path, caplog):
    pair = [bindings(left="a"), bindings(left="c")]
    for torn in ("mid-header", "mid-record", "damaged-record"):
        cache_dir = tmp_path / torn
        backend = ScriptedBackend([GOOD] * 4)
        JudgeClient(backend, cache_dir=cache_dir).map_complete(
            ENDPOINT, PAIR_MATCH, pair
        )
        (segment,) = cache_dir.iterdir()
        assert segment.name.startswith("cmp-")
        whole = segment.read_bytes()
        header_len = table_size(whole)
        if torn == "damaged-record":
            # same size, bytes flipped inside the first record
            segment.write_bytes(flip(whole, header_len + 10))
        else:
            cut = header_len // 2 if torn == "mid-header" else len(whole) - 3
            segment.write_bytes(whole[:cut])

        # the segment's header is read once, by the first lookup
        client = JudgeClient(backend, cache_dir=cache_dir)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="feedbacklab.judge"):
            responses = client.map_complete(ENDPOINT, PAIR_MATCH, pair)
        assert caplog.text.count(f"unreadable entry {segment.name}") == 1
        # both of the segment's records missed
        assert not any(r.cache_hit for r in responses) and len(backend.calls) == 4
        assert list(cache_dir.iterdir()) == [segment]
        assert segment.read_bytes() == whole


def test_damaged_later_record_deletes_its_segment(tmp_path, caplog):
    # the first record hits, the damaged second tears the segment; its
    # reply goes to a new segment, and the deleted one shadows nothing
    pair = [bindings(left="a"), bindings(left="c")]
    backend = ScriptedBackend([GOOD] * 4)
    first = JudgeClient(backend, cache_dir=tmp_path).map_complete(
        ENDPOINT, PAIR_MATCH, pair
    )
    (segment,) = tmp_path.iterdir()
    whole = segment.read_bytes()
    segment.write_bytes(flip(whole, len(whole) - 20))

    hits = []
    for _ in range(3):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="feedbacklab.judge"):
            responses = JudgeClient(backend, cache_dir=tmp_path).map_complete(
                ENDPOINT, PAIR_MATCH, pair
            )
        assert [r.parsed for r in responses] == [r.parsed for r in first]
        hits.append(([r.cache_hit for r in responses], caplog.text))
    assert hits[0][0] == [True, False]
    assert hits[0][1].count(f"unreadable entry {segment.name}") == 1
    assert not segment.exists()
    # the record served from the deleted segment is fetched once more
    assert hits[1:] == [([False, True], ""), ([True, True], "")]
    assert len(backend.calls) == 4


def test_segment_deleted_under_a_client_is_a_miss(tmp_path, caplog):
    # what a read sees when another thread tore the segment after this
    # one looked its key up
    backend = ScriptedBackend([GOOD] * 2)
    client = JudgeClient(backend, cache_dir=tmp_path)
    client.complete(ENDPOINT, PAIR_MATCH, bindings())
    (segment,) = tmp_path.iterdir()
    whole = segment.read_bytes()
    segment.unlink()
    with caplog.at_level(logging.WARNING, logger="feedbacklab.judge"):
        again = client.complete(ENDPOINT, PAIR_MATCH, bindings())
    assert not again.cache_hit and len(backend.calls) == 2
    assert caplog.text.count(f"unreadable entry {segment.name}") == 1
    assert segment.read_bytes() == whole


def prompt_of(left):
    """The dictionary a PAIR_MATCH reply's record is compressed against."""
    system_text, user_text = PAIR_MATCH.render(bindings(left=left))
    return (system_text + "\n" + user_text).encode()


def test_completion_segment_of_an_older_version_is_a_miss_and_heals(
    tmp_path, caplog
):
    pair = [bindings(left="a"), bindings(left="c")]
    fresh_dir = tmp_path / "fresh"
    JudgeClient(ScriptedBackend([GOOD] * 2), cache_dir=fresh_dir).map_complete(
        ENDPOINT, PAIR_MATCH, pair
    )
    (fresh,) = fresh_dir.iterdir()
    # what the previous version wrote: a JSON header line of hex keys and
    # zsizes, then records zlib-compressed without a dictionary
    keys = [cache_key(ENDPOINT, left).hex() for left in "ac"]
    usage = canonical_json({"prompt_tokens": 1, "completion_tokens": 1})
    plain = f"{usage}\n{GOOD}".encode()
    records = [zlib.compress(plain, 1)] * 2
    header = canonical_json({"keys": keys, "zsizes": [len(r) for r in records]})
    cache_dir = tmp_path / "old"
    cache_dir.mkdir()
    name = hashlib.sha256("".join(keys).encode("ascii")).hexdigest()
    segment = cache_dir / f"cmp-{name}.bin"
    segment.write_bytes(header.encode() + b"\n" + b"".join(records))

    backend = ScriptedBackend([GOOD] * 2)
    with caplog.at_level(logging.WARNING, logger="feedbacklab.judge"):
        healed = JudgeClient(backend, cache_dir=cache_dir).map_complete(
            ENDPOINT, PAIR_MATCH, pair
        )
    warnings = [r.getMessage() for r in caplog.records]
    assert warnings == [
        "judge cache: 1 unreadable segment(s) deleted, treated as misses: "
        f"unreadable entry {segment.name}"
    ]
    assert not any(r.cache_hit for r in healed) and len(backend.calls) == 2
    assert list(cache_dir.iterdir()) == [cache_dir / fresh.name]
    assert (cache_dir / fresh.name).read_bytes() == fresh.read_bytes()
    (key, record), _ = read_segment(cache_dir / fresh.name)
    assert key.hex() == keys[0]
    assert zlib.decompressobj(zdict=prompt_of("a")).decompress(record) == plain

    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="feedbacklab.judge"):
        again = JudgeClient(backend, cache_dir=cache_dir).map_complete(
            ENDPOINT, PAIR_MATCH, pair
        )
    assert caplog.records == []
    assert all(r.cache_hit for r in again) and len(backend.calls) == 2
    assert [r.parsed for r in again] == [r.parsed for r in healed]


def test_record_moved_under_another_key_is_a_torn_miss(tmp_path, caplog):
    # a whole record with a valid table, but compressed against another
    # prompt: its dictionary check fails, so it is never served
    writer = JudgeClient(EchoBackend(delay=0), cache_dir=tmp_path / "w")
    assert echo(writer, ENDPOINT, "a") == "a"
    ((_, record),) = read_segment(next((tmp_path / "w").iterdir()))
    segment = tmp_path / "moved" / "cmp-moved.bin"
    segment.parent.mkdir()
    planted = [(cache_key(ENDPOINT, "b"), record)]
    segment.write_bytes(segment_bytes(planted, LAYOUTS["cmp"]))

    backend = EchoBackend(delay=0)
    client = JudgeClient(backend, cache_dir=segment.parent)
    with caplog.at_level(logging.WARNING, logger="feedbacklab.judge"):
        assert echo(client, ENDPOINT, "b") == "b"
    assert backend.calls == ["b"]
    assert [r.getMessage() for r in caplog.records] == [
        f"judge cache: unreadable entry {segment.name}, treated as a miss"
    ]
    assert not segment.exists()


def test_reply_that_quotes_its_prompt_is_stored_smaller(tmp_path):
    left = "the ablation in section 4 leaves out the learned gating layer " * 4
    client = JudgeClient(EchoBackend(delay=0), cache_dir=tmp_path)
    response = client.complete(ENDPOINT, PAIR_MATCH, bindings(left=left))
    assert left in response.raw_text
    ((_, record),) = read_segment(next(tmp_path.iterdir()))
    plain = canonical_json(response.usage).encode() + b"\n" + response.raw_text.encode()
    assert len(record) < len(zlib.compress(plain, 1))
    assert zlib.decompressobj(zdict=prompt_of(left)).decompress(record) == plain


def test_repaired_reply_decodes_on_the_next_hit(tmp_path, caplog):
    # the repair call's prompt differs, but the record is compressed
    # against the prompt its key hashes
    backend = ScriptedBackend(["not json", GOOD])
    with caplog.at_level(logging.WARNING, logger="feedbacklab.judge"):
        first = JudgeClient(backend, cache_dir=tmp_path).complete(
            ENDPOINT, PAIR_MATCH, bindings()
        )
    assert not first.cache_hit and backend.calls[1] != backend.calls[0]
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="feedbacklab.judge"):
        again = JudgeClient(backend, cache_dir=tmp_path).complete(
            ENDPOINT, PAIR_MATCH, bindings()
        )
    assert again.cache_hit and again.raw_text == GOOD
    assert len(backend.calls) == 2 and caplog.records == []


@settings(max_examples=100, deadline=None)
@given(st.tuples(st.text(), st.text()), st.tuples(st.text(), st.text()))
@example(("ab", "c"), ("a", "bc"))
def test_embedding_key_material_is_injective(first, second):
    material = judge_module._embedding_key_material
    assert (material(*first) == material(*second)) == (first == second)


DAMAGE_TEXTS = ["alpha", "beta", "gamma"]


class Warnings(logging.Handler):
    """Collects the messages of the judge's warnings while installed."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())

    def __enter__(self):
        logging.getLogger("feedbacklab.judge").addHandler(self)
        return self.messages

    def __exit__(self, *exc):
        logging.getLogger("feedbacklab.judge").removeHandler(self)


def damage_run(kind, cache_dir, count):
    """A new client's results for the first count texts (embeddings) or
    lefts (replies, with whether each hit), its backend calls, and the
    warnings logged."""
    backend = RecordingStub() if kind == "emb" else EchoBackend(delay=0)
    client = JudgeClient(backend, cache_dir=cache_dir)
    texts = DAMAGE_TEXTS[:count]
    with Warnings() as warnings:
        if kind == "emb":
            got = [v.tobytes() for v in client.embed(ENDPOINT, texts)]
        else:
            pairs = [bindings(left=t) for t in texts]
            got = [
                (r.raw_text, r.cache_hit)
                for r in client.map_complete(ENDPOINT, PAIR_MATCH, pairs)
            ]
    return got, backend.calls, warnings


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(["emb", "cmp"]),
    st.integers(1, 3),
    st.floats(0, 1, exclude_max=True),
    st.integers(1, 4),
)
@example("emb", 3, 0.0, 1)  # the magic
@example("cmp", 3, 0.2, 4)  # the entry table
@example("cmp", 2, 0.99, 4)  # the last record
def test_same_size_damage_is_a_miss_that_warns_once(kind, count, at, width):
    with tempfile.TemporaryDirectory() as tmp:
        cache_dir = Path(tmp)
        clean, _, _ = damage_run(kind, cache_dir, count)
        (segment,) = cache_dir.iterdir()
        whole = segment.read_bytes()
        start = int(at * len(whole))
        segment.write_bytes(flip(whole, start, width))
        # A map reads the records before the first damaged one, and
        # serves them, before it meets the damage; embed() checks every
        # row it reads before it serves any.
        intact = sum(end <= start for _, end in record_spans(whole))
        served = intact if kind == "cmp" else 0

        got, calls, warnings = damage_run(kind, cache_dir, count)
        assert len(warnings) == 1 and segment.name in warnings[0]
        if kind == "emb":
            assert got == clean and calls == [DAMAGE_TEXTS[:count]]
        else:  # never a wrong reply; the damaged record and those after miss
            assert [raw for raw, _ in got] == [raw for raw, _ in clean]
            assert [hit for _, hit in got] == [i < served for i in range(count)]
            assert calls == DAMAGE_TEXTS[served:count]
        if served == 0:
            # every record missed, so the rewrite is the clean segment
            assert list(cache_dir.iterdir()) == [segment]
            assert segment.read_bytes() == whole
        else:
            assert not segment.exists()
            # the records served from the deleted file are fetched once more
            _, calls, warnings = damage_run(kind, cache_dir, count)
            assert calls == DAMAGE_TEXTS[:served] and warnings == []
        _, calls, warnings = damage_run(kind, cache_dir, count)
        assert calls == [] and warnings == []


def test_damaged_records_under_thread_contention(tmp_path, caplog):
    lefts = [f"flat {i}" for i in range(64)]
    writer = JudgeClient(EchoBackend(delay=0), cache_dir=tmp_path)
    writer.map(lambda left: echo(writer, ENDPOINT, left), lefts)
    segments = sorted(tmp_path.iterdir())
    assert len(segments) == 2
    for segment in segments:
        whole = segment.read_bytes()
        # inside the records, halfway
        records_at = table_size(whole)
        segment.write_bytes(flip(whole, (records_at + len(whole)) // 2))

    client = JudgeClient(EchoBackend(delay=0), cache_dir=tmp_path)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with caplog.at_level(logging.WARNING, logger="feedbacklab.judge"):
            with ThreadPoolExecutor(max_workers=8) as pool:
                got = list(pool.map(lambda left: echo(client, ENDPOINT, left), lefts))
    finally:
        sys.setswitchinterval(interval)
    assert got == lefts
    for segment in segments:
        assert caplog.text.count(f"unreadable entry {segment.name}") == 1
        assert not segment.exists()
    # every reply is whole on disk again: a reopened client fetches the
    # ones served before the tears once, and the next fetches nothing
    backend = EchoBackend(delay=0)
    for _ in range(2):
        reopened = JudgeClient(backend, cache_dir=tmp_path)
        assert [echo(reopened, ENDPOINT, left) for left in lefts] == lefts
    assert len(backend.calls) == len(set(backend.calls))


def test_map_writes_segments_of_whole_items_in_input_order(tmp_path):
    backend = EchoBackend(delay=0)
    client = JudgeClient(backend, cache_dir=tmp_path)
    endpoint = EndpointConfig(max_concurrency=4)
    client.map(lambda i: echo(client, endpoint, f"flat {i}"), range(100))
    sizes = [len(keys) for keys in segment_records(tmp_path).values()]
    assert sorted(sizes) == [4, 32, 32, 32]

    # Three records an item: a segment closes at the first item boundary
    # past SEGMENT_RECORDS, so no item is split.
    def triple(i):
        return client.map(lambda j: echo(client, endpoint, f"{i}-{j}"), range(3))

    before = set(segment_records(tmp_path))
    client.map(triple, range(25))
    new = {n: k for n, k in segment_records(tmp_path).items() if n not in before}
    assert judge_module.SEGMENT_RECORDS == 32
    assert sorted(len(keys) for keys in new.values()) == [9, 33, 33]
    # a complete() outside any map writes a segment of its one record
    echo(client, endpoint, "alone")
    assert len(segment_records(tmp_path)) == 8

    # records follow input order, the nested map's inside their item
    expected = [cache_key(endpoint, f"{i}-{j}") for i in range(25) for j in range(3)]
    ordered = sorted(new.values(), key=lambda keys: expected.index(keys[0]))
    assert [key for keys in ordered for key in keys] == expected


def test_pool_runs_a_bounded_number_of_items_ahead(tmp_path):
    # Item 0's call outlasts many others: items past SEGMENT_RECORDS
    # wait for it to be taken, so their records are not held meanwhile.
    class SlowFirst(EchoBackend):
        calls_before_first = None

        def complete(self, endpoint, template, bindings, *texts):
            if bindings["left_text"] == "0":
                time.sleep(0.3)
                self.calls_before_first = len(self.calls)
            return super().complete(endpoint, template, bindings, *texts)

    backend = SlowFirst(delay=0.01)
    client = JudgeClient(backend, cache_dir=tmp_path)
    endpoint = EndpointConfig(max_concurrency=4)
    want = [str(i) for i in range(100)]
    assert client.map(lambda i: echo(client, endpoint, str(i)), range(100)) == want
    assert backend.calls_before_first <= judge_module.SEGMENT_RECORDS


def cache_key(endpoint, left):
    system_text, user_text = PAIR_MATCH.render(bindings(left=left))
    return JudgeClient(StubBackend())._cache_key(
        endpoint, PAIR_MATCH, system_text, user_text
    )


class TokenEcho(EchoBackend):
    """EchoBackend whose usage varies with the binding; "a" takes three
    times as long as the others."""

    def complete(self, endpoint, template, bindings, *texts):
        if bindings["left_text"] == "a":
            time.sleep(2 * self.delay)
        raw, _ = super().complete(endpoint, template, bindings, *texts)
        usage = {"prompt_tokens": len(bindings["left_text"]), "completion_tokens": 1}
        return raw, usage


def reply(client, endpoint, left):
    r = client.complete(endpoint, PAIR_MATCH, bindings(left=left))
    return r.raw_text, r.parsed, dict(r.usage)


def run_item(client, endpoint, item):
    kind, arg = item
    if kind == "nested":
        return client.map(lambda left: reply(client, endpoint, left), arg)
    if kind == "chain":  # one call after another, as in corrupt-then-verify
        return [reply(client, endpoint, left) for left in arg]
    out = reply(client, endpoint, arg)
    if kind == "raise":
        raise ValueError(f"item {arg} failed")
    return out


def run_maps(new_client, endpoint, maps):
    """Each map's results, or its error; a new client where asked."""
    client, outcomes = new_client(), []
    for items, reopen in maps:
        if reopen:
            client = new_client()
        try:
            outcomes.append(
                client.map(lambda item: run_item(client, endpoint, item), items)
            )
        except ValueError as exc:
            outcomes.append(str(exc))
    return outcomes


LEFTS = st.sampled_from("abcdefg")
MAP_ITEMS = st.lists(
    st.tuples(st.just("call"), LEFTS)
    | st.tuples(
        st.sampled_from(["nested", "chain"]), st.lists(LEFTS, min_size=1, max_size=3)
    )
    | st.tuples(st.just("raise"), LEFTS),
    min_size=1,
    max_size=8,
)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(MAP_ITEMS, st.booleans()), min_size=1, max_size=4))
# At width 4, item 2 fetches "b" while item 0 still waits on "a"; "b"
# still belongs to item 0.
@example([([("chain", ["a", "b"]), ("call", "c"), ("call", "b")], False)])
def test_completion_segments_match_an_uncached_client(maps):
    want = run_maps(lambda: JudgeClient(TokenEcho(delay=0)), ENDPOINT, maps)
    written = {}
    # Small segments, so that one map writes several and a key computed
    # twice in a map can fall on either side of a cut. At width 4 a later
    # item can fetch a key before an earlier chain item reaches it.
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
        judge_module, "SEGMENT_RECORDS", 3
    ):
        for width in (1, 4):
            cache_dir = Path(tmp) / str(width)
            # calls wait, so every map with a miss goes to a pool at width 4
            backend = TokenEcho(delay=0.006)
            endpoint = EndpointConfig(max_concurrency=width)

            def new_client():
                return JudgeClient(backend, cache_dir=cache_dir)

            assert run_maps(new_client, endpoint, maps) == want
            keys = [k for ks in segment_records(cache_dir).values() for k in ks]
            assert len(keys) == len(set(keys))  # each key written once

            before, calls = cache_state(cache_dir), len(backend.calls)
            reopened = [(items, True) for items, _ in maps]
            assert run_maps(new_client, endpoint, reopened) == want
            assert len(backend.calls) == calls  # only hits
            assert cache_state(cache_dir) == before
            written[width] = {name: data for name, (_, _, data) in before.items()}
    assert written[1] == written[4]


KILLED_MAP = """
import os, signal, sys
from feedbacklab.judge import EndpointConfig, JudgeClient, StubBackend
from feedbacklab.prompts import PAIR_MATCH

kill_at, cache_dir, width = int(sys.argv[1]), sys.argv[2], int(sys.argv[3])
calls = []

class Dying(StubBackend):
    def complete(self, *args):
        calls.append(1)
        if len(calls) == kill_at:
            os.kill(os.getpid(), signal.SIGKILL)
        return super().complete(*args)

reply = {"match": "1", "explanation": "x"}
backend = Dying({"templates": {"pair_match": {"default": reply}}})
items = [
    {"abstract": "A", "left_text": f"left {i}", "right_text": "r"} for i in range(100)
]
endpoint = EndpointConfig(max_concurrency=width)
JudgeClient(backend, cache_dir=cache_dir).map_complete(endpoint, PAIR_MATCH, items)
print(len(calls))
"""


def run_killed_map(kill_at, cache_dir, width):
    paths = [str(Path(judge_module.__file__).parent.parent)]
    paths += filter(None, [os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    return subprocess.run(
        [sys.executable, "-c", KILLED_MAP, str(kill_at), str(cache_dir), str(width)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


def file_bytes(cache_dir):
    return {p.name: p.read_bytes() for p in sorted(cache_dir.iterdir())}


@pytest.mark.parametrize("width", [1, 4])
def test_map_killed_mid_run_keeps_its_written_segments(tmp_path, width):
    clean = run_killed_map(0, tmp_path / "clean", width)
    assert clean.returncode == 0 and clean.stdout.strip() == "100"

    cache_dir = tmp_path / "killed"
    killed = run_killed_map(70, cache_dir, width)
    assert killed.returncode == -signal.SIGKILL
    survived = sum(map(len, segment_records(cache_dir).values()))
    if width == 1:  # the items run in order on one thread
        assert survived == 64

    rerun = run_killed_map(0, cache_dir, width)
    assert rerun.returncode == 0 and "Traceback" not in rerun.stderr
    # every record of a segment written before the kill is a hit
    assert int(rerun.stdout) == 100 - survived
    assert file_bytes(cache_dir) == file_bytes(tmp_path / "clean")


def test_per_call_json_entries_are_dead_files(tmp_path, caplog):
    """Per-call <key>.json entries of earlier versions are not read:
    whole or torn, their calls go to the backend, the replies go to one
    segment, and the files stay as they were, named by no warning."""
    lefts = ["a", "b"]
    raw = canonical_json({"match": "0", "explanation": "old"})
    entry = canonical_json({"parsed": json.loads(raw), "raw_text": raw, "usage": {}})
    whole = tmp_path / f"{cache_key(ENDPOINT, 'a').hex()}.json"
    whole.write_text(entry, encoding="utf-8")
    torn = tmp_path / f"{cache_key(ENDPOINT, 'b').hex()}.json"
    torn.write_text(entry[:20], encoding="utf-8")
    before = {p.name: p.read_bytes() for p in (whole, torn)}

    backend = ScriptedBackend([GOOD, GOOD])
    with caplog.at_level(logging.WARNING, logger="feedbacklab.judge"):
        out = JudgeClient(backend, cache_dir=tmp_path).map_complete(
            ENDPOINT, PAIR_MATCH, [bindings(left=left) for left in lefts]
        )
    assert [(r.raw_text, r.cache_hit) for r in out] == [(GOOD, False)] * 2
    assert len(backend.calls) == 2
    assert list(segment_records(tmp_path).values()) == [
        [cache_key(ENDPOINT, left) for left in lefts]
    ]
    assert {p.name: p.read_bytes() for p in (whole, torn)} == before
    assert whole.name not in caplog.text and torn.name not in caplog.text


# ---- cosine ----


def test_cosine_known_value():
    a = np.array([1.0, 1.0, 0.0]) / math.sqrt(2)
    b = np.array([1.0, 0.0, 0.0])
    assert cosine(a, b) == pytest.approx(0.7071067811865475, abs=1e-15)
    assert cosine(b, b) == 1.0
    assert cosine(b, -b) == -1.0
    with pytest.raises(Exception):
        cosine(np.zeros(3), b)
    with pytest.raises(Exception):
        cosine(np.ones(3), np.ones(4))


# ---- rate limiter ----


def test_rate_limiter_sliding_window():
    now = [0.0]
    naps = []

    def clock():
        return now[0]

    def sleeper(seconds):
        naps.append(seconds)
        now[0] += seconds

    limiter = RateLimiter(3, clock=clock, sleeper=sleeper)
    for _ in range(3):
        limiter.acquire()
    assert naps == []
    limiter.acquire()  # must wait for the first stamp to age out
    assert naps and naps[0] == pytest.approx(60.0)
    # after the window slides, room again without sleeping
    before = len(naps)
    limiter.acquire()
    now[0] += 61
    limiter.acquire()
    assert len(naps) >= before  # no hang; bookkeeping stays consistent


# ---- http backend, over a loopback judge server ----


def completion_payload(content):
    return {
        "choices": [{"message": {"content": content}}],
        "usage": {"prompt_tokens": 5, "completion_tokens": 7},
    }


def live_endpoint(server, **kw):
    kw.setdefault("model_name", "m")
    return EndpointConfig(base_url=server.url, **kw)


@contextlib.contextmanager
def no_resource_warnings():
    """Fails if the block leaves a socket or response unclosed."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_http_backend_retries_on_429(monkeypatch):
    naps = []
    replies = [(429, {}), (200, completion_payload(GOOD))]
    with judge_server(monkeypatch, replies=replies) as server:
        raw, usage = HttpBackend(sleeper=naps.append).complete(
            live_endpoint(server), PAIR_MATCH, bindings(), "sys", "user"
        )
    assert raw == GOOD
    assert usage == {"prompt_tokens": 5, "completion_tokens": 7}
    assert len(server.requests) == 2
    assert naps  # backed off between attempts
    assert server.requests[0]["path"].endswith("/chat/completions")


def test_http_backend_gives_up_after_retries(monkeypatch):
    with judge_server(monkeypatch, replies=[(503, {})] * 5) as server:
        backend = HttpBackend(sleeper=lambda s: None)
        with pytest.raises(JudgeError, match=r"gave up .* \(HTTP 503\)"):
            backend.complete(live_endpoint(server), PAIR_MATCH, bindings(), "s", "u")
    assert len(server.requests) == 5


def test_http_backend_retries_a_truncated_body(monkeypatch):
    replies = [(200, completion_payload(GOOD))] * 5
    with no_resource_warnings(), judge_server(
        monkeypatch, replies=replies, faults=lambda body, attempt: TRUNCATED
    ) as server:
        backend = HttpBackend(sleeper=lambda s: None)
        with pytest.raises(JudgeError, match=r"gave up .* \(IncompleteRead\("):
            backend.complete(live_endpoint(server), PAIR_MATCH, bindings(), "s", "u")
    assert len(server.requests) == 5


def test_http_backend_retries_a_refused_connection(monkeypatch):
    clear_proxies(monkeypatch)
    with socket.socket() as sock:  # a port that nothing listens on
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    naps = []
    endpoint = EndpointConfig(base_url=f"http://127.0.0.1:{port}/v1")
    with no_resource_warnings():
        with pytest.raises(
            JudgeError, match=r"gave up .* after 5 attempts \(.*Connection refused"
        ):
            HttpBackend(sleeper=naps.append).complete(
                endpoint, PAIR_MATCH, bindings(), "s", "u"
            )
    assert naps == [0.5, 1.0, 2.0, 4.0]  # one backoff between attempts


BACKOFFS = [0.5, 1.0, 2.0]
CAP = judge_module.MAX_RETRY_AFTER_SECONDS


@pytest.mark.parametrize(
    "retry_after, naps",
    [
        ("3", [3, 1.0, 3]),
        ("0", [0, 1.0, 0]),
        ("86400", [CAP, 1.0, CAP]),
        ("Wed, 21 Oct 2026 07:28:00 GMT", BACKOFFS),
        ("1.5", BACKOFFS),
        ("-1", BACKOFFS),
        ("", BACKOFFS),
    ],
)
def test_http_backend_honours_retry_after_seconds(monkeypatch, retry_after, naps):
    """A 429's or 503's Retry-After in delay-seconds replaces the wait
    before the next attempt, capped at MAX_RETRY_AFTER_SECONDS; an
    HTTP-date or a malformed value keeps the backoff, and so does a fault
    that carries no header (here a truncated body)."""
    schedule = (429, TRUNCATED, 503)
    replies = [(200, completion_payload(GOOD))] * 2
    recorded = []
    with judge_server(
        monkeypatch,
        replies=replies,
        faults=lambda body, attempt: schedule[attempt] if attempt < 3 else None,
        retry_after=retry_after,
    ) as server:
        raw, _ = HttpBackend(sleeper=recorded.append).complete(
            live_endpoint(server), PAIR_MATCH, bindings(), "s", "u"
        )
    assert raw == GOOD
    assert [r["fault"] for r in server.requests] == [*schedule, None]
    assert recorded == naps


def test_http_backend_no_retry_on_400(monkeypatch):
    with judge_server(monkeypatch, replies=[(400, {})]) as server:
        backend = HttpBackend(sleeper=lambda s: None)
        with pytest.raises(JudgeError, match="HTTP 400 from"):
            backend.complete(live_endpoint(server), PAIR_MATCH, bindings(), "s", "u")
    assert len(server.requests) == 1


def test_http_backend_bearer_header(monkeypatch):
    monkeypatch.setenv("TEST_JUDGE_KEY", "sekret")
    replies = [(200, completion_payload(GOOD))]
    with judge_server(monkeypatch, replies=replies) as server:
        HttpBackend(sleeper=lambda s: None).complete(
            live_endpoint(server, api_key_env="TEST_JUDGE_KEY"),
            PAIR_MATCH,
            bindings(),
            "s",
            "u",
        )
    auth = server.requests[0]["headers"]["Authorization"]
    assert auth == "Bearer sekret"


def test_http_backend_missing_key_is_config_error(monkeypatch):
    monkeypatch.delenv("TEST_JUDGE_KEY", raising=False)
    with judge_server(monkeypatch) as server:
        backend = HttpBackend(sleeper=lambda s: None)
        with pytest.raises(ConfigError):
            backend.complete(
                live_endpoint(server, api_key_env="TEST_JUDGE_KEY"),
                PAIR_MATCH,
                bindings(),
                "s",
                "u",
            )
    assert server.requests == []


def test_http_backend_requires_base_url():
    backend = HttpBackend(sleeper=lambda s: None)
    with pytest.raises(ConfigError):
        backend.complete(EndpointConfig(), PAIR_MATCH, bindings(), "s", "u")


def test_http_backend_embeddings(monkeypatch):
    payload = {"data": [{"embedding": [3.0, 4.0]}, {"embedding": [0.0, 2.0]}]}
    short = {"data": [{"embedding": [1.0]}]}
    with judge_server(monkeypatch, replies=[(200, payload), (200, short)]) as server:
        backend = HttpBackend(sleeper=lambda s: None)
        vecs = backend.embed(live_endpoint(server), ["a", "b"])
        assert server.requests[0]["path"].endswith("/embeddings")
        assert np.allclose(vecs[0], [0.6, 0.8])  # normalized
        assert np.allclose(vecs[1], [0.0, 1.0])
        with pytest.raises(JudgeError):
            backend.embed(live_endpoint(server), ["a", "b"])


def test_http_backend_splits_embedding_batches(monkeypatch):
    texts = [f"t{k}" for k in range(600)]
    sizes = [256, 256, 88]
    assert MAX_EMBED_BATCH == sizes[0]
    # Text k embeds to a multiple of (k + 1, 1), so order is checkable.
    replies = []
    start = 0
    for size in sizes:
        rows = [{"embedding": [k + 1.0, 1.0]} for k in range(start, start + size)]
        replies.append((200, {"data": rows}))
        start += size
    full = {"data": [{"embedding": [1.0, 0.0]}] * 256}
    replies += [(200, full)] * 3
    with judge_server(monkeypatch, replies=replies) as server:
        backend = HttpBackend(sleeper=lambda s: None)
        endpoint = live_endpoint(server, requests_per_minute=100)
        vecs = backend.embed(endpoint, texts)
        assert [r["json"]["input"] for r in server.requests] == [
            texts[:256],
            texts[256:512],
            texts[512:],
        ]
        assert len(vecs) == len(texts)
        for k, vec in enumerate(vecs):
            assert vec[0] / vec[1] == pytest.approx(k + 1.0)

        with pytest.raises(JudgeError, match="sent 88, got 256"):
            backend.embed(endpoint, texts)


@pytest.mark.parametrize(
    "payload",
    [
        completion_payload(None),
        completion_payload(["a"]),
        {**completion_payload(GOOD), "usage": None},
    ],
)
def test_http_backend_malformed_completion_is_judge_error(monkeypatch, payload):
    with judge_server(monkeypatch, replies=[(200, payload)]) as server:
        backend = HttpBackend(sleeper=lambda s: None)
        with pytest.raises(JudgeError, match="malformed completion payload"):
            backend.complete(live_endpoint(server), PAIR_MATCH, bindings(), "s", "u")


@pytest.mark.parametrize("row", ["abc", 5, [[1.0], [1.0, 2.0]], {}])
def test_http_backend_non_vector_embedding_is_judge_error(monkeypatch, row):
    payload = {"data": [{"embedding": row}]}
    with judge_server(monkeypatch, replies=[(200, payload)]) as server:
        backend = HttpBackend(sleeper=lambda s: None)
        with pytest.raises(JudgeError, match="malformed embeddings payload"):
            backend.embed(live_endpoint(server), ["a"])


def test_http_backend_non_json_200_is_judge_error(monkeypatch):
    with judge_server(monkeypatch, faults=lambda body, attempt: NOT_JSON) as server:
        backend = HttpBackend(sleeper=lambda s: None)
        url = re.escape(server.url + "/chat/completions")
        with pytest.raises(JudgeError, match=f"HTTP 200 from {url} with a non-JSON"):
            backend.complete(live_endpoint(server), PAIR_MATCH, bindings(), "s", "u")
    assert len(server.requests) == 1
