"""Domain model: feedback units, review threads, and the success rule.

Everything downstream (forging, consensus scoring, proxy evaluation)
consumes these types, so serialization here is canonical: files are
written with canonical_json (sorted keys, compact separators), and every
stored record inherits Record, whose to_dict and from_dict follow one set
of rules (enums as lowercase strings, sets as sorted lists, absent
optionals omitted). Re-serializing a loaded object must reproduce the
original bytes.

This module also owns the file I/O conventions: atomic_write is the one
writer, and read_json and read_jsonl are the one reader of input files,
so a missing, unreadable or malformed file is reported in one wording.
Only the judge cache's segments, whose binary layout segments owns, are
opened elsewhere.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import json
import operator
import typing
from collections import abc
from dataclasses import MISSING, dataclass, field, replace
from enum import Enum
from pathlib import Path
from types import UnionType
from typing import (
    IO,
    Any,
    Callable,
    Iterable,
    Iterator,
    Mapping,
    TypeVar,
    Union,
)

from .errors import FeedbackLabError, IngestError


class Validity(str, Enum):
    """How the authors received a feedback unit."""

    AGREED = "agreed"
    REBUTTED = "rebutted"
    UNCLEAR = "unclear"


class AuthorAction(str, Enum):
    """The authors' committed response class, 7-way."""

    WILL_REVISE = "will_revise"
    DEFER_FUTURE_WORK = "defer_future_work"
    POINT_TO_EXISTING_CONTENT = "point_to_existing_content"
    NO_REVISION_ACCEPT = "no_revision_accept"
    NO_REVISION_CONTEST = "no_revision_contest"
    NO_ACTION_OTHER = "no_action_other"
    UNCLEAR_OR_NO_RESPONSE = "unclear_or_no_response"


class FeedbackDimension(str, Enum):
    """Direction of a feedback unit relative to the work's goals."""

    FEED_UP = "feed_up"
    FEED_BACK = "feed_back"
    FEED_FORWARD = "feed_forward"


class AspectTag(str, Enum):
    """Closed taxonomy of feedback aspects."""

    ADD_EXPERIMENTS_MORE_DATASETS = "add_experiments_more_datasets"
    ADD_ABLATIONS = "add_ablations"
    ALGORITHM_EFFICIENCY = "algorithm_efficiency"
    THEORETICAL_SOUNDNESS = "theoretical_soundness"
    IMPLICATIONS = "implications"
    ETHICAL_ASPECTS = "ethical_aspects"
    MISSING_CITATIONS = "missing_citations"
    NOVELTY = "novelty"
    CLARITY_PRESENTATION = "clarity_presentation"
    COMPARISON_PREVIOUS_STUDIES = "comparison_previous_studies"
    REPRODUCIBILITY = "reproducibility"


class Source(str, Enum):
    HUMAN = "human"
    MODEL = "model"


class Speaker(str, Enum):
    REVIEWER = "reviewer"
    AUTHOR = "author"


class Decision(str, Enum):
    ACCEPTED = "accepted"
    REJECTED = "rejected"
    UNKNOWN = "unknown"


ACTIONABLE_ACTIONS = frozenset(
    {AuthorAction.WILL_REVISE, AuthorAction.DEFER_FUTURE_WORK}
)


def is_actionable(action: AuthorAction) -> bool:
    """True iff the authors committed to act, now or in future work."""
    if not isinstance(action, AuthorAction):
        raise TypeError(f"expected AuthorAction, got {type(action).__name__}")
    return action in ACTIONABLE_ACTIONS


def success_indicator(validity: Validity, action: AuthorAction) -> bool:
    """The binary success rule: agreed-with AND acted-upon.

    Unclear validity never counts as success, regardless of action.
    """
    if not isinstance(validity, Validity):
        raise TypeError(f"expected Validity, got {type(validity).__name__}")
    return validity is Validity.AGREED and is_actionable(action)


def canonical_json(value: Any) -> str:
    """Serialize with sorted keys and compact separators.

    The single JSON convention used for files, cache keys, and hashes.
    """
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    )


@contextlib.contextmanager
def atomic_write(path: Path, mode: str = "w") -> Iterator[IO]:
    """Stream into <name>.tmp beside path; rename it over path when the
    block ends, delete it on any exception. A killed writer leaves the old
    file whole, plus a stale .tmp."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# What a parse function raises for a value it cannot read: a missing
# key, a wrong type, a bad value, or a record's own check. Bytes that are
# not UTF-8 or not JSON raise ValueError too.
_MALFORMED = (AttributeError, KeyError, TypeError, ValueError, FeedbackLabError)

T = TypeVar("T")


def _open_input(
    path: str | Path, what: str, error: type[FeedbackLabError]
) -> IO[bytes]:
    try:
        return open(path, "rb")
    except FileNotFoundError:
        raise error(f"{what} file not found: {path}") from None
    except OSError as exc:  # a directory, say
        raise error(f"{what} file unreadable: {path}: {exc.strerror}") from None


def read_json(
    path: str | Path,
    parse: Callable[[Any], T],
    what: str,
    error: type[FeedbackLabError],
) -> T:
    """parse(the file's one JSON value). A missing or unreadable file, bytes
    that are not UTF-8 or not JSON, or a value parse rejects raises error
    naming the path."""
    with _open_input(path, what, error) as fh:
        raw = fh.read()
    try:
        return parse(json.loads(raw.decode("utf-8")))
    except _MALFORMED as exc:
        raise error(f"{path}: malformed {what}: {exc}") from None


def read_jsonl(
    path: str | Path, parse: Callable[[Any], T], what: str
) -> Iterator[tuple[int, T]]:
    """(line number, parse(object)) for each nonblank line of a JSONL file.

    Faults are reported as read_json reports them, as IngestError, with
    the line number after the path.
    """
    with _open_input(path, what, IngestError) as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
                if not line.strip():
                    continue
                item = parse(json.loads(line))
            except _MALFORMED as exc:
                raise IngestError(
                    f"{path}:{lineno}: malformed {what}: {exc}"
                ) from None
            yield lineno, item


def content_hash(*parts: str) -> str:
    """Stable sha256 hex digest over unit-separated string parts."""
    joined = "\x1f".join(parts)
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()


def make_unit_id(paper_id: str, reviewer_id: str, text: str) -> str:
    """Content-derived unit identifier, stable across re-parses.

    Whitespace runs in the text are collapsed so trivial formatting
    differences do not mint new identities.
    """
    normalized = " ".join(text.split())
    return "fu-" + content_hash(paper_id, reviewer_id, normalized)[:16]


def connected_components(
    n: int, edges: Iterable[tuple[int, int]]
) -> list[list[int]]:
    """Components of nodes 0..n-1 under undirected edges (union-find).

    Each component lists its nodes in ascending order, and components
    are ordered by their smallest node.
    """
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in edges:
        parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


class Record:
    """Mixin for the frozen dataclasses that are stored as JSON records.

    to_dict and from_dict are derived from the dataclass fields and their
    type hints, so every record follows one set of rules. A field that
    has a default is left out when its value is None or an empty set or
    mapping; every other field is always written. Enums are written as
    their values, frozensets as sorted lists, tuples as lists, mappings as
    objects and nested records through their own to_dict. Reading inverts
    this: a field without a default must be present (else KeyError), an
    absent field takes its default, `X | None` lets only None through,
    enums are built by calling their class, and unknown keys are ignored.
    Each class's plan is built on first use.
    """

    __slots__ = ()

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {}
        for name, encode, omit in _plan(type(self))[0]:
            value = getattr(self, name)
            if omit and (value is None if omit == _OMIT_NONE else not value):
                continue
            out[name] = value if encode is None else encode(value)
        return out

    @classmethod
    def from_dict(cls: type[R], data: Mapping[str, Any]) -> R:
        kwargs: dict[str, Any] = {}
        for name, decode, required in _plan(cls)[1]:
            if not required and name not in data:
                continue
            value = data[name]
            kwargs[name] = value if decode is None else decode(value)
        return cls(**kwargs)


R = TypeVar("R", bound=Record)
Codec = Callable[[Any], Any] | None  # None passes a value through
_KEEP, _OMIT_NONE, _OMIT_EMPTY = 0, 1, 2  # when to_dict leaves a field out


@functools.cache
def _plan(cls: type) -> tuple[tuple, tuple]:
    """Per-field rows: (name, encode, omit) for to_dict, and
    (name, decode, required) for from_dict."""
    hints = typing.get_type_hints(cls)
    encoders, decoders = [], []
    for f in dataclasses.fields(cls):
        tp = hints[f.name]
        encode, decode = _codec(tp)
        required = f.default is MISSING and f.default_factory is MISSING
        origin = typing.get_origin(tp)
        omit = _KEEP
        if not required and origin in (Union, UnionType):
            omit = _OMIT_NONE
        elif not required and origin in (frozenset, abc.Mapping):
            omit = _OMIT_EMPTY
        encoders.append((f.name, encode, omit))
        decoders.append((f.name, decode, required))
    return tuple(encoders), tuple(decoders)


def _or_none(fn: Codec) -> Codec:
    return fn and (lambda v: None if v is None else fn(v))


def _codec(tp: Any) -> tuple[Codec, Codec]:
    """(encode, decode) for values of the type hint tp."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (Union, UnionType):
        (inner,) = (a for a in args if a is not type(None))
        encode, decode = _codec(inner)
        return _or_none(encode), _or_none(decode)
    if origin is None:
        if isinstance(tp, type) and issubclass(tp, Enum):
            return operator.attrgetter("value"), tp
        if isinstance(tp, type) and issubclass(tp, Record):
            return Record.to_dict, tp.from_dict
        return None, None
    if origin is frozenset:
        encode, decode = _codec(args[0])
        return (
            (lambda v: sorted(map(encode, v))) if encode else sorted,
            (lambda v: frozenset(map(decode, v))) if decode else frozenset,
        )
    if origin is tuple and args[1:] == (...,):
        encode, decode = _codec(args[0])
        return (
            (lambda v: list(map(encode, v))) if encode else list,
            (lambda v: tuple(map(decode, v))) if decode else tuple,
        )
    if origin is abc.Mapping:
        encode, decode = _codec(args[1])
        encode, decode = encode or _same, decode or _same
        return (
            lambda v: {k: encode(x) for k, x in v.items()},
            lambda v: {k: decode(x) for k, x in v.items()},
        )
    raise TypeError(f"no record codec for {tp!r}")


def _same(value: Any) -> Any:
    return value


@dataclass(frozen=True)
class FeedbackUnit(Record):
    """One self-contained critique with its resolution labels.

    Labels are optional because model-generated units arrive unlabeled;
    human units parsed from discussions always carry them.
    """

    id: str
    paper_id: str
    reviewer_id: str
    source: Source
    text: str
    author_response_text: str | None = None
    validity: Validity | None = None
    action: AuthorAction | None = None
    aspects: frozenset[AspectTag] = field(default_factory=frozenset)
    dimensions: frozenset[FeedbackDimension] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("unit id must be nonempty")
        if not self.text or not self.text.strip():
            raise ValueError(f"unit {self.id}: text must be nonempty")
        if self.source is Source.HUMAN and not self.reviewer_id:
            raise ValueError(f"unit {self.id}: human units need a reviewer_id")
        object.__setattr__(self, "aspects", frozenset(self.aspects))
        object.__setattr__(self, "dimensions", frozenset(self.dimensions))

    @property
    def is_labeled(self) -> bool:
        return self.validity is not None and self.action is not None

    @property
    def is_successful(self) -> bool:
        """Success under the binary rule; unlabeled units are not successful."""
        if not self.is_labeled:
            return False
        return success_indicator(self.validity, self.action)


@dataclass(frozen=True)
class Turn(Record):
    speaker: Speaker
    text: str
    timestamp: str | None = None

    def __post_init__(self) -> None:
        if not self.text:
            raise ValueError("turn text must be nonempty")


@dataclass(frozen=True)
class ReviewThread(Record):
    """One reviewer's discussion with the authors, in turn order."""

    reviewer_id: str
    turns: tuple[Turn, ...]

    def __post_init__(self) -> None:
        if not self.reviewer_id:
            raise ValueError("thread reviewer_id must be nonempty")
        object.__setattr__(self, "turns", tuple(self.turns))
        if not self.turns:
            raise ValueError(f"thread {self.reviewer_id}: needs at least one turn")


@dataclass(frozen=True)
class PaperRecord(Record):
    """A submission with its review threads and extracted human units."""

    paper_id: str
    title: str
    abstract: str
    venue_year: int
    decision: Decision = Decision.UNKNOWN
    threads: tuple[ReviewThread, ...] = ()
    units: tuple[FeedbackUnit, ...] = ()
    body_markdown: str | None = None

    def __post_init__(self) -> None:
        if not self.paper_id:
            raise ValueError("paper_id must be nonempty")
        object.__setattr__(self, "venue_year", int(self.venue_year))
        object.__setattr__(self, "threads", tuple(self.threads))
        object.__setattr__(self, "units", tuple(self.units))
        reviewer_ids = {t.reviewer_id for t in self.threads}
        if len(reviewer_ids) != len(self.threads):
            raise ValueError(f"paper {self.paper_id}: duplicate reviewer threads")
        seen: set[str] = set()
        for unit in self.units:
            if unit.paper_id != self.paper_id:
                raise ValueError(
                    f"paper {self.paper_id}: unit {unit.id} belongs to "
                    f"{unit.paper_id}"
                )
            if unit.source is Source.HUMAN and unit.reviewer_id not in reviewer_ids:
                raise ValueError(
                    f"paper {self.paper_id}: unit {unit.id} references unknown "
                    f"reviewer {unit.reviewer_id!r}"
                )
            if unit.id in seen:
                raise ValueError(f"paper {self.paper_id}: duplicate unit {unit.id}")
            seen.add(unit.id)

    def with_units(self, units: Iterable[FeedbackUnit]) -> "PaperRecord":
        """Copy of this record with its unit list replaced."""
        return replace(self, units=tuple(units))

    def units_by_reviewer(self) -> dict[str, list[FeedbackUnit]]:
        by: dict[str, list[FeedbackUnit]] = {}
        for unit in self.units:
            by.setdefault(unit.reviewer_id, []).append(unit)
        return by

    def successful_units(self) -> list[FeedbackUnit]:
        return [u for u in self.units if u.is_successful]
