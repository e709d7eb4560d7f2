"""Domain model: feedback units, review threads, and the success rule.

Everything downstream (forging, consensus scoring, proxy evaluation)
consumes these types, so serialization here is canonical: stable key
order, compact separators, enums as lowercase strings, sets as sorted
lists, absent optionals omitted.  Re-serializing a loaded object must
reproduce the original bytes.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import IO, Any, Iterable, Iterator, Mapping


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


def _enum_or_none(cls: type, value: Any) -> Any:
    if value is None:
        return None
    try:
        return cls(value)
    except ValueError:
        raise ValueError(f"unknown {cls.__name__} value: {value!r}") from None


@dataclass(frozen=True)
class FeedbackUnit:
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

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "id": self.id,
            "paper_id": self.paper_id,
            "reviewer_id": self.reviewer_id,
            "source": self.source.value,
            "text": self.text,
        }
        if self.author_response_text is not None:
            out["author_response_text"] = self.author_response_text
        if self.validity is not None:
            out["validity"] = self.validity.value
        if self.action is not None:
            out["action"] = self.action.value
        if self.aspects:
            out["aspects"] = sorted(a.value for a in self.aspects)
        if self.dimensions:
            out["dimensions"] = sorted(d.value for d in self.dimensions)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FeedbackUnit":
        return cls(
            id=data["id"],
            paper_id=data["paper_id"],
            reviewer_id=data["reviewer_id"],
            source=Source(data["source"]),
            text=data["text"],
            author_response_text=data.get("author_response_text"),
            validity=_enum_or_none(Validity, data.get("validity")),
            action=_enum_or_none(AuthorAction, data.get("action")),
            aspects=frozenset(
                _enum_or_none(AspectTag, a) for a in data.get("aspects", [])
            ),
            dimensions=frozenset(
                _enum_or_none(FeedbackDimension, d)
                for d in data.get("dimensions", [])
            ),
        )


@dataclass(frozen=True)
class Turn:
    speaker: Speaker
    text: str
    timestamp: str | None = None

    def __post_init__(self) -> None:
        if not self.text:
            raise ValueError("turn text must be nonempty")

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"speaker": self.speaker.value, "text": self.text}
        if self.timestamp is not None:
            out["timestamp"] = self.timestamp
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Turn":
        return cls(
            speaker=Speaker(data["speaker"]),
            text=data["text"],
            timestamp=data.get("timestamp"),
        )


@dataclass(frozen=True)
class ReviewThread:
    """One reviewer's discussion with the authors, in turn order."""

    reviewer_id: str
    turns: tuple[Turn, ...]

    def __post_init__(self) -> None:
        if not self.reviewer_id:
            raise ValueError("thread reviewer_id must be nonempty")
        object.__setattr__(self, "turns", tuple(self.turns))
        if not self.turns:
            raise ValueError(f"thread {self.reviewer_id}: needs at least one turn")

    def to_dict(self) -> dict[str, Any]:
        return {
            "reviewer_id": self.reviewer_id,
            "turns": [t.to_dict() for t in self.turns],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ReviewThread":
        return cls(
            reviewer_id=data["reviewer_id"],
            turns=tuple(Turn.from_dict(t) for t in data["turns"]),
        )


@dataclass(frozen=True)
class PaperRecord:
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

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "paper_id": self.paper_id,
            "title": self.title,
            "abstract": self.abstract,
            "venue_year": self.venue_year,
            "decision": self.decision.value,
            "threads": [t.to_dict() for t in self.threads],
            "units": [u.to_dict() for u in self.units],
        }
        if self.body_markdown is not None:
            out["body_markdown"] = self.body_markdown
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PaperRecord":
        return cls(
            paper_id=data["paper_id"],
            title=data["title"],
            abstract=data["abstract"],
            venue_year=int(data["venue_year"]),
            decision=Decision(data.get("decision", "unknown")),
            threads=tuple(ReviewThread.from_dict(t) for t in data["threads"]),
            units=tuple(FeedbackUnit.from_dict(u) for u in data["units"]),
            body_markdown=data.get("body_markdown"),
        )
