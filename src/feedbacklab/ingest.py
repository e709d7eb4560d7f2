"""Dataset stores: load, validate and save paper corpora and their splits.

On-disk layout under a store root:

    manifest.json            {"format_version": 1, "splits": {name: [ids]}}
    records/<split>.jsonl    one PaperRecord object per line

Files are written in canonical form, so loading and re-saving a store
reproduces the original bytes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from .core import AuthorAction, PaperRecord, Validity, canonical_json
from .core import Record, atomic_write, read_json, read_jsonl
from .errors import IngestError, PipelineError

FORMAT_VERSION = 1


@dataclass(frozen=True)
class DatasetStore:
    """An immutable corpus: manifest of splits plus loaded records."""

    manifest: Mapping[str, tuple[str, ...]]
    records: Mapping[str, PaperRecord]

    def split_ids(self, split: str) -> tuple[str, ...]:
        if split not in self.manifest:
            raise IngestError(f"unknown split {split!r}")
        return self.manifest[split]

    def papers(self, split: str) -> list[PaperRecord]:
        return [self.records[pid] for pid in self.split_ids(split)]

    def counts(self) -> dict[str, Any]:
        by_split = {name: len(ids) for name, ids in sorted(self.manifest.items())}
        by_decision = Counter(
            record.decision.value for record in self.records.values()
        )
        return {
            "papers": len(self.records),
            "by_split": by_split,
            "by_decision": dict(sorted(by_decision.items())),
        }


def _manifest(data: Any) -> dict[str, list[str]]:
    """The manifest's splits, if data has the manifest's shape."""
    if not isinstance(data, dict) or not isinstance(data.get("splits"), dict):
        raise IngestError("must contain a 'splits' object")
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise IngestError(
            f"unsupported format_version {version!r}, expected {FORMAT_VERSION}"
        )
    for split, ids in data["splits"].items():
        # A split names its records file, records/<split>.jsonl.
        if "/" in split or "\0" in split:
            raise IngestError(f"split name {split!r} contains '/' or NUL")
        if not isinstance(ids, list) or not all(isinstance(i, str) for i in ids):
            raise IngestError(f"split {split!r} must be a list of string ids")
    return data["splits"]


def load_corpus(root: str | Path) -> DatasetStore:
    """Load and validate a dataset store from its root directory."""
    root = Path(root)
    splits = read_json(root / "manifest.json", _manifest, "manifest", IngestError)
    records: dict[str, PaperRecord] = {}
    for split, ids in splits.items():
        path = root / "records" / f"{split}.jsonl"
        found: set[str] = set()
        for lineno, record in read_jsonl(path, PaperRecord.from_dict, "record"):
            if record.paper_id in records:
                raise IngestError(
                    f"{path}:{lineno}: duplicate paper_id {record.paper_id!r}"
                )
            records[record.paper_id] = record
            found.add(record.paper_id)
        extra = found - set(ids)
        if extra:
            raise IngestError(
                f"{path}: records not listed in manifest: {sorted(extra)}"
            )
    return make_store(list(records.values()), splits)


def save_corpus(store: DatasetStore, root: str | Path) -> None:
    """Write a store to disk in canonical form."""
    root = Path(root)
    (root / "records").mkdir(parents=True, exist_ok=True)
    manifest = {
        "format_version": FORMAT_VERSION,
        "splits": {name: list(ids) for name, ids in sorted(store.manifest.items())},
    }
    with atomic_write(root / "manifest.json") as fh:
        fh.write(canonical_json(manifest) + "\n")
    for split, ids in sorted(store.manifest.items()):
        with atomic_write(root / "records" / f"{split}.jsonl") as fh:
            fh.writelines(
                canonical_json(store.records[pid].to_dict()) + "\n" for pid in ids
            )


def make_store(
    records: Sequence[PaperRecord],
    splits: Mapping[str, Sequence[str]],
) -> DatasetStore:
    """Assemble an in-memory store: ids unique, every split id has a
    record, and the splits are disjoint. load_corpus validates through it."""
    by_id: dict[str, PaperRecord] = {}
    for record in records:
        if record.paper_id in by_id:
            raise IngestError(f"duplicate paper_id {record.paper_id!r}")
        by_id[record.paper_id] = record
    claimed: dict[str, str] = {}
    manifest: dict[str, tuple[str, ...]] = {}
    for split, ids in splits.items():
        for pid in ids:
            if pid not in by_id:
                raise IngestError(f"split {split!r} references unknown id {pid!r}")
            if pid in claimed:
                raise IngestError(
                    f"paper_id {pid!r} appears in splits "
                    f"{claimed[pid]!r} and {split!r}; splits must be disjoint"
                )
            claimed[pid] = split
        manifest[split] = tuple(ids)
    return DatasetStore(manifest=manifest, records=by_id)


@dataclass(frozen=True)
class AnnotationRecord(Record):
    """One annotator's labels for a unit or a unit pair."""

    unit_id: str
    annotator_id: str
    validity: Validity | None = None
    action: AuthorAction | None = None
    match_label: bool | None = None
    likert: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.unit_id or not self.annotator_id:
            raise IngestError("annotation needs unit_id and annotator_id")
        if (
            self.validity is None
            and self.action is None
            and self.match_label is None
            and not self.likert
        ):
            raise IngestError(
                f"annotation for {self.unit_id} by {self.annotator_id} "
                "carries no label"
            )
        # Otherwise a label of "0" would count as a match, and a likert
        # true (bool is an int) as a 1.
        if self.match_label is not None and not isinstance(self.match_label, bool):
            raise IngestError(
                f"annotation for {self.unit_id}: match_label "
                f"{self.match_label!r} is not a boolean"
            )
        for dim, value in self.likert.items():
            if type(value) is not int or not 1 <= value <= 5:
                raise IngestError(
                    f"annotation for {self.unit_id}: likert {dim}={value!r} "
                    "outside 1..5"
                )
        object.__setattr__(self, "likert", dict(self.likert))


def load_annotations(path: str | Path) -> list[AnnotationRecord]:
    """Read annotation JSONL."""
    return [
        record
        for _, record in read_jsonl(path, AnnotationRecord.from_dict, "annotation")
    ]


def group_by_unit(
    records: Iterable[AnnotationRecord],
) -> dict[str, list[AnnotationRecord]]:
    grouped: dict[str, list[AnnotationRecord]] = {}
    for record in records:
        grouped.setdefault(record.unit_id, []).append(record)
    return grouped


def majority_vote(labels: Sequence[Any]) -> Any:
    """Strict majority label; a tie for first place is an error."""
    if not labels:
        raise PipelineError("majority_vote: no labels")
    counts = Counter(labels).most_common()
    if len(counts) > 1 and counts[0][1] == counts[1][1]:
        raise PipelineError(f"majority_vote: tie between {counts[0][0]!r} and "
                            f"{counts[1][0]!r}")
    return counts[0][0]
