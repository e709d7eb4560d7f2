import json

import pytest

from feedbacklab.core import (
    AuthorAction,
    Decision,
    FeedbackUnit,
    PaperRecord,
    ReviewThread,
    Source,
    Speaker,
    Turn,
    Validity,
    canonical_json,
)
from feedbacklab.errors import IngestError, PipelineError
from feedbacklab.ingest import (
    AnnotationRecord,
    group_by_unit,
    load_annotations,
    load_corpus,
    majority_vote,
    make_store,
    save_corpus,
)


def make_paper(pid):
    return PaperRecord(
        paper_id=pid,
        title=f"Paper {pid}",
        abstract="abstract",
        venue_year=2026,
        decision=Decision.ACCEPTED,
        threads=(
            ReviewThread(
                reviewer_id="r1",
                turns=(Turn(speaker=Speaker.REVIEWER, text="needs work"),),
            ),
        ),
        units=(
            FeedbackUnit(
                id=f"{pid}-u1",
                paper_id=pid,
                reviewer_id="r1",
                source=Source.HUMAN,
                text=f"critique for {pid}",
                validity=Validity.AGREED,
                action=AuthorAction.WILL_REVISE,
            ),
        ),
    )


def write_store(tmp_path, n=4):
    papers = [make_paper(f"p{i}") for i in range(n)]
    half = n // 2
    store = make_store(
        papers,
        {"dev": [p.paper_id for p in papers[:half]],
         "test": [p.paper_id for p in papers[half:]]},
    )
    root = tmp_path / "corpus"
    save_corpus(store, root)
    return root, papers


def test_round_trip(tmp_path):
    root, papers = write_store(tmp_path)
    store = load_corpus(root)
    assert store.split_ids("test") == ("p2", "p3")
    assert [p.paper_id for p in store.papers("dev")] == ["p0", "p1"]
    assert store.records["p1"] == papers[1]
    counts = store.counts()
    assert counts["papers"] == 4
    assert counts["by_split"] == {"dev": 2, "test": 2}
    assert counts["by_decision"] == {"accepted": 4}


def test_resave_is_byte_identical(tmp_path):
    root, _ = write_store(tmp_path)
    first = {
        p.name: p.read_bytes()
        for p in [root / "manifest.json", *sorted((root / "records").iterdir())]
    }
    save_corpus(load_corpus(root), root)
    second = {
        p.name: p.read_bytes()
        for p in [root / "manifest.json", *sorted((root / "records").iterdir())]
    }
    assert first == second


def test_missing_manifest(tmp_path):
    with pytest.raises(IngestError, match="manifest"):
        load_corpus(tmp_path)


def test_bad_format_version(tmp_path):
    root, _ = write_store(tmp_path)
    manifest = json.loads((root / "manifest.json").read_text())
    manifest["format_version"] = 99
    (root / "manifest.json").write_text(canonical_json(manifest))
    with pytest.raises(IngestError, match="format_version|version"):
        load_corpus(root)


@pytest.mark.parametrize(
    "splits", [["test"], {"test": [["x"]]}, {"test": [1]}], ids=repr
)
def test_manifest_splits_of_the_wrong_shape_rejected(tmp_path, splits):
    root, _ = write_store(tmp_path)
    manifest = json.loads((root / "manifest.json").read_text())
    manifest["splits"] = splits
    (root / "manifest.json").write_text(canonical_json(manifest))
    with pytest.raises(IngestError, match="manifest"):
        load_corpus(root)


def test_split_overlap_rejected(tmp_path):
    root, _ = write_store(tmp_path)
    manifest = json.loads((root / "manifest.json").read_text())
    manifest["splits"]["dev"].append("p2")  # p2 already in test
    (root / "manifest.json").write_text(canonical_json(manifest))
    with pytest.raises(IngestError, match="disjoint"):
        load_corpus(root)


def test_missing_record_file(tmp_path):
    root, _ = write_store(tmp_path)
    (root / "records" / "test.jsonl").unlink()
    with pytest.raises(IngestError, match="test.jsonl"):
        load_corpus(root)


def test_malformed_record_names_file_and_line(tmp_path):
    root, _ = write_store(tmp_path)
    path = root / "records" / "test.jsonl"
    lines = path.read_text().splitlines()
    lines[1] = '{"paper_id": "p3"}'  # missing required fields
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(IngestError, match=r"test\.jsonl:2"):
        load_corpus(root)


def test_json_array_line_names_file_and_line(tmp_path):
    root, _ = write_store(tmp_path)
    path = root / "records" / "test.jsonl"
    path.write_text(path.read_text() + "\n" + '["p9"]\n')
    with pytest.raises(IngestError, match=r"test\.jsonl:4: malformed record"):
        load_corpus(root)
    ann = tmp_path / "ann.jsonl"
    ann.write_text(
        canonical_json({"unit_id": "u1", "annotator_id": "a1", "validity": "agreed"})
        + "\n\n"
        + '["u1", "a1"]\n'
    )
    with pytest.raises(IngestError, match=r"ann\.jsonl:3: malformed annotation"):
        load_annotations(ann)


def test_record_not_in_manifest_rejected(tmp_path):
    root, _ = write_store(tmp_path)
    path = root / "records" / "test.jsonl"
    extra = make_paper("p9")
    with open(path, "a") as fh:
        fh.write(canonical_json(extra.to_dict()) + "\n")
    with pytest.raises(IngestError):
        load_corpus(root)


def test_manifest_id_without_record_rejected(tmp_path):
    root, _ = write_store(tmp_path)
    manifest = json.loads((root / "manifest.json").read_text())
    manifest["splits"]["test"].append("ghost")
    (root / "manifest.json").write_text(canonical_json(manifest))
    with pytest.raises(IngestError, match="ghost"):
        load_corpus(root)


def test_make_store_validation():
    p = make_paper("p1")
    with pytest.raises(IngestError):
        make_store([p, p], {"test": ["p1"]})
    with pytest.raises(IngestError):
        make_store([p], {"test": ["nope"]})
    with pytest.raises(IngestError):
        make_store([p], {"a": ["p1"], "b": ["p1"]})


# ---- annotations ----


def test_annotation_record_needs_a_label():
    with pytest.raises(IngestError):
        AnnotationRecord(unit_id="u1", annotator_id="a1")
    with pytest.raises(IngestError):
        AnnotationRecord(unit_id="u1", annotator_id="a1", likert={"accuracy": 9})
    ok = AnnotationRecord(unit_id="u1", annotator_id="a1", match_label=False)
    assert ok.to_dict() == {
        "unit_id": "u1",
        "annotator_id": "a1",
        "match_label": False,
    }
    assert AnnotationRecord.from_dict(ok.to_dict()) == ok


def test_load_annotations(tmp_path):
    path = tmp_path / "ann.jsonl"
    rows = [
        {"unit_id": "u1", "annotator_id": "a1", "validity": "agreed"},
        {"unit_id": "u1", "annotator_id": "a2", "validity": "rebutted"},
        {"unit_id": "u2", "annotator_id": "a1", "action": "will_revise"},
    ]
    path.write_text("".join(canonical_json(r) + "\n" for r in rows))
    records = load_annotations(path)
    assert len(records) == 3
    grouped = group_by_unit(records)
    assert sorted(grouped) == ["u1", "u2"]
    assert len(grouped["u1"]) == 2
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"unit_id": "u1"}\n')
    with pytest.raises(IngestError, match=r"bad\.jsonl:1"):
        load_annotations(bad)


def test_majority_vote():
    assert majority_vote([True, True, False]) is True
    assert majority_vote(["x"]) == "x"
    with pytest.raises(PipelineError, match="tie"):
        majority_vote([True, False])
    with pytest.raises(PipelineError):
        majority_vote([])
