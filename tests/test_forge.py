import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from feedbacklab.config import Sampling, Thresholds
from feedbacklab.core import (
    AuthorAction,
    FeedbackUnit,
    PaperRecord,
    ReviewThread,
    Source,
    Speaker,
    Turn,
    Validity,
    canonical_json,
    make_unit_id,
)
from feedbacklab.errors import JudgeFormatError, PipelineError
from feedbacklab.forge import (
    DPO_HYPERPARAMETERS,
    SFT_HYPERPARAMETERS,
    CorruptionVariant,
    PreferencePair,
    TrainingManifest,
    VariantVerification,
    _feasible_strata,
    aggregate_filter_stats,
    build_corruption_bank,
    build_dpo,
    build_sft,
    corrupt,
    dedup_units,
    verify_and_filter,
)
from feedbacklab.ingest import make_store
from feedbacklab.judge import EndpointConfig, JudgeClient
from feedbacklab.prompts import CORRUPTION_DIMENSIONS

ENDPOINT = EndpointConfig()


def hunit(paper_id, reviewer, text, successful=True, labeled=True):
    validity = None
    action = None
    if labeled:
        validity = Validity.AGREED if successful else Validity.REBUTTED
        action = (
            AuthorAction.WILL_REVISE
            if successful
            else AuthorAction.NO_REVISION_CONTEST
        )
    return FeedbackUnit(
        id=make_unit_id(paper_id, reviewer, text),
        paper_id=paper_id,
        reviewer_id=reviewer,
        source=Source.HUMAN,
        text=text,
        validity=validity,
        action=action,
    )


def paper(pid, units, body="# Paper body"):
    reviewers = sorted({u.reviewer_id for u in units})
    return PaperRecord(
        paper_id=pid,
        title=f"Title {pid}",
        abstract="abstract",
        venue_year=2026,
        threads=tuple(
            ReviewThread(
                reviewer_id=r,
                turns=(Turn(speaker=Speaker.REVIEWER, text="review"),),
            )
            for r in reviewers
        ),
        units=tuple(units),
        body_markdown=body,
    )


class ForgeBackend:
    """Corruption rewrites tagged with their dimension; the verifier
    reads the tag back out unless a per-text verdict overrides it."""

    def __init__(self, verdicts=None):
        self.verdicts = dict(verdicts or {})
        self.verify_bindings = []

    def complete(self, endpoint, template, bindings, system_text, user_text):
        if template.name == "corruption":
            payload = {
                d: f"[{d}] {bindings['feedback_text']}"
                for d in CORRUPTION_DIMENSIONS
            }
            return canonical_json(payload), {}
        if template.name == "corruption_verify":
            self.verify_bindings.append(bindings)
            rewrites = json.loads(bindings["rewrites_json"])
            entries = []
            for idx, text in enumerate(rewrites):
                if text in self.verdicts:
                    dim, deg, pres = self.verdicts[text]
                else:
                    dim = text.split("]")[0][1:]
                    deg, pres = 3, 3
                entries.append(
                    {
                        "rewrite_index": idx,
                        "predicted_dimension": dim,
                        "target_degradation": deg,
                        "collateral_preservation": pres,
                        "reasoning": "scripted",
                    }
                )
            entries.reverse()  # index mapping must not rely on array order
            return canonical_json({"results": entries}), {}
        raise AssertionError(f"unexpected template {template.name}")

    def embed(self, endpoint, texts):
        raise AssertionError("forge judging never embeds")


def variant_text(dim, unit):
    return f"[{dim}] {unit.text}"


# ---- corrupt ----


def test_corrupt_emits_one_variant_per_dimension():
    u = hunit("p1", "r1", "the ablation is missing")
    p = paper("p1", [u])
    client = JudgeClient(ForgeBackend())
    variants = corrupt(client, ENDPOINT, u, p)
    assert [v.dimension for v in variants] == list(CORRUPTION_DIMENSIONS)
    assert all(v.source_unit_id == u.id for v in variants)
    assert variants[1].text == variant_text("vague", u)
    assert all(v.verification is None for v in variants)
    assert not variants[0].kept


def test_corrupt_rejects_unsuccessful_unit():
    u = hunit("p1", "r1", "weak point", successful=False)
    p = paper("p1", [u])
    with pytest.raises(PipelineError, match="not successful"):
        corrupt(JudgeClient(ForgeBackend()), ENDPOINT, u, p)


# ---- verify_and_filter ----


def make_variants(unit):
    return [
        CorruptionVariant(
            source_unit_id=unit.id, dimension=d, text=variant_text(d, unit)
        )
        for d in CORRUPTION_DIMENSIONS
    ]


def test_keep_rule_requires_correct_prediction_and_both_scores():
    u = hunit("p1", "r1", "needs a stronger baseline")
    p = paper("p1", [u])
    verdicts = {
        variant_text("generic", u): ("generic", 3, 3),  # kept
        variant_text("vague", u): ("generic", 3, 3),  # wrong dimension
        variant_text("inaccurate", u): ("inaccurate", 1, 3),  # weak degradation
        variant_text("nonessential", u): ("nonessential", 3, 1),  # collateral
        variant_text("unsupportive", u): ("unsupportive", 2, 2),  # boundary kept
    }
    client = JudgeClient(ForgeBackend(verdicts))
    kept, stats = verify_and_filter(client, ENDPOINT, make_variants(u), u, p)
    assert [v.dimension for v in kept] == ["generic", "unsupportive"]
    assert all(v.kept for v in kept)
    assert stats.source_unit_id == u.id
    assert sorted(stats.judged_order) == sorted(CORRUPTION_DIMENSIONS)
    per = stats.per_dimension
    assert per["vague"]["kept"] is False
    assert per["vague"]["predicted_correct"] is False
    assert per["inaccurate"]["kept"] is False
    assert per["unsupportive"]["kept"] is True
    # keep decision matches an independent re-application of the rule
    for v in make_variants(u):
        dim, deg, pres = verdicts[v.text]
        assert per[v.dimension]["kept"] == (
            dim == v.dimension and deg >= 2 and pres >= 2
        )


def test_verify_judges_blind_in_seeded_order():
    u = hunit("p1", "r1", "unclear notation throughout")
    p = paper("p1", [u])
    backend = ForgeBackend()
    client = JudgeClient(backend)
    variants = make_variants(u)
    _, stats_a = verify_and_filter(client, ENDPOINT, variants, u, p, seed=7)
    _, stats_b = verify_and_filter(client, ENDPOINT, variants, u, p, seed=7)
    assert stats_a.judged_order == stats_b.judged_order
    shuffled = json.loads(backend.verify_bindings[0]["rewrites_json"])
    assert [t.split("]")[0][1:] for t in shuffled] == list(stats_a.judged_order)


def test_verify_rejects_bad_index_cover():
    class DupIndexBackend(ForgeBackend):
        def complete(self, endpoint, template, bindings, system_text, user_text):
            raw, usage = super().complete(
                endpoint, template, bindings, system_text, user_text
            )
            if template.name != "corruption_verify":
                return raw, usage
            data = json.loads(raw)
            data["results"][0]["rewrite_index"] = data["results"][1][
                "rewrite_index"
            ]
            return canonical_json(data), usage

    u = hunit("p1", "r1", "duplicate index probe")
    p = paper("p1", [u])
    client = JudgeClient(DupIndexBackend())
    with pytest.raises(JudgeFormatError, match="exactly once"):
        verify_and_filter(client, ENDPOINT, make_variants(u), u, p)


def test_verify_reads_integral_float_replies_as_ints():
    # JSON Schema counts 1.0 as an integer, so such a reply is valid
    class FloatBackend(ForgeBackend):
        def complete(self, endpoint, template, bindings, system_text, user_text):
            raw, usage = super().complete(
                endpoint, template, bindings, system_text, user_text
            )
            if template.name != "corruption_verify":
                return raw, usage
            data = json.loads(raw)
            for entry in data["results"]:
                for key in (
                    "rewrite_index",
                    "target_degradation",
                    "collateral_preservation",
                ):
                    entry[key] = float(entry[key])
            return canonical_json(data), usage

    u = hunit("p1", "r1", "integral float probe")
    p = paper("p1", [u])
    verdicts = {variant_text("vague", u): ("vague", 1, 3)}
    want = verify_and_filter(
        JudgeClient(ForgeBackend(verdicts)), ENDPOINT, make_variants(u), u, p
    )
    got = verify_and_filter(
        JudgeClient(FloatBackend(verdicts)), ENDPOINT, make_variants(u), u, p
    )
    assert got == want
    for row in got[1].per_dimension.values():
        assert type(row["target_degradation"]) is int
        assert type(row["collateral_preservation"]) is int


def test_verify_requires_variants():
    u = hunit("p1", "r1", "x")
    with pytest.raises(PipelineError):
        verify_and_filter(
            JudgeClient(ForgeBackend()), ENDPOINT, [], u, paper("p1", [u])
        )


def test_variant_validation():
    with pytest.raises(PipelineError):
        CorruptionVariant(source_unit_id="u", dimension="bogus", text="t")
    with pytest.raises(PipelineError):
        CorruptionVariant(source_unit_id="u", dimension="vague", text="")
    with pytest.raises(PipelineError):
        VariantVerification(
            predicted_dimension="vague",
            target_degradation=0,
            collateral_preservation=2,
        )
    v = CorruptionVariant(
        source_unit_id="u",
        dimension="vague",
        text="t",
        verification=VariantVerification("vague", 2, 2),
    )
    assert CorruptionVariant.from_dict(v.to_dict()) == v


def test_aggregate_filter_stats():
    u = hunit("p1", "r1", "aggregate probe")
    p = paper("p1", [u])
    verdicts = {variant_text("vague", u): ("generic", 1, 3)}
    client = JudgeClient(ForgeBackend(verdicts))
    _, stats = verify_and_filter(client, ENDPOINT, make_variants(u), u, p)
    agg = aggregate_filter_stats([stats, stats])
    assert agg["generic"] == {
        "n": 2,
        "prediction_accuracy": 1.0,
        "mean_target_degradation": 3.0,
        "mean_collateral_preservation": 3.0,
        "keep_rate": 1.0,
    }
    assert agg["vague"]["prediction_accuracy"] == 0.0
    assert agg["vague"]["keep_rate"] == 0.0


# ---- dedup ----


def test_dedup_is_transitive():
    units = [hunit("p1", "r1", f"point {i}") for i in range(3)]
    # 0~1 and 1~2 overlap at 2/3, 0 and 2 only at 1/3: one cluster anyway
    e = [
        np.array([1.0, 1.0, 1.0, 0.0, 0.0]),
        np.array([0.0, 1.0, 1.0, 1.0, 0.0]),
        np.array([0.0, 0.0, 1.0, 1.0, 1.0]),
    ]
    assert cosine_check(e[0], e[1]) > 0.5 and cosine_check(e[0], e[2]) < 0.5
    survivors = dedup_units(units, e)
    assert len(survivors) == 1
    assert survivors[0] in units


def cosine_check(a, b):
    return float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))


def test_dedup_threshold_is_strict():
    units = [hunit("p1", "r1", f"point {i}") for i in range(2)]
    # cosine exactly 0.5: dot 2, norms 2 and 2
    e = [np.array([2.0, 0.0, 0.0, 0.0]), np.array([1.0, 1.0, 1.0, 1.0])]
    assert cosine_check(e[0], e[1]) == 0.5
    assert len(dedup_units(units, e, threshold=0.5)) == 2
    e_over = [np.array([2.0, 0.0, 0.0, 0.0]), np.array([1.0, 1.0, 1.0, 0.0])]
    assert cosine_check(*e_over) > 0.5
    assert len(dedup_units(units, e_over, threshold=0.5)) == 1


def test_dedup_golden_survivors():
    # Three clusters {0,3,6}, {1,4,7}, {2,5,8}; survivors per seed were
    # recorded from the original sha256-seeded implementation.
    units = [hunit("p1", "r1", f"golden {i}") for i in range(9)]
    vecs = [np.eye(3)[i % 3] + 0.02 * i for i in range(9)]
    expected = {
        0: [0, 2, 7],
        1: [0, 1, 5],
        2: [0, 2, 7],
        3: [2, 3, 4],
        4: [0, 2, 4],
        5: [3, 4, 5],
    }
    for seed, kept in expected.items():
        survivors = dedup_units(units, vecs, seed=seed)
        assert [u.text for u in survivors] == [f"golden {i}" for i in kept]


def test_dedup_matches_connected_components_oracle():
    rng = np.random.default_rng(42)
    for trial in range(50):
        n = int(rng.integers(1, 9))
        units = [hunit("p1", "r1", f"trial {trial} unit {i}") for i in range(n)]
        vecs = rng.normal(size=(n, 3))
        adj = [
            [cosine_check(vecs[i], vecs[j]) > Thresholds.dedup for j in range(n)]
            for i in range(n)
        ]
        seen: set[int] = set()
        components = []
        for i in range(n):
            if i in seen:
                continue
            stack, comp = [i], set()
            while stack:
                v = stack.pop()
                if v in comp:
                    continue
                comp.add(v)
                stack.extend(j for j in range(n) if adj[v][j] and j != v)
            seen |= comp
            components.append(comp)
        survivors = dedup_units(units, list(vecs), seed=trial)
        assert len(survivors) == len(components)
        index_of = {u.id: i for i, u in enumerate(units)}
        chosen = {index_of[u.id] for u in survivors}
        for comp in components:
            assert len(comp & chosen) == 1
        # input order preserved
        positions = [index_of[u.id] for u in survivors]
        assert positions == sorted(positions)
        # deterministic under the same seed
        again = dedup_units(units, list(vecs), seed=trial)
        assert [u.id for u in again] == [u.id for u in survivors]


def test_dedup_validates_alignment():
    with pytest.raises(PipelineError):
        dedup_units([hunit("p1", "r1", "x")], [])


# ---- hyperparameters stay frozen ----


def test_sft_hyperparameters():
    assert SFT_HYPERPARAMETERS == {
        "base_model": "Qwen3-8B",
        "max_sequence_length": 30000,
        "train_batch_size": 128,
        "micro_batch_size": 8,
        "learning_rate": 5e-06,
        "epochs": 1,
        "precision": "BF16",
        "zero_stage": 3,
        "flash_attention": 2,
        "ring_attention_size": 8,
        "head_stride": 2,
    }


def test_dpo_hyperparameters():
    assert DPO_HYPERPARAMETERS == {
        "base_model": "sft_checkpoint",
        "max_sequence_length": 30000,
        "train_batch_size": 128,
        "micro_batch_size": 4,
        "learning_rate": 5e-06,
        "epochs": 1,
        "precision": "BF16",
        "beta": 0.1,
        "nll_loss_coefficient": 0.2,
        "early_stop_step": 50,
        "zero_stage": 3,
        "flash_attention": 2,
        "ring_attention_size": 8,
        "head_stride": 2,
    }
    assert Thresholds.delta == 2 and Sampling.k == 5 and Thresholds.dedup == 0.5


# ---- SFT ----


def test_build_sft(tmp_path):
    p1 = paper(
        "p1",
        [
            hunit("p1", "r1", "fix the baseline"),
            hunit("p1", "r1", "add error bars"),
            hunit("p1", "r1", "too long", successful=False),
            hunit("p1", "r2", "only complaints", successful=False),
        ],
    )
    p2 = paper("p2", [hunit("p2", "r1", "cite prior art")])
    store = make_store([p1, p2], {"train": ["p1", "p2"]})
    out = tmp_path / "sft.jsonl"
    manifest = build_sft(store, "train", out)
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert manifest.record_count == 2 and len(lines) == 2
    assert manifest.kind == "sft"
    assert manifest.hyperparameters == SFT_HYPERPARAMETERS
    assert manifest.prompt_version == "1"
    first = lines[0]
    assert (first["paper_id"], first["reviewer_id"]) == ("p1", "r1")
    assert first["messages"][0]["role"] == "user"
    assert "# Paper body" in first["messages"][0]["content"]
    assert first["messages"][1]["content"] == "fix the baseline\n\nadd error bars"
    assert len(first["unit_ids"]) == 2
    assert lines[1]["paper_id"] == "p2"

    manifest_path = tmp_path / "sft_manifest.json"
    manifest.write(manifest_path)
    assert json.loads(manifest_path.read_text()) == manifest.to_dict()


def test_build_sft_requires_successful_units(tmp_path):
    p1 = paper("p1", [hunit("p1", "r1", "meh", successful=False)])
    store = make_store([p1], {"train": ["p1"]})
    out = tmp_path / "sft.jsonl"
    out.write_text("earlier\n")
    with pytest.raises(PipelineError, match="no successful"):
        build_sft(store, "train", out)
    # a failed build leaves the earlier file, and no .tmp beside it
    assert out.read_text() == "earlier\n"
    assert list(tmp_path.iterdir()) == [out]


def test_build_sft_requires_body(tmp_path):
    p1 = paper("p1", [hunit("p1", "r1", "good point")], body=None)
    store = make_store([p1], {"train": ["p1"]})
    with pytest.raises(PipelineError, match="body_markdown"):
        build_sft(store, "train", tmp_path / "sft.jsonl")


# ---- feasible strata oracle ----


def strata_oracle(k, delta, ns, nu, chosen_successful_only):
    out = []
    for s_c in range(0, k + 1):
        for s_r in range(0, k + 1):
            if s_c - s_r < delta:
                continue
            if chosen_successful_only and s_c != k:
                continue
            if s_c + s_r > ns:
                continue
            if (k - s_c) + (k - s_r) > nu:
                continue
            out.append((s_c, s_r))
    return sorted(out)


def test_feasible_strata_matches_oracle():
    for k, delta, ns, nu, cso in itertools.product(
        (1, 2, 3, 5), (1, 2, 3), range(0, 11, 2), range(0, 11, 2), (False, True)
    ):
        got = sorted(_feasible_strata(k, delta, ns, nu, cso))
        assert got == strata_oracle(k, delta, ns, nu, cso), (k, delta, ns, nu, cso)


# ---- preference pairs ----


def test_preference_pair_validation():
    with pytest.raises(PipelineError, match="delta"):
        PreferencePair(
            paper_id="p1",
            chosen=("a",),
            rejected=("b",),
            pair_kind="real_label",
            chosen_success_count=1,
            rejected_success_count=0,
        )
    with pytest.raises(PipelineError, match="pair_kind"):
        PreferencePair(
            paper_id="p1",
            chosen=("a",),
            rejected=("b",),
            pair_kind="other",
            chosen_success_count=2,
            rejected_success_count=0,
        )
    with pytest.raises(PipelineError, match="nonempty"):
        PreferencePair(
            paper_id="p1",
            chosen=(),
            rejected=("b",),
            pair_kind="corruption",
            chosen_success_count=1,
            rejected_success_count=0,
        )
    pair = PreferencePair(
        paper_id="p1",
        chosen=("a", "b"),
        rejected=("c", "d"),
        pair_kind="real_label",
        chosen_success_count=2,
        rejected_success_count=0,
    )
    d = pair.to_dict("PROMPT")
    assert d["chosen"] == "a\n\nb" and d["rejected_items"] == ["c", "d"]
    assert d["prompt"] == "PROMPT"


def test_training_manifest_validation():
    with pytest.raises(PipelineError):
        TrainingManifest(
            kind="rl",
            dataset_path="x",
            record_count=1,
            hyperparameters={},
            prompt_version="1",
        )


# ---- DPO assembly ----


def orthogonal_embed(texts):
    return [row for row in np.eye(max(len(texts), 1))]


def dpo_store(n_papers=4, n_successful=7, n_unsuccessful=7):
    papers = []
    for i in range(n_papers):
        pid = f"p{i}"
        units = [
            hunit(pid, "r1", f"strong point {j} of {pid}")
            for j in range(n_successful)
        ] + [
            hunit(pid, "r1", f"weak point {j} of {pid}", successful=False)
            for j in range(n_unsuccessful)
        ]
        papers.append(paper(pid, units))
    return make_store(papers, {"train": [p.paper_id for p in papers]})


def test_build_dpo_real_pairs_honor_delta_and_disjointness(tmp_path):
    store = dpo_store()
    text_success = {
        u.text: u.is_successful for p in store.papers("train") for u in p.units
    }
    out = tmp_path / "dpo.jsonl"
    manifest = build_dpo(
        store, "train", {}, out, orthogonal_embed, pairs_per_paper=2, seed=3
    )
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert manifest.record_count == len(lines) == 8
    assert manifest.kind == "dpo"
    assert manifest.hyperparameters == DPO_HYPERPARAMETERS
    for rec in lines:
        assert rec["pair_kind"] == "real_label"
        chosen, rejected = rec["chosen_items"], rec["rejected_items"]
        assert len(chosen) == Sampling.k and len(rejected) == Sampling.k
        assert not set(chosen) & set(rejected)
        # recompute success counts from the corpus labels
        c = sum(text_success[t] for t in chosen)
        r = sum(text_success[t] for t in rejected)
        assert c == rec["chosen_success_count"]
        assert r == rec["rejected_success_count"]
        assert c - r >= Thresholds.delta
        assert rec["chosen"] == "\n\n".join(chosen)


def test_build_dpo_with_delta_one_keeps_pairs_one_apart(tmp_path):
    out = tmp_path / "dpo.jsonl"
    manifest = build_dpo(
        dpo_store(), "train", {}, out, orthogonal_embed,
        delta=1, pairs_per_paper=3, seed=0,
    )
    gaps = [
        rec["chosen_success_count"] - rec["rejected_success_count"]
        for rec in map(json.loads, out.read_text().splitlines())
        if rec["pair_kind"] == "real_label"
    ]
    assert manifest.record_count == len(gaps) > 0
    assert min(gaps) == 1


def test_build_dpo_chosen_successful_only(tmp_path):
    store = dpo_store()
    out = tmp_path / "dpo.jsonl"
    build_dpo(
        store,
        "train",
        {},
        out,
        orthogonal_embed,
        chosen_successful_only=True,
        seed=1,
    )
    for line in out.read_text().splitlines():
        rec = json.loads(line)
        assert rec["chosen_success_count"] == Sampling.k


def test_build_dpo_corruption_pairs_swap_one_slot(tmp_path):
    store = dpo_store(n_papers=2)
    bank = {}
    for p in store.papers("train"):
        u = p.successful_units()[0]
        bank[u.id] = [
            CorruptionVariant(
                source_unit_id=u.id,
                dimension="vague",
                text=f"[vague] {u.text}",
                verification=VariantVerification("vague", 3, 3),
            )
        ]
    unit_by_text = {u.text: u for p in store.papers("train") for u in p.units}
    out = tmp_path / "dpo.jsonl"
    build_dpo(
        store,
        "train",
        bank,
        out,
        orthogonal_embed,
        pairs_per_paper=0,
        corruption_pairs_per_paper=1,
        seed=0,
    )
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(lines) == 2
    for rec in lines:
        assert rec["pair_kind"] == "corruption"
        chosen, rejected = rec["chosen_items"], rec["rejected_items"]
        assert chosen[1:] == rejected[1:]
        original = unit_by_text[chosen[0]]
        assert rejected[0] == f"[vague] {original.text}"
        assert original.is_successful
        assert (
            rec["chosen_success_count"] - rec["rejected_success_count"] == 1
        )


def test_build_dpo_unkept_variants_are_ignored(tmp_path):
    store = dpo_store(n_papers=1)
    u = store.papers("train")[0].successful_units()[0]
    bank = {
        u.id: [
            CorruptionVariant(
                source_unit_id=u.id,
                dimension="vague",
                text="rejected rewrite",
                verification=VariantVerification("generic", 3, 3),
            )
        ]
    }
    with pytest.raises(PipelineError, match="no pairs"):
        build_dpo(
            store,
            "train",
            bank,
            tmp_path / "dpo.jsonl",
            orthogonal_embed,
            pairs_per_paper=0,
            corruption_pairs_per_paper=1,
        )


def test_build_dpo_dedup_removes_near_duplicates(tmp_path):
    pid = "p0"
    units = [
        hunit(pid, "r1", f"strong point {j}") for j in range(6)
    ] + [
        hunit(pid, "r1", f"weak point {j}", successful=False) for j in range(6)
    ]
    dupe_a, dupe_b = units[0].text, units[1].text

    def embed(texts):
        vecs = []
        for i, t in enumerate(texts):
            v = np.zeros(len(texts) + 1)
            if t in (dupe_a, dupe_b):
                v[0] = 1.0
            else:
                v[i + 1] = 1.0
            vecs.append(v)
        return vecs

    store = make_store([paper(pid, units)], {"train": [pid]})
    out = tmp_path / "dpo.jsonl"
    build_dpo(store, "train", {}, out, embed, pairs_per_paper=4, seed=5)
    for line in out.read_text().splitlines():
        rec = json.loads(line)
        mentioned = set(rec["chosen_items"]) | set(rec["rejected_items"])
        assert not ({dupe_a, dupe_b} <= mentioned)


def test_build_dpo_is_deterministic(tmp_path):
    store = dpo_store()
    out_a, out_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    build_dpo(store, "train", {}, out_a, orthogonal_embed, seed=11)
    build_dpo(store, "train", {}, out_b, orthogonal_embed, seed=11)
    assert out_a.read_bytes() == out_b.read_bytes()


def test_build_dpo_requires_some_pair(tmp_path):
    store = make_store(
        [paper("p0", [hunit("p0", "r1", "lonely point")])], {"train": ["p0"]}
    )
    with pytest.raises(PipelineError, match="no pairs"):
        build_dpo(store, "train", {}, tmp_path / "dpo.jsonl", orthogonal_embed)


# ---- corruption bank ----


def test_build_corruption_bank(tmp_path):
    p1 = paper(
        "p1",
        [
            hunit("p1", "r1", "first successful"),
            hunit("p1", "r1", "second successful"),
            hunit("p1", "r1", "unsuccessful", successful=False),
        ],
    )
    p2 = paper("p2", [hunit("p2", "r1", "third successful")])
    client = JudgeClient(ForgeBackend())
    bank, stats = build_corruption_bank(client, ENDPOINT, ENDPOINT, [p1, p2])
    expected = [u.id for u in p1.successful_units()] + [
        u.id for u in p2.successful_units()
    ]
    assert sorted(bank) == sorted(expected)
    assert len(stats) == 3
    assert all(len(v) == len(CORRUPTION_DIMENSIONS) for v in bank.values())
    assert all(variant.kept for v in bank.values() for variant in v)

    bank_limited, stats_limited = build_corruption_bank(
        client, ENDPOINT, ENDPOINT, [p1, p2], max_units_per_paper=1
    )
    assert sorted(bank_limited) == sorted(
        [p1.successful_units()[0].id, p2.successful_units()[0].id]
    )
    assert len(stats_limited) == 2
