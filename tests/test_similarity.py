"""similar_pairs against the per-pair cosine() loops it replaced.

The oracles below are the loops prefilter_pairs and dedup_units ran
before they shared one kernel; results must match them exactly,
including pairs that sit on the threshold.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feedbacklab.consensus import (
    HUMAN_HUMAN,
    HUMAN_MODEL,
    MatchEdge,
    prefilter_pairs,
)
from feedbacklab.core import FeedbackUnit, Source, connected_components
from feedbacklab.errors import PipelineError
from feedbacklab.forge import dedup_units
from feedbacklab.judge import cosine, similar_pairs
from feedbacklab.stats import keyed_rng


def oracle_similar_pairs(a, b, threshold):
    out = []
    for i in range(len(a)):
        for j in range(len(b)):
            sim = cosine(a[i], b[j])
            if sim >= threshold:
                out.append((i, j, sim))
    return out


def oracle_prefilter(units_a, units_b, emb_a, emb_b, threshold, pair_type):
    edges = []
    seen = set()
    for i, ua in enumerate(units_a):
        for j, ub in enumerate(units_b):
            if ua.id == ub.id:
                continue
            if pair_type == HUMAN_HUMAN:
                if ua.reviewer_id == ub.reviewer_id:
                    continue
                left, right = sorted((ua.id, ub.id))
                if (left, right) in seen:
                    continue
                seen.add((left, right))
            else:
                left, right = ua.id, ub.id
            sim = cosine(emb_a[i], emb_b[j])
            if sim >= threshold:
                edges.append(
                    MatchEdge(
                        left_unit_id=left,
                        right_unit_id=right,
                        pair_type=pair_type,
                        cosine=sim,
                    )
                )
    return edges


def oracle_dedup(units, embeddings, threshold, seed):
    n = len(units)
    links = (
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if cosine(embeddings[i], embeddings[j]) > threshold
    )
    survivors = set()
    for members in connected_components(n, links):
        if len(members) == 1:
            survivors.add(members[0])
            continue
        ordered = sorted(members, key=lambda i: units[i].id)
        rng = keyed_rng(seed, *(units[i].id for i in ordered))
        survivors.add(ordered[int(rng.integers(len(ordered)))])
    return [units[i] for i in range(n) if i in survivors]


def unit(uid, reviewer, source=Source.HUMAN):
    return FeedbackUnit(
        id=uid, paper_id="p1", reviewer_id=reviewer, source=source, text=uid
    )


@st.composite
def similarity_cases(draw):
    """Units with one embedding per id, and a threshold.

    Small-integer directions make exact ties (cosine 0.5, 1.0, ...)
    common; scales leave the vectors unnormalized; drawing directions
    with replacement duplicates vectors; half the cases put the
    threshold exactly on one pair's cosine.
    """
    dim = draw(st.integers(2, 4))
    nonzero = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim).filter(any)
    directions = draw(st.lists(nonzero, min_size=1, max_size=4))
    n_ids = draw(st.integers(1, 7))
    vectors = {}
    reviewers = {}
    for k in range(n_ids):
        uid = f"u{k}"
        direction = draw(st.sampled_from(directions))
        scale = draw(st.sampled_from([1e-3, 0.7, 1.0, 3.0, 1e3]))
        vectors[uid] = np.array(direction, dtype=float) * scale
        reviewers[uid] = draw(st.sampled_from(["r1", "r2", "r3"]))
    ids = sorted(vectors)
    ids_a = draw(st.lists(st.sampled_from(ids), min_size=0, max_size=6))
    ids_b = draw(st.lists(st.sampled_from(ids), min_size=0, max_size=6))
    if draw(st.booleans()):
        x, y = draw(st.sampled_from(ids)), draw(st.sampled_from(ids))
        threshold = cosine(vectors[x], vectors[y])
    else:
        threshold = draw(st.sampled_from([-1.0, -0.5, 0.0, 0.45, 0.5, 0.55, 0.9, 1.0]))
    return vectors, reviewers, ids_a, ids_b, threshold


@settings(max_examples=300, deadline=None)
@given(similarity_cases(), st.integers(0, 3))
def test_kernel_matches_per_pair_cosine_loops(case, seed):
    vectors, reviewers, ids_a, ids_b, threshold = case
    emb_a = [vectors[u] for u in ids_a]
    emb_b = [vectors[u] for u in ids_b]
    assert similar_pairs(emb_a, emb_b, threshold) == oracle_similar_pairs(
        emb_a, emb_b, threshold
    )
    assert similar_pairs(emb_a, emb_a, threshold) == [
        (i, j, sim)
        for i, j, sim in oracle_similar_pairs(emb_a, emb_a, threshold)
        if i < j
    ]

    humans = [unit(u, reviewers[u]) for u in ids_a]
    for args in (
        (humans, humans, emb_a, emb_a, threshold, HUMAN_HUMAN),
        (
            humans,
            [unit(u, reviewers[u]) for u in ids_b],
            emb_a,
            emb_b,
            threshold,
            HUMAN_HUMAN,
        ),
        (
            humans,
            [unit(u, "model", Source.MODEL) for u in ids_b],
            emb_a,
            emb_b,
            threshold,
            HUMAN_MODEL,
        ),
        (
            humans,
            [unit(u, "model", Source.MODEL) for u in ids_a],
            emb_a,
            emb_a,
            threshold,
            HUMAN_MODEL,
        ),
    ):
        assert prefilter_pairs(*args) == oracle_prefilter(*args)

    distinct = [unit(u, reviewers[u]) for u in sorted(set(ids_a))]
    emb = [vectors[u.id] for u in distinct]
    assert dedup_units(distinct, emb, threshold, seed) == oracle_dedup(
        distinct, emb, threshold, seed
    )


def test_kernel_keeps_cosine_value_on_the_boundary():
    a = [np.array([2.0, 0.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0, 0.0])]
    b = [np.array([1.0, 1.0, 1.0, 1.0])]  # cosine exactly 0.5 with both
    assert similar_pairs(a, b, 0.5) == [(0, 0, 0.5), (1, 0, 0.5)]
    assert similar_pairs(a, b, 0.5000001) == []
    assert similar_pairs([], b, 0.5) == similar_pairs(a, [], 0.5) == []


def test_kernel_rejects_zero_vectors_and_shape_mismatch():
    ok = np.array([1.0, 0.0])
    with pytest.raises(PipelineError, match="zero vector"):
        similar_pairs([ok], [np.zeros(2)], 0.5)
    with pytest.raises(PipelineError, match="shape mismatch"):
        similar_pairs([ok], [np.ones(3)], 0.5)
    with pytest.raises(PipelineError, match="shape mismatch"):
        similar_pairs([ok, np.ones(3)], [ok], 0.5)
    # Stricter than the old per-pair loop: a zero vector raises even
    # when every pair it is in would have been skipped (same reviewer).
    units = [unit("u1", "r1"), unit("u2", "r1")]
    for bad, message in ((np.zeros(2), "zero vector"), (np.ones(3), "shape mismatch")):
        emb = [ok, bad]
        with pytest.raises(PipelineError, match=message):
            prefilter_pairs(units, units, emb, emb, 0.5, HUMAN_HUMAN)
        with pytest.raises(PipelineError, match=message):
            dedup_units(units, emb)
