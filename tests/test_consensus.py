import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feedbacklab.consensus import (
    DEFAULT_BOUNDARIES,
    HUMAN_HUMAN,
    HUMAN_MODEL,
    ConsensusSet,
    MatchEdge,
    StratumRow,
    StratumTable,
    bootstrap_match_eval,
    build_consensus,
    build_stratum_table,
    calibrate_threshold,
    consensus_clusters,
    decompose_novel_aligned,
    distribution_weighted,
    prefilter_pairs,
    score_model,
    stratum_bounds,
    stratum_index,
)
from feedbacklab.core import (
    AspectTag,
    AuthorAction,
    FeedbackUnit,
    Source,
    Validity,
)
from feedbacklab.errors import ConfigError, PipelineError
from feedbacklab.stats import ci_summary, draw_without_replacement, keyed_rng


def unit(uid, reviewer="r1", successful=True, source=Source.HUMAN, aspects=()):
    return FeedbackUnit(
        id=uid,
        paper_id="p1",
        reviewer_id=reviewer,
        source=source,
        text=f"text of {uid}",
        validity=Validity.AGREED if successful else Validity.REBUTTED,
        action=AuthorAction.WILL_REVISE
        if successful
        else AuthorAction.NO_REVISION_CONTEST,
        aspects=frozenset(aspects),
    )


def edge(left, right, judged=None, pair_type=HUMAN_HUMAN, cos=0.7):
    return MatchEdge(
        left_unit_id=left,
        right_unit_id=right,
        pair_type=pair_type,
        cosine=cos,
        judged=judged,
    )


# ---- strata ----


def test_stratum_bounds_partition():
    bounds = stratum_bounds()
    assert bounds[0] == (-1.0, 0.15)
    assert bounds[-1] == (0.65, 1.0)
    assert len(bounds) == 7
    for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
        assert hi == lo


def test_stratum_index_half_open():
    assert stratum_index(-1.0) == 0
    assert stratum_index(0.1499) == 0
    assert stratum_index(0.15) == 1
    assert stratum_index(0.6499) == 5
    assert stratum_index(0.65) == 6
    assert stratum_index(1.0) == 6
    with pytest.raises(PipelineError):
        stratum_index(1.0001)
    with pytest.raises(PipelineError):
        stratum_index(-1.0001)


def test_stratum_table_validation():
    with pytest.raises(ConfigError, match="do not partition"):
        StratumTable(rows=(StratumRow(lower=0.0, upper=0.5),))


def mid(lo, hi):
    return (lo + hi) / 2


def rate_table(matches_per_stratum, n=20):
    """Edges reproducing an annotated match-rate column, n per stratum."""
    edges = []
    for idx, (lo, hi) in enumerate(stratum_bounds()):
        m = matches_per_stratum[idx]
        for j in range(n):
            edges.append(
                MatchEdge(
                    left_unit_id=f"a{idx}_{j}",
                    right_unit_id=f"b{idx}_{j}",
                    pair_type=HUMAN_HUMAN,
                    cosine=mid(lo, hi),
                    judged=j < m,
                )
            )
    return build_stratum_table(edges)


def test_build_stratum_table_counts():
    table = rate_table([0, 0, 0, 0, 1, 13, 15])
    rates = [r.annotated_match_rate for r in table.rows]
    assert rates == [0.0, 0.0, 0.0, 0.0, 0.05, 0.65, 0.75]
    with pytest.raises(PipelineError, match="lacks a label"):
        build_stratum_table([edge("a", "b")])


def test_build_stratum_table_empty_stratum_is_none():
    table = build_stratum_table([edge("a", "b", judged=True, cos=0.7)])
    assert table.rows[6].annotated_match_rate == 1.0
    assert all(r.annotated_match_rate is None for r in table.rows[:6])


def test_calibrate_threshold_published_rates():
    human_human = rate_table([0, 0, 0, 0, 1, 13, 15])
    human_model = rate_table([0, 0, 0, 1, 2, 8, 13])
    assert calibrate_threshold(human_human) == 0.55
    assert calibrate_threshold(human_model) == 0.45


def test_calibrate_threshold_skips_empty_strata():
    # only the top stratum has data
    table = build_stratum_table([edge("a", "b", judged=True, cos=0.9)])
    assert calibrate_threshold(table) == 0.65


def test_calibrate_threshold_no_usable():
    table = rate_table([0, 0, 0, 0, 0, 0, 1])  # best rate 0.05 < 0.1
    with pytest.raises(PipelineError, match="no usable threshold"):
        calibrate_threshold(table)
    with pytest.raises(PipelineError, match="no rows"):
        calibrate_threshold(StratumTable(rows=()))


# ---- edges ----


def test_match_edge_validation():
    with pytest.raises(PipelineError, match="pair_type"):
        edge("a", "b", pair_type="model_model")
    with pytest.raises(PipelineError, match="outside"):
        edge("a", "b", cos=1.5)
    with pytest.raises(PipelineError, match="differ"):
        edge("a", "a")
    e = edge("a", "b", judged=True)
    assert MatchEdge.from_dict(e.to_dict()) == e
    bare = edge("a", "b")
    assert "judged" not in bare.to_dict()
    assert MatchEdge.from_dict(bare.to_dict()) == bare


def test_prefilter_human_human():
    units = [unit("u1", "r1"), unit("u2", "r1"), unit("u3", "r2")]
    same = np.array([1.0, 0.0])
    embs = [same, same, same]
    edges = prefilter_pairs(units, units, embs, embs, 0.5, HUMAN_HUMAN)
    pairs = {(e.left_unit_id, e.right_unit_id) for e in edges}
    # same-reviewer u1-u2 excluded; each unordered pair once, sorted ids
    assert pairs == {("u1", "u3"), ("u2", "u3")}
    assert all(e.pair_type == HUMAN_HUMAN for e in edges)
    assert all(e.judged is None for e in edges)


def test_prefilter_threshold_inclusive():
    units_a = [unit("u1", "r1")]
    units_b = [unit("u9", "r2")]
    a = [np.array([2.0, 0.0, 0.0, 0.0])]
    b = [np.array([1.0, 1.0, 1.0, 1.0])]  # cosine exactly 0.5
    kept = prefilter_pairs(units_a, units_b, a, b, 0.5, HUMAN_HUMAN)
    assert len(kept) == 1 and kept[0].cosine == 0.5
    assert not prefilter_pairs(units_a, units_b, a, b, 0.5000001, HUMAN_HUMAN)


def test_prefilter_human_model_keeps_human_left():
    human = [unit("zz_human", "r1")]
    model = [unit("aa_model", "m", source=Source.MODEL)]
    v = [np.array([1.0, 0.0])]
    edges = prefilter_pairs(human, model, v, v, 0.0, HUMAN_MODEL)
    assert [(e.left_unit_id, e.right_unit_id) for e in edges] == [
        ("zz_human", "aa_model")
    ]


def test_prefilter_alignment_checked():
    with pytest.raises(PipelineError):
        prefilter_pairs([unit("u1")], [], [], [], 0.5, HUMAN_HUMAN)


# ---- consensus membership ----


def golden_units():
    return [
        unit("h1", "r1", successful=True),
        unit("h2", "r1", successful=False),
        unit("h3", "r2", successful=True),
        unit("h4", "r2", successful=False),
        unit("h5", "r3", successful=True),
    ]


def test_build_consensus_golden():
    units = golden_units()
    edges = [
        edge("h1", "h3", judged=True),
        edge("h3", "h5", judged=True),
        edge("h2", "h4", judged=True),  # neither side successful
        edge("h1", "h5", judged=False),  # judged false: no effect
        edge("h1", "h4", judged=None),  # unjudged: no effect
    ]
    consensus = build_consensus("p1", units, edges)
    assert consensus.members == frozenset({"h1", "h3", "h5"})


def test_build_consensus_ignores_foreign_and_same_reviewer_edges():
    units = golden_units()
    edges = [
        edge("h1", "ghost", judged=True),
        edge("h1", "h2", judged=True),  # same reviewer
        edge("h1", "h3", judged=True, pair_type=HUMAN_MODEL),
    ]
    assert build_consensus("p1", units, edges).members == frozenset()


def test_build_consensus_partner_success_flag():
    units = golden_units()
    # h1 successful, h4 not: the true edge crosses reviewers
    edges = [edge("h1", "h4", judged=True)]
    relaxed = build_consensus("p1", units, edges)
    assert relaxed.members == frozenset({"h1"})
    strict = build_consensus("p1", units, edges, require_partner_success=True)
    assert strict.members == frozenset()


def test_consensus_clusters_components():
    consensus = ConsensusSet(paper_id="p1", members={"a", "b", "c", "d"})
    edges = [
        edge("a", "b", judged=True),
        edge("b", "c", judged=True),
        edge("c", "x", judged=True),  # x not a member
        edge("a", "d", judged=False),
    ]
    clusters = consensus_clusters(consensus, edges)
    assert sorted(sorted(c) for c in clusters) == [["a", "b", "c"], ["d"]]


# ---- scoring ----


def golden_edges_hm():
    return [
        edge("h1", "l3", judged=True, pair_type=HUMAN_MODEL),
        edge("h5", "l3", judged=True, pair_type=HUMAN_MODEL),
        edge("h3", "l1", judged=False, pair_type=HUMAN_MODEL),
    ]


def test_score_model_golden():
    consensus = ConsensusSet(paper_id="p1", members={"h1", "h3", "h5"})
    score = score_model(consensus, ["l1", "l2", "l3", "l4"], golden_edges_hm())
    assert score.paper_id == "p1" and score.consensus_size == 3
    assert score.model_unit_ids == ("l1", "l2", "l3", "l4")
    assert score.member_matches == {"h1": ("l3",), "h5": ("l3",)}
    assert score.matched_model_units == frozenset({"l3"})
    assert score.matched_consensus_units == frozenset({"h1", "h5"})
    assert score.precision == 0.25
    assert score.recall == pytest.approx(2 / 3)
    assert score.f1 == pytest.approx(4 / 11)


def test_score_model_cluster_recall():
    consensus = ConsensusSet(paper_id="p1", members={"h1", "h3", "h5"})
    clusters = [frozenset({"h1", "h3"}), frozenset({"h5"})]
    score = score_model(
        consensus, ["l1", "l2", "l3", "l4"], golden_edges_hm(), clusters=clusters
    )
    assert score.recall == 1.0  # both clusters touched via h1 and h5
    assert score.precision == 0.25


def test_score_model_validation():
    consensus = ConsensusSet(paper_id="p1", members={"h1"})
    with pytest.raises(PipelineError, match="no consensus"):
        score_model(ConsensusSet(paper_id="p1", members=()), ["l1"], [])
    with pytest.raises(PipelineError, match="empty model"):
        score_model(consensus, [], [])
    with pytest.raises(PipelineError, match="duplicate"):
        score_model(consensus, ["l1", "l1"], [])
    with pytest.raises(PipelineError, match="empty cluster"):
        score_model(consensus, ["l1"], [], clusters=[])


def test_score_model_matches_exhaustive_oracle():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n_members = int(rng.integers(1, 6))
        n_model = int(rng.integers(1, 6))
        members = [f"h{i}" for i in range(n_members)]
        model = [f"l{i}" for i in range(n_model)]
        adj = rng.random((n_model, n_members)) < 0.3
        edges = [
            edge(members[j], model[i], judged=True, pair_type=HUMAN_MODEL)
            for i in range(n_model)
            for j in range(n_members)
            if adj[i][j]
        ]
        consensus = ConsensusSet(paper_id="p1", members=members)
        score = score_model(consensus, model, edges)
        matched_model = {model[i] for i in range(n_model) if adj[i].any()}
        matched_members = {
            members[j] for j in range(n_members) if adj[:, j].any()
        }
        p = len(matched_model) / n_model
        r = len(matched_members) / n_members
        assert score.precision == p and score.recall == r
        expected_f1 = 0.0 if p + r == 0 else 2 * p * r / (p + r)
        assert score.f1 == pytest.approx(expected_f1, abs=1e-15)


# ---- distribution-weighted validation ----


HH_ROWS = (
    StratumRow(
        lower=0.55,
        upper=0.65,
        distribution_weight=0.757,
        metrics={"accuracy": 0.85, "precision": 1.00, "recall": 0.77, "f1": 0.87},
    ),
    StratumRow(
        lower=0.65,
        upper=1.0,
        distribution_weight=0.243,
        metrics={"accuracy": 0.80, "precision": 0.92, "recall": 0.80, "f1": 0.86},
    ),
)

HM_ROWS = (
    StratumRow(
        lower=0.45,
        upper=0.55,
        distribution_weight=0.753,
        metrics={"accuracy": 1.00, "precision": 1.00, "recall": 1.00, "f1": 1.00},
    ),
    StratumRow(
        lower=0.55,
        upper=0.65,
        distribution_weight=0.210,
        metrics={"accuracy": 0.70, "precision": 0.67, "recall": 0.50, "f1": 0.57},
    ),
    StratumRow(
        lower=0.65,
        upper=1.0,
        distribution_weight=0.038,
        metrics={"accuracy": 0.85, "precision": 0.92, "recall": 0.85, "f1": 0.88},
    ),
)


def test_distribution_weighted_reproduces_reference_rows():
    hh = distribution_weighted(HH_ROWS)
    assert hh["accuracy"] == pytest.approx(0.838, abs=1e-3)
    assert hh["precision"] == pytest.approx(0.981, abs=1e-3)
    assert hh["recall"] == pytest.approx(0.777, abs=1e-3)
    assert hh["f1"] == pytest.approx(0.868, abs=1e-3)
    hm = distribution_weighted(HM_ROWS)
    assert hm["accuracy"] == pytest.approx(0.932, abs=1e-3)
    assert hm["precision"] == pytest.approx(0.929, abs=1e-3)
    assert hm["recall"] == pytest.approx(0.890, abs=1e-3)
    assert hm["f1"] == pytest.approx(0.906, abs=1e-3)


def test_distribution_weighted_tolerance():
    # HM_ROWS' weights sum to 1.001, a rounding the tolerance admits;
    # weights that sum to 0.99 are rejected.
    assert abs(sum(r.distribution_weight for r in HM_ROWS) - 1.0) > 1e-9
    distribution_weighted(HM_ROWS)
    short = (
        StratumRow(lower=0.0, upper=0.5, distribution_weight=0.5,
                   metrics={"m": 1.0}),
        StratumRow(lower=0.5, upper=1.0, distribution_weight=0.49,
                   metrics={"m": 0.0}),
    )
    with pytest.raises(PipelineError, match="sum"):
        distribution_weighted(short)


def test_distribution_weighted_skips_bare_rows():
    rows = (*HH_ROWS, StratumRow(lower=0.45, upper=0.55))
    assert distribution_weighted(rows) == distribution_weighted(HH_ROWS)
    with pytest.raises(PipelineError, match="no weighted rows"):
        distribution_weighted([StratumRow(lower=0.0, upper=1.0)])


def test_distribution_weighted_requires_same_keys():
    rows = (
        HH_ROWS[0],
        StratumRow(
            lower=0.65, upper=1.0, distribution_weight=0.243,
            metrics={"accuracy": 0.8},
        ),
    )
    with pytest.raises(PipelineError, match="metric keys"):
        distribution_weighted(rows)


# ---- novel vs aligned ----


def test_decompose_novel_aligned():
    units = [
        unit("l1", "m", source=Source.MODEL,
             aspects={AspectTag.ADD_ABLATIONS}),
        unit("l2", "m", source=Source.MODEL),
        unit("l3", "m", source=Source.MODEL,
             aspects={AspectTag.ADD_ABLATIONS, AspectTag.CLARITY_PRESENTATION}),
        unit("l4", "m", source=Source.MODEL),
    ]
    success = {"l1": True, "l2": True, "l3": False, "l4": False}
    out = decompose_novel_aligned(units, {"l1", "l3"}, success)
    assert out["aligned_rate"] == 0.25  # l1 only: l3 matched but unsuccessful
    assert out["novel_rate"] == 0.25  # l2
    aspects = out["per_aspect"]
    assert aspects["add_ablations"]["unit_count"] == 2
    assert aspects["add_ablations"]["aligned_rate"] == 0.25
    assert aspects["no_aspect"]["novel_rate"] == 0.25
    baseline = {
        "add_ablations": {"aligned_rate": 0.125, "novel_rate": 0.0},
        "no_aspect": {"aligned_rate": 0.0, "novel_rate": 0.5},
    }
    improved = decompose_novel_aligned(units, {"l1", "l3"}, success, baseline)
    rel = improved["relative_improvement"]
    assert rel["add_ablations"]["aligned_rate"] == pytest.approx(1.0)
    assert rel["add_ablations"]["novel_rate"] == 0.0
    assert rel["no_aspect"]["aligned_rate"] == 0.0
    assert rel["no_aspect"]["novel_rate"] == pytest.approx(-0.5)
    # zero baseline with nonzero candidate is not a number
    base2 = {"clarity_presentation": {"aligned_rate": 0.0, "novel_rate": 0.0}}
    out2 = decompose_novel_aligned(
        units, {"l1", "l3", "l2"}, {**success, "l3": True}, base2
    )
    assert out2["relative_improvement"]["clarity_presentation"][
        "aligned_rate"
    ] == "N/A"


def test_decompose_requires_labels():
    units = [unit("l1", "m", source=Source.MODEL)]
    with pytest.raises(PipelineError, match="no success label"):
        decompose_novel_aligned(units, set(), {})
    with pytest.raises(PipelineError, match="no units"):
        decompose_novel_aligned([], set(), {})


# ---- bootstrap ----


def golden_score():
    consensus = ConsensusSet(paper_id="p1", members={"h1", "h3", "h5"})
    return score_model(consensus, ["l1", "l2", "l3", "l4"], golden_edges_hm())


def scored(paper_id, n_model, member_matches, members=()):
    """score_model's record for model units m0..m{n_model-1} against a
    consensus of `members` plus the keys of member_matches, each key
    truly matching the model units it maps to."""
    edges = [
        edge(member, uid, judged=True, pair_type=HUMAN_MODEL)
        for member, uids in member_matches.items()
        for uid in uids
    ]
    consensus = ConsensusSet(
        paper_id=paper_id, members={*members, *member_matches}
    )
    return score_model(consensus, [f"m{i}" for i in range(n_model)], edges)


def other_score():
    return scored("p2", 8, {"c1": ("m0", "m3"), "c2": ("m5",)})


def test_bootstrap_full_coverage_draws_are_degenerate():
    out = bootstrap_match_eval([golden_score()], k=5, iterations=50, seed=0)
    assert out["aggregation"] == "micro" and out["papers"] == 1
    for name, expected in (
        ("precision", 0.25),
        ("recall", 2 / 3),
        ("f1", 4 / 11),
    ):
        stats = out[name]
        # the mean is a float sum over identical draws, so 1-ulp slack
        assert stats["mean"] == pytest.approx(expected, abs=1e-12)
        assert stats["ci_lower"] == stats["ci_upper"]
        assert stats["ci_lower"] == pytest.approx(expected, abs=1e-12)
        assert stats["ci_half_width"] == 0.0


def test_bootstrap_deterministic_and_order_invariant():
    papers = [golden_score(), other_score()]
    a = bootstrap_match_eval(papers, k=3, iterations=200, seed=9)
    b = bootstrap_match_eval(papers, k=3, iterations=200, seed=9)
    assert a == b
    reversed_out = bootstrap_match_eval(papers[::-1], k=3, iterations=200, seed=9)
    assert reversed_out == a
    different_seed = bootstrap_match_eval(papers, k=3, iterations=200, seed=10)
    assert different_seed != a


def test_bootstrap_golden_values():
    # Pins the per-paper streams: values recorded from the original
    # sha256-seeded implementation.
    papers = [golden_score(), other_score()]
    micro = bootstrap_match_eval(papers, k=3, iterations=50, seed=9)
    macro = bootstrap_match_eval(papers, k=3, iterations=50, seed=9, macro=True)
    precision = {
        "mean": 0.28,
        "ci_lower": 0.16666666666666666,
        "ci_upper": 0.5,
        "ci_half_width": 0.16666666666666669,
    }
    header = {"k": 3, "iterations": 50, "seed": 9, "papers": 2}
    assert micro == {
        **header,
        "aggregation": "micro",
        "precision": precision,
        "recall": {
            "mean": 0.46,
            "ci_lower": 0.2,
            "ci_upper": 0.8,
            "ci_half_width": 0.30000000000000004,
        },
        "f1": {
            "mean": 0.3421031909267203,
            "ci_lower": 0.1818181818181818,
            "ci_upper": 0.6153846153846154,
            "ci_half_width": 0.21678321678321683,
        },
    }
    assert macro == {
        **header,
        "aggregation": "macro",
        "precision": precision,
        "recall": {
            "mean": 0.45833333333333326,
            "ci_lower": 0.25,
            "ci_upper": 0.8333333333333333,
            "ci_half_width": 0.29166666666666663,
        },
        "f1": {
            "mean": 0.34241269841269834,
            "ci_lower": 0.2,
            "ci_upper": 0.6222222222222222,
            "ci_half_width": 0.2111111111111111,
        },
    }


def test_bootstrap_micro_vs_macro():
    big = scored("big", 4, {f"c{j}": ("m0",) for j in range(10)})
    small = scored("small", 1, {}, members=("s0",))
    micro = bootstrap_match_eval([big, small], k=5, iterations=10, seed=0)
    macro = bootstrap_match_eval([big, small], k=5, iterations=10, seed=0,
                                 macro=True)
    assert macro["aggregation"] == "macro"
    # recall: micro pools members 10/11; macro averages 1.0 and 0.0
    assert micro["recall"]["mean"] == pytest.approx(10 / 11)
    assert macro["recall"]["mean"] == pytest.approx(0.5)


def test_bootstrap_validation():
    with pytest.raises(PipelineError, match="no papers"):
        bootstrap_match_eval([], k=5)
    with pytest.raises(PipelineError, match="iterations"):
        bootstrap_match_eval([golden_score()], iterations=1)


def test_bootstrap_subsampling_stays_in_range():
    data = scored(
        "p",
        9,
        {"c1": ("m0", "m1"), "c2": ("m2",), "c3": ("m3", "m4", "m5")},
        members=("c4",),
    )
    out = bootstrap_match_eval([data], k=4, iterations=500, seed=1)
    for name in ("precision", "recall", "f1"):
        stats = out[name]
        assert 0.0 <= stats["ci_lower"] <= stats["mean"] <= stats["ci_upper"] <= 1.0
        assert stats["ci_half_width"] > 0.0  # genuine subsampling variance


@st.composite
def match_inputs(draw, paper_id):
    """score_model's inputs for one paper: a consensus, a model unit
    list in random order, and edges between them, true, false or absent
    for each pair, with either endpoint on the left."""
    members = [f"h{j}" for j in range(draw(st.integers(1, 4)))]
    n_model = draw(st.integers(1, 6))
    model = draw(st.permutations([f"l{i}" for i in range(n_model)]))
    edges = []
    for member in members:
        for uid in model:
            judged = draw(st.sampled_from([None, True, False]))
            if judged is not None:
                ends = (member, uid) if draw(st.booleans()) else (uid, member)
                edges.append(edge(*ends, judged=judged, pair_type=HUMAN_MODEL))
    return ConsensusSet(paper_id=paper_id, members=members), model, edges


@settings(max_examples=60, deadline=None)
@given(
    papers=st.integers(1, 3).flatmap(
        lambda n: st.tuples(*(match_inputs(f"p{i}") for i in range(n)))
    ),
    k=st.integers(1, 7),
    iterations=st.integers(2, 12),
    seed=st.integers(0, 2**32),
    macro=st.booleans(),
)
def test_bootstrap_draws_are_score_model_on_each_drawn_subset(
    papers, k, iterations, seed, macro
):
    # Replays each paper's draws and scores every drawn subset with
    # score_model, so the per_paper rule and the match_metrics rule are
    # one rule: pooled (micro) or averaged per paper (macro).
    out = bootstrap_match_eval(
        [score_model(*paper) for paper in papers],
        k=k,
        iterations=iterations,
        seed=seed,
        macro=macro,
    )
    drawn = [
        [
            score_model(consensus, [model[i] for i in row], edges)
            for row in draw_without_replacement(
                keyed_rng(seed, consensus.paper_id), iterations, len(model), k
            )
        ]
        for consensus, model, edges in papers
    ]
    draws = {"precision": [], "recall": [], "f1": []}
    for scores in zip(*drawn):  # one iteration, every paper
        if macro:
            for name in draws:
                draws[name].append(np.mean([getattr(s, name) for s in scores]))
            continue
        p = sum(len(s.matched_model_units) for s in scores) / sum(
            len(s.model_unit_ids) for s in scores
        )
        r = sum(len(s.matched_consensus_units) for s in scores) / sum(
            s.consensus_size for s in scores
        )
        draws["precision"].append(p)
        draws["recall"].append(r)
        draws["f1"].append(2 * p * r / (p + r) if p + r else 0.0)
    for name, values in draws.items():
        assert out[name] == ci_summary(np.array(values)), name
