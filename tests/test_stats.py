import hashlib
import math
import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

import feedbacklab
from feedbacklab.errors import StatsError
from feedbacklab.stats import (
    ContingencyTable,
    _chi2_sf,
    ci_summary,
    cohen_kappa,
    draw_without_replacement,
    fisher_exact,
    keyed_rng,
    kruskal_wallis,
    krippendorff_alpha,
    mann_whitney_u,
    observed_agreement,
    pabak,
)

# ---- agreement ----


def test_pabak_reference_values():
    assert pabak(0.874) == 0.748
    assert pabak(0.919) == 0.838
    assert pabak(Fraction(437, 500)) == 0.748
    assert pabak(1.0) == 1.0
    assert pabak(0.0) == -1.0
    assert pabak(0.5) == 0.0
    with pytest.raises(StatsError):
        pabak(1.2)


def test_observed_agreement():
    assert observed_agreement([[97, 0], [14, 0]]) == 97 / 111
    assert observed_agreement([[3, 1], [1, 5]]) == 0.8
    with pytest.raises(StatsError):
        observed_agreement([[1, 2, 3], [4, 5, 6]])


def test_cohen_kappa_degenerate_single_class():
    # second rater used one label for everything: p_e == p_o, kappa 0
    assert cohen_kappa([[97, 0], [14, 0]]) == 0.0
    # expected agreement exactly 1: defined as 0 rather than 0/0
    assert cohen_kappa([[5, 0], [0, 0]]) == 0.0


def test_cohen_kappa_known_values():
    # p_o = 35/50, p_e = (25*30 + 25*20)/2500 = 0.5 -> kappa 0.4 exact
    assert cohen_kappa([[20, 5], [10, 15]]) == pytest.approx(0.4, abs=1e-15)
    # p_o and p_e both 13/25: kappa exactly zero without cancellation error
    assert cohen_kappa([[4, 6], [6, 9]]) == 0.0
    assert cohen_kappa([[10, 0], [0, 10]]) == 1.0


def kappa_oracle(table):
    # independent route: plain float marginal arithmetic
    n = sum(sum(r) for r in table)
    k = len(table)
    po = sum(table[i][i] for i in range(k)) / n
    rows = [sum(r) for r in table]
    cols = [sum(table[i][j] for i in range(k)) for j in range(k)]
    pe = sum(rows[i] * cols[i] for i in range(k)) / n / n
    if pe == 1:
        return 0.0
    return (po - pe) / (1 - pe)


@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=10), min_size=3, max_size=3),
        min_size=3,
        max_size=3,
    )
)
def test_cohen_kappa_matches_oracle(table):
    if sum(sum(r) for r in table) == 0:
        with pytest.raises(StatsError):
            cohen_kappa(table)
        return
    assert cohen_kappa(table) == pytest.approx(kappa_oracle(table), abs=1e-9)


def alpha_oracle(ratings):
    """Nominal alpha via the Do/De formulation, all Fractions."""
    usable = [
        [v for v in row if v is not None]
        for row in ratings
        if sum(1 for v in row if v is not None) >= 2
    ]
    if not usable:
        raise ValueError("no co-annotated units")
    n_total = sum(len(row) for row in usable)
    counts = {}
    for row in usable:
        for v in row:
            counts[v] = counts.get(v, 0) + 1
    d_o = Fraction(0)
    for row in usable:
        m = len(row)
        disagree = sum(1 for a, b in combinations(row, 2) if a != b) * 2
        d_o += Fraction(disagree, m - 1)
    d_o /= n_total
    d_e = Fraction(0)
    for a, b in combinations(sorted(counts, key=repr), 2):
        d_e += 2 * Fraction(counts[a] * counts[b])
    d_e /= n_total * (n_total - 1)
    if d_e == 0:
        return 1.0
    return float(1 - d_o / d_e)


def test_krippendorff_known_cases():
    # perfect agreement
    assert krippendorff_alpha([["a", "a"], ["b", "b"], ["a", "a"]]) == 1.0
    # a classic tiny case, worked out by hand:
    # coincidences: o_aa=2, o_ab=o_ba=1 -> alpha = 1 - 3*2/(2*3*1) = 0
    assert krippendorff_alpha([["a", "a"], ["a", "b"]]) == 0.0
    # missing values: units with <2 ratings drop out
    assert krippendorff_alpha([["a", None, "a"], ["b", None, None]]) == 1.0
    with pytest.raises(StatsError):
        krippendorff_alpha([["a", None], [None, "b"]])


@settings(max_examples=200)
@given(
    st.lists(
        st.lists(
            st.one_of(st.none(), st.sampled_from(["a", "b", "c"])),
            min_size=2,
            max_size=4,
        ),
        min_size=1,
        max_size=10,
    )
)
def test_krippendorff_matches_oracle(ratings):
    usable = [r for r in ratings if sum(v is not None for v in r) >= 2]
    if not usable:
        with pytest.raises(StatsError):
            krippendorff_alpha(ratings)
        return
    assert krippendorff_alpha(ratings) == pytest.approx(
        alpha_oracle(ratings), abs=1e-9
    )


# ---- contingency tables and exact tests ----


def test_contingency_table_validation():
    t = ContingencyTable(((1, 2), (3, 4)))
    assert t.total == 10
    assert t.shape == (2, 2)
    assert t.row_totals() == (3, 7)
    assert t.col_totals() == (4, 6)
    with pytest.raises(StatsError):
        ContingencyTable(((1, 2), (3,)))
    with pytest.raises(StatsError):
        ContingencyTable(((1, -2), (3, 4)))
    with pytest.raises(StatsError):
        ContingencyTable(((0, 0), (0, 0)))
    with pytest.raises(StatsError):
        ContingencyTable(())


def test_fisher_exact_known_value():
    # perfectly diagonal 5+5: only the two extreme tables are as probable
    assert fisher_exact([[5, 0], [0, 5]]) == pytest.approx(2 / 252, abs=1e-15)
    assert fisher_exact([[1, 1], [1, 1]]) == 1.0


def fisher_oracle(table):
    (a, b), (c, d) = table
    r1, r2, c1 = a + b, c + d, a + c
    n = r1 + r2
    denom = math.comb(n, c1)
    obs = Fraction(math.comb(r1, a) * math.comb(r2, c), denom)
    total = Fraction(0)
    for k in range(max(0, c1 - r2), min(r1, c1) + 1):
        pk = Fraction(math.comb(r1, k) * math.comb(r2, c1 - k), denom)
        if pk <= obs:
            total += pk
    return float(total)


@given(st.lists(st.integers(min_value=0, max_value=8), min_size=4, max_size=4))
def test_fisher_matches_enumeration_and_scipy(cells):
    a, b, c, d = cells
    if a + b + c + d == 0:
        return
    table = [[a, b], [c, d]]
    p = fisher_exact(table)
    assert p == pytest.approx(fisher_oracle(table), abs=1e-12)
    ref = scipy.stats.fisher_exact(table, alternative="two-sided")
    assert p == pytest.approx(ref.pvalue, abs=1e-9)


# ---- rank tests ----


def mwu_brute_force(x, y):
    """Enumerate every group assignment of the pooled multiset."""
    pooled = list(x) + list(y)
    n1 = len(x)
    center2 = 2 * (n1 * len(y) / 2)

    def doubled_u(xs, ys):
        u2 = 0
        for a in xs:
            for b in ys:
                u2 += 2 if a > b else (1 if a == b else 0)
        return u2

    obs = doubled_u(x, y)
    dev = abs(obs - center2)
    hits = 0
    total = 0
    for idx in combinations(range(len(pooled)), n1):
        chosen = set(idx)
        xs = [pooled[i] for i in idx]
        ys = [pooled[i] for i in range(len(pooled)) if i not in chosen]
        total += 1
        if abs(doubled_u(xs, ys) - center2) >= dev:
            hits += 1
    return obs / 2.0, hits / total


def test_mwu_known_values():
    out = mann_whitney_u([1, 1, 1], [5, 5, 5])
    assert out["u"] == 0.0
    assert out["method"] == "exact"
    assert out["p"] == pytest.approx(2 / 20, abs=1e-15)


def test_mwu_identical_samples():
    out = mann_whitney_u([2, 2, 2, 2], [2, 2, 2, 2])
    assert out["u"] == 8.0  # n1*n2/2
    assert out["p"] == 1.0


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=4),
    st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=4),
)
def test_mwu_exact_matches_brute_force(x, y):
    out = mann_whitney_u(x, y)
    assert out["method"] == "exact"
    u_ref, p_ref = mwu_brute_force(x, y)
    assert out["u"] == pytest.approx(u_ref, abs=1e-12)
    assert out["p"] == pytest.approx(p_ref, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-50, max_value=50, allow_nan=False),
        min_size=2,
        max_size=8,
        unique=True,
    ),
)
def test_mwu_exact_matches_scipy_without_ties(values):
    # scipy's exact method is only defined for untied data
    half = len(values) // 2
    x, y = values[:half], values[half:]
    if not x or not y:
        return
    out = mann_whitney_u(x, y)
    ref = scipy.stats.mannwhitneyu(x, y, alternative="two-sided", method="exact")
    assert out["u"] == pytest.approx(float(ref.statistic), abs=1e-12)
    assert out["p"] == pytest.approx(float(ref.pvalue), abs=1e-12)


def test_mwu_normal_path_for_large_samples():
    x = list(range(30))
    y = [v + 0.5 for v in range(30)]
    out = mann_whitney_u(x, y)  # 900 pairs > 400
    assert out["method"] == "normal"
    ref = scipy.stats.mannwhitneyu(
        x, y, alternative="two-sided", method="asymptotic", use_continuity=False
    )
    assert out["p"] == pytest.approx(float(ref.pvalue), rel=1e-9)


def test_mwu_validation():
    with pytest.raises(StatsError):
        mann_whitney_u([], [1])


def test_kruskal_wallis_against_scipy():
    rng = np.random.default_rng(11)
    for _ in range(25):
        groups = [
            rng.integers(1, 6, size=rng.integers(2, 9)).tolist()
            for _ in range(3)
        ]
        if len({v for g in groups for v in g}) == 1:
            continue
        out = kruskal_wallis(groups)
        ref = scipy.stats.kruskal(*groups)
        assert out["statistic"] == pytest.approx(ref.statistic, rel=1e-12)
        assert out["p"] == pytest.approx(ref.pvalue, rel=1e-10)


@settings(max_examples=300, deadline=None)
@given(
    df=st.integers(min_value=1, max_value=30),
    x=st.floats(min_value=0.0, max_value=2000.0),
)
def test_chi2_sf_matches_scipy(df, x):
    ref = float(scipy.stats.chi2.sf(x, df))
    got = _chi2_sf(x, df)
    if ref > 1e-300:
        assert abs(got - ref) <= 1e-12 * ref
    else:
        assert 0.0 <= got <= 1e-290


def test_chi2_sf_edges():
    assert _chi2_sf(0.0, 1) == 1.0 and _chi2_sf(0.0, 7) == 1.0
    # df = 1 is the bare erfc term
    for stat in (0.3, 3.841458820694124, 40.0):
        assert _chi2_sf(stat, 1) == math.erfc(math.sqrt(stat / 2.0))


def test_kruskal_wallis_degenerate():
    out = kruskal_wallis([[3, 3], [3, 3, 3]])
    assert out == {"statistic": 0.0, "p": 1.0, "note": "all observations identical"}
    with pytest.raises(StatsError):
        kruskal_wallis([[1, 2]])
    with pytest.raises(StatsError):
        kruskal_wallis([[1], []])


# ---- bootstrap plumbing ----


def _sha256_rng(seed, *key):
    # The per-paper / per-unit derivation keyed_rng replaced.
    digest = hashlib.sha256("\x1f".join(key).encode("utf-8")).digest()
    entropy = int.from_bytes(digest[:8], "big")
    return np.random.default_rng(np.random.SeedSequence([seed, entropy]))


@given(
    seed=st.integers(min_value=0, max_value=2**63),
    key=st.lists(st.text(), min_size=1, max_size=4),
)
def test_keyed_rng_matches_sha256_derivation(seed, key):
    got = keyed_rng(seed, *key)
    ref = _sha256_rng(seed, *key)
    assert got.bit_generator.state == ref.bit_generator.state
    assert got.random(4).tolist() == ref.random(4).tolist()


def test_draw_without_replacement():
    rng = keyed_rng(0, "p")
    state = rng.bit_generator.state
    for n, k in ((3, 5), (5, 5), (1, 1)):
        idx = draw_without_replacement(rng, 4, n, k)
        assert idx.tolist() == [list(range(n))] * 4
    assert rng.bit_generator.state == state  # no draw consumed
    idx = draw_without_replacement(rng, 200, 9, 4)
    assert idx.shape == (200, 4)
    assert all(len(set(row)) == 4 and max(row) < 9 for row in idx.tolist())
    ref = np.argpartition(keyed_rng(0, "p").random((200, 9)), 3, axis=1)[:, :4]
    assert np.array_equal(idx, ref)


def test_ci_summary_matches_numpy():
    draws = np.arange(101, dtype=float)
    out = ci_summary(draws)
    ref_lo, ref_hi = np.percentile(draws, [2.5, 97.5])
    assert out["ci_lower"] == pytest.approx(float(ref_lo), abs=1e-12)
    assert out["ci_upper"] == pytest.approx(float(ref_hi), abs=1e-12)
    assert out["mean"] == 50.0
    assert out["ci_half_width"] == pytest.approx((ref_hi - ref_lo) / 2, abs=1e-12)
    with pytest.raises(StatsError):
        ci_summary(np.array([1.0]))


def same_float(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


# wide, but not so wide that the mean of the draws overflows
finite = st.floats(-1e300, 1e300)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.lists(finite, min_size=2, max_size=50),
        # ties
        st.lists(st.sampled_from([-1.5, 0.0, 0.25, 1.0]), min_size=2, max_size=80),
        # large n, from rounded draws so ties occur there too
        st.tuples(st.integers(1_000, 20_000), st.integers(0, 2**32 - 1)).map(
            lambda t: np.round(np.random.default_rng(t[1]).random(t[0]), 3).tolist()
        ),
    )
)
@example([3.0, -1.0])
@example([0.1, 0.2])
@example([1.0, math.nan, 3.0])
@example([5.0] * 41)
# gamma = 0.5 for the lower bound, where numpy's two interpolation
# formulas give different last bits
@example([6.091389690280708e-120, 1.0151253021450147e-116] + [1.0] * 19)
def test_ci_summary_bounds_equal_numpy_percentile(values):
    draws = np.array(values)
    out = ci_summary(draws)
    ref_lo, ref_hi = (float(v) for v in np.percentile(draws, [2.5, 97.5]))
    assert same_float(out["ci_lower"], ref_lo)
    assert same_float(out["ci_upper"], ref_hi)


def test_ci_summary_does_not_import_numpy_ma():
    paths = [os.path.dirname(os.path.dirname(feedbacklab.__file__))]
    paths += filter(None, [os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    probe = (
        "import sys, numpy as np; from feedbacklab.stats import ci_summary; "
        "ci_summary(np.random.default_rng(0).random(1000)); "
        "print('numpy.ma' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert result.stdout.strip() == "False"
