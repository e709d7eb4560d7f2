"""Agreement coefficients, exact tests, and bootstrap machinery.

Test statistics, exact enumerations and chi-square tail probabilities
are implemented here directly, so their conventions are pinned down
(two-sided definitions vary between libraries) and numpy is the only
numerical dependency.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Any, Sequence

import numpy as np

from .core import content_hash
from .errors import StatsError

logger = logging.getLogger(__name__)

# Exact Mann-Whitney enumeration is used at or below this n1*n2 product.
EXACT_MWU_LIMIT = 400


@dataclass(frozen=True)
class ContingencyTable:
    """A small r x c grid of nonnegative integer counts."""

    counts: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(int(c) for c in row) for row in self.counts)
        if not rows or not rows[0]:
            raise StatsError("contingency table must be nonempty")
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise StatsError("contingency table rows must have equal length")
        if any(c < 0 for row in rows for c in row):
            raise StatsError("contingency table counts must be nonnegative")
        if sum(c for row in rows for c in row) == 0:
            raise StatsError("contingency table total must be positive")
        object.__setattr__(self, "counts", rows)

    @property
    def total(self) -> int:
        return sum(c for row in self.counts for c in row)

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.counts), len(self.counts[0])

    def row_totals(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.counts)

    def col_totals(self) -> tuple[int, ...]:
        return tuple(sum(col) for col in zip(*self.counts))


def _as_table(table: Any) -> ContingencyTable:
    if isinstance(table, ContingencyTable):
        return table
    return ContingencyTable(tuple(tuple(row) for row in table))


def observed_agreement(table: Any) -> float:
    """Fraction of paired ratings on the diagonal of a square table."""
    t = _as_table(table)
    r, c = t.shape
    if r != c:
        raise StatsError(f"observed agreement needs a square table, got {r}x{c}")
    return sum(t.counts[i][i] for i in range(r)) / t.total


def pabak(observed: float | Fraction) -> float:
    """Prevalence- and bias-adjusted kappa: 2*p_o - 1.

    Float inputs are read as the decimal they print as, so a rate
    quoted to three decimals maps onto an exact three-decimal result
    (pabak(0.874) == 0.748, not 0.748000...01).
    """
    if not 0.0 <= observed <= 1.0:
        raise StatsError(f"observed agreement must be in [0,1], got {observed}")
    exact = (
        observed
        if isinstance(observed, Fraction)
        else Fraction(str(observed))
    )
    return float(2 * exact - 1)


def cohen_kappa(table: Any) -> float:
    """Chance-corrected agreement with marginal-product expectation.

    Returns 0.0 when expected agreement is 1 (single-class degenerate
    data), since the usual ratio is undefined there.
    """
    t = _as_table(table)
    r, c = t.shape
    if r != c:
        raise StatsError(f"cohen_kappa needs a square table, got {r}x{c}")
    n = t.total
    p_o = Fraction(sum(t.counts[i][i] for i in range(r)), n)
    p_e = sum(
        Fraction(rt, n) * Fraction(ct, n)
        for rt, ct in zip(t.row_totals(), t.col_totals())
    )
    if p_e == 1:
        logger.warning("cohen_kappa: expected agreement is 1, returning 0.0")
        return 0.0
    return float((p_o - p_e) / (1 - p_e))


def krippendorff_alpha(ratings: Sequence[Sequence[Any]]) -> float:
    """Nominal Krippendorff's alpha over a units x annotators matrix.

    Missing entries are None. Units with fewer than two ratings are
    excluded.
    """
    # Coincidence matrix: each co-rated unit contributes its ordered
    # value pairs with weight 1/(m_u - 1).
    coincidence: dict[tuple[Any, Any], Fraction] = {}
    usable_units = 0
    for row in ratings:
        values = [v for v in row if v is not None]
        m = len(values)
        if m < 2:
            continue
        usable_units += 1
        w = Fraction(1, m - 1)
        for i, vi in enumerate(values):
            for j, vj in enumerate(values):
                if i == j:
                    continue
                key = (vi, vj)
                coincidence[key] = coincidence.get(key, Fraction(0)) + w
    if usable_units == 0:
        raise StatsError("krippendorff_alpha: no unit has two or more ratings")
    categories = sorted({c for pair in coincidence for c in pair}, key=repr)
    n_c = {
        c: sum(coincidence.get((c, k), Fraction(0)) for k in categories)
        for c in categories
    }
    n = sum(n_c.values())
    disagree_observed = sum(
        v for (c, k), v in coincidence.items() if c != k
    )
    disagree_expected = sum(
        n_c[c] * n_c[k] for c, k in combinations(categories, 2)
    ) * 2
    if disagree_expected == 0:
        # Every rating in every co-rated unit is the same single value.
        return 1.0
    return float(1 - (n - 1) * disagree_observed / disagree_expected)


def _chi2_sf(stat: float, df: int) -> float:
    """Upper tail P(X >= stat) of a chi-square with integer df >= 1.

    Abramowitz & Stegun 26.4.8: Q(nu + 2) = Q(nu) + t(nu), where
    t(nu) = (x/2)^(nu/2) e^(-x/2) / Gamma(nu/2 + 1), starting from
    Q(1) = erfc(sqrt(x/2)) or Q(0) = 0. The t's are summed before the
    e^(-x/2) factor is applied, in log space, so a large statistic does
    not underflow that factor while the tail is still representable.
    """
    x = float(stat)
    if x <= 0.0:
        return 1.0
    half = x / 2.0
    if df % 2:
        q, nu, term = math.erfc(math.sqrt(half)), 1, math.sqrt(2.0 * x / math.pi)
    else:
        q, nu, term = 0.0, 0, 1.0
    series = 0.0
    while nu < df:
        series += term
        nu += 2
        term *= x / nu
    if series:
        q += math.exp(math.log(series) - half)
    return q


def fisher_exact(table: Any) -> float:
    """Two-sided Fisher exact p for a 2x2 table.

    Convention: sum of hypergeometric probabilities of all tables with
    the same margins that are at most as probable as the observed one.
    Exact rational arithmetic throughout.
    """
    t = _as_table(table)
    if t.shape != (2, 2):
        raise StatsError(f"fisher_exact needs a 2x2 table, got {t.shape}")
    (a, _b), (c, _d) = t.counts
    r1, r2 = t.row_totals()
    c1, _c2 = t.col_totals()
    n = t.total

    def pmf(k: int) -> Fraction:
        return Fraction(math.comb(r1, k) * math.comb(r2, c1 - k), math.comb(n, c1))

    lo = max(0, c1 - r2)
    hi = min(r1, c1)
    p_obs = pmf(a)
    p = sum((pmf(k) for k in range(lo, hi + 1) if pmf(k) <= p_obs), Fraction(0))
    return float(min(p, Fraction(1)))


def _midranks(pooled: Sequence[float]) -> list[float]:
    order = sorted(range(len(pooled)), key=lambda i: pooled[i])
    ranks = [0.0] * len(pooled)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and pooled[order[j + 1]] == pooled[order[i]]:
            j += 1
        mid = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = mid
        i = j + 1
    return ranks


def _tie_term(pooled: Sequence[float]) -> int:
    counts: dict[float, int] = {}
    for v in pooled:
        counts[v] = counts.get(v, 0) + 1
    return sum(m**3 - m for m in counts.values())


def _mwu_doubled_u(x: Sequence[float], y: Sequence[float]) -> int:
    # 2*U1 by direct pair counting: wins count 2, ties count 1.
    u2 = 0
    for xi in x:
        for yj in y:
            if xi > yj:
                u2 += 2
            elif xi == yj:
                u2 += 1
    return u2


def _mwu_exact_p(x: Sequence[float], y: Sequence[float], u2_obs: int) -> float:
    """Exact two-sided p by counting group assignments.

    Dynamic program over tied value blocks of the pooled sample; tracks
    (group-1 count, doubled U) so all arithmetic stays integral. The
    null distribution of U is symmetric about n1*n2/2 even under ties,
    so two-sided p sums assignments at least as far from the center.
    """
    n1, n2 = len(x), len(y)
    pooled = sorted(list(x) + list(y))
    blocks: list[int] = []
    i = 0
    while i < len(pooled):
        j = i
        while j + 1 < len(pooled) and pooled[j + 1] == pooled[i]:
            j += 1
        blocks.append(j - i + 1)
        i = j + 1

    states: dict[tuple[int, int], int] = {(0, 0): 1}
    processed = 0
    for m in blocks:
        nxt: dict[tuple[int, int], int] = {}
        for (k, u2), ways in states.items():
            g2_before = processed - k
            for t in range(0, min(m, n1 - k) + 1):
                # t block members join group 1: they beat every earlier
                # group-2 member (2 each) and tie the m-t staying here.
                key = (k + t, u2 + 2 * t * g2_before + t * (m - t))
                nxt[key] = nxt.get(key, 0) + ways * math.comb(m, t)
        states = nxt
        processed += m

    dist: dict[int, int] = {}
    for (k, u2), ways in states.items():
        if k == n1:
            dist[u2] = dist.get(u2, 0) + ways
    total = math.comb(n1 + n2, n1)
    center2 = n1 * n2  # doubled n1*n2/2
    dev = abs(u2_obs - center2)
    hits = sum(w for u2, w in dist.items() if abs(u2 - center2) >= dev)
    return float(Fraction(hits, total))


def mann_whitney_u(x: Sequence[float], y: Sequence[float]) -> dict[str, Any]:
    """Two-sided Mann-Whitney U test.

    U is reported for the first sample (count of x > y pairs plus half
    the ties). Exact enumeration when n1*n2 <= EXACT_MWU_LIMIT, otherwise a
    tie-corrected normal approximation without continuity correction.
    """
    if not x or not y:
        raise StatsError("mann_whitney_u: both samples must be nonempty")
    n1, n2 = len(x), len(y)
    u2_obs = _mwu_doubled_u(x, y)
    u = u2_obs / 2.0
    pooled = list(x) + list(y)
    if n1 * n2 <= EXACT_MWU_LIMIT:
        return {"u": u, "p": _mwu_exact_p(x, y, u2_obs), "method": "exact"}
    n = n1 + n2
    tie = _tie_term(pooled)
    sigma2 = (n1 * n2 / 12.0) * ((n + 1) - tie / (n * (n - 1)))
    if sigma2 <= 0:
        return {
            "u": u,
            "p": 1.0,
            "method": "normal",
            "note": "all pooled observations identical",
        }
    z = (u - n1 * n2 / 2.0) / math.sqrt(sigma2)
    return {"u": u, "p": math.erfc(abs(z) / math.sqrt(2.0)), "method": "normal"}


def kruskal_wallis(groups: Sequence[Sequence[float]]) -> dict[str, Any]:
    """Tie-corrected Kruskal-Wallis H with chi-square approximation."""
    if len(groups) < 2:
        raise StatsError("kruskal_wallis: need at least two groups")
    if any(len(g) == 0 for g in groups):
        raise StatsError("kruskal_wallis: groups must be nonempty")
    pooled = [v for g in groups for v in g]
    n = len(pooled)
    ranks = _midranks(pooled)
    h = 0.0
    offset = 0
    for g in groups:
        r_sum = sum(ranks[offset : offset + len(g)])
        h += r_sum**2 / len(g)
        offset += len(g)
    h = 12.0 / (n * (n + 1)) * h - 3.0 * (n + 1)
    correction = 1.0 - _tie_term(pooled) / (n**3 - n)
    if correction == 0.0:
        return {
            "statistic": 0.0,
            "p": 1.0,
            "note": "all observations identical",
        }
    h_corrected = h / correction
    return {
        "statistic": h_corrected,
        "p": _chi2_sf(h_corrected, len(groups) - 1),
    }


def keyed_rng(seed: int, *key: str) -> np.random.Generator:
    """Generator derived from (seed, key) alone.

    The key's sha256 (over unit-separated parts) supplies the second
    entropy word, so a paper's or unit's draws do not depend on which
    other papers or units are processed, or in what order.
    """
    entropy = int(content_hash(*key)[:16], 16)
    return np.random.default_rng(np.random.SeedSequence([seed, entropy]))


def draw_without_replacement(
    rng: np.random.Generator, iterations: int, n: int, k: int
) -> np.ndarray:
    """(iterations, min(k, n)) index draws without replacement, vectorized.

    With n <= k every draw is the whole population and the generator is
    not advanced.
    """
    if n <= k:
        return np.tile(np.arange(n), (iterations, 1))
    keys = rng.random((iterations, n))
    return np.argpartition(keys, k - 1, axis=1)[:, :k]


def _sorted_percentile(ordered: np.ndarray, q: float) -> float:
    """np.percentile(ordered, q) of a sorted 1-D array, 0 < q < 100, by
    numpy's default "linear" rule and arithmetic, bit for bit. Unlike
    np.percentile, it does not import numpy.ma."""
    if math.isnan(ordered[-1]):  # NaNs sort last; any NaN gives NaN
        return math.nan
    index = (ordered.size - 1) * (q / 100)
    below = math.floor(index)
    gamma = index - below
    a, b = float(ordered[below]), float(ordered[below + 1])
    diff = b - a
    return b - diff * (1 - gamma) if gamma >= 0.5 else a + diff * gamma


def ci_summary(draws: np.ndarray) -> dict[str, float]:
    """Mean of bootstrap draws with 2.5/97.5 percentile bounds (linear
    interpolation) and half-width."""
    if draws.size < 2:
        raise StatsError("ci_summary: need at least 2 draws")
    ordered = np.sort(draws, axis=None)
    lower, upper = (_sorted_percentile(ordered, q) for q in (2.5, 97.5))
    return {
        "mean": float(draws.mean()),
        "ci_lower": lower,
        "ci_upper": upper,
        "ci_half_width": (upper - lower) / 2.0,
    }
