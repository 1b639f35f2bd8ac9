"""Hypothesis tests, equivalence tests, concordance, and resampling.

Every routine returns a structured result rather than printing; degenerate
inputs (zero variance, all-zero differences) are flagged rather than raised
so the analysis battery can run to completion over an arbitrary grid.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .rng import substream

_TINY_P = float(np.finfo(float).tiny)

_EXHAUSTIVE_CAP = 16

#: Sign-flip draws per chunk, for a series of 32 or more; a shorter series
#: takes SIGN_CHUNK times the largest power of two that keeps a chunk within
#: SIGN_CHUNK * 32 sign values (8192 rows at n = 3). The generator carries an
#: unused 32-bit half over from one call to the next, so the chunks read the
#: same signs as one dense draw at any chunk size. BLAS forms a matrix-vector
#: product a few rows at a time, and a row in a partial block can round
#: differently; a power of two keeps every row in the same place of those
#: blocks as in one dense product.
SIGN_CHUNK = 1024


class NotEnoughClusters(ValueError):
    """Cluster bootstrap needs at least two clusters."""


# ---------------------------------------------------------------------------
# Distribution kernel
# ---------------------------------------------------------------------------

_EPS = 1e-15
_FPMIN = 1e-300
_MAXIT = 10_000
_LGAMMA_HALF = 0.5 * math.log(math.pi)


def _stirling_corr(x: float) -> float:
    """lgamma(x) - [(x - 1/2) ln x - x + ln sqrt(2 pi)], to 1e-18 for x >= 50."""
    r = 1.0 / (x * x)
    return (1.0 / 12 - r * (1.0 / 360 - r * (1.0 / 1260 - r / 1680))) / x


def _lbeta_half(a: float) -> float:
    """ln B(a, 1/2). Above a = 50 the Stirling form avoids the cancellation
    of lgamma(a) - lgamma(a + 1/2), which would cost a * 1e-16 in the result."""
    if a < 50.0:
        return math.lgamma(a) + _LGAMMA_HALF - math.lgamma(a + 0.5)
    s = a + 0.5
    return (_LGAMMA_HALF + (a - 0.5) * math.log1p(-0.5 / s) - 0.5 * math.log(s) + 0.5
            + _stirling_corr(a) - _stirling_corr(s))


def _lentz(coef: Callable[[int], float]) -> float:
    """1 + a_1/(1 + a_2/(1 + ...)) with a_m = coef(m), by the modified Lentz method."""
    f = c = 1.0
    d = 0.0
    for m in range(1, _MAXIT):
        a = coef(m)
        d = 1.0 + a * d
        d = 1.0 / (d if d != 0.0 else _FPMIN)
        c = 1.0 + a / c
        c = c if c != 0.0 else _FPMIN
        f *= c * d
        if abs(c * d - 1.0) < _EPS:
            return f
    raise ArithmeticError("continued fraction did not converge")


def _ibeta_half(a: float, ln_x: float, ln_y: float) -> tuple[float, float]:
    """I_x(a, 1/2) and its complement I_{1-x}(1/2, a), from ln x and ln(1 - x).

    The side below the mean comes from the continued fraction (Numerical
    Recipes betacf) and the other is one minus it, so the smaller value
    carries full relative precision. Taking logs keeps a tail whose x
    underflows.
    """
    if ln_x == -math.inf:
        return 0.0, 1.0
    if ln_y == -math.inf:
        return 1.0, 0.0
    x, y = math.exp(ln_x), math.exp(ln_y)
    front = math.exp(a * ln_x + 0.5 * ln_y - _lbeta_half(a))
    direct = x < (a + 1.0) / (a + 2.5)
    p, q, u = (a, 0.5, x) if direct else (0.5, a, y)

    def coef(m: int) -> float:
        k = m // 2
        if m % 2:
            return -(p + k) * (p + q + k) * u / ((p + 2 * k) * (p + 2 * k + 1))
        return k * (q - k) * u / ((p + 2 * k - 1) * (p + 2 * k))

    small = front / (p * _lentz(coef))
    return (small, 1.0 - small) if direct else (1.0 - small, small)


def _t_beta_logs(s: float, df: float) -> tuple[float, float]:
    """ln x and ln(1 - x) for the beta argument x = df / (df + s^2), without overflow."""
    r = s / math.sqrt(df)
    if r > 1.0:
        ln_y = -math.log1p(1.0 / (r * r))
        return ln_y - 2.0 * math.log(r), ln_y
    ln_x = -math.log1p(r * r)
    return ln_x, (ln_x + 2.0 * math.log(r) if r > 0.0 else -math.inf)


def _t_halves(s: float, df: float) -> tuple[float, float]:
    """P(T > s) and P(0 < T < s) for s >= 0 and a Student-t with df."""
    if df == math.inf:
        z = s / math.sqrt(2.0)
        return 0.5 * math.erfc(z), 0.5 * math.erf(z)
    tail, centre = _ibeta_half(0.5 * df, *_t_beta_logs(s, df))
    return 0.5 * tail, 0.5 * centre


def t_cdf(x: float, df: float) -> float:
    """Student-t CDF through the regularised incomplete beta. NaN for df <= 0;
    the normal CDF for df = inf."""
    if not df > 0 or math.isnan(x):
        return math.nan
    tail, centre = _t_halves(abs(x), df)
    return tail if x < 0 else 0.5 + centre


@functools.lru_cache(maxsize=256)
def t_quantile(p: float, df: float) -> float:
    """Student-t quantile (inverse CDF). NaN for df <= 0.

    Bisects ln s on the half of the distribution that holds the probability
    with full precision (the tail below 0.25, the centre above) until the
    bracket closes.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    if not df > 0:
        return math.nan
    q = p if p < 0.5 else 1.0 - p
    if q == 0.5:
        return 0.0
    centre = q > 0.25
    target = 0.5 - q if centre else q
    lo, hi = -745.0, 709.0
    # Near ln s = 0 the doubles are far denser than s = e^v can resolve, so
    # the bracket also counts as closed once it is narrower than 1e-16.
    while hi - lo > 1e-16 and lo < (v := 0.5 * (lo + hi)) < hi:
        tail, mid = _t_halves(math.exp(v), df)
        if (mid < target) if centre else (tail > target):
            lo = v
        else:
            hi = v
    s = math.exp(0.5 * (lo + hi))
    return -s if p < 0.5 else s


def normal_cdf(x: float) -> float:
    """Standard normal CDF."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def chi2_sf(x: float, df: float) -> float:
    """Chi-square survival function (upper tail): the regularised upper
    incomplete gamma Q(df/2, x/2), by series below x/2 < df/2 + 1 and by
    continued fraction above. NaN for x < 0 or df <= 0."""
    if not (x >= 0.0 and df > 0.0):
        return math.nan
    if x == math.inf:
        return 0.0
    if x == 0.0 or df == math.inf:
        return 1.0
    a, h = 0.5 * df, 0.5 * x
    front = math.exp(a * (math.log(x) - math.log(2.0)) - h - math.lgamma(a))
    if h < a + 1.0:
        term = total = 1.0 / a
        n = a
        while abs(term) >= abs(total) * _EPS:
            n += 1.0
            term *= h / n
            total += term
        return 1.0 - front * total
    # NR gcf, b_0 + a_1/(b_1 + ...), scaled to the unit-denominator form.
    def b(j: int) -> float:
        return h + 1.0 - a + 2.0 * j

    return front / (b(0) * _lentz(lambda m: -m * (m - a) / (b(m - 1) * b(m))))


def _clamp_p(p: float) -> float:
    """Keep p-values in (0, 1]."""
    return float(min(max(p, _TINY_P), 1.0))


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_value: float | None
    method: str
    n: int
    degenerate: bool = False


@dataclass(frozen=True)
class TostResult:
    equivalent: bool
    p_value: float | None
    p_lower: float | None
    p_upper: float | None
    margin: float
    n: int
    degenerate: bool = False


@dataclass(frozen=True)
class BootstrapResult:
    point: float
    ci95: tuple[float, float]
    draws: int
    n_clusters: int


# ---------------------------------------------------------------------------
# Rank helpers
# ---------------------------------------------------------------------------

def average_ranks(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """Ranks starting at 1 along the last axis, ties receiving their average rank.

    A 2-D input is ranked row by row. The tie group at sorted positions
    i..j gets (i + j) / 2 + 1, which is exact in floating point, so it equals
    the mean of the ranks it replaces. NaNs never tie.
    """
    a = np.asarray(values, dtype=float)
    order = np.argsort(a, axis=-1, kind="stable")
    s = np.take_along_axis(a, order, axis=-1)
    n = a.shape[-1]
    pos = np.broadcast_to(np.arange(n), a.shape)
    starts = np.ones(a.shape, dtype=bool)
    starts[..., 1:] = s[..., 1:] != s[..., :-1]
    ends = np.ones(a.shape, dtype=bool)
    ends[..., :-1] = starts[..., 1:]
    first = np.maximum.accumulate(np.where(starts, pos, 0), axis=-1)
    last = np.minimum.accumulate(np.where(ends, pos, n)[..., ::-1], axis=-1)[..., ::-1]
    ranks = np.empty(a.shape)
    np.put_along_axis(ranks, order, (first + last) / 2.0 + 1.0, axis=-1)
    return ranks


# ---------------------------------------------------------------------------
# Location tests
# ---------------------------------------------------------------------------

def _stack(values: Sequence[float] | np.ndarray) -> tuple[np.ndarray, bool]:
    """A series or a (k, n) stack of series as a (k, n) float array, and
    whether it was one series.

    The tests below reduce each row along the last axis, which numpy sums
    pairwise per row exactly as it sums one 1-D series, so row i of a stack
    gives the 1-D result of that row bit for bit.
    """
    a = np.asarray(values, dtype=float)
    if a.ndim not in (1, 2):
        raise ValueError("need a series or a (k, n) stack of series")
    return np.atleast_2d(a), a.ndim == 1


def one_sample_t(diffs: Sequence[float] | np.ndarray) -> TestResult | list[TestResult]:
    """Two-sided one-sample t-test of mean zero. A (k, n) stack is tested
    row by row and gives a list of k results."""
    d, one = _stack(diffs)
    n = d.shape[-1]
    if n < 2:
        raise ValueError("need at least 2 observations")
    out = []
    for mean, sd in zip(d.mean(axis=-1).tolist(), d.std(axis=-1, ddof=1).tolist()):
        if sd == 0.0:
            out.append(TestResult(math.nan, None, "t", n, degenerate=True))
            continue
        t = mean / (sd / math.sqrt(n))
        out.append(TestResult(t, _clamp_p(2.0 * t_cdf(-abs(t), n - 1)), "t", n))
    return out[0] if one else out


def bh_fdr(p_values: Sequence[float], q: float) -> np.ndarray:
    """Benjamini-Hochberg step-up rejections at FDR level q.

    Returns a boolean mask aligned with the input: True where the hypothesis
    is rejected.
    """
    p = np.asarray(p_values, dtype=float)
    m = len(p)
    reject = np.zeros(m, dtype=bool)
    if m == 0:
        return reject
    order = np.argsort(p, kind="stable")
    thresholds = np.arange(1, m + 1) * q / m
    passing = np.nonzero(p[order] <= thresholds)[0]
    if len(passing):
        k = passing[-1]
        reject[order[: k + 1]] = True
    return reject


def _wilcoxon_exact_p(doubled_ranks: np.ndarray, doubled_w: np.ndarray) -> np.ndarray:
    """Exact two-sided p for W+ of each row of a (k, n) stack of doubled
    ranks, by enumerating the sign-flip distribution.

    Uses the subset-sum polynomial over doubled ranks (average ranks are
    half-integers) - equivalent to full enumeration of all 2^n assignments.
    Every count and sum is an integer below 2^53, so each is exact.
    """
    k, n = doubled_ranks.shape
    total = n * (n + 1)  # average ranks sum to n(n + 1)/2 whatever the ties
    support = np.arange(total + 1)
    counts = np.zeros((k, total + 1))
    counts[:, 0] = 1.0
    for r in doubled_ranks.T:
        source = support - r[:, None]
        shifted = np.take_along_axis(counts, np.maximum(source, 0), axis=-1)
        counts = counts + np.where(source >= 0, shifted, 0.0)
    center = total / 2.0
    dev = np.abs(doubled_w - center)
    mask = np.abs(support - center) >= dev[:, None] - 1e-9
    return np.where(mask, counts, 0.0).sum(axis=-1) / 2.0**n


def _tie_term(a: np.ndarray) -> np.ndarray:
    """Sum of c^3 - c over the tie groups of each row's nonzero values, c
    the group's size; NaNs form one group, as ``np.unique`` counts them.

    A group of c adds 3j(j + 1) for its j-th member, j = 0..c-1.
    """
    s = np.sort(a, axis=-1)
    tied = (s[:, 1:] == s[:, :-1]) | np.isnan(s[:, 1:]) & np.isnan(s[:, :-1])
    starts = np.ones(s.shape, dtype=bool)
    starts[:, 1:] = ~tied | (s[:, 1:] == 0.0)
    pos = np.broadcast_to(np.arange(s.shape[-1]), s.shape)
    j = pos - np.maximum.accumulate(np.where(starts, pos, 0), axis=-1)
    return (3 * j * (j + 1)).sum(axis=-1)


def wilcoxon_signed_rank(diffs: Sequence[float] | np.ndarray) -> TestResult | list[TestResult]:
    """Wilcoxon signed-rank test, two-sided.

    Zeros are dropped; ties get average ranks. Exact p by full sign
    enumeration for n <= 20, else a normal approximation with tie and
    continuity corrections. A (k, n) stack is tested row by row, each row
    dropping its own zeros, and gives a list of k results.
    """
    d, one = _stack(diffs)
    ns = np.count_nonzero(d != 0.0, axis=-1)
    # Zeros rank below every other |d|, so a value's rank among its row's
    # nonzero values is its rank less the row's zero count; half-integer
    # ranks keep this and every W+ sum exact.
    ranks = average_ranks(np.abs(d)) - (d.shape[-1] - ns)[:, None]
    w_plus = np.where(d > 0, ranks, 0.0).sum(axis=-1)
    p = np.zeros(len(d))
    for n in set(ns[(ns > 0) & (ns <= 20)].tolist()):
        rows = ns == n
        doubled = np.rint(2.0 * ranks[rows][d[rows] != 0.0]).astype(int).reshape(-1, n)
        p[rows] = _wilcoxon_exact_p(doubled, np.rint(2.0 * w_plus[rows]).astype(int))
    wide = ns > 20
    ties = np.zeros(len(d))
    if wide.any():
        ties[wide] = _tie_term(np.abs(d[wide]))
    out = []
    for n, w, p_exact, tie_term in zip(ns.tolist(), w_plus.tolist(), p.tolist(), ties.tolist()):
        if n == 0:
            out.append(TestResult(math.nan, None, "wilcoxon", 0, degenerate=True))
        elif n <= 20:
            out.append(TestResult(w, _clamp_p(p_exact), "wilcoxon-exact", n))
        else:
            mu = n * (n + 1) / 4.0
            sd = math.sqrt(n * (n + 1) * (2 * n + 1) / 24.0 - tie_term / 48.0)
            dev = abs(w - mu)
            p_normal = 1.0 if dev <= 0.5 else 2.0 * normal_cdf(-(dev - 0.5) / sd)
            out.append(TestResult(w, _clamp_p(min(p_normal, 1.0)), "wilcoxon-normal", n))
    return out[0] if one else out


def sign_flip_permutation(
    diffs: Sequence[float],
    draws: int = 10000,
    seed: int = 0,
    exhaustive: bool = False,
) -> TestResult:
    """Sign-flip permutation test of mean zero, statistic |mean|.

    Monte Carlo sign vectors come from a counter-based stream keyed by the
    seed, with draw i reading a fixed slice, so the result is a pure
    function of (seed, draws) at any evaluation order or thread count. The
    add-one estimator keeps p strictly positive. ``exhaustive=True``
    enumerates all 2^n sign vectors instead (n capped at 16) and reports
    the exact count. Signs are drawn in chunks of at least ``SIGN_CHUNK``
    rows from one generator (see ``SIGN_CHUNK``), so memory stays flat in
    ``draws``.
    """
    d = np.asarray(diffs, dtype=float)
    n = len(d)
    if n == 0:
        raise ValueError("empty sample")
    obs = abs(float(np.ones(n) @ d) / n)
    if exhaustive:
        if n > _EXHAUSTIVE_CAP:
            raise ValueError(f"exhaustive enumeration capped at n={_EXHAUSTIVE_CAP}")
        patterns = ((np.arange(2**n)[:, None] >> np.arange(n)) & 1) * 2.0 - 1.0
        means = np.abs(patterns @ d) / n
        # The all-plus pattern is the last row; using it as the observed value
        # keeps the comparison on one summation path, so the identity always
        # counts itself.
        p = float(np.count_nonzero(means >= means[-1])) / 2.0**n
        return TestResult(float(means[-1]), _clamp_p(p), "perm-exhaustive", n)
    if draws < 0:
        raise ValueError("draws must be >= 0")
    # A draw's |mean| and obs sum in different orders, so the all-plus and
    # all-minus draws may round an ulp below obs; within the rounding bound of
    # two summation orders, n·eps·mean|d|, a draw counts as a tie.
    floor = obs - n * np.finfo(float).eps * float(np.mean(np.abs(d)))
    gen = substream(seed, 0)
    hits = 0
    chunk = SIGN_CHUNK << max((32 // n).bit_length() - 1, 0)
    for start in range(0, draws, chunk):
        signs = gen.integers(0, 2, size=(min(chunk, draws - start), n)) * 2.0 - 1.0
        hits += int(np.count_nonzero(np.abs(signs @ d) / n >= floor))
    p = (hits + 1) / (draws + 1)
    return TestResult(obs, _clamp_p(p), "perm-mc", n)


def tost(
    diffs: Sequence[float] | np.ndarray, margin: float, alpha: float = 0.05
) -> TostResult | list[TostResult]:
    """Schuirmann two one-sided tests of practical equivalence within ±margin.

    Equivalent iff both one-sided p-values fall below alpha. A zero-variance
    sample is declared equivalent iff |mean| < margin, with the degenerate
    flag set. A (k, n) stack is tested row by row and gives a list of k
    results.
    """
    if margin <= 0:
        raise ValueError("margin must be positive")
    d, one = _stack(diffs)
    n = d.shape[-1]
    if n == 0:
        raise ValueError("empty sample")
    sds = d.std(axis=-1, ddof=1).tolist() if n >= 2 else [0.0] * len(d)
    out = []
    for mean, sd in zip(d.mean(axis=-1).tolist(), sds):
        if sd == 0.0:
            out.append(TostResult(abs(mean) < margin, None, None, None, margin, n, degenerate=True))
            continue
        se = sd / math.sqrt(n)
        p_lower = _clamp_p(t_cdf(-(mean + margin) / se, n - 1))
        p_upper = _clamp_p(t_cdf((mean - margin) / se, n - 1))
        p = max(p_lower, p_upper)
        out.append(TostResult(p < alpha, p, p_lower, p_upper, margin, n))
    return out[0] if one else out


# ---------------------------------------------------------------------------
# Agreement measures
# ---------------------------------------------------------------------------

def lin_ccc(x: Sequence[float] | np.ndarray, y: Sequence[float] | np.ndarray) -> float | np.ndarray:
    """Lin's concordance correlation coefficient (population moments).

    rho_c = 2 s_xy / (s_x^2 + s_y^2 + (mean_x - mean_y)^2). Two identical
    constant vectors are in perfect agreement and return 1.0. Two (k, n)
    stacks give the k coefficients of their row pairs.
    """
    a = np.asarray(x, dtype=float)
    b = np.asarray(y, dtype=float)
    if a.shape != b.shape or a.ndim not in (1, 2) or a.shape[-1] < 2:
        raise ValueError("need two equal-length vectors of >= 2 points, or two stacks of them")
    (a, one), (b, _) = _stack(a), _stack(b)
    ma, mb = a.mean(axis=-1), b.mean(axis=-1)
    da, db = a - ma[:, None], b - mb[:, None]
    moments = zip(
        ma.tolist(), mb.tolist(), (da * db).mean(axis=-1).tolist(),
        (da**2).mean(axis=-1).tolist(), (db**2).mean(axis=-1).tolist(),
    )
    out = []
    for mx, my, sxy, sx2, sy2 in moments:
        # A Python float power is libm's pow, which need not round as x * x
        # (np.square) does; keeping it keeps every coefficient's bytes.
        denom = sx2 + sy2 + (mx - my) ** 2
        out.append(1.0 if denom == 0.0 else 2.0 * sxy / denom)
    return out[0] if one else np.array(out)


def _centred_r(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pearson r of each row pair of two (..., n) arrays, over the last axis,
    clipped to [-1, 1], and the mask of pairs with a constant row, whose r is
    undefined. ``np.vecdot`` reduces each row as ``float(a @ b)`` does."""
    sa = a - a.mean(axis=-1, keepdims=True)
    sb = b - b.mean(axis=-1, keepdims=True)
    na = np.sqrt((sa**2).sum(axis=-1))
    nb = np.sqrt((sb**2).sum(axis=-1))
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.clip(np.vecdot(sa, sb) / (na * nb), -1.0, 1.0)
    return r, (na == 0.0) | (nb == 0.0)


def pearson(x: Sequence[float], y: Sequence[float]) -> TestResult:
    """Pearson correlation with a two-sided t-approximation p-value."""
    a = np.asarray(x, dtype=float)
    b = np.asarray(y, dtype=float)
    n = len(a)
    if n < 3:
        raise ValueError("need at least 3 points")
    r, constant = _centred_r(a, b)
    if constant:
        return TestResult(math.nan, None, "pearson", n, degenerate=True)
    r = float(r)
    if 1.0 - r * r <= 0.0:
        return TestResult(r, _TINY_P, "pearson", n)
    t = r * math.sqrt((n - 2) / (1.0 - r * r))
    p = _clamp_p(2.0 * t_cdf(-abs(t), n - 2))
    return TestResult(r, p, "pearson", n)


def spearman(x: Sequence[float], y: Sequence[float]) -> TestResult:
    """Spearman rank correlation: Pearson on average-ranked data."""
    rx = average_ranks(x)
    ry = average_ranks(y)
    res = pearson(rx, ry)
    return TestResult(res.statistic, res.p_value, "spearman", res.n, degenerate=res.degenerate)


def spearman_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Spearman rho of each row pair of two (k, n) arrays, 0.0 where undefined.

    Row i equals ``spearman(x[i], y[i]).statistic`` bit for bit; a row with
    a constant side, or n < 3, gives 0.0.
    """
    rx = average_ranks(x)
    ry = average_ranks(y)
    k, n = rx.shape
    if n < 3:
        return np.zeros(k)
    r, constant = _centred_r(rx, ry)
    r[constant] = 0.0
    return r


# ---------------------------------------------------------------------------
# Resampling and dependence diagnostics
# ---------------------------------------------------------------------------

def cluster_bootstrap(
    groups: Sequence,
    statistic: Callable[[np.ndarray], np.ndarray],
    draws: int = 5000,
    seed: int = 0,
) -> BootstrapResult:
    """Percentile bootstrap resampling whole clusters with replacement.

    ``statistic`` receives a (k, m) integer array whose rows are resampled
    positions into ``groups`` (duplicates included) and returns the k
    values; it is called twice, once with the identity row for the point
    estimate and once with every draw. Resampling indices come from a
    counter-based stream keyed by the seed with draw i reading a fixed
    slice, so the interval is bit-reproducible for a fixed seed at any
    thread count.
    """
    m = len(groups)
    if m < 2:
        raise NotEnoughClusters(f"need >= 2 clusters, got {m}")
    point = float(statistic(np.arange(m)[None])[0])
    indices = substream(seed, 0).integers(0, m, size=(draws, m))
    vals = np.asarray(statistic(indices), dtype=float)
    if vals.shape != (draws,):
        raise ValueError(f"statistic returned shape {vals.shape} for {draws} draws")
    lo, hi = _percentiles(vals, [2.5, 97.5]).tolist()
    return BootstrapResult(point, (lo, hi), draws, m)


def _percentiles(values: np.ndarray, q: Sequence[float]) -> np.ndarray:
    """``np.percentile(values, q)`` of a 1-D array, bit for bit: numpy's
    linear interpolation over one partition at the indices numpy picks.

    np.percentile picks its order statistics through ``np.unique``, whose
    first call imports numpy.ma (about 12 ms). A sort would not do: it may
    order -0.0 and 0.0 unlike the partition, and so sign a zero percentile
    differently.
    """
    virtual = (len(values) - 1) * (np.asarray(q, dtype=float) / 100)
    below = np.floor(virtual)
    # At or past the last index numpy reads the last value on both sides,
    # with the weight measured from index -1.
    below[virtual >= len(values) - 1] = -1
    t = virtual - below
    lo = below.astype(np.intp)
    hi = np.where(lo < 0, -1, lo + 1)
    s = np.partition(values, sorted({0, -1, *lo.tolist(), *hi.tolist()}))
    a, b = s[lo], s[hi]
    diff = b - a
    out = np.where(t >= 0.5, b - diff * (1 - t), a + diff * t)
    return np.full(len(out), s[-1]) if np.isnan(s[-1]) else out


def lag1_autocorr(series: Sequence[float] | np.ndarray) -> TestResult | list[TestResult]:
    """Lag-1 autocorrelation: Pearson correlation of the series with itself
    shifted by one position. A (k, n) stack gives a list of k results."""
    x, one = _stack(series)
    n = x.shape[-1]
    if n < 3:
        raise ValueError("need at least 3 points")
    r, constant = _centred_r(x[:, :-1], x[:, 1:])
    out = [
        TestResult(math.nan, None, "lag1", n, degenerate=True) if flat else TestResult(rho, None, "lag1", n)
        for rho, flat in zip(r.tolist(), constant.tolist())
    ]
    return out[0] if one else out
