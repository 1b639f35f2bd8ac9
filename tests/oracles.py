"""Independent second-route implementations used only by the tests.

Deliberately plain Python (lists, loops, itertools, statistics) so these
share no code path with the library they check.
"""

from __future__ import annotations

import statistics
from itertools import product


def backtest_loop(prices, schedule, initial_capital, rate):
    """Literal transcription of the proportional-cost loop over lists.

    ``prices`` is a list of per-day price lists, ``schedule`` maps day index
    to a weight list. Returns the equity list, post-trade reporting.
    """
    n = len(prices[0])
    holdings = [0.0] * n
    cash = initial_capital
    equity = []
    for t in range(len(prices)):
        p = prices[t]
        if t in schedule:
            w = schedule[t]
            value = cash
            for i in range(n):
                value += holdings[i] * p[i]
            delta = [w[i] * value - holdings[i] * p[i] for i in range(n)]
            cost = rate * sum(abs(d) for d in delta)
            net = value - cost
            holdings = [(w[i] * net) / p[i] for i in range(n)]
            held = 0.0
            for i in range(n):
                held += holdings[i] * p[i]
            cash = net - held
            equity.append(net)
        else:
            e = cash
            for i in range(n):
                e += holdings[i] * p[i]
            equity.append(e)
    return equity


def max_drawdown_double_loop(series):
    """Drawdown via the full (peak, trough) double loop, in percent."""
    worst = 0.0
    for s in range(len(series)):
        for t in range(s, len(series)):
            dd = 1.0 - series[t] / series[s]
            if dd > worst:
                worst = dd
    return worst * 100.0


def _avg_ranks(values):
    pairs = sorted((v, i) for i, v in enumerate(values))
    ranks = [0.0] * len(values)
    i = 0
    while i < len(pairs):
        j = i
        while j + 1 < len(pairs) and pairs[j + 1][0] == pairs[i][0]:
            j += 1
        mean_rank = (i + j + 2) / 2.0
        for k in range(i, j + 1):
            ranks[pairs[k][1]] = mean_rank
        i = j + 1
    return ranks


def wilcoxon_enumeration(diffs):
    """Exact two-sided p via full enumeration of every sign assignment."""
    d = [x for x in diffs if x != 0]
    n = len(d)
    ranks = _avg_ranks([abs(x) for x in d])
    w_obs = sum(r for x, r in zip(d, ranks) if x > 0)
    mu = n * (n + 1) / 4.0
    dev = abs(w_obs - mu)
    hits = 0
    for signs in product((1, -1), repeat=n):
        w = sum(r for s, r in zip(signs, ranks) if s > 0)
        if abs(w - mu) >= dev - 1e-9:
            hits += 1
    return w_obs, hits / 2.0**n


def bh_threshold_enum(p_values, q):
    """Direct Benjamini-Hochberg: find the largest passing sorted index,
    then reject everything at or below that p-value's position."""
    m = len(p_values)
    order = sorted(range(m), key=lambda i: p_values[i])
    k_star = -1
    for rank_minus_1, i in enumerate(order):
        if p_values[i] <= (rank_minus_1 + 1) * q / m:
            k_star = rank_minus_1
    reject = [False] * m
    for rank_minus_1, i in enumerate(order):
        if rank_minus_1 <= k_star:
            reject[i] = True
    return reject


def sign_flip_count(diffs):
    """(#patterns with |mean| >= |observed mean|, 2^n) by enumeration."""
    n = len(diffs)
    obs = abs(sum(diffs) / n)
    hits = 0
    for signs in product((1, -1), repeat=n):
        m = abs(sum(s * x for s, x in zip(signs, diffs)) / n)
        if m >= obs:
            hits += 1
    return hits, 2**n


def quadratic_balance_score(bucket_index_lists, covariates, bucket_size):
    """Re-derivation of the partition balance score with explicit loops.

    Covariance is assembled from its definition (divisor n-1), scaled by
    1/bucket_size, inverted with numpy, and the quadratic form is summed
    termwise.
    """
    import numpy as np

    n = len(covariates)
    k = len(covariates[0])
    mean = [sum(row[j] for row in covariates) / n for j in range(k)]
    cov = [[0.0] * k for _ in range(k)]
    for row in covariates:
        for a in range(k):
            for b in range(k):
                cov[a][b] += (row[a] - mean[a]) * (row[b] - mean[b])
    for a in range(k):
        for b in range(k):
            cov[a][b] /= (n - 1) * bucket_size
    inv = np.linalg.inv(np.array(cov))
    score = 0.0
    for members in bucket_index_lists:
        bm = [sum(covariates[i][j] for i in members) / len(members) for j in range(k)]
        d = [bm[j] - mean[j] for j in range(k)]
        for a in range(k):
            for b in range(k):
                score += d[a] * inv[a][b] * d[b]
    return score


def feature_recompute(prices, t):
    """Spreadsheet-style recomputation of the five features for one asset.

    ``prices`` is one asset's price list; returns (r21, r63, r126, vol20, vol60)
    using statistics.stdev for the sample standard deviations.
    """

    def ret(k):
        return prices[t] / prices[t - k] - 1.0

    def vol(k):
        rets = [prices[s] / prices[s - 1] - 1.0 for s in range(t - k + 1, t + 1)]
        return statistics.stdev(rets)

    return ret(21), ret(63), ret(126), vol(20), vol(60)


def features_per_day(prices, t):
    """The per-day feature formula the panel must reproduce bit for bit.

    ``prices`` is a ``(T, n)`` numpy array; returns the ``(n, 5)`` rows
    (r21, r63, r126, vol20, vol60) at day ``t`` from one ``np.std`` call per
    window. Unlike the rest of this module it uses numpy on purpose: it pins
    the exact reduction order, not just the value.
    """
    import numpy as np

    def ret(k):
        return prices[t] / prices[t - k] - 1.0

    def vol(k):
        block = prices[t - k : t + 1]
        rets = block[1:] / block[:-1] - 1.0
        return np.std(rets, axis=0, ddof=1)

    return np.column_stack([ret(21), ret(63), ret(126), vol(20), vol(60)])


# ---------------------------------------------------------------------------
# Replaced per-draw statistics. Like ``features_per_day`` these use numpy on
# purpose: they are the loops the batched forms replaced, kept to pin the
# exact arithmetic, not just the value.
# ---------------------------------------------------------------------------


def average_ranks_loop(values):
    """Average ranks from a stable argsort and a while loop over tie groups."""
    import numpy as np

    a = np.asarray(values, dtype=float)
    order = np.argsort(a, kind="stable")
    ranks = np.empty(len(a))
    base = np.arange(1, len(a) + 1, dtype=float)
    i = 0
    while i < len(a):
        j = i
        while j + 1 < len(a) and a[order[j + 1]] == a[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = base[i : j + 1].mean()
        i = j + 1
    return ranks


def spearman_or_zero_loop(x, y):
    """Spearman rho of one pair of lists; 0.0 for n < 3, a constant side or NaN."""
    import numpy as np

    if len(x) < 3:
        return 0.0
    a = average_ranks_loop(x)
    b = average_ranks_loop(y)
    sa = a - a.mean()
    sb = b - b.mean()
    na = float(np.sqrt((sa**2).sum()))
    nb = float(np.sqrt((sb**2).sum()))
    if na == 0.0 or nb == 0.0:
        return 0.0
    r = float(sa @ sb) / (na * nb)
    r = min(max(r, -1.0), 1.0)
    return 0.0 if r != r else r


def resampled_rho_per_draw(group_buckets, bms, rates, turnover_by_bucket, es_by_bucket):
    """The conjecture statistic for one resampled list of bucket ids."""
    import numpy as np

    xs, ys = [], []
    for bm in bms:
        t_vals = [turnover_by_bucket[(bm, b)] for b in group_buckets if (bm, b) in turnover_by_bucket]
        e_vals = [es_by_bucket[(bm, b)] for b in group_buckets if (bm, b) in es_by_bucket]
        if not t_vals or not e_vals:
            return 0.0
        xs.append(rates[bm] * float(np.mean(t_vals)))
        ys.append(float(np.mean(e_vals)))
    return spearman_or_zero_loop(xs, ys)


def cluster_bootstrap_per_draw(groups, statistic, draws, seed):
    """Percentile cluster bootstrap calling ``statistic`` on one resampled
    list of groups per draw; returns (point, (lo, hi))."""
    import numpy as np

    from crossbt.rng import substream

    pool = list(groups)
    m = len(pool)
    point = float(statistic(pool))
    indices = substream(seed, 0).integers(0, m, size=(draws, m))
    vals = np.empty(draws)
    for i in range(draws):
        vals[i] = statistic([pool[j] for j in indices[i]])
    lo, hi = np.percentile(vals, [2.5, 97.5])
    return point, (float(lo), float(hi))


def sign_flip_one_shot(diffs, draws, seed):
    """Monte Carlo sign-flip p-value from one dense draws x n sign matrix."""
    import numpy as np

    from crossbt.rng import substream

    d = np.asarray(diffs, dtype=float)
    n = len(d)
    obs = abs(float(np.ones(n) @ d) / n)
    signs = substream(seed, 0).integers(0, 2, size=(draws, n)) * 2.0 - 1.0
    hits = int(np.count_nonzero(np.abs(signs @ d) / n >= obs))
    return (hits + 1) / (draws + 1)
