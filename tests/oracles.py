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


def greedy_fill_loop(n_assets, sectors, bucket_size, n_buckets, rng, sector_constraint=True,
                     max_restarts=None):
    """The sector-constrained greedy fill, one asset at a time.

    Shuffles assets with ``rng.permutation`` and places each asset in the
    first bucket with room whose sectors it does not collide with; dead ends
    restart with a fresh shuffle, capped at ``max_restarts`` (default
    ``buckets.MAX_RESTARTS``). Returns lists of asset indices, or raises
    ``InfeasibleConstraint``.
    """
    from crossbt.buckets import MAX_RESTARTS, InfeasibleConstraint

    if max_restarts is None:
        max_restarts = MAX_RESTARTS
    for _ in range(max_restarts):
        order = rng.permutation(n_assets)
        buckets = [[] for _ in range(n_buckets)]
        bucket_sectors = [set() for _ in range(n_buckets)]
        placed = 0
        for idx in order:
            if placed == bucket_size * n_buckets:
                break
            target = None
            for b in range(n_buckets):
                if len(buckets[b]) >= bucket_size:
                    continue
                if sector_constraint and sectors[idx] in bucket_sectors[b]:
                    continue
                target = b
                break
            if target is None:
                # Unplaceable asset is only a dead end if buckets still need fills.
                continue
            buckets[target].append(int(idx))
            bucket_sectors[target].add(sectors[idx])
            placed += 1
        if placed == bucket_size * n_buckets:
            return buckets
    raise InfeasibleConstraint(
        f"no sector-feasible partition after {max_restarts} restarts "
        f"({n_buckets} buckets of {bucket_size})"
    )


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


def training_targets_loop(prices, s_lo, s_hi, horizon):
    """The walk-forward training targets as one row per training day: the
    return ``prices[s + horizon] / prices[s] - 1.0`` of every asset for each
    ``s`` in ``[s_lo, s_hi]``, concatenated in day order. Like
    ``features_per_day`` it uses numpy to pin the exact arithmetic."""
    import numpy as np

    return np.concatenate([prices[s + horizon] / prices[s] - 1.0 for s in range(s_lo, s_hi + 1)])


def elastic_net_residual_cd(X, y, cfg):
    """``mlsignals.fit_elastic_net`` as it was before it solved on the Gram
    matrix: cyclic coordinate descent that keeps the residual and takes one
    n-long dot product per coordinate per sweep.

    Returns ``(coef, intercept, converged, n_iter, changes, peak)``:
    ``changes`` holds each sweep's largest coefficient change, the number
    the stopping rule compares with ``cfg.tol``, and ``peak`` is the largest
    L1 norm the standardised coefficients reach after any update. Uses numpy
    to pin the arithmetic of the replaced solver.
    """
    import numpy as np

    def soft_threshold(z, gamma):
        if z > gamma:
            return z - gamma
        if z < -gamma:
            return z + gamma
        return 0.0

    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    n, k = X.shape

    mu = X.mean(axis=0)
    sigma = X.std(axis=0)
    live = sigma > 0.0
    Xs = np.zeros_like(X)
    Xs[:, live] = (X[:, live] - mu[live]) / sigma[live]
    y_mean = float(y.mean())
    yc = y - y_mean

    l1 = cfg.lam * cfg.alpha
    l2 = cfg.lam * (1.0 - cfg.alpha)
    beta = np.zeros(k)
    resid = yc.copy()
    converged = False
    sweeps = 0
    changes = []
    peak = 0.0
    for sweeps in range(1, cfg.max_iter + 1):
        max_change = 0.0
        for j in range(k):
            if not live[j]:
                continue
            xj = Xs[:, j]
            rho = float(xj @ resid) / n + beta[j]
            new = soft_threshold(rho, l1) / (1.0 + l2)
            if new != beta[j]:
                resid += xj * (beta[j] - new)
                max_change = max(max_change, abs(new - beta[j]))
                beta[j] = new
                peak = max(peak, float(np.abs(beta).sum()))
        changes.append(max_change)
        if max_change < cfg.tol:
            converged = True
            break

    coef = np.zeros(k)
    coef[live] = beta[live] / sigma[live]
    intercept = y_mean - float(coef @ mu)
    return coef, intercept, converged, sweeps, changes, peak


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
    """Monte Carlo sign-flip p-value from one dense draws x n sign matrix,
    counting a draw within the rounding bound ``n·eps·mean|d|`` of the
    observed |mean| as a tie."""
    import numpy as np

    from crossbt.rng import substream

    d = np.asarray(diffs, dtype=float)
    n = len(d)
    obs = abs(float(np.ones(n) @ d) / n)
    floor = obs - n * np.finfo(float).eps * float(np.mean(np.abs(d)))
    signs = substream(seed, 0).integers(0, 2, size=(draws, n)) * 2.0 - 1.0
    hits = int(np.count_nonzero(np.abs(signs @ d) / n >= floor))
    return (hits + 1) / (draws + 1)


# ---------------------------------------------------------------------------
# The analysis before its table builders. It calls the library's metrics and
# tests; what it pins is the loop around them: which cells feed each table,
# in which order every reduction runs, and how each row is spelled.
# ---------------------------------------------------------------------------


def _metric_values(store, bm, bucket, metric):
    values = {}
    for engine in store.engine_ids:
        cell = store.cell(bm, bucket, engine)
        if cell is not None and cell.ok:
            values[engine] = cell.stats.metric(metric)
    return values


def analyze_loop(store):
    """``harness.analyze`` as one loop over the grid with per-bucket dicts,
    before it was split into per-table builders over a cell table."""
    import json
    from dataclasses import asdict

    import numpy as np

    from crossbt.engine import REFERENCE, CostSpec
    from crossbt.harness import (
        AMBIGUITY_RULER_PCTS,
        DIVERGENCE_METRICS,
        FULLY_INVESTED_TOL,
        ReportBundle,
        __version__,
        _resampled_rho,
        validate_results,
    )
    from crossbt.riskmetrics import (
        csi,
        dollar_ambiguity,
        es_cv,
        es_range,
        floor_decomposition,
        iui,
        pairwise_divergence,
    )
    from crossbt.rng import derived_seed
    from crossbt.stats import (
        NotEnoughClusters,
        bh_fdr,
        cluster_bootstrap,
        lag1_autocorr,
        lin_ccc,
        one_sample_t,
        pearson,
        sign_flip_permutation,
        spearman,
        tost,
        wilcoxon_signed_rank,
    )
    from crossbt.strategies import BENCHMARKS

    cfg = store.config
    engines = store.engine_ids
    conventions = dict(cfg.roster())
    buckets_sorted = list(store.bucket_ids)
    pairs = [
        (engines[i], engines[j])
        for i in range(len(engines))
        for j in range(i + 1, len(engines))
    ]
    pairs = sorted(pairs)

    findings = validate_results(store)

    records_rows: list[dict] = []
    # (bm, pair) -> ordered per-bucket total-return divergences
    pair_series: dict[tuple[str, tuple[str, str]], list[float]] = {}
    # (bm, metric, engine) -> per-bucket values for concordance
    metric_by_engine: dict[tuple[str, str, str], dict[str, float]] = {}
    # per-benchmark per-bucket spread inputs
    es_by_bucket: dict[tuple[str, str], float] = {}
    escv_by_bucket: dict[tuple[str, str], float | None] = {}
    iui_by_bucket: dict[tuple[str, str], tuple[float, float]] = {}
    csi_by_bucket: dict[tuple[str, str], int] = {}
    turnover_by_bucket: dict[tuple[str, str], float] = {}

    reference_id = REFERENCE.id

    for bm in cfg.benchmarks:
        for bucket in buckets_sorted:
            for metric in DIVERGENCE_METRICS:
                values = _metric_values(store, bm, bucket, metric)
                for engine, value in values.items():
                    metric_by_engine.setdefault((bm, metric, engine), {})[bucket] = value
                if len(values) < 2:
                    continue
                for rec in pairwise_divergence(values, bm, bucket, metric):
                    records_rows.append(
                        {
                            "benchmark": rec.benchmark,
                            "bucket": rec.bucket,
                            "metric": rec.metric,
                            "engine_a": rec.engine_a,
                            "engine_b": rec.engine_b,
                            "rel_diff_pct": rec.rel_diff_pct,
                            "absolute_fallback": rec.absolute_fallback,
                        }
                    )
                    if rec.metric == "total_return":
                        pair_series.setdefault((bm, (rec.engine_a, rec.engine_b)), []).append(
                            rec.rel_diff_pct
                        )
            tr_values = _metric_values(store, bm, bucket, "total_return")
            tr_pct = {
                e: store.cell(bm, bucket, e).stats.total_return_pct for e in tr_values
            }
            if len(tr_pct) >= 2:
                sample = np.array([tr_pct[e] for e in sorted(tr_pct)])
                es_by_bucket[(bm, bucket)] = es_range(sample)
                escv_by_bucket[(bm, bucket)] = es_cv(sample)
                iui_by_bucket[(bm, bucket)] = iui(sample)
            sharpes = _metric_values(store, bm, bucket, "sharpe")
            if len(sharpes) >= 2:
                csi_by_bucket[(bm, bucket)] = csi(np.array([sharpes[e] for e in sorted(sharpes)]))
            ref_cell = store.cell(bm, bucket, reference_id)
            if ref_cell is not None and ref_cell.ok:
                turnover_by_bucket[(bm, bucket)] = ref_cell.turnover
            else:
                ok_cells = [store.cell(bm, bucket, e) for e in engines]
                ok_cells = [c for c in ok_cells if c is not None and c.ok]
                if ok_cells:
                    turnover_by_bucket[(bm, bucket)] = ok_cells[0].turnover

    # -- benchmark summary ---------------------------------------------------
    summary_rows: list[dict] = []
    es_mean: dict[str, float] = {}
    for bm in cfg.benchmarks:
        pair_means = {}
        for pair in pairs:
            series = pair_series.get((bm, pair))
            if series:
                pair_means[pair] = float(np.mean(series))
        es_vals = [es_by_bucket[k] for k in es_by_bucket if k[0] == bm]
        escv_vals = [v for k, v in escv_by_bucket.items() if k[0] == bm and v is not None]
        iui_vals = [iui_by_bucket[k] for k in iui_by_bucket if k[0] == bm]
        csi_vals = [csi_by_bucket[k] for k in csi_by_bucket if k[0] == bm]
        if es_vals:
            es_mean[bm] = float(np.mean(es_vals))
        row = {
            "benchmark": bm,
            "category": BENCHMARKS[bm].category,
            "cost_bps": cfg.benchmark_cost_bps(bm),
            "mean_pct": float(np.mean(list(pair_means.values()))) if pair_means else None,
            "max_pct": float(np.max(list(pair_means.values()))) if pair_means else None,
            "n_pairs": len(pair_means),
            "n_buckets": len(es_vals),
            "es_range_pp": es_mean.get(bm),
            "es_cv_pct": float(np.mean(escv_vals)) if escv_vals else None,
            "iui_lo": float(np.mean([v[0] for v in iui_vals])) if iui_vals else None,
            "iui_hi": float(np.mean([v[1] for v in iui_vals])) if iui_vals else None,
            "iui_width_pp": float(np.mean([v[1] - v[0] for v in iui_vals])) if iui_vals else None,
            "csi": int(max(csi_vals)) if csi_vals else None,
        }
        summary_rows.append(row)
    ref_bm = cfg.daf_reference
    for row in summary_rows:
        bm = row["benchmark"]
        if ref_bm in es_mean and es_mean[ref_bm] > 0 and bm in es_mean:
            row["daf"] = es_mean[bm] / es_mean[ref_bm]
        else:
            row["daf"] = None

    # -- statistics battery ---------------------------------------------------
    stats_rows: list[dict] = []
    t_index: list[int] = []
    t_ps: list[float] = []
    for bm in cfg.benchmarks:
        for pair in pairs:
            series = pair_series.get((bm, pair))
            if not series or len(series) < 2:
                continue
            pair_label = f"{pair[0]} vs {pair[1]}"
            base = {"benchmark": bm, "pair": pair_label, "n": len(series)}
            t_res = one_sample_t(series)
            stats_rows.append(
                base | {
                    "test": "t",
                    "statistic": None if t_res.degenerate else t_res.statistic,
                    "p_value": t_res.p_value,
                    "degenerate": t_res.degenerate,
                    "reject_fdr": None,
                    "equivalent": None,
                    "margin_pp": None,
                }
            )
            if not t_res.degenerate and t_res.p_value is not None:
                t_index.append(len(stats_rows) - 1)
                t_ps.append(t_res.p_value)
            w_res = wilcoxon_signed_rank(series)
            stats_rows.append(
                base | {
                    "test": w_res.method,
                    "statistic": None if w_res.degenerate else w_res.statistic,
                    "p_value": w_res.p_value,
                    "degenerate": w_res.degenerate,
                    "reject_fdr": None,
                    "equivalent": None,
                    "margin_pp": None,
                }
            )
            perm_seed = derived_seed(cfg.seed, "perm", bm, pair_label)
            p_res = sign_flip_permutation(series, draws=cfg.permutation_draws, seed=perm_seed)
            stats_rows.append(
                base | {
                    "test": "permutation",
                    "statistic": p_res.statistic,
                    "p_value": p_res.p_value,
                    "degenerate": p_res.degenerate,
                    "reject_fdr": None,
                    "equivalent": None,
                    "margin_pp": None,
                }
            )
            for margin in cfg.tost_margins_pp:
                t_eq = tost(series, margin)
                stats_rows.append(
                    base | {
                        "test": "tost",
                        "statistic": None,
                        "p_value": t_eq.p_value,
                        "degenerate": t_eq.degenerate,
                        "reject_fdr": None,
                        "equivalent": t_eq.equivalent,
                        "margin_pp": margin,
                    }
                )
            if len(series) >= 3:
                l_res = lag1_autocorr(series)
                stats_rows.append(
                    base | {
                        "test": "lag1_autocorr",
                        "statistic": None if l_res.degenerate else l_res.statistic,
                        "p_value": None,
                        "degenerate": l_res.degenerate,
                        "reject_fdr": None,
                        "equivalent": None,
                        "margin_pp": None,
                    }
                )
    if t_ps:
        rejected = bh_fdr(t_ps, cfg.fdr_q)
        for pos, rej in zip(t_index, rejected):
            stats_rows[pos]["reject_fdr"] = bool(rej)

    # -- concordance -----------------------------------------------------------
    ccc_rows: list[dict] = []
    ccc_min_rows: list[dict] = []
    for bm in cfg.benchmarks:
        for metric in DIVERGENCE_METRICS:
            per_metric = []
            for pair in pairs:
                va = metric_by_engine.get((bm, metric, pair[0]), {})
                vb = metric_by_engine.get((bm, metric, pair[1]), {})
                common = sorted(set(va) & set(vb))
                if len(common) < 2:
                    continue
                value = lin_ccc([va[b] for b in common], [vb[b] for b in common])
                per_metric.append(value)
                ccc_rows.append(
                    {
                        "benchmark": bm,
                        "metric": metric,
                        "engine_a": pair[0],
                        "engine_b": pair[1],
                        "ccc": value,
                        "n_buckets": len(common),
                    }
                )
            if per_metric:
                ccc_min_rows.append(
                    {"benchmark": bm, "metric": metric, "ccc_min": float(np.min(per_metric))}
                )

    # -- floor decomposition ----------------------------------------------------
    floor_rows: list[dict] = []
    for bm in cfg.benchmarks:
        rate = cfg.benchmark_cost_bps(bm) / 1e4
        sums = [store.first_weight_sums.get((bm, b)) for b in buckets_sorted]
        fully = all(s is not None and s >= 1.0 - FULLY_INVESTED_TOL for s in sums)
        for pair in pairs:
            series = pair_series.get((bm, pair))
            if not series:
                continue
            mean_div = float(np.mean(series))
            split = floor_decomposition(
                mean_div, conventions[pair[0]], conventions[pair[1]], CostSpec(rate), fully
            )
            floor_rows.append(
                {
                    "benchmark": bm,
                    "engine_a": pair[0],
                    "engine_b": pair[1],
                    "mean_divergence_pct": mean_div,
                    "floor_pct": split.floor_pct,
                    "residual_pct": split.residual_pct,
                    "mixed_reporting": split.mixed_reporting,
                    "fully_invested": fully,
                }
            )

    # -- cost-intensity scaling check ---------------------------------------------
    cost_rows: list[dict] = []
    score_by_bm: dict[str, float] = {}
    for bm in cfg.benchmarks:
        rate = cfg.benchmark_cost_bps(bm) / 1e4
        t_vals = [turnover_by_bucket[k] for k in turnover_by_bucket if k[0] == bm]
        if not t_vals or bm not in es_mean:
            continue
        turnover = float(np.mean(t_vals))
        score = rate * turnover
        score_by_bm[bm] = score
        cost_rows.append(
            {
                "benchmark": bm,
                "cost_bps": cfg.benchmark_cost_bps(bm),
                "turnover_per_yr": turnover,
                "cost_intensity": score,
                "es_range_pp": es_mean[bm],
            }
        )
    conjecture: dict = {"n_benchmarks": len(cost_rows)}
    if len(cost_rows) >= 3:
        scores = [r["cost_intensity"] for r in cost_rows]
        spreads = [r["es_range_pp"] for r in cost_rows]
        sp = spearman(scores, spreads)
        pe = pearson(scores, spreads)
        conjecture |= {
            "spearman_rho": None if sp.degenerate else sp.statistic,
            "spearman_p": sp.p_value,
            "pearson_r": None if pe.degenerate else pe.statistic,
            "pearson_p": pe.p_value,
        }
        bms = [r["benchmark"] for r in cost_rows]
        rates = {r["benchmark"]: r["cost_bps"] / 1e4 for r in cost_rows}

        def _statistic(index: np.ndarray) -> np.ndarray:
            return _resampled_rho(index, buckets_sorted, bms, rates, turnover_by_bucket, es_by_bucket)

        try:
            boot = cluster_bootstrap(
                buckets_sorted,
                _statistic,
                draws=cfg.bootstrap_draws,
                seed=derived_seed(cfg.seed, "boot", "conjecture"),
            )
            conjecture |= {
                "bootstrap_point": boot.point,
                "bootstrap_ci95": list(boot.ci95),
                "bootstrap_draws": boot.draws,
                "n_clusters": boot.n_clusters,
            }
        except NotEnoughClusters:
            conjecture |= {"bootstrap_point": None, "bootstrap_ci95": None}

    # -- dollar translation ----------------------------------------------------
    dollar_rows: list[dict] = []
    for pct in AMBIGUITY_RULER_PCTS:
        dollar_rows.append(
            {
                "benchmark": f"ruler_{pct:.2f}pct",
                "max_divergence_pct": pct,
                "aum_usd": cfg.aum,
                "annual_ambiguity_usd": dollar_ambiguity(pct, cfg.aum),
            }
        )
    for row in summary_rows:
        if row["max_pct"] is None:
            continue
        dollar_rows.append(
            {
                "benchmark": row["benchmark"],
                "max_divergence_pct": row["max_pct"],
                "aum_usd": cfg.aum,
                "annual_ambiguity_usd": dollar_ambiguity(row["max_pct"], cfg.aum),
            }
        )

    # -- pair heatmap (plot-ready long format) -----------------------------------
    heatmap_rows = []
    for bm in cfg.benchmarks:
        for pair in pairs:
            series = pair_series.get((bm, pair))
            if series:
                heatmap_rows.append(
                    {
                        "benchmark": bm,
                        "engine_a": pair[0],
                        "engine_b": pair[1],
                        "mean_divergence_pct": float(np.mean(series)),
                        "n_buckets": len(series),
                    }
                )

    validation_rows = [
        {
            "kind": f.kind,
            "benchmark": f.benchmark,
            "bucket": f.bucket,
            "engine": f.engine,
            "expected": f.expected,
            "got": f.got,
            "detail": f.detail,
        }
        for f in findings
    ]

    bucket_qc = {
        "partition": json.loads(store.partition.to_json()),
        "balance": asdict(store.balance) if store.balance else None,
        "mahalanobis_score": store.partition.score,
        "universe": store.universe,
    }
    metadata = {
        "run_id": store.run_id,
        "package_version": __version__,
        "config": cfg.canonical_dict(),
        "constants": {
            "annualisation_days": 252,
            "sharpe_risk_free_rate": 0.0,
            "spread_stdev_ddof": 1,
            "divergence_base": "lexicographically-first engine id in the pair",
            "total_return_divergence_basis": "growth factor (final over first reported equity)",
            "csi_sign_of_zero": "positive",
            "ccc_moments": "population (divisor n)",
            "turnover_definition": "one-sided notional / pre-cost value, annualised 252/(T-1)",
            "wilcoxon_zero_handling": "dropped",
            "permutation_estimator": "add-one",
        },
    }
    tables = {
        "divergence_records": records_rows,
        "divergence_summary": summary_rows,
        "stats_tests": stats_rows,
        "concordance": ccc_rows,
        "concordance_min": ccc_min_rows,
        "floor_decomposition": floor_rows,
        "cost_intensity": cost_rows,
        "dollar_ambiguity": dollar_rows,
        "pair_divergence": heatmap_rows,
        "validation": validation_rows,
    }
    return ReportBundle(store.run_id, metadata, tables, bucket_qc, conjecture)


def _sequential_fill_indexed(w, h, cash, p, value, planned_cost, rate, conv, assets):
    """``engine._sequential_fill`` as it was with numpy scalar indexing."""
    import numpy as np

    from crossbt.engine import FILL_SELLS_FIRST, trade_cost

    net_value = value - planned_cost
    targets = w * net_value
    current = h * p
    d = targets - current
    sells = [i for i in range(len(d)) if d[i] < 0.0]
    buys = [i for i in range(len(d)) if d[i] > 0.0]
    if conv.fill_sequencing == FILL_SELLS_FIRST:
        order = sells + buys
    else:
        order = sorted(sells + buys)
    budget = cash
    fees = 0.0
    h_new = np.array(h)
    executed = np.zeros(len(d))
    skipped = []
    for i in order:
        fee = trade_cost(abs(float(d[i])), rate, conv)
        if d[i] > 0.0 and fee > 0.0 and fee > budget:
            skipped.append(assets[i])
            continue
        h_new[i] = targets[i] / p[i]
        budget += -float(d[i]) - fee
        fees += fee
        executed[i] = d[i]
    for i in range(len(d)):
        if d[i] == 0.0:
            h_new[i] = targets[i] / p[i]
    cash_new = (value - fees) - float(h_new @ p)
    return fees, h_new, cash_new, executed, tuple(skipped)


def run_variant_per_day(schedule, prices, initial_capital, cost, conv, start=0):
    """``engine.run_variant`` as one Python step per calendar day, marking
    each non-rebalance day with its own ``float(h @ p)``."""
    import numpy as np

    from crossbt.engine import (
        EQUITY_GROSS,
        FILL_ATOMIC,
        TIMING_SHIFT1,
        EquitySeries,
        TradeLog,
        TradeRecord,
        trade_cost,
    )

    if initial_capital <= 0:
        raise ValueError("initial capital must be positive")
    if not 0 <= start < prices.n_days:
        raise ValueError(f"start index {start} outside calendar")
    schedule.validate(prices)
    index = prices.date_index()
    entries = {}
    for date, w in schedule.entries.items():
        t = index[date]
        if t < start:
            raise ValueError(f"rebalance date {date!r} precedes evaluation start")
        entries[t] = w
    if conv.return_timing == TIMING_SHIFT1:
        entries = {t + 1: w for t, w in entries.items() if t + 1 < prices.n_days}

    n_eval = prices.n_days - start
    limit = n_eval if conv.truncate_after is None else min(conv.truncate_after, n_eval)
    rate = cost.rate
    assets = prices.assets
    h = np.zeros(prices.n_assets)
    cash = float(initial_capital)
    equity = np.empty(limit)
    trades = []

    for k in range(limit):
        t = start + k
        p = prices.prices[t]
        if t in entries:
            w = entries[t]
            value = cash + float(h @ p)
            delta = w * value - h * p
            traded = float(np.sum(np.abs(delta)))
            if conv.fill_sequencing == FILL_ATOMIC:
                fees = trade_cost(traded, rate, conv)
                net_value = value - fees
                h = (w * net_value) / p
                cash = net_value - float(h @ p)
                executed, skipped = delta, ()
            else:
                planned = trade_cost(traded, rate, conv)
                fees, h, cash, executed, skipped = _sequential_fill_indexed(
                    w, h, cash, p, value, planned, rate, conv, assets
                )
            equity[k] = value if conv.equity_reporting == EQUITY_GROSS else value - fees
            trades.append(TradeRecord(prices.dates[t], executed, fees, value, skipped))
        else:
            equity[k] = cash + float(h @ p)

    log = TradeLog(
        np.array([index[tr.date] - start for tr in trades], dtype=np.intp),
        np.array([tr.deltas for tr in trades], dtype=float).reshape(len(trades), prices.n_assets),
        np.array([tr.cost for tr in trades], dtype=float),
        np.array([tr.pre_trade_value for tr in trades], dtype=float),
        tuple(tr.skipped for tr in trades),
    )
    return EquitySeries(prices.dates[start : start + limit], equity, log, conv)


# ---------------------------------------------------------------------------
# The store's equity.csv, one csv row at a time: ``ResultStore.save`` and
# ``ResultStore.load`` as they were before they wrote and read each cell's
# rows as one block of text.
# ---------------------------------------------------------------------------

_EQUITY_HEADER = ["benchmark", "bucket", "engine", "date", "equity"]


def save_equity_loop(store, path):
    """Write ``store``'s ``equity.csv`` with one ``csv.writer`` row per value."""
    import csv

    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(_EQUITY_HEADER)
        for key in sorted(store.cells):
            c = store.cells[key]
            if c.equity is None:
                continue
            for date, value in zip(store.eval_dates, c.equity):
                writer.writerow([c.benchmark, c.bucket, c.engine, date, repr(float(value))])


def load_equity_loop(path, lengths, eval_dates):
    """Read ``equity.csv`` through ``csv.reader``.

    ``lengths`` maps each successful cell's key to its ``n_days``. Returns
    the equity array of each such cell (None for a cell with no days), and
    raises ValueError naming the file, and the cell where there is one, on
    any row that is not where the cell order and ``eval_dates`` put it.
    """
    import csv
    from itertools import islice

    import numpy as np

    def read_cell(reader, key, dates):
        n = len(dates)
        if n == 0:
            return None
        block = list(islice(reader, n))
        columns = tuple(zip(*block))
        if (
            len(block) != n
            or set(map(len, block)) != {len(_EQUITY_HEADER)}
            or columns[:4] != ((key[0],) * n, (key[1],) * n, (key[2],) * n, dates)
        ):
            raise ValueError(
                f"equity.csv: rows for cell {'/'.join(key)} do not match its {n} evaluation days"
            )
        try:
            return np.fromiter(map(float, columns[4]), dtype=float, count=n)
        except ValueError as exc:
            raise ValueError(f"equity.csv: cell {'/'.join(key)}: {exc}") from None

    equity = {}
    with open(path, newline="") as f:
        reader = csv.reader(f)
        if next(reader, None) != _EQUITY_HEADER:
            raise ValueError("equity.csv: header is not " + ",".join(_EQUITY_HEADER))
        for key in sorted(lengths):
            equity[key] = read_cell(reader, key, tuple(eval_dates[: lengths[key]]))
        extra = next(reader, None)
        if extra is not None:
            raise ValueError(f"equity.csv: row {extra[:4]} follows the last cell")
    return equity
