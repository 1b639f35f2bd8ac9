"""Benchmark weight-schedule generators and the benchmark registry.

All generators are pure functions of the price panel: weights at a
rebalance depend only on closes up to and including the prior day, so
signals are causal. "Monthly" means every 21st trading day from the first
evaluable day.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .engine import WeightSchedule
from .marketdata import PriceMatrix
from .mlsignals import ElasticNetConfig, WalkForwardConfig, momentum_ranking, walk_forward_signal

MONTH_DAYS = 21


def rebalance_indices(n_days: int, start: int, freq: str) -> list[int]:
    """Rebalance day indices for a frequency: daily, monthly (21 days), or once."""
    if not 0 <= start < n_days:
        raise ValueError(f"start {start} outside a {n_days}-day panel")
    if freq == "once":
        return [start]
    if freq == "daily":
        return list(range(start, n_days))
    if freq == "monthly":
        return list(range(start, n_days, MONTH_DAYS))
    raise ValueError(f"unknown frequency {freq!r}")


def _schedule(pm: PriceMatrix, start: int, freq: str, rule: Callable[[int, int], np.ndarray]) -> WeightSchedule:
    """The schedule holding ``rule(j, t)`` at the j-th rebalance, on day index t."""
    idxs = rebalance_indices(pm.n_days, start, freq)
    return WeightSchedule({pm.dates[t]: rule(j, t) for j, t in enumerate(idxs)})


def _holding(n: int, members, weight) -> np.ndarray:
    """Weight vector of n assets holding ``weight`` in ``members``, cash elsewhere."""
    w = np.zeros(n)
    w[members] = weight
    return w


def equal_weight(pm: PriceMatrix, start: int = 0, freq: str = "monthly") -> WeightSchedule:
    """1/N in every asset at each rebalance."""
    w = np.full(pm.n_assets, 1.0 / pm.n_assets)
    return _schedule(pm, start, freq, lambda j, t: w)


def buy_and_hold(pm: PriceMatrix, start: int = 0) -> WeightSchedule:
    """Equal weights bought once on the first day, drifting thereafter."""
    return equal_weight(pm, start, "once")


def _rotating_members(j: int, k: int, n: int, phase: int) -> list[int]:
    s = (j * k + phase) % n
    return [(s + m) % n for m in range(k)]


def rotation(
    pm: PriceMatrix, start: int = 0, freq: str = "monthly", k: int = 3, phase: int = 0
) -> WeightSchedule:
    """Equal weight in a rotating k-subset; consecutive subsets are disjoint
    whenever 2k <= N, forcing near-total turnover every rebalance."""
    n = pm.n_assets
    if not 1 <= k <= n:
        raise ValueError("subset size must lie in [1, n_assets]")
    return _schedule(pm, start, freq, lambda j, t: _holding(n, _rotating_members(j, k, n, phase), 1.0 / k))


def sma_filter(
    pm: PriceMatrix, start: int = 0, freq: str = "monthly", window: int = 200
) -> WeightSchedule:
    """Hold (equal weight) assets whose prior close strictly exceeds their
    moving average; all cash when none qualify."""
    if start < window:
        raise ValueError(f"start {start} leaves less than {window} days of look-back")

    def rule(j: int, t: int) -> np.ndarray:
        held = pm.prices[t - 1] > pm.prices[t - window : t].mean(axis=0)
        return _holding(pm.n_assets, held, 1.0 / max(held.sum(), 1))

    return _schedule(pm, start, freq, rule)


def inverse_vol_weights(vols: Sequence[float]) -> np.ndarray:
    """Weights proportional to 1/vol, normalised to sum 1.

    Zero-volatility assets dominate in the limit: if any are present they
    split the whole allocation equally.
    """
    v = np.asarray(vols, dtype=float)
    if np.any(v < 0):
        raise ValueError("volatilities must be >= 0")
    if np.any(v == 0.0):
        return _holding(len(v), v == 0.0, 1.0 / np.count_nonzero(v == 0.0))
    inv = 1.0 / v
    return inv / inv.sum()


def inverse_vol(
    pm: PriceMatrix, start: int = 0, freq: str = "monthly", window: int = 60
) -> WeightSchedule:
    """Weights inversely proportional to trailing realised volatility."""
    if start < window + 1:
        raise ValueError(f"start {start} leaves less than {window + 1} days of look-back")

    def rule(j: int, t: int) -> np.ndarray:
        block = pm.prices[t - window - 1 : t]
        return inverse_vol_weights(np.std(block[1:] / block[:-1] - 1.0, axis=0, ddof=1))

    return _schedule(pm, start, freq, rule)


def cross_momentum(
    pm: PriceMatrix,
    start: int = 0,
    freq: str = "monthly",
    lookback: int = 252,
    skip: int = 21,
    top: int = 2,
) -> WeightSchedule:
    """Equal weight in the top performers over the look-back window that
    excludes the most recent ``skip`` days."""
    if skip < 1 or lookback <= skip:
        raise ValueError("need lookback > skip >= 1")
    if start < lookback:
        raise ValueError(f"start {start} leaves less than {lookback} days of look-back")
    top = min(top, pm.n_assets)

    def rule(j: int, t: int) -> np.ndarray:
        rets = pm.prices[t - skip] / pm.prices[t - lookback] - 1.0
        return _holding(pm.n_assets, momentum_ranking(rets)[:top], 1.0 / top)

    return _schedule(pm, start, freq, rule)


def binary_switch(pm: PriceMatrix, start: int = 0, a: int = 0, b: int = 1) -> WeightSchedule:
    """All-in on asset ``a`` on odd evaluation days and ``b`` on even days."""
    return _schedule(pm, start, "daily", lambda j, t: _holding(pm.n_assets, b if j % 2 else a, 1.0))


def tiered_cash(
    pm: PriceMatrix,
    start: int = 0,
    freq: str = "monthly",
    tiers: Sequence[float] = (0.60, 0.30, 0.10),
    phase: int = 0,
) -> WeightSchedule:
    """Tiered allocation over a rotating ordered asset tuple."""
    k, n = len(tiers), pm.n_assets
    if k > n:
        raise ValueError("more tiers than assets")
    return _schedule(pm, start, freq, lambda j, t: _holding(n, _rotating_members(j, k, n, phase), tiers))


def concentrated(
    pm: PriceMatrix, start: int = 0, freq: str = "monthly", weight: float = 0.95
) -> WeightSchedule:
    """Nearly everything in one rotating asset, the rest in cash."""
    if not 0 < weight <= 1:
        raise ValueError("weight must lie in (0, 1]")
    return _schedule(pm, start, freq, lambda j, t: _holding(pm.n_assets, j % pm.n_assets, weight))


def ml_signal(
    pm: PriceMatrix,
    start: int = 0,
    wf: WalkForwardConfig | None = None,
    net: ElasticNetConfig | None = None,
) -> WeightSchedule:
    """Equal weight in the walk-forward model's top predicted assets."""
    wf = wf or WalkForwardConfig()
    net = net or ElasticNetConfig()
    signals = walk_forward_signal(pm, rebalance_indices(pm.n_days, start, "monthly"), wf, net)
    top = min(wf.top, pm.n_assets)
    return _schedule(pm, start, "monthly",
                     lambda j, t: _holding(pm.n_assets, list(signals[j].ranking[:top]), 1.0 / top))


@dataclass(frozen=True)
class BenchmarkSpec:
    """Registry entry: identity, cost regime, cadence, and schedule builder."""

    id: str
    name: str
    category: str
    cost_bps: float
    freq: str
    warmup: int
    build: Callable[[PriceMatrix, int], WeightSchedule]


BENCHMARKS: dict[str, BenchmarkSpec] = {
    spec.id: spec
    for spec in [
        BenchmarkSpec("bm01", "equal-weight monthly", "simple", 18.0, "monthly", 0, equal_weight),
        BenchmarkSpec("bm02", "stay-drift (buy-and-hold)", "simple", 18.0, "once", 0, buy_and_hold),
        BenchmarkSpec("bm03", "large rotation", "rotation", 18.0, "monthly", 0, rotation),
        BenchmarkSpec("bm04", "large rotation, doubled costs", "rotation", 36.0, "monthly", 0, rotation),
        BenchmarkSpec("bm05", "sma momentum (200d)", "signal", 18.0, "monthly", 200, sma_filter),
        BenchmarkSpec("bm06", "inverse-volatility (60d)", "simple", 18.0, "monthly", 61, inverse_vol),
        BenchmarkSpec("bm07", "cross-momentum (12-1, top 2)", "signal", 18.0, "monthly", 252, cross_momentum),
        BenchmarkSpec("bm08_enet", "ml signal, elastic net", "ml", 18.0, "monthly", 273, ml_signal),
        BenchmarkSpec("bm09", "daily binary switch", "ablation", 0.0, "daily", 0, binary_switch),
        BenchmarkSpec("bm10", "cash-tiered rotation", "rotation", 18.0, "monthly", 0, tiered_cash),
        BenchmarkSpec("bm11", "concentrated cascade", "rotation", 60.0, "monthly", 0, concentrated),
        BenchmarkSpec("bm12", "daily equal-weight", "simple", 18.0, "daily", 0,
                      lambda pm, start=0: equal_weight(pm, start, "daily")),
    ]
}
