"""Cross-engine implementation-risk metrics.

Given the values of one summary statistic produced by several engines for
the same (strategy, bucket, cost) cell, these functions quantify how much
the engines disagree and translate the disagreement into decision-relevant
terms.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .engine import EQUITY_GROSS, EQUITY_POST, CostSpec, EngineConvention
from .stats import t_quantile

#: Below this magnitude a pair's base value is unusable as a denominator.
DEGENERATE_BASE = 1e-9

#: Near-zero cross-engine mean makes the CV form of engine spread unstable.
UNSTABLE_MEAN = 1e-12


class NotEnoughEngines(ValueError):
    """Spread statistics need at least two engine values."""


class UndefinedAmplification(ArithmeticError):
    """Amplification is undefined when the reference spread is zero."""


def _values(sample) -> np.ndarray:
    vals = np.asarray(sample, dtype=float)
    if vals.ndim != 1 or len(vals) < 2:
        raise NotEnoughEngines("need values from at least 2 engines")
    if not np.all(np.isfinite(vals)):
        raise ValueError("engine values must be finite")
    return vals


def es_cv(sample) -> float | None:
    """Engine spread, coefficient-of-variation form, in percent.

    Returns None (unstable) when the cross-engine mean is within 1e-12 of
    zero; reports omit the value in that case.
    """
    vals = _values(sample)
    mean = float(np.mean(vals))
    if abs(mean) <= UNSTABLE_MEAN:
        return None
    return float(np.std(vals, ddof=1)) / mean * 100.0


def es_range(sample) -> float:
    """Engine spread, range form: max minus min, in the statistic's units."""
    vals = _values(sample)
    return float(np.max(vals) - np.min(vals))


def iui(sample) -> tuple[float, float]:
    """Implementation uncertainty interval: mean +/- t_{0.025,K-1} * stdev.

    The full cross-engine stdev (not stdev/sqrt(K)) is used, so the band
    characterises the spread of engine outputs rather than the mean's
    sampling error.
    """
    vals = _values(sample)
    mean = float(np.mean(vals))
    half = t_quantile(0.975, len(vals) - 1) * float(np.std(vals, ddof=1))
    return (mean - half, mean + half)


def daf(benchmark_sample, reference_sample) -> float:
    """Spread amplification of a benchmark relative to a reference benchmark."""
    ref = es_range(reference_sample)
    if ref == 0.0:
        raise UndefinedAmplification("reference benchmark has zero spread")
    return es_range(benchmark_sample) / ref


def csi(sharpe_sample) -> int:
    """1 iff any two engines disagree on the Sharpe ratio's sign (sign(0) is +)."""
    vals = _values(sharpe_sample)
    nonneg = vals >= 0.0
    return int(nonneg.any() and (~nonneg).any())


@dataclass(frozen=True)
class DivergenceRecord:
    """Relative difference of one metric for one engine pair on one cell.

    The pair is ordered lexicographically. ``rel_diff_pct`` is NaN only
    where a value is: the cagr of an equity path whose growth is negative.
    ``absolute_fallback`` marks records where the base value was too small
    to divide by, so the field holds an absolute (not relative) difference.
    """

    benchmark: str
    bucket: str
    metric: str
    engine_a: str
    engine_b: str
    rel_diff_pct: float
    absolute_fallback: bool = False


def relative_difference(base: float, other: float) -> tuple[float, bool]:
    """|other - base| / |base| in percent, falling back to the absolute
    difference (flagged) when the base is below 1e-9 in magnitude."""
    diff = abs(other - base)
    if abs(base) < DEGENERATE_BASE:
        return diff, True
    return diff / abs(base) * 100.0, False


def pairwise_divergence(
    values_by_engine: Mapping[str, float],
    benchmark: str,
    bucket: str,
    metric: str,
) -> list[DivergenceRecord]:
    """Divergence records for every engine pair of a cell.

    The denominator is the value of the lexicographically-first engine id in
    the pair, so a record is independent of enumeration order.
    """
    records = []
    for a, b in combinations(sorted(values_by_engine), 2):
        rel, fallback = relative_difference(values_by_engine[a], values_by_engine[b])
        records.append(DivergenceRecord(benchmark, bucket, metric, a, b, rel, fallback))
    return records


def floor_divergence_pct(rate: float) -> float:
    """Fixed divergence created by gross- vs net-of-cost reporting of a fully
    invested initial construction: rate / (1 - rate), in percent."""
    return rate / (1.0 - rate) * 100.0


@dataclass(frozen=True)
class FloorSplit:
    floor_pct: float
    residual_pct: float
    mixed_reporting: bool


def floor_decomposition(
    divergence_pct: float,
    a: EngineConvention,
    b: EngineConvention,
    cost: CostSpec,
    fully_invested: bool = True,
) -> FloorSplit:
    """Split a pair's divergence, in percent, between conventions ``a`` and
    ``b`` into the reporting-convention floor and the residual cost-model
    disagreement (signed; may be negative)."""
    mixed = {a.equity_reporting, b.equity_reporting} == {EQUITY_POST, EQUITY_GROSS}
    floor = floor_divergence_pct(cost.rate) if mixed and fully_invested else 0.0
    return FloorSplit(floor, divergence_pct - floor, mixed)


def dollar_ambiguity(divergence_pct: float, aum: float) -> float:
    """Annual dollar ambiguity implied by a divergence in annual return (%)
    at a given asset base."""
    if not math.isfinite(divergence_pct) or divergence_pct < 0:
        raise ValueError("divergence must be a finite non-negative percent")
    if aum < 0:
        raise ValueError("aum must be non-negative")
    return divergence_pct / 100.0 * aum
