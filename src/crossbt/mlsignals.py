"""Walk-forward return prediction with an elastic-net learner.

The protocol is strict about causality: training targets are realised
forward returns whose windows close at or before the prediction date, the
training window ends a full gap before prediction, and prediction features
come from the prior day's close.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .marketdata import PriceMatrix

FEATURE_NAMES = ("r21", "r63", "r126", "vol20", "vol60")

_MIN_HISTORY = 126


class NotEnoughHistory(ValueError):
    """Feature construction needs at least 126 prior days."""


def feature_panel(pm: PriceMatrix) -> np.ndarray:
    """Every day's feature rows as one ``(T, n, 5)`` array; days before 126 are NaN.

    Each window statistic is built from whole-array passes over the shifted
    daily-return slices, summed in the same order as ``np.std(block, axis=0,
    ddof=1)`` on one day's C-order return block (every matrix stores C-order
    prices), so row ``t`` is bit-identical to the per-day formula.
    """
    p = pm.prices
    n_days, n = p.shape
    panel = np.full((n_days, n, len(FEATURE_NAMES)), np.nan)
    m = n_days - _MIN_HISTORY
    if m <= 0:
        return panel
    now = p[_MIN_HISTORY:]
    for j, k in enumerate((21, 63, 126)):
        panel[_MIN_HISTORY:, :, j] = now / p[_MIN_HISTORY - k : n_days - k] - 1.0
    rets = p[1:] / p[:-1] - 1.0
    for j, k in ((3, 20), (4, 60)):
        lo = _MIN_HISTORY - k
        if n == 1:
            # numpy sums a single column pairwise rather than row by row.
            panel[_MIN_HISTORY:, :, j] = [
                np.std(rets[lo + s : lo + s + k], axis=0, ddof=1) for s in range(m)
            ]
            continue
        total = np.zeros((m, n))
        for i in range(k):
            total += rets[lo + i : lo + i + m]
        mean = total / k
        squares = np.zeros((m, n))
        for i in range(k):
            dev = rets[lo + i : lo + i + m] - mean
            squares += dev * dev
        panel[_MIN_HISTORY:, :, j] = np.sqrt(squares / (k - 1))
    return panel


# One-slot cache: the walk-forward loop asks for many days of one panel in a
# row. Holding ``pm`` itself keeps its id from being reused by another panel.
_cached: tuple[PriceMatrix, np.ndarray] | None = None


def _cached_panel(pm: PriceMatrix) -> np.ndarray:
    global _cached
    hit = _cached
    if hit is None or hit[0] is not pm:
        panel = feature_panel(pm)
        panel.setflags(write=False)
        hit = _cached = (pm, panel)
    return hit[1]


def build_features(pm: PriceMatrix, t: int) -> np.ndarray:
    """Per-asset feature rows at day index ``t``: trailing 21/63/126-day
    simple returns and 20/60-day return volatilities (sample stdev).

    Returns a read-only view of row ``t`` of the panel's ``feature_panel``.
    """
    if t < _MIN_HISTORY:
        raise NotEnoughHistory(f"day index {t} has under {_MIN_HISTORY} days of history")
    if t >= pm.n_days:
        raise ValueError(f"day index {t} outside panel")
    return _cached_panel(pm)[t]


@dataclass(frozen=True)
class ElasticNetConfig:
    """Penalty weight, L1 mix, and iteration control for the solver."""

    lam: float = 1e-3
    alpha: float = 0.5
    max_iter: int = 1000
    tol: float = 1e-8

    def __post_init__(self) -> None:
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")


@dataclass(frozen=True)
class ElasticNetFit:
    """Coefficients on the original feature scale plus convergence state."""

    coef: np.ndarray
    intercept: float
    converged: bool
    n_iter: int

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(X, dtype=float) @ self.coef + self.intercept


def _soft_threshold(z: float, gamma: float) -> float:
    if z > gamma:
        return z - gamma
    if z < -gamma:
        return z + gamma
    return 0.0


def fit_elastic_net(X, y, cfg: ElasticNetConfig = ElasticNetConfig()) -> ElasticNetFit:
    """Cyclic coordinate descent on
    (1/2n)||y - b0 - X b||^2 + lam * (alpha ||b||_1 + (1-alpha)/2 ||b||^2).

    Features are standardised internally (population moments) and the
    intercept is unpenalised; coefficients are returned on the original
    scale. Hitting max_iter returns the best iterate with converged=False
    rather than raising.

    The descent runs on the k x k Gram matrix ``G = Xs.T @ Xs / n`` and
    ``c = Xs.T @ yc / n`` of the standardised problem, keeping ``q = G @ b``
    up to date as coordinates move, so a coordinate step costs O(k) rather
    than two passes over the n rows. In exact arithmetic its iterates,
    sweep count and stopping decision are those of the residual form
    (``resid = yc - Xs @ b``) it replaced; in floating point they differ
    by rounding only, within the bound ``tests/test_mlsignals.py`` derives
    (``gram_cd_bound``).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    n, k = X.shape
    if n != len(y) or n < 1:
        raise ValueError("X rows must match y length and be >= 1")

    mu = X.mean(axis=0)
    sigma = X.std(axis=0)
    live = sigma > 0.0
    Xs = np.zeros_like(X)
    Xs[:, live] = (X[:, live] - mu[live]) / sigma[live]
    y_mean = float(y.mean())
    yc = y - y_mean

    gram = (Xs.T @ Xs / n).tolist()
    c = (Xs.T @ yc / n).tolist()

    l1 = cfg.lam * cfg.alpha
    l2 = cfg.lam * (1.0 - cfg.alpha)
    beta = [0.0] * k
    q = [0.0] * k  # gram @ beta, updated when a coordinate moves
    coords = np.flatnonzero(live).tolist()
    converged = False
    sweeps = 0
    for sweeps in range(1, cfg.max_iter + 1):
        max_change = 0.0
        for j in coords:
            old = beta[j]
            rho = c[j] - q[j] + gram[j][j] * old
            new = _soft_threshold(rho, l1) / (1.0 + l2)
            if new != old:
                step = new - old
                q = [qi + gi * step for qi, gi in zip(q, gram[j])]
                max_change = max(max_change, abs(step))
                beta[j] = new
        if max_change < cfg.tol:
            converged = True
            break

    coef = np.zeros(k)
    coef[live] = np.array(beta)[live] / sigma[live]
    intercept = y_mean - float(coef @ mu)
    return ElasticNetFit(coef, intercept, converged, sweeps)


@dataclass(frozen=True)
class WalkForwardConfig:
    """Rolling training window, train/predict gap, target horizon, picks."""

    train_window: int = 126
    gap: int = 21
    horizon: int = 21
    top: int = 2

    def __post_init__(self) -> None:
        if min(self.train_window, self.gap, self.horizon, self.top) < 1:
            raise ValueError("all walk-forward parameters must be positive")
        if self.horizon > self.gap:
            raise ValueError("horizon must not exceed the gap (look-ahead)")

    @property
    def min_history(self) -> int:
        """Smallest day index at which a prediction is possible."""
        return _MIN_HISTORY + self.train_window + self.gap - 1


@dataclass(frozen=True)
class SignalRank:
    """Model output at one rebalance: predictions and best-first ordering."""

    date: str
    predicted: np.ndarray
    ranking: tuple[int, ...]
    degenerate: bool = False


def walk_forward_signal(
    pm: PriceMatrix,
    rebalances: Sequence[int],
    wf: WalkForwardConfig = WalkForwardConfig(),
    net: ElasticNetConfig = ElasticNetConfig(),
) -> list[SignalRank]:
    """Fit-and-predict at each rebalance using only past data.

    Training pairs pool all assets: features at day s, realised return over
    (s, s + horizon], for s across the window ending ``gap`` days before the
    rebalance. Prediction uses features from the day before the rebalance.
    A zero-variance training target yields a uniform (index-ordered) ranking
    flagged degenerate. Ties rank by asset index.
    """
    p = pm.prices
    n = pm.n_assets
    out: list[SignalRank] = []
    for t in rebalances:
        s_hi = t - wf.gap
        s_lo = s_hi - wf.train_window + 1
        if s_lo < _MIN_HISTORY:
            raise NotEnoughHistory(
                f"rebalance at index {t} needs history back to {s_lo}, "
                f"below the {_MIN_HISTORY}-day feature minimum"
            )
        # Causality: every training target's forward window closes by t.
        assert s_hi + wf.horizon <= t
        X = np.concatenate([build_features(pm, s) for s in range(s_lo, s_hi + 1)])
        h = wf.horizon
        y = (p[s_lo + h : s_hi + h + 1] / p[s_lo : s_hi + 1] - 1.0).ravel()
        if float(np.std(y)) == 0.0:
            pred = np.zeros(n)
            out.append(SignalRank(pm.dates[t], pred, tuple(range(n)), degenerate=True))
            continue
        pred = fit_elastic_net(X, y, net).predict(build_features(pm, t - 1))
        ranking = tuple(int(i) for i in np.lexsort((np.arange(n), -pred)))
        out.append(SignalRank(pm.dates[t], pred, ranking))
    return out
