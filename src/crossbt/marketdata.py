"""Daily close-price panels: CSV ingestion, synthetic generation, and universe QC stats.

The calendar is an abstract ordered day index: dates are opaque labels that
must be strictly increasing (numerically when every label parses as an
integer, lexicographically otherwise, which covers ISO-8601). No exchange
calendar is involved anywhere.
"""

from __future__ import annotations

import csv
import logging
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

log = logging.getLogger(__name__)

TRADING_DAYS_PER_YEAR = 252


class BadCalendar(ValueError):
    """Dates are duplicated or not strictly increasing."""


class BadPrice(ValueError):
    """A price cell is non-positive, non-finite, or unparseable."""


class HoleInPanel(ValueError):
    """A price cell is missing; panels must be complete."""

    def __init__(self, asset: str, date: str):
        super().__init__(f"missing price for asset {asset!r} on date {date!r}")
        self.asset = asset
        self.date = date


class BadSpec(ValueError):
    """Synthetic-panel specification violates its invariants."""


def _calendar_keys(dates: Sequence[str]) -> list:
    try:
        return [int(d) for d in dates]
    except ValueError:
        return list(dates)


@dataclass(frozen=True)
class PriceMatrix:
    """Complete dates x assets panel of strictly positive close prices.

    Immutable after construction (the price array is a read-only C-order
    copy), so instances are safe to share across concurrent readers, and
    every price row is unit-stride whatever layout the input had.
    """

    dates: tuple[str, ...]
    assets: tuple[str, ...]
    prices: np.ndarray
    sectors: Mapping[str, str] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "dates", tuple(str(d) for d in self.dates))
        object.__setattr__(self, "assets", tuple(str(a) for a in self.assets))
        prices = np.array(self.prices, dtype=float, order="C")
        if prices.shape != (len(self.dates), len(self.assets)):
            raise ValueError(
                f"price array shape {prices.shape} does not match "
                f"{len(self.dates)} dates x {len(self.assets)} assets"
            )
        if len(set(self.assets)) != len(self.assets):
            raise ValueError("duplicate asset tickers")
        bad = ~np.isfinite(prices) | (prices <= 0.0)
        if bad.any():
            t, i = np.argwhere(bad)[0]
            raise BadPrice(
                f"non-positive or non-finite price {prices[t, i]!r} for "
                f"{self.assets[i]!r} on {self.dates[t]!r}"
            )
        keys = _calendar_keys(self.dates)
        for a, b, d in zip(keys, keys[1:], self.dates[1:]):
            if not a < b:
                raise BadCalendar(f"dates not strictly increasing at {d!r}")
        if self.sectors is not None:
            missing = [a for a in self.assets if a not in self.sectors]
            if missing:
                raise ValueError(f"sector labels missing for {missing}")
            object.__setattr__(
                self, "sectors", {a: str(self.sectors[a]) for a in self.assets}
            )
        prices.setflags(write=False)
        object.__setattr__(self, "prices", prices)

    @property
    def n_days(self) -> int:
        return len(self.dates)

    @property
    def n_assets(self) -> int:
        return len(self.assets)

    @cached_property
    def _date_positions(self) -> dict[str, int]:
        return {d: i for i, d in enumerate(self.dates)}

    def date_index(self) -> Mapping[str, int]:
        """Read-only date -> day index map, built once per matrix."""
        return MappingProxyType(self._date_positions)

    def subset(self, assets: Sequence[str]) -> "PriceMatrix":
        """Column subset preserving the given asset order."""
        pos = {a: i for i, a in enumerate(self.assets)}
        cols = [pos[a] for a in assets]
        sectors = None
        if self.sectors is not None:
            sectors = {a: self.sectors[a] for a in assets}
        return PriceMatrix(self.dates, tuple(assets), self.prices[:, cols], sectors)


def load_prices_csv(path: str, sectors_path: str | None = None) -> PriceMatrix:
    """Load a complete price panel from CSV.

    Layout: header row with a date column first and one column per ticker,
    then one row per trading day. Numeric cells must use decimal-point
    format with no thousands separators.
    """
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if not header or len(header) < 2:
            raise ValueError(f"{path}: header must be a date column plus tickers")
        assets = tuple(h.strip() for h in header[1:])
        if "" in assets:
            raise ValueError(f"{path}: header column {assets.index('') + 2} has no ticker")
        dates: list[str] = []
        rows: list[list[float]] = []
        for row in reader:
            if not row or all(not c.strip() for c in row):
                continue
            date = row[0].strip()
            if len(row) > len(header):
                raise ValueError(f"{path}: row {date!r} has more cells than the header")
            values = []
            for i, asset in enumerate(assets):
                cell = row[i + 1].strip() if i + 1 < len(row) else ""
                if not cell:
                    raise HoleInPanel(asset, date)
                try:
                    x = float(cell)
                except ValueError:
                    raise BadPrice(f"unparseable price {cell!r} for {asset!r} on {date!r}")
                values.append(x)
            dates.append(date)
            rows.append(values)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    sectors = load_sector_map(sectors_path) if sectors_path else None
    pm = PriceMatrix(tuple(dates), assets, np.array(rows), sectors)
    log.info("loaded %s: %d days x %d assets", path, pm.n_days, pm.n_assets)
    return pm


def write_prices_csv(pm: PriceMatrix, path: str) -> None:
    """Write a panel so that a reload reproduces it to full precision."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["date", *pm.assets])
        for t, date in enumerate(pm.dates):
            writer.writerow([date, *(repr(float(x)) for x in pm.prices[t])])


def load_sector_map(path: str) -> dict[str, str]:
    """Two-column CSV ``ticker,sector`` with a header row; one row per ticker, none blank."""
    sectors: dict[str, str] = {}
    with open(path, newline="") as f:
        reader = csv.reader(f)
        next(reader, None)
        for row in reader:
            if len(row) >= 2 and row[0].strip():
                ticker, sector = row[0].strip(), row[1].strip()
                if ticker in sectors:
                    raise ValueError(f"{path}: ticker {ticker!r} listed twice")
                if not sector:
                    raise ValueError(f"{path}: ticker {ticker!r} has a blank sector")
                sectors[ticker] = sector
    return sectors


def write_sector_map(sectors: Mapping[str, str], path: str) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["ticker", "sector"])
        for ticker in sectors:
            writer.writerow([ticker, sectors[ticker]])


@dataclass(frozen=True)
class SynthSpec:
    """Parameters for a one-factor geometric-Brownian price panel.

    ``annual_drift`` is either a single number or a mapping sector -> drift;
    ``annual_vol`` is a single number or one value per asset. ``correlation``
    is the target pairwise correlation of daily log returns, achieved in
    expectation through a single common factor. Zero volatility is allowed
    and produces deterministic drift-only paths.
    """

    n_assets: int
    n_days: int
    seed: int
    annual_drift: float | Mapping[str, float] = 0.05
    annual_vol: float | Sequence[float] = 0.20
    correlation: float = 0.30
    n_sectors: int = 6
    sectors: tuple[str, ...] | None = None
    start_price: float = 100.0

    def __post_init__(self) -> None:
        if self.n_assets < 2:
            raise BadSpec("n_assets must be >= 2")
        if self.n_days < 2:
            raise BadSpec("n_days must be >= 2")
        if not 0.0 <= self.correlation < 1.0:
            raise BadSpec("correlation must lie in [0, 1)")
        vols = self.vol_vector()
        if np.any(vols < 0) or not np.all(np.isfinite(vols)):
            raise BadSpec("volatilities must be finite and non-negative")
        if self.sectors is not None and len(self.sectors) != self.n_assets:
            raise BadSpec("per-asset sector list must have n_assets entries")
        if self.n_sectors < 1:
            raise BadSpec("n_sectors must be >= 1")
        if self.start_price <= 0:
            raise BadSpec("start_price must be positive")

    def vol_vector(self) -> np.ndarray:
        if np.isscalar(self.annual_vol):
            return np.full(self.n_assets, float(self.annual_vol))
        v = np.asarray(self.annual_vol, dtype=float)
        if v.shape != (self.n_assets,):
            raise BadSpec("annual_vol must be scalar or one value per asset")
        return v

    def sector_labels(self) -> tuple[str, ...]:
        if self.sectors is not None:
            return tuple(self.sectors)
        return tuple(f"SEC{i % self.n_sectors}" for i in range(self.n_assets))

    def drift_vector(self) -> np.ndarray:
        labels = self.sector_labels()
        if isinstance(self.annual_drift, Mapping):
            try:
                return np.array([float(self.annual_drift[s]) for s in labels])
            except KeyError as exc:
                raise BadSpec(f"no drift for sector {exc.args[0]!r}")
        return np.full(self.n_assets, float(self.annual_drift))


def generate_synthetic(spec: SynthSpec) -> PriceMatrix:
    """Simulate a complete panel of geometric-Brownian prices.

    Daily log returns are ``(mu - sigma^2/2) dt + sigma sqrt(dt) z`` with
    ``z = sqrt(rho) Z + sqrt(1 - rho) e_i`` mixing one common factor into
    per-asset noise, so every pair of assets has correlation ``rho`` in
    expectation. Bit-deterministic for a fixed spec.
    """
    rng = np.random.default_rng(spec.seed)
    n, t = spec.n_assets, spec.n_days
    dt = 1.0 / TRADING_DAYS_PER_YEAR
    mu = spec.drift_vector()
    sigma = spec.vol_vector()
    common = rng.standard_normal((t - 1, 1))
    idio = rng.standard_normal((t - 1, n))
    shock = math.sqrt(spec.correlation) * common + math.sqrt(1.0 - spec.correlation) * idio
    logret = (mu - 0.5 * sigma**2) * dt + sigma * math.sqrt(dt) * shock
    logp = np.vstack([np.zeros(n), np.cumsum(logret, axis=0)])
    prices = spec.start_price * np.exp(logp)
    dates = tuple(str(i) for i in range(1, t + 1))
    assets = tuple(f"A{i:03d}" for i in range(n))
    sectors = dict(zip(assets, spec.sector_labels()))
    return PriceMatrix(dates, assets, prices, sectors)


def max_drawdown_pct(series: np.ndarray) -> float:
    """Largest peak-to-trough decline, in percent of the running peak."""
    x = np.asarray(series, dtype=float)
    peak = np.maximum.accumulate(x)
    return float(np.max(1.0 - x / peak) * 100.0)


def correlation_matrix(returns: np.ndarray) -> np.ndarray:
    """Pearson correlations by column; zero-variance columns correlate 0 by convention."""
    r = np.asarray(returns, dtype=float)
    centered = r - r.mean(axis=0)
    norms = np.sqrt((centered**2).sum(axis=0))
    live = norms > 0.0
    z = np.zeros_like(centered)
    z[:, live] = centered[:, live] / norms[live]
    corr = z.T @ z
    np.fill_diagonal(corr, 1.0)
    return np.clip(corr, -1.0, 1.0)


def descriptive_stats(pm: PriceMatrix) -> dict:
    """The universe QC record over the full panel (annualisation factor 252),
    as the result store keeps it: ``n_assets``, the mean over assets of the
    annualised return, volatility and max drawdown, the mean, min and max
    pairwise correlation, and ``sectors``, the same three means per sector.

    Per-asset annualised return is geometric, volatility is the sample
    standard deviation of daily simple returns scaled by sqrt(252), and
    drawdown is relative to the running peak.
    """
    if pm.n_days < 2:
        raise ValueError("need at least 2 dates")
    p = pm.prices
    horizon = TRADING_DAYS_PER_YEAR / (pm.n_days - 1)
    ann_ret = ((p[-1] / p[0]) ** horizon - 1.0) * 100.0
    rets = p[1:] / p[:-1] - 1.0
    if len(rets) >= 2:
        ann_vol = np.std(rets, axis=0, ddof=1) * math.sqrt(TRADING_DAYS_PER_YEAR) * 100.0
    else:
        ann_vol = np.zeros(pm.n_assets)
    mdd = np.array([max_drawdown_pct(p[:, i]) for i in range(pm.n_assets)])
    corr = correlation_matrix(rets)
    off = corr[np.triu_indices(pm.n_assets, k=1)]
    sector_summary: dict[str, dict[str, float]] = {}
    if pm.sectors is not None:
        for sector in sorted(set(pm.sectors.values())):
            idx = [i for i, a in enumerate(pm.assets) if pm.sectors[a] == sector]
            sector_summary[sector] = {
                "n": float(len(idx)),
                "ann_vol_pct": float(np.mean(ann_vol[idx])),
                "ann_return_pct": float(np.mean(ann_ret[idx])),
                "max_drawdown_pct": float(np.mean(mdd[idx])),
            }
    return {
        "n_assets": pm.n_assets,
        "mean_ann_return_pct": float(np.mean(ann_ret)),
        "mean_ann_vol_pct": float(np.mean(ann_vol)),
        "mean_max_drawdown_pct": float(np.mean(mdd)),
        "mean_pairwise_corr": float(np.mean(off)),
        "min_pairwise_corr": float(np.min(off)),
        "max_pairwise_corr": float(np.max(off)),
        "sectors": sector_summary,
    }
