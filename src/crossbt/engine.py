"""Proportional-cost backtest loop and convention-parameterised variants.

The reference convention, on each rebalance date, marks the portfolio to
market, computes dollar trade deltas against the target weights, charges a
proportional cost on the traded notional, reallocates the net value, and
reports post-trade equity; non-rebalance days are pure mark-to-market.
Fractional shares throughout.

Variants replicate documented engine failure modes as silent behaviour
changes along six independent axes (equity reporting, rate interpretation,
commission multiplier, fill sequencing, trade timing, truncation). Faults
never raise: detecting them is the harness's job, not the engine's.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass, replace

import numpy as np

from .marketdata import TRADING_DAYS_PER_YEAR, PriceMatrix

WEIGHT_SUM_TOL = 1e-12

EQUITY_POST = "post"    # post-trade (net-of-cost) equity on rebalance days
EQUITY_GROSS = "gross"  # pre-trade (gross-of-cost) equity on rebalance days
RATE_ABS = "abs"        # cost rate applied as the absolute proportion given
RATE_DIV100 = "div100"  # cost rate silently divided by 100 before application
FILL_ATOMIC = "atomic"
FILL_FIFO = "fifo"            # per-asset orders in index order, fee-gated
FILL_SELLS_FIRST = "sellsfirst"
TIMING_ALIGNED = "aligned"
TIMING_SHIFT1 = "shift1"      # trades execute one day late, at next-day prices


class BadConvention(ValueError):
    """Convention flag outside its axis."""


@dataclass(frozen=True)
class CostSpec:
    """Proportional one-way cost as a fraction of traded notional (0.0018 = 18 bps)."""

    rate: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate < 1.0:
            raise ValueError(f"cost rate must lie in [0, 1), got {self.rate}")

    @classmethod
    def from_bps(cls, bps: float) -> "CostSpec":
        return cls(bps / 1e4)


@dataclass(frozen=True)
class EngineConvention:
    """One point in the engine behaviour space; the default is the reference."""

    equity_reporting: str = EQUITY_POST
    rate_interpretation: str = RATE_ABS
    commission_multiplier: int = 1
    fill_sequencing: str = FILL_ATOMIC
    return_timing: str = TIMING_ALIGNED
    truncate_after: int | None = None

    def __post_init__(self) -> None:
        if self.equity_reporting not in (EQUITY_POST, EQUITY_GROSS):
            raise BadConvention(f"equity_reporting {self.equity_reporting!r}")
        if self.rate_interpretation not in (RATE_ABS, RATE_DIV100):
            raise BadConvention(f"rate_interpretation {self.rate_interpretation!r}")
        if not (isinstance(self.commission_multiplier, int) and self.commission_multiplier >= 1):
            raise BadConvention(f"commission_multiplier {self.commission_multiplier!r}")
        if self.fill_sequencing not in (FILL_ATOMIC, FILL_FIFO, FILL_SELLS_FIRST):
            raise BadConvention(f"fill_sequencing {self.fill_sequencing!r}")
        if self.return_timing not in (TIMING_ALIGNED, TIMING_SHIFT1):
            raise BadConvention(f"return_timing {self.return_timing!r}")
        if self.truncate_after is not None and self.truncate_after < 1:
            raise BadConvention(f"truncate_after {self.truncate_after!r}")

    @property
    def id(self) -> str:
        """Canonical flag string, e.g. ``post|abs|x1|atomic|aligned|full``."""
        trunc = "full" if self.truncate_after is None else f"trunc{self.truncate_after}"
        return "|".join(
            [
                self.equity_reporting,
                self.rate_interpretation,
                f"x{self.commission_multiplier}",
                self.fill_sequencing,
                self.return_timing,
                trunc,
            ]
        )

    @classmethod
    def parse(cls, text: str) -> "EngineConvention":
        parts = text.split("|")
        if len(parts) != 6:
            raise BadConvention(f"expected 6 '|'-separated flags, got {text!r}")
        eq, rate, mult, fill, timing, trunc = parts
        try:
            if not mult.startswith("x"):
                raise ValueError
            multiplier = int(mult[1:])
        except ValueError:
            raise BadConvention(f"multiplier flag {mult!r}")
        if trunc == "full":
            truncate = None
        elif trunc.startswith("trunc"):
            try:
                truncate = int(trunc[5:])
            except ValueError:
                raise BadConvention(f"truncation flag {trunc!r}")
        else:
            raise BadConvention(f"truncation flag {trunc!r}")
        return cls(eq, rate, multiplier, fill, timing, truncate)


REFERENCE = EngineConvention()

#: Named presets for the documented failure modes.
CONVENTIONS: dict[str, EngineConvention] = {
    "reference": REFERENCE,
    "pre_trade": replace(REFERENCE, equity_reporting=EQUITY_GROSS),
    "percent_divided": replace(REFERENCE, rate_interpretation=RATE_DIV100),
    "double_commission": replace(REFERENCE, commission_multiplier=2),
    "fifo_sequential": replace(REFERENCE, fill_sequencing=FILL_FIFO),
    "sells_first": replace(REFERENCE, fill_sequencing=FILL_SELLS_FIRST),
    "shifted_one_day": replace(REFERENCE, return_timing=TIMING_SHIFT1),
}

#: The six-engine roster used by default in full experiment runs.
DEFAULT_ROSTER = (
    "reference",
    "pre_trade",
    "percent_divided",
    "double_commission",
    "fifo_sequential",
    "shifted_one_day",
)


def resolve_convention(name_or_flags: str) -> EngineConvention:
    """Accept either a preset name or a canonical flag string."""
    if name_or_flags in CONVENTIONS:
        return CONVENTIONS[name_or_flags]
    return EngineConvention.parse(name_or_flags)


def truncated(days: int, base: EngineConvention = REFERENCE) -> EngineConvention:
    """Variant that silently stops after ``days`` evaluation days."""
    return replace(base, truncate_after=days)


def path_key(conv: EngineConvention, rate: float) -> tuple:
    """The convention axes that change the simulated holdings and cash.

    Equity reporting and truncation only change what is reported, so two
    conventions with equal keys at a rate simulate the same path. At a zero
    rate every fee is exactly 0.0, so the rate, multiplier and fill axes
    drop out as well and only the trade timing is left.
    """
    if rate > 0.0:
        return (
            conv.return_timing,
            conv.rate_interpretation,
            conv.commission_multiplier,
            conv.fill_sequencing,
        )
    return (conv.return_timing,)


def trade_cost(traded_notional: float, rate: float, conv: EngineConvention) -> float:
    """Cost charged for a given traded notional under a convention.

    The multiplier scales the correctly-computed cost; the div100
    misinterpretation divides the final charge by 100 (equivalent to
    dividing the rate, and exactly one hundredth of the reference charge
    on the same notional).
    """
    c = conv.commission_multiplier * (rate * traded_notional)
    if conv.rate_interpretation == RATE_DIV100:
        c = c / 100.0
    return c


@dataclass(frozen=True)
class WeightSchedule:
    """Sparse map rebalance date -> long-only target weights; absent dates drift.

    Weights are fractions of portfolio value aligned to the price matrix's
    asset order; any remainder below 1 stays in cash. An explicit all-zero
    entry liquidates to cash, whereas a missing date means no trading.
    """

    entries: Mapping[str, np.ndarray]

    def __post_init__(self) -> None:
        frozen = {}
        for date, w in self.entries.items():
            arr = np.array(w, dtype=float)
            arr.setflags(write=False)
            frozen[str(date)] = arr
        object.__setattr__(self, "entries", frozen)
        # The price matrix the last successful ``validate`` passed on. Holding
        # it (not its id) keeps a freed matrix's id from matching another.
        object.__setattr__(self, "_validated_on", None)

    def validate(self, prices: PriceMatrix) -> None:
        """Raise ValueError for the first invalid entry, in entry order.

        Dates and shapes are checked entry by entry up to the first failure;
        the weight values of the entries before it are checked as one array.
        A pass is remembered for that price matrix, so repeating the call on
        it (once per engine convention) costs nothing; a failure is not.
        """
        if self._validated_on is prices:
            return
        index = prices.date_index()
        dates: list[str] = []
        layout_error = None
        for date, w in self.entries.items():
            if date not in index:
                layout_error = f"rebalance date {date!r} not in price calendar"
                break
            if w.shape != (prices.n_assets,):
                layout_error = f"weight vector on {date!r} has wrong length"
                break
            dates.append(date)
        if dates:
            weights = np.stack([self.entries[d] for d in dates])
            invalid = ~np.isfinite(weights).all(axis=1) | (weights < 0).any(axis=1)
            with np.errstate(invalid="ignore"):  # inf - inf in a row already invalid
                over = weights.sum(axis=1) > 1.0 + WEIGHT_SUM_TOL
            bad = np.flatnonzero(invalid | over)
            if len(bad):
                i = bad[0]
                if invalid[i]:
                    raise ValueError(f"weights on {dates[i]!r} must be finite and >= 0")
                raise ValueError(f"weights on {dates[i]!r} sum past 1")
        if layout_error is not None:
            raise ValueError(layout_error)
        object.__setattr__(self, "_validated_on", prices)

    def first_entry_weight_sum(self, prices: PriceMatrix) -> float | None:
        """Weight sum at the earliest rebalance; None for an empty schedule."""
        index = prices.date_index()
        if not self.entries:
            return None
        first = min(self.entries, key=lambda d: index[d])
        return float(np.sum(self.entries[first]))

    def to_csv(self, path: str, prices: PriceMatrix) -> None:
        import csv as _csv

        index = prices.date_index()
        with open(path, "w", newline="") as f:
            writer = _csv.writer(f)
            writer.writerow(["date", "asset", "weight"])
            for date in sorted(self.entries, key=lambda d: index[d]):
                for asset, w in zip(prices.assets, self.entries[date]):
                    writer.writerow([date, asset, repr(float(w))])


@dataclass(frozen=True)
class TradeRecord:
    """Executed trades at one rebalance: signed notional per asset plus the charge."""

    date: str
    deltas: np.ndarray
    cost: float
    pre_trade_value: float
    skipped: tuple[str, ...] = ()

    @property
    def traded_notional(self) -> float:
        return float(np.sum(np.abs(self.deltas)))


@dataclass(frozen=True)
class EquitySeries:
    """Daily equity plus the trade log for one (schedule, engine) run."""

    dates: tuple[str, ...]
    equity: np.ndarray
    trades: tuple[TradeRecord, ...]
    engine_id: str

    def __post_init__(self) -> None:
        eq = np.asarray(self.equity, dtype=float)
        eq.setflags(write=False)
        object.__setattr__(self, "equity", eq)
        object.__setattr__(self, "dates", tuple(self.dates))


def _sequential_fill(
    w: np.ndarray,
    h: np.ndarray,
    cash: float,
    p: np.ndarray,
    value: float,
    planned_cost: float,
    rate: float,
    conv: EngineConvention,
    assets: tuple[str, ...],
):
    """Execute per-asset orders one at a time against a running cash account.

    Trade notionals settle through position netting, but each order's fee
    must clear from free cash at submission time: sale proceeds top the
    account up as they are processed, so in index (fifo) order a buy whose
    fee funding depends on a later sell is rejected and silently skipped.
    Zero-fee orders cannot fail the check, which keeps every sequencing
    identical to the atomic fill when the cost rate is zero.

    Orders are sized against the value net of the *planned* atomic charge,
    but each is charged on its own notional as it fills, so the fees
    actually paid fall short of the planned charge by about rate² × the
    traded notional, which stays in cash. A sequential fill therefore
    diverges from the atomic one by that term even when no order is
    skipped, and the fifo-vs-reference divergence in the report includes it.
    """
    net_value = value - planned_cost
    targets = w * net_value
    dl = (targets - h * p).tolist()
    sells = [i for i, x in enumerate(dl) if x < 0.0]
    buys = [i for i, x in enumerate(dl) if x > 0.0]
    order = sells + buys if conv.fill_sequencing == FILL_SELLS_FIRST else sorted(sells + buys)
    # Every position but a rejected buy is re-marked to its target share
    # count, untraded ones included, as the atomic reallocation does.
    h_new = targets / p
    executed = np.zeros(len(dl))
    budget = cash
    fees = 0.0
    skipped: list[str] = []
    for i in order:
        di = dl[i]
        fee = trade_cost(abs(di), rate, conv)
        if di > 0.0 and fee > 0.0 and fee > budget:
            h_new[i] = h[i]
            skipped.append(assets[i])
            continue
        budget += -di - fee
        fees += fee
        executed[i] = di
    cash_new = (value - fees) - float(h_new @ p)
    return fees, h_new, cash_new, executed, tuple(skipped)


def run_variant(
    schedule: WeightSchedule,
    prices: PriceMatrix,
    initial_capital: float,
    cost: CostSpec,
    conv: EngineConvention,
    start: int = 0,
    base: EquitySeries | None = None,
) -> EquitySeries:
    """Run the backtest loop under an engine convention.

    Equity is reported for every calendar day from ``start`` onward (fewer
    under a truncation fault). Faults are silent by design; nothing raises
    beyond input validation.

    The loop steps from one rebalance to the next. The days in between are
    marked in one ``np.vecdot`` over the price rows, which reduces each row
    with the same BLAS dot as ``float(h @ p)``, so every equity value is
    bit-identical to marking the days one at a time.

    ``base`` is an earlier run of the same schedule, prices, capital, cost
    and start under another convention. When its ``path_key`` at this rate
    equals ``conv``'s and it covers the days ``conv`` reports, the result is
    derived from it without simulating (see ``_derive``), bit-identical to
    the simulated one. ValueError for a base whose path key differs.
    """
    if initial_capital <= 0:
        raise ValueError("initial capital must be positive")
    if not 0 <= start < prices.n_days:
        raise ValueError(f"start index {start} outside calendar")
    schedule.validate(prices)
    index = prices.date_index()
    entries: dict[int, np.ndarray] = {}
    for date, w in schedule.entries.items():
        t = index[date]
        if t < start:
            raise ValueError(f"rebalance date {date!r} precedes evaluation start")
        entries[t] = w
    if conv.return_timing == TIMING_SHIFT1:
        # One-day execution lag: intended weights trade at next-day prices;
        # a trade pending past the final day is dropped.
        entries = {t + 1: w for t, w in entries.items() if t + 1 < prices.n_days}

    n_eval = prices.n_days - start
    limit = n_eval if conv.truncate_after is None else min(conv.truncate_after, n_eval)
    end = start + limit
    rate = cost.rate
    if base is not None:
        derived = _derive(base, prices, start, end, rate, conv)
        if derived is not None:
            return derived
    atomic = conv.fill_sequencing == FILL_ATOMIC
    gross = conv.equity_reporting == EQUITY_GROSS
    P = prices.prices
    h = np.zeros(prices.n_assets)
    cash = float(initial_capital)
    equity = np.empty(limit)
    trades: list[TradeRecord] = []

    prev = start
    for t in sorted(t for t in entries if t < end):
        if t > prev:
            equity[prev - start : t - start] = cash + np.vecdot(P[prev:t], h)
        w, p = entries[t], P[t]
        value = cash + float(h @ p)
        delta = w * value - h * p
        traded = float(np.abs(delta).sum())
        if atomic:
            fees = trade_cost(traded, rate, conv)
            net_value = value - fees
            h = (w * net_value) / p
            cash = net_value - float(h @ p)
            executed, skipped = delta, ()
        else:
            planned = trade_cost(traded, rate, conv)
            fees, h, cash, executed, skipped = _sequential_fill(
                w, h, cash, p, value, planned, rate, conv, prices.assets
            )
        equity[t - start] = value if gross else value - fees
        trades.append(TradeRecord(prices.dates[t], executed, fees, value, skipped))
        prev = t + 1
    equity[prev - start :] = cash + np.vecdot(P[prev:end], h)

    return EquitySeries(prices.dates[start:end], equity, tuple(trades), conv.id)


def _derive(
    base: EquitySeries,
    prices: PriceMatrix,
    start: int,
    end: int,
    rate: float,
    conv: EngineConvention,
) -> EquitySeries | None:
    """``conv``'s run over days ``[start, end)`` as a view of ``base``.

    The equity is ``base``'s prefix with each rebalance day re-reported from
    its trade record, gross or net of the charge, exactly as the loop
    reports it; the trades are ``base``'s up to ``end``, their deltas made
    read-only because both series share them. None where ``base`` cannot
    give the run: it is shorter, or it is a sequential fill other than
    ``conv``'s (a zero rate puts every fill on one path, but an atomic
    delta of -0.0 is logged as +0.0 by a sequential fill and cannot be
    recovered from it).
    """
    base_conv = EngineConvention.parse(base.engine_id)
    if path_key(base_conv, rate) != path_key(conv, rate):
        raise ValueError(
            f"base {base.engine_id!r} does not simulate the path of {conv.id!r} at rate {rate}"
        )
    if base.dates[:1] != prices.dates[start : start + 1]:
        raise ValueError(f"base starts on {base.dates[:1]}, not on day {start}")
    limit = end - start
    fill = base_conv.fill_sequencing
    if len(base.equity) < limit or fill not in (FILL_ATOMIC, conv.fill_sequencing):
        return None
    index = prices.date_index()
    days = [index[tr.date] - start for tr in base.trades]
    n = bisect_left(days, limit)
    trades = base.trades[:n]
    if fill != conv.fill_sequencing:
        # A sequential fill starts its deltas at +0.0 and writes only the
        # orders it places; + 0.0 turns an atomic -0.0 into that +0.0.
        trades = tuple(replace(tr, deltas=tr.deltas + 0.0) for tr in trades)
    else:
        for tr in trades:
            tr.deltas.setflags(write=False)
    equity = base.equity[:limit].copy()
    if conv.equity_reporting == EQUITY_GROSS:
        equity[days[:n]] = [tr.pre_trade_value for tr in trades]
    else:
        equity[days[:n]] = [tr.pre_trade_value - tr.cost for tr in trades]
    return EquitySeries(base.dates[:limit], equity, trades, conv.id)


def run_reference(
    schedule: WeightSchedule,
    prices: PriceMatrix,
    initial_capital: float,
    cost: CostSpec,
    start: int = 0,
) -> EquitySeries:
    """Reference engine: the backtest loop under the reference convention."""
    return run_variant(schedule, prices, initial_capital, cost, REFERENCE, start)


@dataclass(frozen=True)
class PerfStats:
    """Standard performance statistics of an equity series.

    ``growth`` is the raw final/first equity ratio that the percent fields
    derive from; divergence computations use it so that reporting-basis
    differences show up without market-level scaling.
    """

    total_return_pct: float
    cagr_pct: float
    ann_vol_pct: float
    sharpe: float
    max_drawdown_pct: float
    growth: float
    degenerate_sharpe: bool = False

    METRICS = ("total_return", "cagr", "ann_vol", "sharpe", "max_drawdown")

    def metric(self, name: str) -> float:
        """Metric value in the space used for cross-engine divergence."""
        if name == "total_return":
            return self.growth
        if name == "cagr":
            return self.cagr_pct
        if name == "ann_vol":
            return self.ann_vol_pct
        if name == "sharpe":
            return self.sharpe
        if name == "max_drawdown":
            return self.max_drawdown_pct
        raise KeyError(name)


def performance_metrics(series: EquitySeries) -> PerfStats:
    """Compute performance statistics from the reported equity path.

    The return basis is the first *reported* equity value, so gross- vs
    net-of-cost reporting of the initial construction shows up in total
    return. Sharpe uses a zero risk-free rate and sample-stdev scaling; a
    zero-variance return stream yields sharpe 0 with the degenerate flag.
    """
    eq = series.equity
    if len(eq) < 2:
        raise ValueError("need at least 2 equity points")
    growth = float(eq[-1] / eq[0])
    total_return = (growth - 1.0) * 100.0
    cagr = (growth ** (TRADING_DAYS_PER_YEAR / (len(eq) - 1)) - 1.0) * 100.0
    rets = eq[1:] / eq[:-1] - 1.0
    degenerate = False
    if len(rets) < 2:
        ann_vol = 0.0
        sharpe = 0.0
        degenerate = True
    else:
        sd = float(np.std(rets, ddof=1))
        ann_vol = sd * math.sqrt(TRADING_DAYS_PER_YEAR) * 100.0
        if sd == 0.0:
            sharpe = 0.0
            degenerate = True
        else:
            sharpe = float(np.mean(rets)) / sd * math.sqrt(TRADING_DAYS_PER_YEAR)
    peak = np.maximum.accumulate(eq)
    mdd = float(np.max(1.0 - eq / peak) * 100.0)
    return PerfStats(total_return, cagr, ann_vol, sharpe, mdd, growth, degenerate)


def annual_turnover(series: EquitySeries) -> float:
    """One-sided traded notional over pre-cost value, annualised by 252/(T-1)."""
    if len(series.equity) < 2 or not series.trades:
        return 0.0
    deltas = np.stack([tr.deltas for tr in series.trades])
    pre = np.array([tr.pre_trade_value for tr in series.trades])
    # Row sums reduce each trade's deltas exactly as traded_notional does;
    # the Python sum keeps the left-to-right order over trades.
    total = sum((np.abs(deltas).sum(axis=1) / pre).tolist())
    return float(total * TRADING_DAYS_PER_YEAR / (len(series.equity) - 1))


def cost_intensity(cost: CostSpec, turnover: float) -> float:
    """Composite cost-pressure score: per-trade rate times annual turnover."""
    return cost.rate * turnover
