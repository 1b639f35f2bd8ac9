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
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .marketdata import TRADING_DAYS_PER_YEAR, PriceMatrix, max_drawdown_pct, read_fields, refuse_unless

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
        read_fields(self, BadConvention)
        flags = {"equity_reporting": (EQUITY_POST, EQUITY_GROSS), "rate_interpretation": (RATE_ABS, RATE_DIV100),
                 "fill_sequencing": (FILL_ATOMIC, FILL_FIFO, FILL_SELLS_FIRST),
                 "return_timing": (TIMING_ALIGNED, TIMING_SHIFT1)}
        refuse_unless(self, (
            *((name, getattr(self, name) in ok, " or ".join(map(repr, ok))) for name, ok in flags.items()),
            ("commission_multiplier", self.commission_multiplier >= 1, ">= 1"),
            ("truncate_after", self.truncate_after is None or self.truncate_after >= 1, ">= 1"),
        ), BadConvention)

    @property
    def id(self) -> str:
        """Canonical flag string, e.g. ``post|abs|x1|atomic|aligned|full``: the
        one spelling ``parse`` reads back."""
        trunc = "full" if self.truncate_after is None else f"trunc{self.truncate_after}"
        return "|".join([self.equity_reporting, self.rate_interpretation, f"x{self.commission_multiplier}",
                         self.fill_sequencing, self.return_timing, trunc])

    @classmethod
    def parse(cls, text: str) -> "EngineConvention":
        """The convention whose ``id`` is ``text``; BadConvention for any other string."""
        try:
            eq, rate, mult, fill, timing, trunc = text.split("|")
            conv = cls(eq, rate, int(mult[1:]), fill, timing, None if trunc == "full" else int(trunc[5:]))
        except ValueError as exc:
            raise BadConvention(f"{text!r} is not a convention id: {exc}") from None
        if conv.id != text:
            raise BadConvention(f"{text!r} is not a convention id; its flags read as {conv.id!r}")
        return conv


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


@lru_cache(maxsize=256)
def path_convention(conv: EngineConvention, rate: float) -> EngineConvention:
    """The full-length convention that simulates ``conv``'s holdings path at ``rate``.

    Equity reporting and truncation only change what is reported, so it
    reports net of cost and is never truncated. At a zero rate every fee is
    exactly 0.0, so the rate, multiplier and fill axes drop out as well: it
    is the atomic reference fill on ``conv``'s timing. Two conventions share
    a path at ``rate`` exactly when their path conventions are equal.
    """
    if rate > 0.0:
        return replace(conv, equity_reporting=EQUITY_POST, truncate_after=None)
    return replace(REFERENCE, return_timing=conv.return_timing)


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


@dataclass(frozen=True)
class TradeRecord:
    """Executed trades at one rebalance: signed notional per asset plus the charge.

    The deltas are sized as the fill sizes its orders. An atomic fill logs
    ``w * value - h * p``, sized on the pre-cost value; a sequential fill
    logs the orders it placed, sized on the value net of the planned
    charge. Turnover read from a sequential log is therefore lower than
    the atomic one by about the cost rate, even when no order is skipped.
    """

    date: str
    deltas: np.ndarray
    cost: float
    pre_trade_value: float
    skipped: tuple[str, ...] = ()

    @property
    def traded_notional(self) -> float:
        return float(np.sum(np.abs(self.deltas)))


@dataclass(frozen=True)
class TradeLog:
    """The trades of one run as columns, one row per executed rebalance.

    ``days`` are ascending offsets into the run's dates. ``deltas`` is
    ``(r, n)``; ``cost``, ``pre_trade_value`` and ``skipped`` have one entry
    per row. Each column means what the ``TradeRecord`` field of the same
    name means, deltas sized as described there. The arrays are made
    read-only, so a run derived from another can share them.
    """

    days: np.ndarray
    deltas: np.ndarray
    cost: np.ndarray
    pre_trade_value: np.ndarray
    skipped: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        for column in (self.days, self.deltas, self.cost, self.pre_trade_value):
            column.setflags(write=False)

    def __len__(self) -> int:
        return len(self.days)

    def head(self, count: int) -> "TradeLog":
        """The first ``count`` rows, as views."""
        return TradeLog(
            self.days[:count],
            self.deltas[:count],
            self.cost[:count],
            self.pre_trade_value[:count],
            self.skipped[:count],
        )

    def records(self, dates: tuple[str, ...]) -> tuple[TradeRecord, ...]:
        return tuple(
            map(
                TradeRecord,
                [dates[d] for d in self.days.tolist()],
                self.deltas,
                self.cost.tolist(),
                self.pre_trade_value.tolist(),
                self.skipped,
            )
        )


@dataclass(frozen=True)
class EquitySeries:
    """Daily equity plus the trade log for one run under ``conv``.

    ``trades`` yields the log's rows as ``TradeRecord``s, built on first
    access.
    """

    dates: tuple[str, ...]
    equity: np.ndarray
    log: TradeLog
    conv: EngineConvention

    def __post_init__(self) -> None:
        eq = np.asarray(self.equity, dtype=float)
        eq.setflags(write=False)
        object.__setattr__(self, "equity", eq)
        object.__setattr__(self, "dates", tuple(self.dates))

    @cached_property
    def trades(self) -> tuple[TradeRecord, ...]:
        return self.log.records(self.dates)


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


def _event_weights(
    schedule: WeightSchedule, prices: PriceMatrix, initial_capital: float, start: int
) -> dict[int, np.ndarray]:
    """Run the input checks; the schedule's weights keyed by day index."""
    if initial_capital <= 0:
        raise ValueError("initial capital must be positive")
    if not 0 <= start < prices.n_days:
        raise ValueError(f"start index {start} outside calendar")
    schedule.validate(prices)
    days = list(map(prices.date_index().__getitem__, schedule.entries))
    if days and min(days) < start:
        date = next(date for date, t in zip(schedule.entries, days) if t < start)
        raise ValueError(f"rebalance date {date!r} precedes evaluation start")
    return dict(zip(days, schedule.entries.values()))


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
    beyond input validation. The run is the one row of a ``run_buckets``.

    ``base`` is an earlier run of the same schedule, prices, capital, cost
    and start, such as a row of a ``run_buckets``. The run is then derived
    from it without simulating, bit-identical to the simulated one, or
    ``_derive`` raises a ValueError that says why it cannot be.
    """
    if base is not None:
        _event_weights(schedule, prices, initial_capital, start)
        return _derive(base, prices, start, cost.rate, conv)
    (series,) = run_buckets([schedule], [prices], initial_capital, [(conv, cost.rate)], start)
    if isinstance(series, ValueError):
        raise series
    return series[0]


def run_buckets(
    schedules: Sequence[WeightSchedule],
    prices: Sequence[PriceMatrix],
    initial_capital: float,
    rows: Sequence[tuple[EngineConvention, float]],
    start: int = 0,
) -> tuple[tuple[EquitySeries, ...] | ValueError, ...]:
    """Run B buckets' schedules under the same K ``(convention, rate)`` rows.

    Bucket b's entry holds, for each row, ``run_variant(schedules[b],
    prices[b], initial_capital, CostSpec(rate), conv, start)``, or is the
    ValueError its input checks raise; the other buckets run all the same.
    The rows may differ on every convention axis and in the rate, so a cost
    sweep is just more rows. The rates are checked first, for every bucket
    at once. The buckets must share one calendar and one width (ValueError
    otherwise).

    Rows with equal ``path_convention`` at one rate share a holdings path.
    Each distinct path is simulated once, for every bucket that passes its
    checks in one ``_simulate`` pass, and each row is ``_derive``d from its
    path's run.
    """
    keys = [(path_convention(conv, rate), CostSpec(rate).rate) for conv, rate in rows]
    if len(schedules) != len(prices):
        raise ValueError(f"{len(schedules)} schedules for {len(prices)} price matrices")
    if any(pm.dates != prices[0].dates or pm.n_assets != prices[0].n_assets for pm in prices):
        raise ValueError("buckets must share one calendar and one width")
    paths = list(dict.fromkeys(keys))
    out: list = [None] * len(schedules)
    entries: dict[int, dict[int, np.ndarray]] = {}
    for b, (schedule, pm) in enumerate(zip(schedules, prices)):
        try:
            entries[b] = _event_weights(schedule, pm, initial_capital, start)
        except ValueError as exc:
            out[b] = exc
    if entries:
        ran = _simulate(
            list(entries.values()), [prices[b] for b in entries], initial_capital,
            [conv for conv, _ in paths], [rate for _, rate in paths], start,
        )
        for b, series in zip(entries, ran):
            path = dict(zip(paths, series))
            out[b] = tuple(
                _derive(path[key], prices[b], start, rate, conv)
                for key, (conv, rate) in zip(keys, rows)
            )
    return tuple(out)


def _simulate(
    entries: Sequence[dict[int, np.ndarray]],
    prices: Sequence[PriceMatrix],
    initial_capital: float,
    convs: Sequence[EngineConvention],
    rates: Sequence[float],
    start: int,
) -> tuple[tuple[EquitySeries, ...], ...]:
    """Step the union of every row's event days once, for holdings ``(B, K, n)``.

    Each row is a path: a full-length run reported net of cost, whatever
    its convention's reporting and truncation (``_derive`` applies those).
    Bucket b trades its own weights ``entries[b]`` at its own prices
    ``prices[b]`` under each of the K rows. A row trades on its own event
    days: its bucket's days, or each one day later under shift1, where a
    trade pending past the final day is dropped. On a union day where it
    does not trade, a row keeps its holdings and reports its mark. Per row,
    each step computes what the one-path loop computes, in the same
    floating-point operations: ``np.vecdot`` reduces each row with the same
    BLAS dot as ``float(h @ p)``, and ``np.add.reduce(..., axis=-1)`` sums
    each row as ``.sum()`` sums it (``TestVecdotPremise`` pins both). The
    days between two union days are marked in one ``np.vecdot`` over the
    price rows. A sequential-fill row runs ``_sequential_fill`` on its event
    days, and its fees replace the planned charge.

    The trade log is kept as columns over the union days, deltas
    ``(m, B, K, n)`` beside an activity mask ``(m, B, K)``; each row's
    ``TradeLog`` is one fancy index of them. One tuple of K series per
    bucket.
    """
    P = np.stack([pm.prices for pm in prices], axis=1)
    Pseg = P.transpose(1, 0, 2)[:, None]  # (B, 1, T, n): a segment mark per bucket
    dates, assets = prices[0].dates, [pm.assets for pm in prices]
    B, K, n = len(prices), len(convs), P.shape[2]
    end = len(dates)

    lag = np.array([conv.return_timing == TIMING_SHIFT1 for conv in convs], dtype=np.intp)
    days = [np.array(sorted(e), dtype=np.intp) for e in entries]
    executes = [d + lag[:, None] for d in days]
    # A day mask, not np.unique: its first call imports numpy.ma (about 8 ms).
    on = np.zeros(end - start, dtype=bool)
    for ex in executes:
        on[ex[ex < end] - start] = True
    union = start + np.flatnonzero(on)
    m = len(union)
    W = np.zeros((m, B, K, n))
    active = np.zeros((m, B, K), dtype=bool)
    for b, (e, d, ex) in enumerate(zip(entries, days, executes)):
        weights = np.array([e[t] for t in d.tolist()], dtype=float).reshape(len(d), n)
        kept = ex < end
        k, i = np.nonzero(kept)
        pos = np.searchsorted(union, ex[kept])
        W[pos, b, k] = weights[i]
        active[pos, b, k] = True

    mult = np.array([float(conv.commission_multiplier) for conv in convs])
    rate = np.array(rates, dtype=float)
    divisor = np.array([100.0 if conv.rate_interpretation == RATE_DIV100 else 1.0 for conv in convs])
    sequential = [k for k, conv in enumerate(convs) if conv.fill_sequencing != FILL_ATOMIC]
    fills = [(b, k) for b in range(B) for k in sequential]
    everyone = active.all(axis=(1, 2)).tolist()
    trades_today = active.tolist()

    H = np.zeros((B, K, n))
    cash = np.full((B, K), float(initial_capital))
    equity = np.empty((B, K, end - start))
    deltas, cost, pre = [], [], []
    skipped: dict[tuple[int, int, int], tuple[str, ...]] = {}

    prev = start
    for j, t in enumerate(union.tolist()):
        if t > prev:
            equity[..., prev - start : t - start] = cash[..., None] + np.vecdot(
                Pseg[:, :, prev:t], H[:, :, None, :]
            )
        p, w = P[t][:, None, :], W[j]
        value = cash + np.vecdot(H, p)
        delta = w * value[..., None] - H * p
        fees = mult * (rate * np.add.reduce(np.abs(delta), axis=-1)) / divisor
        net = value - fees
        h_new = (w * net[..., None]) / p
        cash_new = net - np.vecdot(h_new, p)
        for b, k in fills:
            if trades_today[j][b][k]:
                fees[b, k], h_new[b, k], cash_new[b, k], delta[b, k], skipped[j, b, k] = _sequential_fill(
                    w[b, k], H[b, k], float(cash[b, k]), p[b, 0], float(value[b, k]), float(fees[b, k]),
                    rates[k], convs[k], assets[b],
                )
        if everyone[j]:
            H, cash = h_new, cash_new
        else:
            np.copyto(H, h_new, where=active[j, ..., None])
            np.copyto(cash, cash_new, where=active[j])
        deltas.append(delta)
        cost.append(fees)
        pre.append(value)
        prev = t + 1
    equity[..., prev - start :] = cash[..., None] + np.vecdot(Pseg[:, :, prev:end], H[:, :, None, :])
    deltas = np.array(deltas).reshape(m, B, K, n)
    cost = np.array(cost).reshape(m, B, K)
    pre = np.array(pre).reshape(m, B, K)
    # A row reports net of the charge on the days it trades, else its mark.
    equity[..., union - start] = np.where(active, pre - cost, pre).transpose(1, 2, 0)

    out = []
    for b in range(B):
        bucket = []
        for k, conv in enumerate(convs):
            rows = np.flatnonzero(active[:, b, k])
            if k in sequential:
                names = tuple(skipped.get((j, b, k), ()) for j in rows.tolist())
            else:
                names = ((),) * len(rows)
            log = TradeLog(union[rows] - start, deltas[rows, b, k], cost[rows, b, k], pre[rows, b, k], names)
            bucket.append(EquitySeries(dates[start:], equity[b, k], log, conv))
        out.append(tuple(bucket))
    return tuple(out)


def _derive(
    base: EquitySeries,
    prices: PriceMatrix,
    start: int,
    rate: float,
    conv: EngineConvention,
) -> EquitySeries:
    """``conv``'s run from ``start`` at ``rate``, as a view of ``base``, a run
    on its path. The one place a convention's reporting and truncation apply.

    The run reports its first ``limit`` days (all of them, or the
    truncation's count). Its equity is ``base``'s prefix with each
    rebalance day re-reported from the trade log, gross or net of the
    charge, exactly as the loop reports it, in one fancy-index assignment;
    the log is ``base``'s first rows up to the last day, its read-only
    columns shared. ``base`` itself when it already is that run. ValueError
    where ``base`` cannot give the run: it is on another path, starts on
    another day, is shorter, or is a sequential fill other than ``conv``'s
    (a zero rate puts every fill on one path, but an atomic delta of -0.0
    is logged as +0.0 by a sequential fill and cannot be recovered from it).
    """
    if path_convention(base.conv, rate) != path_convention(conv, rate):
        raise ValueError(
            f"base {base.conv.id!r} does not simulate the path of {conv.id!r} at rate {rate}"
        )
    if base.dates[:1] != prices.dates[start : start + 1]:
        raise ValueError(f"base starts on {base.dates[:1]}, not on day {start}")
    limit = prices.n_days - start
    if conv.truncate_after is not None:
        limit = min(conv.truncate_after, limit)
    if len(base.equity) < limit:
        raise ValueError(f"base reports {len(base.equity)} days, {conv.id!r} reports {limit}")
    fill = base.conv.fill_sequencing
    if fill not in (FILL_ATOMIC, conv.fill_sequencing):
        raise ValueError(f"a {fill} fill cannot give the {conv.fill_sequencing} fill's trade log")
    if base.conv == conv and len(base.equity) == limit:
        return base
    log = base.log.head(int(np.searchsorted(base.log.days, limit)))
    if fill != conv.fill_sequencing:
        # A sequential fill starts its deltas at +0.0 and writes only the
        # orders it places; + 0.0 turns an atomic -0.0 into that +0.0.
        log = replace(log, deltas=log.deltas + 0.0)
    equity = base.equity[:limit].copy()
    if conv.equity_reporting == EQUITY_GROSS:
        equity[log.days] = log.pre_trade_value
    else:
        equity[log.days] = log.pre_trade_value - log.cost
    return EquitySeries(base.dates[:limit], equity, log, conv)


@dataclass(frozen=True)
class PerfStats:
    """Standard performance statistics of an equity series.

    ``growth`` is the raw final/first equity ratio that the percent fields
    derive from; divergence computations use it so that reporting-basis
    differences show up without market-level scaling. ``cagr_pct`` is NaN
    when ``growth`` is negative: a negative ratio has no real annual root.
    """

    total_return_pct: float
    cagr_pct: float
    ann_vol_pct: float
    sharpe: float
    max_drawdown_pct: float
    growth: float
    degenerate_sharpe: bool = False

    #: The field each divergence metric reads.
    METRIC_FIELDS = {
        "total_return": "growth",
        "cagr": "cagr_pct",
        "ann_vol": "ann_vol_pct",
        "sharpe": "sharpe",
        "max_drawdown": "max_drawdown_pct",
    }
    METRICS = tuple(METRIC_FIELDS)

    def metric(self, name: str) -> float:
        """Metric value in the space used for cross-engine divergence."""
        return getattr(self, self.METRIC_FIELDS[name])


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
    cagr = (growth ** (TRADING_DAYS_PER_YEAR / (len(eq) - 1)) - 1.0) * 100.0 if growth >= 0 else math.nan
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
    return PerfStats(total_return, cagr, ann_vol, sharpe, max_drawdown_pct(eq), growth, degenerate)


def annual_turnover(series: EquitySeries) -> float:
    """One-sided traded notional over pre-cost value, annualised by 252/(T-1)."""
    log = series.log
    if len(series.equity) < 2 or not len(log):
        return 0.0
    # Row sums reduce each trade's deltas exactly as traded_notional does.
    # The loop adds the trades left to right on every Python version; the
    # builtin sum() compensates its float adds from Python 3.12 on.
    total = 0.0
    for ratio in (np.abs(log.deltas).sum(axis=1) / log.pre_trade_value).tolist():
        total += ratio
    return float(total * TRADING_DAYS_PER_YEAR / (len(series.equity) - 1))


def cost_intensity(cost: CostSpec, turnover: float) -> float:
    """Composite cost-pressure score: per-trade rate times annual turnover."""
    return cost.rate * turnover
