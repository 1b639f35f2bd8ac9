"""Metamorphic relations between engine conventions on random backtests.

Each test runs the same drawn (prices, schedule, rate, capital) two ways and
checks the relation the paper uses to tell engines apart: a convention that
should not matter must not, and one that should must move the result in
exactly the documented way.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crossbt.engine import (
    CONVENTIONS,
    EQUITY_GROSS,
    EQUITY_POST,
    FILL_ATOMIC,
    FILL_FIFO,
    FILL_SELLS_FIRST,
    RATE_ABS,
    RATE_DIV100,
    REFERENCE,
    TIMING_ALIGNED,
    TIMING_SHIFT1,
    CostSpec,
    EngineConvention,
    WeightSchedule,
    annual_turnover,
    path_convention,
    run_variant,
    truncated,
)
from crossbt.marketdata import TRADING_DAYS_PER_YEAR, PriceMatrix

from oracles import backtest_loop, run_variant_per_day
from test_engine import assert_same_run, base_refusal

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def backtests(draw, rebalances=None):
    """A small price panel, a valid schedule on it, a cost rate and a capital.

    ``rebalances`` fixes the number of schedule entries; by default any
    subset of days rebalances. Weights of -0.0 appear as whole -0.0 entries
    and, in some cases, mixed into invested ones.
    """
    n_assets = draw(st.integers(1, 5))
    n_days = draw(st.integers(2, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        prices = np.exp(rng.uniform(0.0, np.log(1000.0), size=(n_days, n_assets)))
    else:
        steps = rng.normal(0.0, 0.03, size=(n_days, n_assets))
        prices = 50.0 * np.exp(np.cumsum(steps, axis=0))
    pm = PriceMatrix(
        tuple(str(i + 1) for i in range(n_days)),
        tuple(f"A{i}" for i in range(n_assets)),
        prices,
    )
    size = {} if rebalances is None else {"min_size": rebalances, "max_size": rebalances}
    days = draw(st.sets(st.integers(0, n_days - 1), **size))
    signed_zeros = draw(st.booleans())
    entries = {}
    for t in sorted(days):
        invested = draw(st.sampled_from([0.0, -0.0, 1.0, float(rng.uniform())]))
        raw = rng.uniform(size=n_assets)
        w = raw / raw.sum() * invested
        if signed_zeros:
            w[rng.uniform(size=n_assets) < 0.4] = -0.0
        entries[pm.dates[t]] = w
    rate = draw(st.sampled_from([0.0, 0.05, float(rng.uniform(0.0, 0.05))]))
    capital = draw(st.floats(1.0, 1e7))
    return pm, WeightSchedule(entries), rate, capital


def _run(case, conv=REFERENCE, rate=None, capital=None):
    pm, schedule, case_rate, case_capital = case
    rate = case_rate if rate is None else rate
    capital = case_capital if capital is None else capital
    return run_variant(schedule, pm, capital, CostSpec(rate), conv)


# Every convention but the timing and truncation axes, which change the dates.
ALIGNED_CONVENTIONS = [
    replace(REFERENCE, equity_reporting=eq, rate_interpretation=rate, commission_multiplier=k,
            fill_sequencing=fill)
    for eq in (EQUITY_POST, EQUITY_GROSS)
    for rate in (RATE_ABS, RATE_DIV100)
    for k in (1, 3)
    for fill in (FILL_ATOMIC, FILL_FIFO, FILL_SELLS_FIRST)
]


@given(case=backtests())
@SETTINGS
def test_zero_cost_collapses_every_convention_to_the_reference(case):
    reference = _run(case, rate=0.0).equity
    for conv in ALIGNED_CONVENTIONS:
        assert np.array_equal(_run(case, conv, rate=0.0).equity, reference), conv.id


@given(case=backtests())
@SETTINGS
def test_div100_charges_one_hundredth_on_each_trades_own_notional(case):
    rate = case[2]
    series = _run(case, CONVENTIONS["percent_divided"])
    for tr in series.trades:
        assert tr.cost == rate * tr.traded_notional / 100.0


@given(case=backtests(), k=st.integers(2, 5))
@SETTINGS
def test_multiplier_charges_k_times_on_each_trades_own_notional(case, k):
    rate = case[2]
    series = _run(case, replace(REFERENCE, commission_multiplier=k))
    for tr in series.trades:
        assert tr.cost == k * (rate * tr.traded_notional)
    reference = _run(case)
    if series.trades:
        # The first rebalance trades out of cash, so both runs trade the same notional.
        assert series.trades[0].traded_notional == reference.trades[0].traded_notional
        assert series.trades[0].cost == k * reference.trades[0].cost


@given(case=backtests())
@SETTINGS
def test_shift1_equals_the_reference_on_the_rekeyed_schedule(case):
    pm, schedule, rate, capital = case
    index = pm.date_index()
    rekeyed = WeightSchedule(
        {pm.dates[index[d] + 1]: w for d, w in schedule.entries.items() if index[d] + 1 < pm.n_days}
    )
    shifted = _run(case, CONVENTIONS["shifted_one_day"])
    expected = run_variant(rekeyed, pm, capital, CostSpec(rate), REFERENCE)
    assert np.array_equal(shifted.equity, expected.equity)
    assert [tr.date for tr in shifted.trades] == [tr.date for tr in expected.trades]


@given(case=backtests(), days=st.integers(1, 35))
@SETTINGS
def test_truncation_is_a_prefix_of_the_full_run(case, days):
    full = _run(case)
    cut = _run(case, truncated(days))
    assert len(cut.equity) == min(days, len(full.equity))
    assert np.array_equal(cut.equity, full.equity[: len(cut.equity)])
    assert cut.dates == full.dates[: len(cut.equity)]


@given(case=backtests(), days=st.integers(1, 35))
@settings(max_examples=30, deadline=None)
def test_a_run_derived_from_a_base_on_its_path_equals_the_simulated_run(case, days):
    # Every pair of conventions over every axis (both cost axes moved at
    # once): where the path conventions agree the base yields the per-day
    # loop's run bit for bit, unless it is shorter or another sequential
    # fill, and where they differ the base is an error.
    pm, schedule, rate, capital = case
    convs = [
        EngineConvention(eq, rate_mode, k, fill, timing, trunc)
        for eq in (EQUITY_POST, EQUITY_GROSS)
        for rate_mode, k in ((RATE_ABS, 1), (RATE_DIV100, 3))
        for fill in (FILL_ATOMIC, FILL_FIFO, FILL_SELLS_FIRST)
        for timing in (TIMING_ALIGNED, TIMING_SHIFT1)
        for trunc in (None, days)
    ]
    runs = {conv: _run(case, conv) for conv in convs}
    for conv in convs:
        args = (schedule, pm, capital, CostSpec(rate), conv)
        want = run_variant_per_day(*args)
        for base_conv, base in runs.items():
            if path_convention(conv, rate) != path_convention(base_conv, rate):
                refusal = "does not simulate the path"
            else:
                refusal = base_refusal(base, want)
            if refusal is None:
                assert_same_run(run_variant(*args, base=base), want)
            else:
                with pytest.raises(ValueError, match=refusal):
                    run_variant(*args, base=base)


@given(case=backtests())
@SETTINGS
def test_order_of_unskipped_fills_does_not_matter(case):
    fifo = _run(case, CONVENTIONS["fifo_sequential"])
    sells_first = _run(case, CONVENTIONS["sells_first"])
    assume(not any(tr.skipped for tr in fifo.trades + sells_first.trades))
    np.testing.assert_allclose(fifo.equity, sells_first.equity, rtol=1e-12, atol=0.0)


@given(case=backtests(rebalances=1), fill=st.sampled_from(["fifo_sequential", "sells_first"]))
@SETTINGS
def test_unskipped_sequential_fill_is_atomic_plus_the_unspent_fee(case, fill):
    # Per-order fees are charged on the fills, which are sized after the
    # planned atomic charge, so they fall short of it at second order in the
    # rate; the shortfall stays in cash. With one rebalance both fills land
    # on the same holdings, so the equity gap is that shortfall from then on.
    pm, schedule, rate, capital = case
    sequential = _run(case, CONVENTIONS[fill])
    assume(not sequential.trades[0].skipped)
    atomic = _run(case)
    shortfall = atomic.trades[0].cost - sequential.trades[0].cost
    assert 0.0 <= shortfall <= rate * atomic.trades[0].cost + 1e-12 * capital
    t = pm.date_index()[sequential.trades[0].date]
    assert np.array_equal(sequential.equity[:t], atomic.equity[:t])
    np.testing.assert_allclose(
        sequential.equity[t:] - atomic.equity[t:], shortfall, rtol=0.0, atol=1e-12 * capital
    )


@given(case=backtests(), j=st.integers(-4, 8))
@SETTINGS
def test_scaling_capital_by_a_power_of_two_scales_equity_exactly(case, j):
    capital = case[3]
    for conv in ALIGNED_CONVENTIONS:
        base = _run(case, conv).equity
        scaled = _run(case, conv, capital=capital * 2.0**j).equity
        assert np.array_equal(scaled, base * 2.0**j), conv.id


@given(case=backtests())
@SETTINGS
def test_reference_matches_the_list_oracle(case):
    pm, schedule, rate, capital = case
    index = pm.date_index()
    plan = {index[d]: [float(x) for x in w] for d, w in schedule.entries.items()}
    expected = backtest_loop(pm.prices.tolist(), plan, capital, rate)
    np.testing.assert_allclose(_run(case).equity, expected, rtol=1e-12, atol=0.0)


@given(case=backtests(), conv=st.sampled_from(sorted(CONVENTIONS)))
@SETTINGS
def test_turnover_equals_the_per_trade_sum(case, conv):
    series = _run(case, CONVENTIONS[conv])
    # Left to right, as on Python 3.11: from 3.12 the builtin sum() of
    # floats is compensated and would not be this oracle.
    per_trade = 0.0
    for tr in series.trades:
        per_trade += tr.traded_notional / tr.pre_trade_value
    if len(series.equity) < 2:
        assert annual_turnover(series) == 0.0
    else:
        assert annual_turnover(series) == float(
            per_trade * TRADING_DAYS_PER_YEAR / (len(series.equity) - 1)
        )
