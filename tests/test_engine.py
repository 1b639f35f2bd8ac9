import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossbt import engine as enginemod
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
    BadConvention,
    CostSpec,
    EngineConvention,
    EquitySeries,
    TradeLog,
    WeightSchedule,
    annual_turnover,
    cost_intensity,
    path_convention,
    performance_metrics,
    resolve_convention,
    run_buckets,
    run_variant,
    trade_cost,
    truncated,
)
from crossbt.marketdata import PriceMatrix, SynthSpec, generate_synthetic
from crossbt.strategies import equal_weight, rotation

from oracles import backtest_loop, run_variant_per_day


@pytest.fixture
def half_half(tiny_panel):
    return WeightSchedule({"1": np.array([0.5, 0.5])})


class TestReferenceLoop:
    def test_worked_example(self, tiny_panel, half_half):
        series = run_variant(half_half, tiny_panel, 1000.0, CostSpec(0.01), REFERENCE)
        assert series.equity == pytest.approx([990.0, 1014.75, 1039.5], rel=1e-12)

    def test_zero_cost_example(self, tiny_panel, half_half):
        series = run_variant(half_half, tiny_panel, 1000.0, CostSpec(0.0), REFERENCE)
        assert series.equity == pytest.approx([1000.0, 1025.0, 1050.0], rel=1e-12)

    def test_empty_schedule_is_all_cash(self, tiny_panel):
        series = run_variant(WeightSchedule({}), tiny_panel, 777.0, CostSpec(0.01), REFERENCE)
        assert np.all(series.equity == 777.0)
        assert series.trades == ()

    def test_cash_accounting_identity(self, small_universe):
        sched = equal_weight(small_universe)
        series = run_variant(sched, small_universe, 1e6, CostSpec(0.0018), REFERENCE)
        index = {d: i for i, d in enumerate(series.dates)}
        for tr in series.trades:
            net = tr.pre_trade_value - tr.cost
            assert series.equity[index[tr.date]] == pytest.approx(net, rel=1e-9)

    def test_cost_conservation_exact(self, small_universe):
        rate = 0.0018
        sched = rotation(small_universe, k=3)
        series = run_variant(sched, small_universe, 1e6, CostSpec(rate), REFERENCE)
        for tr in series.trades:
            assert tr.cost == 1 * (rate * float(np.sum(np.abs(tr.deltas))))

    def test_matches_literal_loop_on_random_instances(self):
        # Independent transcription over plain Python lists, 100 instances.
        rng = np.random.default_rng(1234)
        for _ in range(100):
            n_assets = int(rng.integers(1, 4))
            n_days = int(rng.integers(2, 6))
            prices = rng.uniform(5.0, 200.0, size=(n_days, n_assets))
            pm = PriceMatrix(tuple(str(i) for i in range(n_days)),
                             tuple(f"A{i}" for i in range(n_assets)), prices)
            schedule = {}
            for t in range(n_days):
                if rng.random() < 0.6:
                    raw = rng.dirichlet(np.ones(n_assets + 1))
                    schedule[t] = raw[:n_assets]
            rate = float(rng.uniform(0.0, 0.02))
            c0 = float(rng.uniform(100.0, 1e6))
            sched = WeightSchedule({str(t): w for t, w in schedule.items()})
            mine = run_variant(sched, pm, c0, CostSpec(rate), REFERENCE)
            theirs = backtest_loop(
                [list(row) for row in prices],
                {t: list(w) for t, w in schedule.items()},
                c0,
                rate,
            )
            assert mine.equity == pytest.approx(theirs, rel=1e-12)

    @given(rates=st.lists(st.floats(0.0, 0.05), min_size=2, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_total_return_non_increasing_in_rate(self, rates):
        pm = generate_synthetic(SynthSpec(n_assets=4, n_days=120, seed=8, annual_vol=0.2))
        sched = equal_weight(pm)
        results = []
        for rate in sorted(rates):
            series = run_variant(sched, pm, 1e6, CostSpec(rate), REFERENCE)
            results.append((rate, performance_metrics(series).total_return_pct))
        for (r1, tr1), (r2, tr2) in zip(results, results[1:]):
            if r2 > r1:
                assert tr2 <= tr1 + 1e-12


_EQUITY = (EQUITY_POST, EQUITY_GROSS)
_RATES = (RATE_ABS, RATE_DIV100)
_FILLS = (FILL_ATOMIC, FILL_FIFO, FILL_SELLS_FIRST)
_TIMINGS = (TIMING_ALIGNED, TIMING_SHIFT1)
#: The characters int() may read in a count: digits, signs, separators and a
#: non-ASCII digit.
_COUNT_CHARS = "0123456789_+-. \u0662"
#: Every letter of the id grammar, the count characters and the separator.
_GRAMMAR_CHARS = "".join(sorted(set("".join((*_EQUITY, *_RATES, *_FILLS, *_TIMINGS, "x", "trunc", "full")))))
_GRAMMAR_CHARS += _COUNT_CHARS + "|"


def _counted(prefix):
    return st.text(_COUNT_CHARS, max_size=4).map(prefix.__add__)


#: Six-flag strings whose counts are any short run of count characters, so
#: most read as an int and only some are spelled as the id spells them.
_NEAR_IDS = st.tuples(
    st.sampled_from(_EQUITY), st.sampled_from(_RATES), _counted("x"),
    st.sampled_from(_FILLS), st.sampled_from(_TIMINGS), st.just("full") | _counted("trunc"),
).map("|".join)


class TestConventions:
    def test_reference_id_string(self):
        assert REFERENCE.id == "post|abs|x1|atomic|aligned|full"

    def test_parse_roundtrip(self):
        for conv in CONVENTIONS.values():
            assert EngineConvention.parse(conv.id) == conv
        trunc = truncated(62)
        assert trunc.id.endswith("|trunc62")
        assert EngineConvention.parse(trunc.id) == trunc

    @given(st.builds(
        EngineConvention,
        st.sampled_from(_EQUITY), st.sampled_from(_RATES), st.integers(1, 10**6),
        st.sampled_from(_FILLS), st.sampled_from(_TIMINGS), st.none() | st.integers(1, 10**6),
    ))
    def test_parse_inverts_id(self, conv):
        assert EngineConvention.parse(conv.id) == conv

    @settings(max_examples=300)
    @given(st.text(_GRAMMAR_CHARS) | _NEAR_IDS)
    def test_parse_reads_only_ids(self, text):
        # Every string parse accepts is the id of what it returns, so no two
        # spellings name one convention.
        try:
            conv = EngineConvention.parse(text)
        except BadConvention:
            return
        assert conv.id == text

    @pytest.mark.parametrize("flag", ["x2_0", "x02", "x 2", "x+3", "x\u0662", "x0", "X2", "y2", "x"])
    def test_non_canonical_multiplier_refused(self, flag):
        text = f"post|abs|{flag}|atomic|aligned|full"
        with pytest.raises(BadConvention, match=re.escape(repr(text))):
            EngineConvention.parse(text)

    @pytest.mark.parametrize("flag", ["trunc 5", "trunc05", "trunc1_000", "trunc0", "trunc", "Full", "5"])
    def test_non_canonical_truncation_refused(self, flag):
        with pytest.raises(BadConvention):
            EngineConvention.parse(f"post|abs|x1|atomic|aligned|{flag}")

    @pytest.mark.parametrize("field, value", [
        ("commission_multiplier", True),
        ("commission_multiplier", 2.0),
        ("commission_multiplier", np.int64(2)),
        ("truncate_after", True),
        ("truncate_after", 5.5),
        ("truncate_after", "5"),
    ])
    def test_non_int_count_refused(self, field, value):
        # A bool would write x True yet hash equal to x1, and a float would
        # write an id that parse refuses; each is refused when built.
        with pytest.raises(BadConvention, match=f"^{field} must be an int, got "):
            EngineConvention(**{field: value})

    def test_resolve_names_and_strings(self):
        assert resolve_convention("reference") == REFERENCE
        assert resolve_convention("post|abs|x1|atomic|aligned|full") == REFERENCE

    def test_reference_flags_identical_run(self, tiny_panel, half_half):
        a = run_variant(half_half, tiny_panel, 1000.0, CostSpec(0.01), REFERENCE)
        flags = resolve_convention("post|abs|x1|atomic|aligned|full")
        b = run_variant(half_half, tiny_panel, 1000.0, CostSpec(0.01), flags)
        assert np.array_equal(a.equity, b.equity)

    def test_pre_trade_reports_gross_equity(self, tiny_panel, half_half):
        ref = run_variant(half_half, tiny_panel, 1000.0, CostSpec(0.01), REFERENCE)
        pre = run_variant(half_half, tiny_panel, 1000.0, CostSpec(0.01), CONVENTIONS["pre_trade"])
        assert pre.equity[0] == 1000.0
        assert ref.equity[0] == pytest.approx(990.0, rel=1e-12)
        rel = abs(pre.equity[0] - ref.equity[0]) / ref.equity[0]
        assert rel * 100 == pytest.approx(0.01 / 0.99 * 100, rel=1e-12)
        # Internal state is unaffected by the reporting convention.
        assert np.array_equal(pre.equity[1:], ref.equity[1:])

    def test_percent_divided_day_one_cost(self, tiny_panel, half_half):
        # Input rate 0.01 -> day-1 charge 0.1 instead of 10 (100x undercharge).
        ref = run_variant(half_half, tiny_panel, 1000.0, CostSpec(0.01), REFERENCE)
        pdiv = run_variant(
            half_half, tiny_panel, 1000.0, CostSpec(0.01), CONVENTIONS["percent_divided"]
        )
        assert ref.trades[0].cost == pytest.approx(10.0, rel=1e-12)
        assert pdiv.trades[0].cost == pytest.approx(0.1, rel=1e-12)
        assert pdiv.trades[0].cost == ref.trades[0].cost / 100.0

    def test_double_commission_day_one_cost(self, tiny_panel, half_half):
        ref = run_variant(half_half, tiny_panel, 1000.0, CostSpec(0.01), REFERENCE)
        dbl = run_variant(
            half_half, tiny_panel, 1000.0, CostSpec(0.01), CONVENTIONS["double_commission"]
        )
        assert dbl.trades[0].cost == 2.0 * ref.trades[0].cost

    def test_zero_cost_collapse_bitwise(self, small_universe):
        # Every aligned, untruncated convention must be bit-identical to the
        # reference when the rate is zero, including sequencing variants on a
        # rotation schedule whose buys precede their funding sells.
        for sched in (equal_weight(small_universe), rotation(small_universe, k=3)):
            ref = run_variant(sched, small_universe, 1e6, CostSpec(0.0), REFERENCE)
            for name, conv in CONVENTIONS.items():
                if conv.return_timing != "aligned":
                    continue
                var = run_variant(sched, small_universe, 1e6, CostSpec(0.0), conv)
                assert np.array_equal(var.equity, ref.equity), name

    def test_floor_formula_first_day(self, small_universe):
        # Fully invested first rebalance: gross-vs-net first-day equity gap
        # is exactly rate/(1-rate) of the net value.
        rate = 0.0018
        sched = equal_weight(small_universe)
        ref = run_variant(sched, small_universe, 1e6, CostSpec(rate), REFERENCE)
        pre = run_variant(sched, small_universe, 1e6, CostSpec(rate), CONVENTIONS["pre_trade"])
        rel = (pre.equity[0] - ref.equity[0]) / ref.equity[0]
        assert rel == pytest.approx(rate / (1 - rate), rel=1e-9)

    def test_fifo_rejects_fee_starved_buys(self, small_universe):
        rate = 0.0018
        sched = rotation(small_universe, k=3)
        ref = run_variant(sched, small_universe, 1e6, CostSpec(rate), REFERENCE)
        fifo = run_variant(
            sched, small_universe, 1e6, CostSpec(rate), CONVENTIONS["fifo_sequential"]
        )
        skipped = [tr for tr in fifo.trades if tr.skipped]
        assert skipped, "rotation under fifo sequencing should reject some buys"
        assert not np.allclose(fifo.equity, ref.equity)
        # Skipped assets keep their old positions: logged deltas are zero.
        first = skipped[0]
        for asset in first.skipped:
            i = small_universe.assets.index(asset)
            assert first.deltas[i] == 0.0

    def test_sells_first_never_rejects_long_only(self, small_universe):
        rate = 0.0018
        for sched in (equal_weight(small_universe), rotation(small_universe, k=3)):
            sf = run_variant(
                sched, small_universe, 1e6, CostSpec(rate), CONVENTIONS["sells_first"]
            )
            assert all(not tr.skipped for tr in sf.trades)
            ref = run_variant(sched, small_universe, 1e6, CostSpec(rate), REFERENCE)
            # Per-order fees on actual fills differ from the atomic charge
            # only at second order in the rate, accumulating to about
            # rate^2 * total relative turnover over the run.
            assert np.allclose(sf.equity, ref.equity, rtol=2e-4)

    def test_shifted_one_day_trades_next_day_prices(self, tiny_panel, half_half):
        shifted = run_variant(
            half_half, tiny_panel, 1000.0, CostSpec(0.0), CONVENTIONS["shifted_one_day"]
        )
        # Day 1: still cash. Day 2: buys at day-2 prices; day 3 marks to market.
        assert shifted.equity[0] == 1000.0
        assert shifted.equity[1] == pytest.approx(1000.0, rel=1e-12)
        expected_day3 = 500.0 / 11.0 * 12.0 + 500.0 / 19.0 * 18.0
        assert shifted.equity[2] == pytest.approx(expected_day3, rel=1e-12)

    def test_shifted_drops_final_pending_trade(self, tiny_panel):
        sched = WeightSchedule({"3": np.array([1.0, 0.0])})
        shifted = run_variant(
            sched, tiny_panel, 1000.0, CostSpec(0.01), CONVENTIONS["shifted_one_day"]
        )
        assert shifted.trades == ()
        assert np.all(shifted.equity == 1000.0)

    def test_shifted_daily_schedule_lags_without_collisions(self):
        # Every daily entry moves one day later; the final pending trade drops.
        pm = generate_synthetic(SynthSpec(n_assets=3, n_days=10, seed=0, annual_vol=0.3))
        from crossbt.strategies import binary_switch

        sched = binary_switch(pm, a=0, b=1)
        ref = run_variant(sched, pm, 1000.0, CostSpec(0.0), REFERENCE)
        shifted = run_variant(sched, pm, 1000.0, CostSpec(0.0), CONVENTIONS["shifted_one_day"])
        assert len(ref.trades) == 10
        assert len(shifted.trades) == 9
        assert [tr.date for tr in shifted.trades] == [tr.date for tr in ref.trades][1:]

    def test_explicit_zero_entry_liquidates(self):
        pm = generate_synthetic(SynthSpec(n_assets=2, n_days=6, seed=1, annual_vol=0.2))
        sched = WeightSchedule(
            {pm.dates[0]: np.array([0.5, 0.5]), pm.dates[2]: np.zeros(2)}
        )
        series = run_variant(sched, pm, 1000.0, CostSpec(0.01), REFERENCE)
        liquidation = series.trades[1]
        assert liquidation.cost > 0.0
        assert np.all(liquidation.deltas <= 0.0)
        # All cash afterwards: equity is flat.
        assert np.all(series.equity[2:] == series.equity[2])

    def test_cash_identity_on_random_schedules(self):
        # Post-trade equity equals cash + holdings value on every day, for
        # arbitrary long-only schedules with cash remainders.
        rng = np.random.default_rng(55)
        for _ in range(20):
            n_assets = int(rng.integers(1, 5))
            n_days = int(rng.integers(3, 30))
            prices = rng.uniform(5, 300, size=(n_days, n_assets))
            pm = PriceMatrix(
                tuple(str(i) for i in range(n_days)),
                tuple(f"A{i}" for i in range(n_assets)),
                prices,
            )
            entries = {}
            for t in range(n_days):
                if rng.random() < 0.4:
                    entries[str(t)] = rng.dirichlet(np.ones(n_assets + 1))[:n_assets]
            sched = WeightSchedule(entries)
            for conv in CONVENTIONS.values():
                series = run_variant(sched, pm, 1e5, CostSpec(0.002), conv)
                index = {d: i for i, d in enumerate(series.dates)}
                for tr in series.trades:
                    if conv.equity_reporting == "post":
                        expected = tr.pre_trade_value - tr.cost
                    else:
                        expected = tr.pre_trade_value
                    assert series.equity[index[tr.date]] == pytest.approx(expected, rel=1e-9)

    def test_truncation_stops_silently(self, small_universe):
        sched = equal_weight(small_universe)
        conv = truncated(62)
        series = run_variant(sched, small_universe, 1e6, CostSpec(0.0018), conv)
        assert len(series.equity) == 62
        assert len(series.dates) == 62

    def test_faults_do_not_raise(self, small_universe):
        sched = rotation(small_universe, k=3)
        for conv in CONVENTIONS.values():
            run_variant(sched, small_universe, 1e6, CostSpec(0.006), conv)


class TestPathKey:
    """Which conventions share a simulated path, and how a run derived from
    one behaves; ``test_engine_metamorphic`` checks every derivation bit for
    bit."""

    def test_zero_rate_leaves_only_the_timing(self):
        for name, conv in CONVENTIONS.items():
            same = name != "shifted_one_day"
            assert (path_convention(conv, 0.0) == REFERENCE) == same, name
        shifted = CONVENTIONS["shifted_one_day"]
        assert path_convention(replace(shifted, fill_sequencing=FILL_FIFO), 0.0) == shifted

    def test_positive_rate_keeps_the_cost_and_fill_axes(self):
        shared = {"reference", "pre_trade"}
        for name, conv in CONVENTIONS.items():
            assert path_convention(conv, 1e-4) == (REFERENCE if name in shared else conv), name
        assert path_convention(truncated(5, CONVENTIONS["pre_trade"]), 1e-4) == REFERENCE

    @pytest.fixture
    def daily(self, small_universe):
        return equal_weight(small_universe, start=30, freq="daily")

    def test_base_that_cannot_give_the_run_raises(self, small_universe, daily):
        args = (daily, small_universe, 1e6, CostSpec(0.0018))
        base = run_variant(*args, truncated(40), 30)
        with pytest.raises(ValueError, match="base reports 40 days"):
            run_variant(*args, CONVENTIONS["pre_trade"], 30, base=base)
        # At a zero rate every fill shares one path, but a sequential fill's
        # log cannot give another fill's.
        args = (daily, small_universe, 1e6, CostSpec(0.0))
        base = run_variant(*args, CONVENTIONS["fifo_sequential"], 30)
        for conv in (REFERENCE, CONVENTIONS["sells_first"]):
            with pytest.raises(ValueError, match="fifo fill cannot give"):
                run_variant(*args, conv, 30, base=base)

    def test_base_on_another_start_or_path_raises(self, small_universe, daily):
        args = (daily, small_universe, 1e6, CostSpec(0.0018))
        base = run_variant(*args, REFERENCE, 20)
        with pytest.raises(ValueError, match="not on day 30"):
            run_variant(*args, CONVENTIONS["pre_trade"], 30, base=base)
        base = run_variant(*args, REFERENCE, 30)
        with pytest.raises(ValueError, match="does not simulate the path"):
            run_variant(*args, CONVENTIONS["fifo_sequential"], 30, base=base)

    def test_rows_on_one_path_reach_the_simulation_as_one_row(self, small_universe, daily, monkeypatch):
        simulate = enginemod._simulate
        passes = []

        def spy(entries, prices, capital, convs, rates, start):
            passes.append(list(zip(convs, rates)))
            return simulate(entries, prices, capital, convs, rates, start)

        monkeypatch.setattr(enginemod, "_simulate", spy)
        fifo, shifted = CONVENTIONS["fifo_sequential"], CONVENTIONS["shifted_one_day"]
        rows = [(REFERENCE, 0.0018), (CONVENTIONS["pre_trade"], 0.0018), (truncated(40), 0.0018),
                (fifo, 0.0018), (REFERENCE, 0.0), (CONVENTIONS["pre_trade"], 0.0), (truncated(40), 0.0),
                (fifo, 0.0), (shifted, 0.0), (truncated(40, shifted), 0.0)]
        (got,) = run_buckets([daily], [small_universe], 1e6, rows, 30)
        assert passes == [[(REFERENCE, 0.0018), (fifo, 0.0018), (REFERENCE, 0.0), (shifted, 0.0)]]
        for series, (conv, rate) in zip(got, rows):
            assert_same_run(series, run_variant_per_day(daily, small_universe, 1e6, CostSpec(rate), conv, 30))
        # A row that is its path's run is returned as it is, not derived again.
        args = (daily, small_universe, 1e6, CostSpec(0.0018))
        assert run_variant(*args, REFERENCE, 30, base=got[0]) is got[0]
        assert run_variant(*args, truncated(40), 30, base=got[2]) is got[2]

    @pytest.mark.parametrize("name", ["pre_trade", "fifo_sequential"])
    def test_a_write_through_a_derived_run_leaves_its_base_alone(self, small_universe, daily, name):
        args = (daily, small_universe, 1e6, CostSpec(0.0))
        base = run_variant(*args, REFERENCE, 30)
        before = [tr.deltas.tobytes() for tr in base.trades]
        derived = run_variant(*args, CONVENTIONS[name], 30, base=base)
        for tr in derived.trades:
            try:
                tr.deltas[0] = 7.0
            except ValueError:  # shared with the base, so read-only
                pass
        assert [tr.deltas.tobytes() for tr in base.trades] == before


class TestTradeCostMechanism:
    def test_div100_exact_on_same_notional(self):
        rate = 0.0018
        for notional in (1.0, 123.456, 1e6, 987654.321):
            ref = trade_cost(notional, rate, REFERENCE)
            assert trade_cost(notional, rate, CONVENTIONS["percent_divided"]) == ref / 100.0

    def test_multiplier_exact_on_same_notional(self):
        rate = 0.0018
        for notional in (1.0, 123.456, 1e6, 987654.321):
            ref = trade_cost(notional, rate, REFERENCE)
            assert trade_cost(notional, rate, CONVENTIONS["double_commission"]) == 2.0 * ref


def _no_trades(dates, equity) -> EquitySeries:
    empty = np.empty(0)
    log = TradeLog(np.empty(0, dtype=np.intp), np.empty((0, 0)), empty, empty, ())
    return EquitySeries(dates, equity, log, REFERENCE)


class TestPerformanceMetrics:
    def test_total_return_example(self):
        series = _no_trades(("1", "2"), np.array([100.0, 110.0]))
        stats = performance_metrics(series)
        assert stats.total_return_pct == pytest.approx(10.0, rel=1e-12)

    def test_monotone_no_drawdown(self):
        series = _no_trades(tuple(str(i) for i in range(5)), np.array([100.0, 101, 102, 105, 110]))
        assert performance_metrics(series).max_drawdown_pct == 0.0

    def test_drawdown_hand_case(self):
        series = _no_trades(("1", "2", "3", "4"), np.array([100.0, 120, 90, 100]))
        assert performance_metrics(series).max_drawdown_pct == pytest.approx(25.0, rel=1e-12)

    def test_cagr_consistent_with_total_return(self, small_universe):
        sched = equal_weight(small_universe)
        stats = performance_metrics(run_variant(sched, small_universe, 1e6, CostSpec(0.0018), REFERENCE))
        t = small_universe.n_days - 1
        implied = ((1 + stats.total_return_pct / 100) ** (252 / t) - 1) * 100
        assert stats.cagr_pct == pytest.approx(implied, rel=1e-9)

    def test_flat_equity_degenerate_sharpe(self):
        series = _no_trades(("1", "2", "3"), np.array([100.0, 100.0, 100.0]))
        stats = performance_metrics(series)
        assert stats.sharpe == 0.0
        assert stats.degenerate_sharpe

    def test_sharpe_scale(self):
        rng = np.random.default_rng(0)
        eq = 100 * np.cumprod(1 + rng.normal(0.001, 0.01, 500))
        series = _no_trades(tuple(str(i) for i in range(501)), np.concatenate([[100.0], eq]))
        stats = performance_metrics(series)
        rets = np.diff(np.concatenate([[100.0], eq])) / np.concatenate([[100.0], eq])[:-1]
        expected = rets.mean() / rets.std(ddof=1) * math.sqrt(252)
        assert stats.sharpe == pytest.approx(expected, rel=1e-9)


class TestTurnover:
    def test_no_trades_zero(self, tiny_panel):
        series = run_variant(WeightSchedule({}), tiny_panel, 1000.0, CostSpec(0.01), REFERENCE)
        assert annual_turnover(series) == 0.0

    def test_single_full_construction_one_year(self):
        prices = np.ones((253, 2)) * np.array([10.0, 20.0])
        pm = PriceMatrix(tuple(str(i) for i in range(253)), ("A", "B"), prices)
        sched = WeightSchedule({"0": np.array([0.5, 0.5])})
        series = run_variant(sched, pm, 1000.0, CostSpec(0.0), REFERENCE)
        assert annual_turnover(series) == pytest.approx(1.0, rel=1e-12)

    def test_worked_three_day_instance(self, tiny_panel, half_half):
        series = run_variant(half_half, tiny_panel, 1000.0, CostSpec(0.01), REFERENCE)
        assert annual_turnover(series) == pytest.approx(126.0, rel=1e-12)

    @pytest.mark.parametrize("n_assets", [1, 2, 7, 8, 9, 17, 40])
    @pytest.mark.parametrize(
        "engine", ["reference", "fifo_sequential", "sells_first", "shifted_one_day"]
    )
    def test_equals_left_to_right_per_trade_sum(self, n_assets, engine):
        # Hundreds of trades of every width: the array pass must not reorder
        # either the per-trade reduction or the sum over trades.
        universe = generate_synthetic(SynthSpec(n_assets=40, n_days=300, seed=n_assets))
        pm = universe.subset(universe.assets[:n_assets])
        rng = np.random.default_rng(n_assets)
        sched = WeightSchedule({d: rng.dirichlet(np.ones(n_assets)) for d in pm.dates})
        series = run_variant(sched, pm, 1e6, CostSpec(0.0018), CONVENTIONS[engine])
        total = 0
        for tr in series.trades:
            total += tr.traded_notional / tr.pre_trade_value
        assert annual_turnover(series) == float(total * 252 / (len(series.equity) - 1))


class TestCostIntensity:
    def test_zero_rate(self):
        assert cost_intensity(CostSpec(0.0), 24.0) == 0.0

    def test_product(self):
        assert cost_intensity(CostSpec(0.0018), 24.0) == pytest.approx(0.0432, rel=1e-12)

    def test_rank_invariant_under_rescaling(self):
        pairs = [(0.0018, 3.0), (0.0036, 1.0), (0.0, 9.0), (0.006, 11.0)]
        base = [cost_intensity(CostSpec(r), t) for r, t in pairs]
        scaled = [cost_intensity(CostSpec(r), t * 7.5) for r, t in pairs]
        assert np.argsort(base).tolist() == np.argsort(scaled).tolist()


class TestScheduleValidation:
    def test_unknown_date_rejected(self, tiny_panel):
        sched = WeightSchedule({"99": np.array([0.5, 0.5])})
        with pytest.raises(ValueError):
            run_variant(sched, tiny_panel, 1000.0, CostSpec(0.0), REFERENCE)

    def test_negative_weight_rejected(self, tiny_panel):
        sched = WeightSchedule({"1": np.array([-0.1, 0.5])})
        with pytest.raises(ValueError):
            run_variant(sched, tiny_panel, 1000.0, CostSpec(0.0), REFERENCE)

    def test_weights_over_one_rejected(self, tiny_panel):
        sched = WeightSchedule({"1": np.array([0.7, 0.7])})
        with pytest.raises(ValueError):
            run_variant(sched, tiny_panel, 1000.0, CostSpec(0.0), REFERENCE)

    @pytest.mark.parametrize(
        "weights, message",
        [
            ({"99": [0.5, 0.5]}, "rebalance date '99' not in price calendar"),
            ({"1": [0.5, 0.3, 0.2]}, "weight vector on '1' has wrong length"),
            ({"1": [np.nan, 0.5]}, "weights on '1' must be finite and >= 0"),
            ({"1": [-0.1, 0.5]}, "weights on '1' must be finite and >= 0"),
            ({"1": [0.7, 0.7]}, "weights on '1' sum past 1"),
            # Two or more bad entries: the error names the first in entry order.
            ({"1": [0.7, 0.7], "2": [-0.1, 0.5]}, "weights on '1' sum past 1"),
            ({"1": [np.inf, 0.0], "99": [0.5, 0.5]}, "weights on '1' must be finite"),
            ({"99": [0.5, 0.5], "1": [np.nan, 0.0]}, "rebalance date '99' not in"),
            ({"1": [0.5, 0.5], "2": [0.5], "3": [0.9, 0.9]}, "weight vector on '2' has"),
        ],
        ids=["unknown-date", "wrong-length", "nan", "negative", "sum-past-one",
             "sum-then-negative", "inf-then-date", "date-then-nan", "length-then-sum"],
    )
    def test_failure_message_names_first_bad_entry(self, tiny_panel, weights, message):
        sched = WeightSchedule({d: np.array(w) for d, w in weights.items()})
        with pytest.raises(ValueError, match=re.escape(message)):
            sched.validate(tiny_panel)

    def test_pass_is_remembered_per_matrix(self, tiny_panel, monkeypatch):
        sched = WeightSchedule({"1": np.array([0.5, 0.5])})
        sched.validate(tiny_panel)
        monkeypatch.setattr(PriceMatrix, "date_index", lambda self: pytest.fail("validated twice"))
        for _ in range(3):
            sched.validate(tiny_panel)

    @pytest.mark.parametrize(
        "other",
        [
            PriceMatrix(("1", "3"), ("A", "B"), np.array([[10.0, 20.0], [12.0, 18.0]])),
            PriceMatrix(("1", "2", "3"), ("A",), np.array([[10.0], [11.0], [12.0]])),
            PriceMatrix(("1", "2", "3"), ("A", "B", "C"), np.full((3, 3), 10.0)),
        ],
        ids=["other-calendar", "narrower", "wider"],
    )
    def test_pass_on_one_matrix_still_raises_on_another(self, tiny_panel, other):
        sched = WeightSchedule({"2": np.array([0.5, 0.5])})
        sched.validate(tiny_panel)
        run_variant(sched, tiny_panel, 1000.0, CostSpec(0.0), REFERENCE)
        for _ in range(2):
            with pytest.raises(ValueError):
                sched.validate(other)
            with pytest.raises(ValueError):
                run_variant(sched, other, 1000.0, CostSpec(0.0), REFERENCE)
        sched.validate(tiny_panel)

    def test_failing_schedule_raises_on_every_call(self, tiny_panel):
        sched = WeightSchedule({"1": np.array([0.7, 0.7])})
        for conv in CONVENTIONS.values():
            with pytest.raises(ValueError, match="sum past 1"):
                sched.validate(tiny_panel)
            with pytest.raises(ValueError, match="sum past 1"):
                run_variant(sched, tiny_panel, 1000.0, CostSpec(0.0), conv)

    def test_remembered_matrix_stays_out_of_equality(self, tiny_panel):
        a = WeightSchedule({"1": np.array([0.5, 0.5])})
        b = WeightSchedule({"1": np.array([0.5, 0.5])})
        a.validate(tiny_panel)
        assert repr(a) == repr(b)



@st.composite
def engine_runs(draw):
    """A price panel, a schedule on it and one point of every convention axis.

    Schedules are empty, daily, sparse (optionally rebalancing on the final
    day) or liquidating (fully invested, then all-zero entries); truncation
    lands before, at or after the last executed rebalance, or anywhere.
    """
    n_assets = draw(st.integers(1, 40))
    n_days = draw(st.integers(1, 40))
    start = draw(st.integers(0, n_days - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    style = draw(st.sampled_from(["iid", "walk", "flat"]))
    if style == "iid":
        prices = np.exp(rng.uniform(0.0, np.log(1000.0), size=(n_days, n_assets)))
    elif style == "walk":
        prices = 50.0 * np.exp(np.cumsum(rng.normal(0.0, 0.03, size=(n_days, n_assets)), axis=0))
    else:
        prices = np.tile(rng.uniform(1.0, 100.0, size=n_assets), (n_days, 1))
    pm = PriceMatrix(
        tuple(str(i + 1) for i in range(n_days)),
        tuple(f"A{i}" for i in range(n_assets)),
        prices,
    )
    kind = draw(st.sampled_from(["empty", "daily", "sparse", "liquidating"]))
    if kind == "empty":
        days = []
    elif kind == "daily":
        days = list(range(start, n_days))
    else:
        days = draw(st.sets(st.integers(start, n_days - 1), min_size=1))
        if draw(st.booleans()):
            days.add(n_days - 1)
        days = sorted(days)
    entries = {}
    for j, t in enumerate(days):
        if kind == "liquidating":
            invested = 1.0 if j == 0 else 0.0
        else:
            invested = draw(st.sampled_from([0.0, 1.0, float(rng.uniform())]))
        raw = rng.uniform(size=n_assets) * (rng.uniform(size=n_assets) > 0.25)
        total = raw.sum()
        entries[pm.dates[t]] = raw / total * invested if total > 0.0 else raw
    timing = draw(st.sampled_from([TIMING_ALIGNED, TIMING_SHIFT1]))
    executed = [t + 1 for t in days if t + 1 < n_days] if timing == TIMING_SHIFT1 else days
    through_last = executed[-1] - start + 1 if executed else 1
    truncate = draw(
        st.one_of(
            st.none(),
            st.sampled_from([max(1, through_last - 1), through_last, through_last + 1]),
            st.integers(1, n_days + 2),
        )
    )
    conv = EngineConvention(
        draw(st.sampled_from([EQUITY_POST, EQUITY_GROSS])),
        draw(st.sampled_from([RATE_ABS, RATE_DIV100])),
        draw(st.integers(1, 3)),
        draw(st.sampled_from([FILL_ATOMIC, FILL_FIFO, FILL_SELLS_FIRST])),
        timing,
        truncate,
    )
    rate = draw(st.one_of(st.just(0.0), st.just(0.06), st.floats(0.0, 0.06)))
    capital = draw(st.floats(1.0, 1e7))
    return WeightSchedule(entries), pm, capital, CostSpec(rate), conv, start


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


def assert_same_run(got: EquitySeries, want: EquitySeries) -> None:
    assert got.conv == want.conv
    assert got.dates == want.dates
    assert got.equity.tobytes() == want.equity.tobytes()
    assert len(got.trades) == len(want.trades)
    for a, b in zip(got.trades, want.trades):
        assert a.date == b.date
        assert a.deltas.dtype == b.deltas.dtype and a.deltas.tobytes() == b.deltas.tobytes()
        assert _bits(a.cost) == _bits(b.cost)
        assert _bits(a.pre_trade_value) == _bits(b.pre_trade_value)
        assert a.skipped == b.skipped


def base_refusal(base: EquitySeries, want: EquitySeries) -> str | None:
    """What the ValueError of deriving ``want`` from ``base``, a run on its
    path, must match: ``base`` is shorter, or is another sequential fill.
    None where the derivation must succeed."""
    if len(base.equity) < len(want.equity):
        return "base reports"
    if base.conv.fill_sequencing not in (FILL_ATOMIC, want.conv.fill_sequencing):
        return "fill cannot give"
    return None


RATES = st.one_of(st.just(0.0), st.just(0.06), st.floats(0.0, 0.06))


def conventions(n_days: int):
    """Any point of the six convention axes."""
    return st.builds(
        EngineConvention,
        st.sampled_from([EQUITY_POST, EQUITY_GROSS]),
        st.sampled_from([RATE_ABS, RATE_DIV100]),
        st.integers(1, 3),
        st.sampled_from([FILL_ATOMIC, FILL_FIFO, FILL_SELLS_FIRST]),
        st.sampled_from([TIMING_ALIGNED, TIMING_SHIFT1]),
        st.one_of(st.none(), st.integers(1, n_days + 2)),
    )


@st.composite
def batch_runs(draw):
    """One ``engine_runs`` schedule under 1 to 6 drawn ``(convention, rate)``
    rows, shift1 rows mixed with aligned ones and the rates differing within
    the batch; zero weights are made -0.0 at random in some schedules."""
    schedule, pm, capital, cost, conv, start = draw(engine_runs())
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        entries = {}
        for date, w in schedule.entries.items():
            w = w.copy()
            w[(w == 0.0) & (rng.uniform(size=w.shape) < 0.6)] = -0.0
            entries[date] = w
        schedule = WeightSchedule(entries)
    more = draw(st.lists(st.tuples(conventions(pm.n_days), RATES), max_size=5))
    return schedule, pm, capital, [(conv, cost.rate)] + more, start


@st.composite
def subset_batch_runs(draw):
    """``batch_runs`` on a column subset of a wider panel, as every bucket
    is in a full run."""
    schedule, pm, capital, rows, start = draw(batch_runs())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    extra = draw(st.integers(1, 5))
    names = pm.assets + tuple(f"X{i}" for i in range(extra))
    wide = np.concatenate([pm.prices, rng.uniform(1.0, 100.0, size=(pm.n_days, extra))], axis=1)
    order = rng.permutation(len(names))
    panel = PriceMatrix(pm.dates, tuple(names[i] for i in order), wide[:, order])
    return schedule, panel.subset(pm.assets), capital, rows, start


@st.composite
def bucket_runs(draw):
    """B buckets of one width on one calendar under the same 1 to 6 drawn
    rows, each bucket with a schedule of its own.

    The buckets are column subsets of one wider panel, as in a full run.
    Every schedule keeps a drawn part of one set of event days, so buckets
    miss days that others trade on; the final day is an event day at times,
    so a shift1 row drops a trade pending past it; truncation comes with the
    rows. One bucket may fail its input checks.
    """
    B = draw(st.integers(1, 5))
    n = draw(st.integers(1, 8))
    n_days = draw(st.integers(1, 40))
    start = draw(st.integers(0, n_days - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dates = tuple(str(i + 1) for i in range(n_days))
    names = tuple(f"A{i}" for i in range(B * n + 1))
    walk = np.cumsum(rng.normal(0.0, 0.03, size=(n_days, len(names))), axis=0)
    panel = PriceMatrix(dates, names, 50.0 * np.exp(walk))
    pms = [panel.subset([names[i] for i in rng.permutation(len(names))[:n]]) for _ in range(B)]
    days = draw(st.sets(st.integers(start, n_days - 1), max_size=n_days))
    if draw(st.booleans()):
        days.add(n_days - 1)
    schedules = []
    for b in range(B):
        entries = {}
        for t in sorted(days):
            if rng.uniform() < 0.25:
                continue
            invested = draw(st.sampled_from([0.0, 1.0, float(rng.uniform())]))
            raw = rng.uniform(size=n) * (rng.uniform(size=n) > 0.25)
            total = raw.sum()
            entries[dates[t]] = raw / total * invested if total > 0.0 else raw
        schedules.append(WeightSchedule(entries))
    if draw(st.booleans()):
        schedules[draw(st.integers(0, B - 1))] = WeightSchedule({dates[-1]: np.full(n, 2.0 / n)})
    rows = draw(st.lists(st.tuples(conventions(n_days), RATES), min_size=1, max_size=6))
    return schedules, pms, draw(st.floats(1.0, 1e7)), rows, start


class TestPerDayOracle:
    """``run_variant`` against the per-day loop, bit for bit."""

    @given(run=engine_runs())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_per_day_loop(self, run):
        assert_same_run(run_variant(*run), run_variant_per_day(*run))

    @pytest.mark.parametrize("name", sorted(CONVENTIONS))
    def test_strategies_with_a_late_start_equal_the_per_day_loop(self, small_universe, name):
        conv = CONVENTIONS[name]
        for sched in (
            equal_weight(small_universe, start=30, freq="daily"),
            rotation(small_universe, start=30, freq="monthly"),
        ):
            for c in (conv, truncated(100, conv)):
                args = (sched, small_universe, 1e6, CostSpec(0.0018), c, 30)
                assert_same_run(run_variant(*args), run_variant_per_day(*args))


def one_bucket(schedule, pm, capital, rows, start=0):
    """The K series of a one-bucket ``run_buckets``; its input checks raise."""
    (series,) = run_buckets([schedule], [pm], capital, rows, start)
    if isinstance(series, ValueError):
        raise series
    return series


class TestBatch:
    """One bucket of ``run_buckets`` against one per-day loop per row, bit for bit."""

    @given(run=batch_runs())
    @settings(max_examples=250, deadline=None)
    def test_rows_equal_separate_per_day_runs(self, run):
        schedule, pm, capital, rows, start = run
        batch = one_bucket(schedule, pm, capital, rows, start)
        assert len(batch) == len(rows)
        alone = [run_variant_per_day(schedule, pm, capital, CostSpec(rate), conv, start)
                 for conv, rate in rows]
        for series, want in zip(batch, alone):
            assert_same_run(series, want)
        # Each row is a base for every drawn convention on its path.
        for series, (conv, rate) in zip(batch, rows):
            for (other, other_rate), want in zip(rows, alone):
                if other_rate == rate and path_convention(other, rate) == path_convention(conv, rate):
                    args = (schedule, pm, capital, CostSpec(rate), other, start)
                    refusal = base_refusal(series, want)
                    if refusal is None:
                        assert_same_run(run_variant(*args, base=series), want)
                    else:
                        with pytest.raises(ValueError, match=refusal):
                            run_variant(*args, base=series)

    def test_skipping_rows_at_mixed_rates_and_timings(self, small_universe):
        sched = rotation(small_universe, k=3, start=30)
        rows = [(conv, rate) for rate in (0.0, 0.0018, 0.006)
                for conv in (REFERENCE, CONVENTIONS["fifo_sequential"], CONVENTIONS["sells_first"],
                             replace(CONVENTIONS["fifo_sequential"], return_timing=TIMING_SHIFT1,
                                     rate_interpretation=RATE_DIV100, commission_multiplier=3),
                             CONVENTIONS["shifted_one_day"], truncated(50, CONVENTIONS["pre_trade"]))]
        batch = one_bucket(sched, small_universe, 1e6, rows, 30)
        assert any(tr.skipped for series in batch for tr in series.trades)
        for series, (conv, rate) in zip(batch, rows):
            want = run_variant_per_day(sched, small_universe, 1e6, CostSpec(rate), conv, 30)
            assert_same_run(series, want)

    def test_checks_are_run_variants(self, tiny_panel, half_half):
        with pytest.raises(ValueError, match="cost rate"):
            one_bucket(WeightSchedule({"0": np.ones(2)}), tiny_panel, 1.0, [(REFERENCE, 1.0)])
        with pytest.raises(ValueError, match="precedes evaluation start"):
            one_bucket(half_half, tiny_panel, 1000.0, [(REFERENCE, 0.0)], 1)
        assert one_bucket(half_half, tiny_panel, 1000.0, []) == ()


    @given(run=subset_batch_runs())
    @settings(max_examples=150, deadline=None)
    def test_rows_on_subset_prices_equal_separate_per_day_runs(self, run):
        schedule, pm, capital, rows, start = run
        for series, (conv, rate) in zip(one_bucket(schedule, pm, capital, rows, start), rows):
            assert_same_run(series, run_variant_per_day(schedule, pm, capital, CostSpec(rate), conv, start))


class TestBuckets:
    """``run_buckets`` against one one-bucket call per bucket, bit for bit."""

    @given(run=bucket_runs())
    @settings(max_examples=200, deadline=None)
    def test_each_bucket_equals_its_own_batch(self, run):
        schedules, pms, capital, rows, start = run
        together = run_buckets(schedules, pms, capital, rows, start)
        assert len(together) == len(schedules)
        for schedule, pm, got in zip(schedules, pms, together):
            try:
                want = one_bucket(schedule, pm, capital, rows, start)
            except ValueError as exc:
                assert isinstance(got, ValueError) and str(got) == str(exc)
                continue
            assert len(got) == len(rows)
            for series, alone in zip(got, want):
                assert_same_run(series, alone)

    def test_strategy_buckets_at_a_late_start(self, bucket_universe):
        buckets = [bucket_universe.subset(bucket_universe.assets[i::6]) for i in range(6)]
        rows = [(CONVENTIONS[name], 0.0018) for name in sorted(CONVENTIONS)] + [(truncated(90), 0.006)]
        for build in (lambda pm: rotation(pm, k=3, start=30), lambda pm: equal_weight(pm, 30, "daily")):
            schedules = [build(pm) for pm in buckets]
            together = run_buckets(schedules, buckets, 1e6, rows, 30)
            assert any(tr.skipped for series in together[0] for tr in series.trades)
            for schedule, pm, got in zip(schedules, buckets, together):
                for series, (conv, rate) in zip(got, rows):
                    want = run_variant_per_day(schedule, pm, 1e6, CostSpec(rate), conv, 30)
                    assert_same_run(series, want)

    def test_buckets_must_share_calendar_and_width(self, small_universe, tiny_panel, half_half):
        wide, narrow = small_universe.subset(small_universe.assets[:3]), small_universe.subset(
            small_universe.assets[:2]
        )
        empty = WeightSchedule({})
        with pytest.raises(ValueError, match="one calendar and one width"):
            run_buckets([empty, empty], [wide, narrow], 1e6, [(REFERENCE, 0.0)])
        with pytest.raises(ValueError, match="one calendar and one width"):
            run_buckets([half_half, empty], [tiny_panel, narrow], 1e6, [(REFERENCE, 0.0)])
        with pytest.raises(ValueError, match="2 schedules for 1 price matrices"):
            run_buckets([empty, empty], [wide], 1e6, [(REFERENCE, 0.0)])
        with pytest.raises(ValueError, match="cost rate"):
            run_buckets([half_half], [tiny_panel], 1.0, [(REFERENCE, 1.0)])
        assert run_buckets([], [], 1e6, [(REFERENCE, 0.0)]) == ()

    def test_no_pass_runs_when_every_bucket_fails_its_checks(self, tiny_panel, monkeypatch):
        def no_pass(*args):
            raise AssertionError("a pass ran with no bucket to step")

        monkeypatch.setattr(enginemod, "_simulate", no_pass)
        schedules = [WeightSchedule({"9": np.ones(2) / 2}), WeightSchedule({"1": np.full(2, 2.0)})]
        got = run_buckets(schedules, [tiny_panel, tiny_panel], 1000.0, [(REFERENCE, 0.0018)])
        assert len(got) == 2
        for schedule, exc in zip(schedules, got):
            assert isinstance(exc, ValueError)
            with pytest.raises(ValueError) as alone:
                run_variant(schedule, tiny_panel, 1000.0, CostSpec(0.0018), REFERENCE)
            assert str(exc) == str(alone.value)

    @pytest.mark.parametrize("layout", [np.ascontiguousarray, np.asfortranarray])
    def test_subset_buckets_equal_the_same_prices_in_any_layout(self, bucket_universe, layout):
        """Output depends on the prices, not on how the caller laid them out."""
        buckets = [bucket_universe.subset(bucket_universe.assets[i::6]) for i in range(6)]
        copies = [
            PriceMatrix(pm.dates, pm.assets, layout(bucket_universe.prices[:, i::6]))
            for i, pm in enumerate(buckets)
        ]
        rows = [(CONVENTIONS[name], 0.0018) for name in sorted(CONVENTIONS)] + [(truncated(90), 0.006)]
        schedules = [rotation(pm, k=3, start=30) for pm in buckets]
        together = run_buckets(schedules, buckets, 1e6, rows, 30)
        for got, want in zip(together, run_buckets(schedules, copies, 1e6, rows, 30)):
            for series, alone in zip(got, want):
                assert_same_run(series, alone)


class TestVecdotPremise:
    """``run_buckets`` (and so ``run_variant``, a one-row call) marks the days
    between event days with one ``np.vecdot`` and is bit-identical to the
    per-day loop only because ``vecdot`` reduces each row with the same BLAS
    dot as ``float(h @ p)``, and ``np.add.reduce`` sums each row of a block as
    ``.sum()`` sums the row. A numpy or BLAS build that breaks this fails
    here by name."""

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_vecdot_rows_equal_per_row_dots(self, order):
        rng = np.random.default_rng(11)
        for n in range(1, 65):
            P = np.asarray(np.exp(rng.normal(0.0, 1.0, size=(37, n))) * 50.0, order=order)
            h = rng.uniform(0.0, 1e4, size=n) * (rng.uniform(size=n) > 0.3)
            for a, b in [(0, 37), (1, 36), (5, 6), (13, 13), (36, 37), (0, 0), (7, 30)]:
                got = np.vecdot(P[a:b], h)
                assert got.shape == (b - a,)
                assert np.array_equal(got, [float(h @ P[i]) for i in range(a, b)]), (n, a, b)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_batched_rows_equal_per_row_dots(self, order):
        """``run_buckets`` marks K rows of holdings at once: the segment mark
        ``np.vecdot(P[a:b], H[:, None, :])`` and the day's ``np.vecdot(H, p)``."""
        rng = np.random.default_rng(12)
        for K in range(1, 9):
            for n in range(1, 65):
                P = np.asarray(np.exp(rng.normal(0.0, 1.0, size=(9, n))) * 50.0, order=order)
                H = rng.uniform(0.0, 1e4, size=(K, n)) * (rng.uniform(size=(K, n)) > 0.3)
                H = np.asarray(H, order=order)
                for a, b in [(0, 9), (2, 7), (4, 5), (3, 3)]:
                    got = np.vecdot(P[a:b], H[:, None, :])
                    assert got.shape == (K, b - a)
                    want = [[float(h @ P[i]) for i in range(a, b)] for h in H]
                    assert np.array_equal(got, np.reshape(want, (K, b - a))), (K, n, a, b)
                assert np.array_equal(np.vecdot(H, P[4]), [float(h @ P[4]) for h in H]), (K, n)

    def test_batched_row_sums_equal_per_row_sums(self):
        """``run_buckets`` sums each row of its C-ordered ``(K, n)`` deltas in one
        ``np.add.reduce``; widths past 8 and 128 reach numpy's pairwise
        blocks. (A Fortran-ordered block is summed column by column instead,
        which is why the batch keeps its deltas in C order.)"""
        rng = np.random.default_rng(13)
        for K in range(1, 9):
            for n in [*range(1, 65), 127, 128, 129, 255, 256, 257, 1000]:
                D = rng.normal(size=(K, n)) * 10.0 ** rng.integers(-3, 6, size=(K, n))
                D[rng.uniform(size=(K, n)) < 0.2] = -0.0
                got = np.add.reduce(np.abs(D), axis=1)
                assert np.array_equal(got, [np.abs(d).sum() for d in D]), (K, n)

    @pytest.mark.parametrize("layout", ["C", "subset"])
    def test_distinct_price_rows_per_batch_row(self, layout):
        """Stacked buckets mark each row at its own bucket's prices:
        ``np.vecdot`` of ``(K, n)`` holdings against ``(K, n)`` distinct
        price rows reduces each pair as ``float(h @ p)``, on a panel built
        directly and on a ``subset`` of a wider one."""
        rng = np.random.default_rng(14)
        for K in range(1, 9):
            for n in range(1, 65):
                pm = _layout_panel(rng, 12, n, layout)
                H = rng.uniform(0.0, 1e4, size=(K, n)) * (rng.uniform(size=(K, n)) > 0.3)
                for a in (0, 12 - K):
                    P = pm.prices[a : a + K]
                    assert np.array_equal(np.vecdot(H, P), [float(h @ p) for h, p in zip(H, P)]), (K, n)

    @pytest.mark.parametrize("layout", ["C", "subset"])
    def test_stacked_block_rows_equal_each_buckets_own_dots(self, layout):
        """The ``(T, B, n)`` block ``run_buckets`` steps is ``np.stack`` of the
        buckets' C-order prices, so its day mark ``np.vecdot(H, P[t][:, None, :])``
        and segment mark give each bucket's own ``float(h @ p)``."""
        rng = np.random.default_rng(15)
        for B in (1, 2, 5):
            for K in (1, 3):
                for n in (*range(1, 18), 31, 64):
                    pms = [_layout_panel(rng, 9, n, layout) for _ in range(B)]
                    P = np.stack([pm.prices for pm in pms], axis=1)
                    H = rng.uniform(0.0, 1e4, size=(B, K, n)) * (rng.uniform(size=(B, K, n)) > 0.3)
                    own = [[[float(h @ pm.prices[t]) for t in range(9)] for h in Hb] for Hb, pm in zip(H, pms)]
                    day = np.stack([np.vecdot(H, P[t][:, None, :]) for t in range(9)], axis=-1)
                    assert np.array_equal(day, own), (B, K, n)
                    segment = np.vecdot(P.transpose(1, 0, 2)[:, None, 2:7], H[:, :, None, :])
                    assert np.array_equal(segment, np.asarray(own)[..., 2:7]), (B, K, n)


def _layout_panel(rng: np.random.Generator, n_days: int, n: int, layout: str) -> PriceMatrix:
    """A price panel built directly, or a ``subset`` of a wider one, as every
    bucket is; either way its rows are C-order."""
    dates = tuple(str(i) for i in range(n_days))
    names = tuple(f"A{i}" for i in range(n + 3))
    pm = PriceMatrix(dates, names, np.exp(rng.normal(0.0, 1.0, size=(n_days, n + 3))) * 50.0)
    out = PriceMatrix(dates, names[3:], pm.prices[:, 3:]) if layout == "C" else pm.subset(names[3:])
    assert out.prices.flags.c_contiguous
    return out
