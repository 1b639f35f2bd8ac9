import numpy as np
import pytest

from crossbt.engine import WeightSchedule
from crossbt.marketdata import PriceMatrix, SynthSpec, generate_synthetic
from crossbt.strategies import (
    BENCHMARKS,
    binary_switch,
    buy_and_hold,
    concentrated,
    cross_momentum,
    equal_weight,
    inverse_vol,
    inverse_vol_weights,
    momentum_ranking,
    rebalance_indices,
    rotation,
    sma_filter,
    tiered_cash,
)


def _panel(prices):
    prices = np.asarray(prices, dtype=float)
    return PriceMatrix(
        tuple(str(i + 1) for i in range(prices.shape[0])),
        tuple(f"A{i}" for i in range(prices.shape[1])),
        prices,
    )


def _entry(schedule: WeightSchedule, date: str) -> np.ndarray:
    return schedule.entries[date]


class TestCalendar:
    def test_monthly_over_63_days(self):
        assert rebalance_indices(63, 0, "monthly") == [0, 21, 42]

    def test_once_and_daily(self):
        assert rebalance_indices(10, 3, "once") == [3]
        assert rebalance_indices(5, 2, "daily") == [2, 3, 4]


class TestEqualWeight:
    def test_quarter_each(self):
        pm = _panel(np.ones((5, 4)) * [1.0, 2.0, 3.0, 4.0])
        sched = equal_weight(pm, freq="daily")
        assert np.all(_entry(sched, "1") == 0.25)

    def test_single_asset(self):
        pm = PriceMatrix(("1", "2"), ("X",), np.array([[5.0], [6.0]]))
        sched = equal_weight(pm, freq="once")
        assert _entry(sched, "1") == pytest.approx([1.0])

    def test_monthly_dates(self):
        pm = _panel(np.cumsum(np.ones((63, 2)), axis=0) + 10)
        sched = equal_weight(pm)
        assert sorted(sched.entries, key=int) == ["1", "22", "43"]


class TestBuyAndHold:
    def test_single_entry(self, small_universe):
        sched = buy_and_hold(small_universe)
        assert len(sched.entries) == 1

    def test_drift_moves_implied_weights(self):
        # Rising asset 0, flat asset 1: held shares drift away from 1/2 - 1/2.
        prices = np.column_stack([np.linspace(10, 20, 30), np.full(30, 10.0)])
        pm = _panel(prices)
        from crossbt.engine import REFERENCE, CostSpec, run_variant

        series = run_variant(buy_and_hold(pm), pm, 1000.0, CostSpec(0.0), REFERENCE)
        shares = np.array([0.5 * 1000 / 10, 0.5 * 1000 / 10])
        implied_w0 = shares[0] * prices[-1, 0] / series.equity[-1]
        assert implied_w0 > 0.55
        assert series.equity[-1] == pytest.approx(float(shares @ prices[-1]), rel=1e-12)


class TestRotation:
    def test_disjoint_consecutive_subsets(self):
        pm = _panel(np.ones((64, 6)) + np.arange(6))
        sched = rotation(pm, k=3)
        m1 = _entry(sched, "1")
        m2 = _entry(sched, "22")
        m3 = _entry(sched, "43")
        assert list(np.nonzero(m1)[0]) == [0, 1, 2]
        assert list(np.nonzero(m2)[0]) == [3, 4, 5]
        assert list(np.nonzero(m3)[0]) == [0, 1, 2]
        assert np.all(m1 * m2 == 0.0)

    def test_k_equals_n_is_equal_weight(self):
        pm = _panel(np.ones((43, 4)) + np.arange(4))
        rot = rotation(pm, k=4)
        ew = equal_weight(pm)
        for date in rot.entries:
            assert np.array_equal(rot.entries[date], ew.entries[date])


class TestSmaFilter:
    def test_rising_price_always_held(self):
        prices = np.column_stack([np.linspace(50, 80, 30), np.linspace(40, 70, 30)])
        pm = _panel(prices)
        sched = sma_filter(pm, start=5, window=3, freq="daily")
        for w in sched.entries.values():
            assert np.all(w == 0.5)

    def test_constant_price_not_held(self):
        pm = _panel(np.full((20, 2), 10.0))
        sched = sma_filter(pm, start=5, window=3, freq="daily")
        for w in sched.entries.values():
            assert np.all(w == 0.0)

    def test_hand_built_crossing(self):
        # Asset falls below its 3-day average on day 5 (index 4).
        path = np.array([10.0, 11.0, 12.0, 13.0, 9.0, 9.0])
        pm = _panel(np.column_stack([path, np.linspace(10, 15, 6)]))
        sched = sma_filter(pm, start=4, window=3, freq="daily")
        assert _entry(sched, "5")[0] == 0.5  # close 13 > sma(11,12,13)=12... held
        assert _entry(sched, "6")[0] == 0.0  # close 9 < sma(12,13,9)
        assert _entry(sched, "6")[1] == 1.0


class TestInverseVol:
    def test_weight_normalisation(self):
        assert inverse_vol_weights([0.1, 0.2]) == pytest.approx([2 / 3, 1 / 3], rel=1e-12)
        assert inverse_vol_weights([0.3, 0.3]) == pytest.approx([0.5, 0.5], rel=1e-12)
        assert inverse_vol_weights([0.1, 0.2, 0.4]) == pytest.approx(
            [4 / 7, 2 / 7, 1 / 7], rel=1e-12
        )

    def test_zero_vol_dominates(self):
        assert inverse_vol_weights([0.0, 0.2, 0.0]) == pytest.approx([0.5, 0.0, 0.5])

    def test_schedule_sums_to_one(self, small_universe):
        sched = inverse_vol(small_universe, start=61)
        for w in sched.entries.values():
            assert float(np.sum(w)) == pytest.approx(1.0, abs=1e-12)


class TestCrossMomentum:
    def test_rank_small_instance(self):
        assert list(momentum_ranking([0.10, 0.05, -0.02])) == [0, 1, 2]
        assert list(momentum_ranking([0.05, 0.10, -0.02])[:2]) == [1, 0]

    def test_ties_break_by_index(self):
        assert list(momentum_ranking([0.1, 0.1, 0.1])) == [0, 1, 2]

    def test_top_n_is_equal_weight(self, small_universe):
        sched = cross_momentum(small_universe, start=252, top=small_universe.n_assets)
        for w in sched.entries.values():
            assert np.all(w == 1.0 / small_universe.n_assets)

    def test_lookback_window_excludes_recent(self):
        # Asset 0 surges only in the skip window; ranking must ignore it.
        n = 300
        flat = np.full(n, 100.0)
        spike = flat.copy()
        spike[-20:] = 200.0  # inside the 21-day skip at the last rebalance
        riser = np.geomspace(80, 120, n)
        pm = _panel(np.column_stack([spike, riser, flat]))
        sched = cross_momentum(pm, start=252, top=1)
        last = sorted(sched.entries, key=int)[-1]
        assert np.nonzero(sched.entries[last])[0].tolist() == [1]


class TestBinarySwitch:
    def test_parity(self, small_universe):
        sched = binary_switch(small_universe, a=0, b=1)
        dates = sorted(sched.entries, key=int)
        assert len(dates) == small_universe.n_days
        assert np.nonzero(sched.entries[dates[0]])[0].tolist() == [0]
        assert np.nonzero(sched.entries[dates[1]])[0].tolist() == [1]
        for d1, d2 in zip(dates, dates[1:]):
            assert not np.array_equal(sched.entries[d1], sched.entries[d2])

    def test_counts_over_ten_days(self):
        pm = _panel(np.ones((10, 3)) + np.arange(3))
        sched = binary_switch(pm)
        on_a = sum(1 for w in sched.entries.values() if w[0] == 1.0)
        on_b = sum(1 for w in sched.entries.values() if w[1] == 1.0)
        assert (on_a, on_b) == (5, 5)


class TestTieredCash:
    def test_weights_sum_to_one(self, small_universe):
        sched = tiered_cash(small_universe)
        for w in sched.entries.values():
            assert float(np.sum(w)) == pytest.approx(1.0, abs=1e-12)

    def test_first_month_triple(self):
        pm = _panel(np.ones((22, 6)) + np.arange(6))
        sched = tiered_cash(pm)
        w = _entry(sched, "1")
        assert w[0] == 0.6 and w[1] == 0.3 and w[2] == 0.1

    def test_tier_permutation_keeps_sum(self):
        pm = _panel(np.ones((22, 6)) + np.arange(6))
        a = tiered_cash(pm, tiers=(0.6, 0.3, 0.1))
        b = tiered_cash(pm, tiers=(0.1, 0.6, 0.3))
        for date in a.entries:
            assert float(np.sum(a.entries[date])) == pytest.approx(
                float(np.sum(b.entries[date])), abs=1e-12
            )


class TestConcentrated:
    def test_weight_sum(self, small_universe):
        sched = concentrated(small_universe)
        for w in sched.entries.values():
            assert float(np.sum(w)) == pytest.approx(0.95, abs=1e-12)

    def test_second_month_holds_asset_one(self):
        pm = _panel(np.ones((43, 4)) + np.arange(4))
        sched = concentrated(pm)
        assert np.nonzero(_entry(sched, "22"))[0].tolist() == [1]

    def test_single_asset_degenerates_to_rebuys(self):
        # N = 1: the same asset every month; turnover after the first
        # construction is only drift-sized.
        from crossbt.engine import REFERENCE, CostSpec, run_variant

        path = 100 * np.cumprod(1 + np.random.default_rng(1).normal(0, 0.002, 64))
        pm = _panel(path[:, None])
        sched = concentrated(pm)
        series = run_variant(sched, pm, 1000.0, CostSpec(0.0018), REFERENCE)
        first, later = series.trades[0], series.trades[1:]
        assert first.traded_notional == pytest.approx(950.0, rel=1e-6)
        assert all(tr.traded_notional < 25.0 for tr in later)


class TestRegistry:
    def test_ids_and_categories(self):
        assert set(BENCHMARKS) == {
            "bm01", "bm02", "bm03", "bm04", "bm05", "bm06",
            "bm07", "bm08_enet", "bm09", "bm10", "bm11", "bm12",
        }
        assert BENCHMARKS["bm09"].cost_bps == 0.0
        assert BENCHMARKS["bm04"].cost_bps == 36.0
        assert BENCHMARKS["bm11"].cost_bps == 60.0

    def test_bm04_shares_bm03_schedule(self, small_universe):
        a = BENCHMARKS["bm03"].build(small_universe, 0)
        b = BENCHMARKS["bm04"].build(small_universe, 0)
        assert a.entries.keys() == b.entries.keys()
        for date in a.entries:
            assert np.array_equal(a.entries[date], b.entries[date])

    def test_all_schedules_satisfy_invariants(self):
        pm = generate_synthetic(
            SynthSpec(n_assets=6, n_days=320, seed=23, annual_vol=0.3, annual_drift=0.1)
        )
        start = max(spec.warmup for spec in BENCHMARKS.values())
        for spec in BENCHMARKS.values():
            sched = spec.build(pm, start)
            sched.validate(pm)
            index = pm.date_index()
            for date in sched.entries:
                assert index[date] >= start

    def test_signal_causality(self):
        # Perturbing prices on or after a rebalance date must not change
        # any entry at that date (signals use data up to t-1 only).
        base = generate_synthetic(
            SynthSpec(n_assets=6, n_days=320, seed=31, annual_vol=0.3, annual_drift=0.1)
        )
        start = max(spec.warmup for spec in BENCHMARKS.values())
        bumped_prices = np.array(base.prices)
        cut = start + 22  # second monthly rebalance
        bumped_prices[cut:] *= 1.5
        bumped = PriceMatrix(base.dates, base.assets, bumped_prices, base.sectors)
        for bm_id in ("bm05", "bm06", "bm07", "bm08_enet"):
            a = BENCHMARKS[bm_id].build(base, start)
            b = BENCHMARKS[bm_id].build(bumped, start)
            for date, w in a.entries.items():
                if int(date) - 1 <= cut:  # entries at day index <= cut
                    assert np.array_equal(w, b.entries[date]), (bm_id, date)

    def test_determinism(self):
        pm = generate_synthetic(
            SynthSpec(n_assets=6, n_days=320, seed=23, annual_vol=0.3, annual_drift=0.1)
        )
        start = max(spec.warmup for spec in BENCHMARKS.values())
        for spec in BENCHMARKS.values():
            a = spec.build(pm, start)
            b = spec.build(pm, start)
            assert a.entries.keys() == b.entries.keys()
            for date in a.entries:
                assert np.array_equal(a.entries[date], b.entries[date])
