import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossbt.engine import CONVENTIONS, REFERENCE, CostSpec
from crossbt.riskmetrics import (
    NotEnoughEngines,
    UndefinedAmplification,
    csi,
    daf,
    dollar_ambiguity,
    es_cv,
    es_range,
    floor_decomposition,
    floor_divergence_pct,
    iui,
    pairwise_divergence,
    relative_difference,
)


class TestEngineSpread:
    def test_cv_identical_zero(self):
        assert es_cv([5.0, 5.0, 5.0]) == 0.0

    def test_cv_hand_case(self):
        assert es_cv([2.0, 4.0]) == pytest.approx(math.sqrt(2) / 3 * 100, rel=1e-9)
        assert es_cv([2.0, 4.0]) == pytest.approx(47.1404, abs=1e-3)

    def test_cv_unstable_near_zero_mean(self):
        assert es_cv([-1.0, 1.0]) is None

    def test_range(self):
        assert es_range([2.0, 4.0]) == 2.0
        assert es_range([7.0, 7.0, 7.0]) == 0.0

    def test_range_zero_iff_risk_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            vals = rng.normal(size=4)
            assert (es_range(vals) == 0.0) == (len(set(vals.tolist())) == 1)

    def test_needs_two_finite_engine_values(self):
        for spread in (es_cv, es_range, iui):
            with pytest.raises(NotEnoughEngines):
                spread([1.0])
            with pytest.raises(ValueError, match="finite"):
                spread([0.5, np.nan])


class TestIui:
    def test_identical_zero_width(self):
        lo, hi = iui([2.5, 2.5, 2.5])
        assert lo == hi == 2.5

    def test_hand_case(self):
        lo, hi = iui([1.0, 1.1, 1.2, 1.3, 1.4])
        assert lo == pytest.approx(0.7610, abs=1e-4)
        assert hi == pytest.approx(1.6390, abs=1e-4)

    def test_contains_mean_and_k2_values(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            vals = rng.normal(size=2) * 10
            lo, hi = iui(vals)
            assert lo <= vals.mean() <= hi
            assert lo <= vals.min() and vals.max() <= hi


class TestDaf:
    def test_ratio(self):
        assert daf([0.0, 2.0], [0.0, 0.5]) == pytest.approx(4.0, rel=1e-12)

    def test_identity(self):
        vals = [1.0, 1.5, 0.2]
        assert daf(vals, vals) == 1.0

    def test_zero_reference_undefined(self):
        with pytest.raises(UndefinedAmplification):
            daf([0.0, 2.0], [1.0, 1.0])


class TestCsi:
    def test_same_sign_zero(self):
        assert csi([0.5, 0.3, 0.2]) == 0

    def test_mixed_sign_one(self):
        assert csi([0.5, -0.1]) == 1

    def test_all_negative_sample(self):
        assert csi([-0.1151, -0.1219, -0.1151, -0.1225, -0.1211]) == 0

    def test_zero_counts_as_positive(self):
        assert csi([0.0, 0.4]) == 0
        assert csi([0.0, -0.4]) == 1

    @given(st.lists(st.floats(0.01, 10.0), min_size=2, max_size=6), st.floats(0.1, 100.0))
    @settings(max_examples=30, deadline=None)
    def test_invariant_under_positive_rescaling(self, vals, scale):
        signs = np.array(vals)
        signs[::2] *= -1
        assert csi(signs) == csi(signs * scale)


class TestDivergence:
    def test_base_is_lexicographically_first(self):
        vals = {"b_engine": 2.0, "a_engine": 1.0}
        recs = pairwise_divergence(vals, "bm", "B00", "total_return")
        assert len(recs) == 1
        assert (recs[0].engine_a, recs[0].engine_b) == ("a_engine", "b_engine")
        assert recs[0].rel_diff_pct == pytest.approx(100.0, rel=1e-12)

    def test_self_pair_is_exactly_zero(self):
        rel, fallback = relative_difference(3.7, 3.7)
        assert rel == 0.0 and not fallback

    def test_absolute_fallback_flag(self):
        rel, fallback = relative_difference(1e-12, 0.5)
        assert fallback
        assert rel == pytest.approx(0.5, rel=1e-9)

    def test_pair_count(self):
        vals = {f"e{i}": float(i) for i in range(6)}
        recs = pairwise_divergence(vals, "bm", "B00", "sharpe")
        assert len(recs) == 15


class TestFloor:
    def test_floor_value_18bps(self):
        assert floor_divergence_pct(0.0018) == pytest.approx(0.180324, abs=1e-6)

    def test_mixed_pair_gets_floor(self):
        split = floor_decomposition(
            0.25, CONVENTIONS["pre_trade"], REFERENCE, CostSpec(0.0018), fully_invested=True
        )
        assert split.mixed_reporting
        assert split.floor_pct == pytest.approx(0.180324, abs=1e-6)
        assert split.residual_pct == pytest.approx(0.25 - split.floor_pct, rel=1e-12)

    def test_same_convention_pair_no_floor(self):
        split = floor_decomposition(0.25, REFERENCE, CONVENTIONS["percent_divided"], CostSpec(0.0018))
        assert split.floor_pct == 0.0
        assert not split.mixed_reporting

    def test_zero_rate_no_floor(self):
        split = floor_decomposition(0.0, CONVENTIONS["pre_trade"], REFERENCE, CostSpec(0.0))
        assert split.floor_pct == 0.0

    def test_not_fully_invested_no_floor(self):
        split = floor_decomposition(
            0.1, CONVENTIONS["pre_trade"], REFERENCE, CostSpec(0.0018), fully_invested=False
        )
        assert split.floor_pct == 0.0


class TestDollarAmbiguity:
    def test_one_million_per_billion_at_ten_bps(self):
        assert dollar_ambiguity(0.10, 1e9) == 1_000_000.0

    def test_worst_case_translation(self):
        assert dollar_ambiguity(3.71, 1e9) == 37_100_000.0

    def test_zero(self):
        assert dollar_ambiguity(0.0, 1e9) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            dollar_ambiguity(-0.1, 1e9)
