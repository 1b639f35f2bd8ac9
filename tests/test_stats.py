import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special
from scipy import stats as scipy_stats

from crossbt import stats as stats_mod
from crossbt.rng import substream
from crossbt.stats import (
    SIGN_CHUNK,
    NotEnoughClusters,
    average_ranks,
    bh_fdr,
    chi2_sf,
    cluster_bootstrap,
    lag1_autocorr,
    lin_ccc,
    normal_cdf,
    one_sample_t,
    pearson,
    sign_flip_permutation,
    spearman,
    spearman_rows,
    t_cdf,
    t_quantile,
    tost,
    wilcoxon_signed_rank,
)

from oracles import (
    average_ranks_loop,
    bh_threshold_enum,
    cluster_bootstrap_per_draw,
    sign_flip_count,
    sign_flip_one_shot,
    spearman_or_zero_loop,
    wilcoxon_enumeration,
)


class TestKernel:
    def test_t_quantile_table_values(self):
        # Published two-sided 5% critical values.
        assert t_quantile(0.975, 4) == pytest.approx(2.7764, abs=1e-4)
        assert t_quantile(0.975, 1) == pytest.approx(12.7062047362, abs=1e-8)
        assert t_quantile(0.975, 2) == pytest.approx(4.30265272991, abs=1e-9)
        assert t_quantile(0.975, 10) == pytest.approx(2.22813885196, abs=1e-9)

    def test_normal_cdf_values(self):
        assert normal_cdf(0.0) == 0.5
        assert normal_cdf(1.0) == pytest.approx(0.841344746068543, abs=1e-12)
        assert normal_cdf(2.0) == pytest.approx(0.977249868051821, abs=1e-12)

    def test_chi2_sf_values(self):
        assert chi2_sf(0.0, 3) == 1.0
        assert chi2_sf(3.841458820694124, 1) == pytest.approx(0.05, abs=1e-10)

    @pytest.mark.parametrize("df", [1, 2, 4, 5, 19, 30, 1000])
    @pytest.mark.parametrize("p", [1e-10, 0.025, 0.3, 0.9, 0.975])
    def test_t_quantile_matches_scipy_ppf(self, p, df):
        assert t_quantile(p, df) == pytest.approx(scipy_stats.t.ppf(p, df), rel=1e-12)

    def test_t_cdf_quantile_mutual_inverses(self):
        for df in (1, 2, 3, 5, 10, 30, 60):
            for p in (0.001, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999):
                assert t_cdf(t_quantile(p, df), df) == pytest.approx(p, abs=1e-8)

    def test_kernel_accuracy_vs_scipy_dist(self):
        for df in (2, 7, 23):
            for x in (-3.1, -0.4, 0.0, 1.7, 4.2):
                assert t_cdf(x, df) == pytest.approx(scipy_stats.t.cdf(x, df), abs=1e-10)
        for x in (0.3, 2.2, 9.8):
            for df in (1, 4, 11):
                assert chi2_sf(x, df) == pytest.approx(scipy_stats.chi2.sf(x, df), abs=1e-10)


_DF = st.one_of(st.floats(0.0, math.log(1e6)).map(math.exp), st.integers(1, 400))


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


class TestKernelSweep:
    """The numpy/math kernels against scipy over the whole df range and the tails."""

    @given(x=st.floats(-1e3, 1e3), df=_DF)
    @settings(max_examples=400, deadline=None)
    def test_t_cdf(self, x, df):
        # scipy's stdtr at df = 1 is off by up to 2.3e-9 near |x| = 1e-8, so
        # there the reference is the Cauchy CDF.
        ref = 0.5 + math.atan(x) / math.pi if df == 1 else scipy_stats.t.cdf(x, df)
        assert t_cdf(x, df) == pytest.approx(ref, abs=1e-10)

    @given(x=st.floats(0.0, 2e3), df=st.integers(1, 400))
    @settings(max_examples=400, deadline=None)
    def test_chi2_sf(self, x, df):
        assert chi2_sf(x, df) == pytest.approx(scipy_stats.chi2.sf(x, df), abs=1e-10)

    @given(x=st.floats(-38.0, 9.0))
    @settings(max_examples=400, deadline=None)
    def test_normal_cdf(self, x):
        # ndtr flushes to zero below about -37.5, where the CDF is subnormal.
        assert normal_cdf(x) == pytest.approx(special.ndtr(x), rel=1e-12, abs=1e-300)

    @given(p=st.floats(1e-12, 1.0 - 1e-12), df=_DF)
    @settings(max_examples=300, deadline=None)
    def test_t_quantile(self, p, df):
        d = p - 0.5
        if abs(d) >= 1e-3:
            ref = scipy_stats.t.ppf(p, df)
        else:
            # scipy's stdtrit loses accuracy within about 4e-4 of p = 0.5 (at
            # df 4 it returns 0.0 for p = 0.49999999), so near the centre the
            # reference is the inverse series u + (df + 1) u^3 / (6 df), with
            # u = (p - 1/2) / pdf(0); the next term is below 2e-11 relative.
            u = d / scipy_stats.t.pdf(0.0, df)
            ref = u + (df + 1.0) / (6.0 * df) * u**3
        assert t_quantile(p, df) == pytest.approx(ref, rel=1e-9)

    def test_edge_semantics_match_scipy(self):
        nan, inf = math.nan, math.inf
        for x, df in [(1.0, 0.0), (1.0, -1.0), (1.0, nan), (nan, 3.0), (inf, 3.0),
                      (-inf, 3.0), (1e200, 3.0), (2.0, inf), (0.0, 3.0)]:
            assert _same(t_cdf(x, df), float(special.stdtr(df, x))), (x, df)
        for x, df in [(1.0, -1.0), (1.0, nan), (nan, 3.0), (0.0, 3.0), (-0.0, 3.0),
                      (-1.0, 3.0), (inf, 3.0), (3.0, inf)]:
            assert _same(chi2_sf(x, df), float(special.chdtrc(df, x))), (x, df)
        for x in (nan, inf, -inf, 0.0):
            assert _same(normal_cdf(x), float(special.ndtr(x))), x
        for df in (0.0, -2.0, nan):
            assert math.isnan(t_quantile(0.3, df))
        assert t_quantile(0.3, inf) == pytest.approx(float(special.ndtri(0.3)), rel=1e-12)
        for p in (0.0, 1.0, -0.1, 1.5, nan):
            with pytest.raises(ValueError):
                t_quantile(p, 4)


class TestOneSampleT:
    def test_zero_mean_p_one(self):
        res = one_sample_t([-2.0, -1.0, 1.0, 2.0])
        assert res.statistic == 0.0
        assert res.p_value == 1.0

    def test_constant_sample_degenerate(self):
        res = one_sample_t([1.0, 1.0, 1.0, 1.0])
        assert res.degenerate
        assert res.p_value is None

    def test_hand_case(self):
        res = one_sample_t([1.0, 2.0, 3.0])
        assert res.statistic == pytest.approx(3.4641, abs=1e-4)
        assert res.p_value == pytest.approx(0.0742, abs=2e-4)

    def test_far_tail_keeps_its_digits(self):
        # t = 14142 at 4 df: t_cdf(t) rounds to 1, so 1 - t_cdf(t) would be 0
        # and clamp to the smallest normal float; the tail is about 1.5e-16.
        d = [1.0, 1.0 + 1e-4, 1.0 - 1e-4, 1.0 + 2e-4, 1.0 - 2e-4]
        res = one_sample_t(d)
        assert res.p_value == pytest.approx(scipy_stats.ttest_1samp(d, 0.0).pvalue, rel=1e-12, abs=0.0)


class TestBhFdr:
    def test_all_rejected(self):
        assert bh_fdr([0.01, 0.02, 0.03, 0.04], 0.05).tolist() == [True] * 4

    def test_none_rejected(self):
        assert bh_fdr([1.0, 1.0, 1.0], 0.05).tolist() == [False] * 3

    def test_matches_enumeration_on_random_inputs(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            m = int(rng.integers(1, 25))
            p = rng.uniform(0, 1, m) ** 2
            q = float(rng.uniform(0.01, 0.3))
            assert bh_fdr(p, q).tolist() == bh_threshold_enum(list(p), q)

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_rejections_monotone_in_q(self, ps):
        small = bh_fdr(ps, 0.05)
        large = bh_fdr(ps, 0.20)
        assert np.all(large[small])  # everything rejected at q=.05 stays rejected


class TestWilcoxon:
    def test_all_positive_hand_case(self):
        res = wilcoxon_signed_rank([1.0, 2.0, 3.0])
        assert res.statistic == 6.0
        assert res.p_value == 0.25
        assert res.method == "wilcoxon-exact"

    def test_antisymmetric_pair(self):
        res = wilcoxon_signed_rank([-1.0, 1.0])
        assert res.p_value == 1.0

    def test_zeros_dropped(self):
        a = wilcoxon_signed_rank([0.0, 1.0, 2.0, 3.0, 0.0])
        b = wilcoxon_signed_rank([1.0, 2.0, 3.0])
        assert a.statistic == b.statistic
        assert a.p_value == b.p_value
        assert a.n == 3

    def test_all_zero_degenerate(self):
        res = wilcoxon_signed_rank([0.0, 0.0])
        assert res.degenerate

    def test_exact_equals_enumeration_small_n(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(1, 13))
            # Half-integer grid forces plenty of rank ties.
            d = rng.integers(-4, 5, n) / 2.0
            if np.all(d == 0):
                continue
            mine = wilcoxon_signed_rank(d)
            w_ref, p_ref = wilcoxon_enumeration(list(d))
            assert mine.statistic == pytest.approx(w_ref, rel=1e-12)
            assert mine.p_value == pytest.approx(p_ref, rel=1e-12, abs=0.0)

    def test_normal_approx_close_to_exact_at_n25(self):
        rng = np.random.default_rng(1234)
        d = rng.normal(0.3, 1.0, 25)
        approx = wilcoxon_signed_rank(d)
        assert approx.method == "wilcoxon-normal"
        assert approx.statistic == 211.0
        # Exact two-sided p for this frozen sample, computed offline with an
        # independent exact-count pass over all 2^25 sign assignments.
        exact_p = 0.2002161741256714
        assert abs(approx.p_value - exact_p) < 0.02

    def test_scipy_agreement_no_ties(self):
        rng = np.random.default_rng(3)
        d = rng.normal(0.5, 1.0, 15)
        mine = wilcoxon_signed_rank(d)
        ref = scipy_stats.wilcoxon(d, alternative="two-sided", mode="exact")
        assert mine.p_value == pytest.approx(ref.pvalue, rel=1e-9, abs=0.0)

    def test_normal_tail_keeps_its_digits(self):
        # Past n = 20 the p-value is a normal tail; for 100 positive
        # differences it lies near 4e-18, where 1 - normal_cdf(z) rounds to 0.
        res = wilcoxon_signed_rank(list(range(1, 101)))
        assert res.method == "wilcoxon-normal"
        # scipy.stats.wilcoxon(range(1, 101), correction=True, method="approx")
        assert res.p_value == pytest.approx(3.955911608899571e-18, rel=1e-12, abs=0.0)


class TestPermutation:
    def test_all_zero_p_one(self):
        res = sign_flip_permutation([0.0, 0.0, 0.0], draws=100, seed=1)
        assert res.p_value == 1.0

    def test_exhaustive_hand_case(self):
        res = sign_flip_permutation([1.0, 1.0, 1.0], exhaustive=True)
        assert res.p_value == 0.25

    def test_exhaustive_matches_enumeration_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(2, 11))
            d = rng.normal(0.4, 1.0, n)
            res = sign_flip_permutation(d, exhaustive=True)
            hits, total = sign_flip_count(list(d))
            assert res.p_value == pytest.approx(hits / total, rel=1e-12, abs=0.0)

    def test_addone_estimator_bounds(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            d = rng.normal(2.0, 0.1, 12)  # extremely one-sided
            res = sign_flip_permutation(d, draws=500, seed=3)
            assert 0.0 < res.p_value <= 1.0
            assert res.p_value >= 1.0 / 501.0

    def test_identity_and_mirror_draws_always_count(self):
        # A draw's |mean| is a gemv row and obs a dot product; the two summation
        # orders may round one ulp apart, yet an all-plus or all-minus draw
        # must count itself, so hits never fall below the all-same-sign draws.
        rng = np.random.default_rng(8)
        for i in range(300):
            n = int(rng.integers(2, 8))
            d = rng.normal(rng.normal(), rng.uniform(0.1, 3.0), n)
            res = sign_flip_permutation(d, draws=400, seed=i)
            signs = substream(i, 0).integers(0, 2, size=(400, n))
            same = int(np.count_nonzero(signs.min(axis=1) == signs.max(axis=1)))
            assert round(res.p_value * 401) - 1 >= same, (i, d.tolist())

    def test_deterministic_per_seed(self):
        d = np.random.default_rng(0).normal(0.2, 1.0, 20)
        a = sign_flip_permutation(d, draws=1000, seed=42)
        b = sign_flip_permutation(d, draws=1000, seed=42)
        c = sign_flip_permutation(d, draws=1000, seed=43)
        assert a.p_value == b.p_value
        assert a.p_value != c.p_value


class TestTost:
    def test_degenerate_zero_sample_equivalent(self):
        res = tost([0.0, 0.0, 0.0], margin=0.001)
        assert res.degenerate
        assert res.equivalent

    def test_far_outside_margin_not_equivalent(self):
        res = tost([1.0, 1.001, 0.999, 1.0], margin=0.01)
        assert not res.equivalent

    def test_small_diffs_within_wide_margin(self):
        res = tost([0.0001, 0.0002, 0.0003], margin=0.001)
        assert res.equivalent
        assert res.p_value < 0.05
        assert max(res.p_lower, res.p_upper) == res.p_value

    @given(
        st.lists(st.floats(-0.5, 0.5), min_size=3, max_size=15),
        st.floats(0.01, 1.0),
        st.floats(1.1, 4.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_equivalence_monotone_in_margin(self, diffs, margin, widen):
        a = tost(diffs, margin)
        b = tost(diffs, margin * widen)
        if a.equivalent:
            assert b.equivalent

    def test_matches_statsmodels_style_computation(self):
        # Cross-check one-sided p-values against a direct t evaluation.
        d = np.array([0.02, -0.01, 0.03, 0.00, 0.015])
        margin = 0.05
        res = tost(d, margin)
        se = d.std(ddof=1) / math.sqrt(len(d))
        t_low = (d.mean() + margin) / se
        t_up = (d.mean() - margin) / se
        assert res.p_lower == pytest.approx(1 - scipy_stats.t.cdf(t_low, 4), rel=1e-9, abs=0.0)
        assert res.p_upper == pytest.approx(scipy_stats.t.cdf(t_up, 4), rel=1e-9, abs=0.0)


class TestConcordance:
    def test_perfect_agreement(self):
        assert lin_ccc([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == pytest.approx(1.0, rel=1e-12)

    def test_perfect_reversal(self):
        assert lin_ccc([-1.0, 0.0, 1.0], [1.0, 0.0, -1.0]) == pytest.approx(-1.0, rel=1e-12)

    def test_shifted_line(self):
        assert lin_ccc([1.0, 2.0, 3.0], [2.0, 3.0, 4.0]) == pytest.approx(4 / 7, rel=1e-12)

    def test_identical_constants(self):
        assert lin_ccc([2.0, 2.0], [2.0, 2.0]) == 1.0

    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_bounded_and_reflexive(self, xs):
        if len(set(xs)) > 1:
            assert lin_ccc(xs, xs) == pytest.approx(1.0, rel=1e-9)
            ys = [x * 0.5 + 1 for x in xs]
            assert -1.0 - 1e-9 <= lin_ccc(xs, ys) <= 1.0 + 1e-9


class TestCorrelations:
    def test_spearman_monotone(self):
        res = spearman([1.0, 2.0, 3.0, 4.0], [10.0, 20.0, 40.0, 80.0])
        assert res.statistic == pytest.approx(1.0)

    def test_spearman_reversed(self):
        res = spearman([1.0, 2.0, 3.0], [3.0, 2.0, 1.0])
        assert res.statistic == pytest.approx(-1.0)

    def test_spearman_hand_case(self):
        res = spearman([1.0, 2.0, 3.0, 4.0], [1.0, 3.0, 2.0, 4.0])
        assert res.statistic == pytest.approx(0.8, rel=1e-12)

    def test_matches_scipy(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=20)
        y = x + rng.normal(scale=0.8, size=20)
        mine = spearman(x, y)
        ref = scipy_stats.spearmanr(x, y)
        assert mine.statistic == pytest.approx(ref.statistic, rel=1e-12)
        assert mine.p_value == pytest.approx(ref.pvalue, rel=1e-9, abs=0.0)
        mine_p = pearson(x, y)
        ref_p = scipy_stats.pearsonr(x, y)
        assert mine_p.statistic == pytest.approx(ref_p.statistic, rel=1e-12)
        assert mine_p.p_value == pytest.approx(ref_p.pvalue, rel=1e-6, abs=0.0)

    def test_p_in_unit_interval_even_when_perfect(self):
        res = pearson([1.0, 2.0, 3.0], [2.0, 4.0, 6.0])
        assert res.statistic == pytest.approx(1.0)
        assert 0.0 < res.p_value <= 1.0


def _pooled_mean(groups):
    """Batched statistic: the mean of the pooled observations of each row's groups."""
    return lambda index: np.array(
        [float(np.mean(np.concatenate([groups[j] for j in row]))) for row in index]
    )


class TestClusterBootstrap:
    def test_constant_statistic_zero_width(self):
        groups = [np.array([3.0, 3.0]), np.array([3.0]), np.array([3.0, 3.0, 3.0])]
        res = cluster_bootstrap(groups, _pooled_mean(groups), draws=200, seed=1)
        assert res.point == 3.0
        assert res.ci95 == (3.0, 3.0)

    def test_single_cluster_raises(self):
        with pytest.raises(NotEnoughClusters):
            cluster_bootstrap([np.array([1.0])], lambda index: np.zeros(len(index)))

    def test_bit_reproducible(self):
        rng = np.random.default_rng(2)
        groups = [rng.normal(size=5) for _ in range(8)]
        a = cluster_bootstrap(groups, _pooled_mean(groups), draws=500, seed=9)
        b = cluster_bootstrap(groups, _pooled_mean(groups), draws=500, seed=9)
        assert a.ci95 == b.ci95

    def test_ci_contains_point_for_smooth_statistic(self):
        rng = np.random.default_rng(4)
        groups = [rng.normal(loc=2.0, size=6) for _ in range(12)]
        res = cluster_bootstrap(groups, _pooled_mean(groups), draws=2000, seed=0)
        assert res.ci95[0] <= res.point <= res.ci95[1]

    def test_statistic_sees_identity_then_every_draw(self):
        seen = []

        def stat(index):
            seen.append(index.copy())
            return index[:, 0].astype(float)

        cluster_bootstrap(["a", "b", "c"], stat, draws=7, seed=3)
        assert len(seen) == 2
        assert seen[0].tolist() == [[0, 1, 2]]
        assert seen[1].shape == (7, 3)
        assert np.array_equal(seen[1], substream(3, 0).integers(0, 3, size=(7, 3)))

    def test_wrong_length_statistic_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            cluster_bootstrap([1, 2], lambda index: np.zeros(1), draws=5)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(-5, 5).map(float), min_size=1, max_size=4),
            min_size=2,
            max_size=12,
        ),
        st.integers(1, 300),
        st.integers(0, 2**32),
    )
    def test_interval_matches_per_draw_oracle(self, raw_groups, draws, seed):
        groups = [np.array(g) for g in raw_groups]
        res = cluster_bootstrap(groups, _pooled_mean(groups), draws=draws, seed=seed)
        point, ci = cluster_bootstrap_per_draw(
            groups, lambda gs: float(np.mean(np.concatenate(gs))), draws, seed
        )
        assert np.array([res.point, *res.ci95]).tobytes() == np.array([point, *ci]).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.25]),
                st.integers(-2, 2).map(float),
                st.floats(-1.0, 1.0),
            ),
            min_size=1,
            max_size=300,
        )
    )
    def test_percentiles_equal_numpy(self, values):
        v = np.array(values)
        for q in ([2.5, 97.5], [0.0, 50.0, 100.0], [33.3]):
            assert stats_mod._percentiles(v, q).tobytes() == np.percentile(v, q).tobytes()


class TestLag1:
    def test_alternating_series(self):
        res = lag1_autocorr([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
        assert res.statistic == pytest.approx(-1.0, rel=1e-12)

    def test_constant_degenerate(self):
        res = lag1_autocorr([2.0, 2.0, 2.0, 2.0])
        assert res.degenerate

    def test_hand_five_points(self):
        x = [1.0, 2.0, 4.0, 3.0, 5.0]
        a = np.array(x[:-1])
        b = np.array(x[1:])
        expected = float(np.corrcoef(a, b)[0, 1])
        assert lag1_autocorr(x).statistic == pytest.approx(expected, rel=1e-12)


class TestRanks:
    def test_average_ranks_with_ties(self):
        assert average_ranks([10.0, 20.0, 20.0, 30.0]).tolist() == [1.0, 2.5, 2.5, 4.0]

    def test_matches_scipy_rankdata(self):
        rng = np.random.default_rng(6)
        x = rng.integers(0, 5, 30).astype(float)
        assert average_ranks(x).tolist() == scipy_stats.rankdata(x).tolist()

    def test_empty_input(self):
        assert average_ranks([]).shape == (0,)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 40).flatmap(
            lambda n: st.lists(
                st.lists(
                    st.one_of(
                        st.integers(-3, 3).map(float),
                        st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324]),
                        st.floats(-1e6, 1e6),
                    ),
                    min_size=n,
                    max_size=n,
                ),
                min_size=1,
                max_size=6,
            )
        )
    )
    def test_batched_ranks_match_loop_oracle(self, rows):
        x = np.array(rows)
        got = average_ranks(x)
        for row, ranks in zip(x, got):
            assert ranks.tobytes() == average_ranks_loop(row).tobytes()
            assert average_ranks(row).tobytes() == ranks.tobytes()


class TestSpearmanRows:
    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 300),
        st.integers(0, 12),
        st.integers(1, 8),
        st.sampled_from(["ties", "floats", "special"]),
        st.integers(0, 2**32),
    )
    def test_rows_match_per_draw_oracle(self, k, n, distinct, style, seed):
        rng = np.random.default_rng(seed)
        pool = {
            "ties": np.arange(distinct, dtype=float),
            "floats": rng.normal(scale=1e3, size=distinct),
            "special": np.array([np.nan, 5e-324, -0.0, 0.0, 1e-300, np.inf, -np.inf, 1.0])[:distinct],
        }[style]
        x = rng.choice(pool, size=(k, n))
        y = rng.choice(np.append(pool, rng.normal(size=3)), size=(k, n))
        got = spearman_rows(x, y)
        assert got.shape == (k,)
        expected = [spearman_or_zero_loop(list(x[i]), list(y[i])) for i in range(k)]
        assert got.tobytes() == np.array(expected).tobytes()

    def test_constant_and_short_rows_give_zero(self):
        x = np.array([[1.0, 1.0, 1.0], [1.0, 2.0, 3.0]])
        y = np.array([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]])
        assert spearman_rows(x, y).tolist() == [0.0, spearman(x[1], y[1]).statistic]
        assert spearman_rows(x[:, :2], y[:, :2]).tolist() == [0.0, 0.0]

    def test_matches_spearman_statistic(self):
        rng = np.random.default_rng(11)
        x = rng.integers(0, 4, (50, 7)).astype(float)
        y = rng.normal(size=(50, 7))
        got = spearman_rows(x, y)
        for i in range(50):
            res = spearman(x[i], y[i])
            assert got[i] == (0.0 if res.degenerate else res.statistic)


_STACK_VALUE = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.5]),
    st.integers(-3, 3).map(float),
    st.floats(-1e3, 1e3),
)


def _stack_rows(n: int, k: int):
    """k rows of n values: free rows with ties, zeros and signed zeros, and
    constant rows (all zero when the constant is ±0.0)."""
    row = st.one_of(
        st.lists(_STACK_VALUE, min_size=n, max_size=n),
        _STACK_VALUE.map(lambda v: [v] * n),
    )
    return st.lists(row, min_size=k, max_size=k)


# n = 21 is Wilcoxon's first normal-approximation length, unless the row
# holds a zero.
_STACK_SHAPES = st.tuples(st.sampled_from([2, 3, 4, 16, 21, 25]), st.integers(1, 6))


def _same_rows(stacked, singles) -> None:
    # repr tells -0.0 from 0.0 and spells every float to its last bit.
    assert len(stacked) == len(singles)
    for got, expected in zip(stacked, singles):
        assert repr(got) == repr(expected)


class TestStackedRows:
    """Each stacked test on a (k, n) array against its 1-D call on each row."""

    @settings(max_examples=150, deadline=None)
    @given(_STACK_SHAPES.flatmap(lambda s: _stack_rows(*s)))
    def test_one_sample_t(self, rows):
        d = np.array(rows)
        _same_rows(one_sample_t(d), [one_sample_t(row) for row in d])

    @settings(max_examples=150, deadline=None)
    @given(_STACK_SHAPES.flatmap(lambda s: _stack_rows(*s)), st.sampled_from([0.1, 0.5, 2.0]))
    def test_tost(self, rows, margin):
        d = np.array(rows)
        _same_rows(tost(d, margin), [tost(row, margin) for row in d])

    @settings(max_examples=150, deadline=None)
    @given(_STACK_SHAPES.filter(lambda s: s[0] >= 3).flatmap(lambda s: _stack_rows(*s)))
    def test_lag1_autocorr(self, rows):
        d = np.array(rows)
        _same_rows(lag1_autocorr(d), [lag1_autocorr(row) for row in d])

    @settings(max_examples=200, deadline=None)
    @given(_STACK_SHAPES.flatmap(lambda s: _stack_rows(*s)))
    def test_wilcoxon(self, rows):
        d = np.array(rows)
        _same_rows(wilcoxon_signed_rank(d), [wilcoxon_signed_rank(row) for row in d])

    @settings(max_examples=150, deadline=None)
    @given(_STACK_SHAPES.flatmap(lambda s: st.tuples(_stack_rows(*s), _stack_rows(*s))))
    def test_lin_ccc(self, xy):
        x, y = np.array(xy[0]), np.array(xy[1])
        got = lin_ccc(x, y)
        assert got.shape == (len(x),)
        _same_rows(got.tolist(), [lin_ccc(a, b) for a, b in zip(x, y)])

    def test_wilcoxon_rows_drop_their_own_zeros(self):
        rng = np.random.default_rng(3)
        d = rng.choice([-1.0, 1.0], size=(5, 24)) * rng.integers(1, 9, size=(5, 24))
        d[1, :3] = 0.0  # 21 left: the normal approximation
        d[2, ::6] = -0.0  # 20 left: exact enumeration
        d[3, :] = 0.0  # none left: degenerate
        d[4, 5:] = 0.0  # 5 left
        got = wilcoxon_signed_rank(d)
        assert [(r.method, r.n) for r in got] == [
            ("wilcoxon-normal", 24), ("wilcoxon-normal", 21), ("wilcoxon-exact", 20),
            ("wilcoxon", 0), ("wilcoxon-exact", 5),
        ]
        assert got[3].p_value is None and got[3].degenerate
        _same_rows(got, [wilcoxon_signed_rank(row) for row in d])

    def test_one_series_gives_one_result(self):
        d = [1.0, 2.0, 4.0, 3.0]
        assert isinstance(one_sample_t(d), stats_mod.TestResult)
        assert isinstance(lin_ccc(d, d), float)
        assert one_sample_t(np.array([d])) == [one_sample_t(d)]

    def test_other_ranks_rejected(self):
        for fn in (one_sample_t, wilcoxon_signed_rank, lag1_autocorr, lambda d: tost(d, 0.5)):
            with pytest.raises(ValueError):
                fn(np.ones((2, 3, 4)))
        with pytest.raises(ValueError):
            lin_ccc(np.ones((2, 3)), np.ones((3, 3)))


class TestSignFlipChunks:
    # Series shorter than 32 take chunks of up to 32768 rows (n = 1): one
    # chunk at 5000 draws, several at 40000.
    @pytest.mark.parametrize("draws", [1, 1023, 1025, 2049, 5000, 5003, 40000])
    def test_chunked_equals_one_shot(self, draws):
        rng = np.random.default_rng(draws)
        for n in range(1, 34):
            d = rng.normal(size=n).round(2)
            got = sign_flip_permutation(d, draws=draws, seed=n)
            assert got.p_value == sign_flip_one_shot(d, draws, n)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(-10, 10), min_size=1, max_size=33),
        st.integers(1, 3000),
        st.sampled_from([8, 16, 64, 256, 1024]),
        st.integers(0, 2**32),
    )
    def test_any_power_of_two_chunk_equals_one_shot(self, d, draws, chunk, seed):
        old = stats_mod.SIGN_CHUNK
        stats_mod.SIGN_CHUNK = chunk
        try:
            got = sign_flip_permutation(d, draws=draws, seed=seed)
        finally:
            stats_mod.SIGN_CHUNK = old
        assert got.p_value == sign_flip_one_shot(d, draws, seed)

    def test_chunk_is_a_power_of_two(self, monkeypatch):
        assert SIGN_CHUNK >= 64 and SIGN_CHUNK & (SIGN_CHUNK - 1) == 0
        # The rows each call draws at once: SIGN_CHUNK times the largest power
        # of two that keeps a chunk within SIGN_CHUNK * 32 sign values.
        sizes = []
        real = stats_mod.substream

        class Spy:
            def __init__(self, seed, stream):
                self.gen = real(seed, stream)

            def integers(self, low, high, size):
                sizes.append(size[0])
                return self.gen.integers(low, high, size=size)

        monkeypatch.setattr(stats_mod, "substream", Spy)
        expected = {1: 32768, 2: 16384, 3: 8192, 4: 8192, 16: 2048, 17: 1024, 32: 1024, 33: 1024, 200: 1024}
        for n, rows in expected.items():
            sizes.clear()
            sign_flip_permutation(np.ones(n), draws=10**5, seed=0)
            assert set(sizes[:-1]) == {rows}, n

    def test_negative_draws_rejected(self):
        with pytest.raises(ValueError):
            sign_flip_permutation([1.0, 2.0], draws=-1)
