import json
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crossbt import buckets as bucketmod
from crossbt.buckets import (
    CANDIDATE_BLOCK,
    CovariateTable,
    InfeasibleConstraint,
    Partition,
    bucket_quadratic_forms,
    compute_covariates,
    mahalanobis_score,
    rerandomize,
    sample_partition,
    sector_balance,
)
from crossbt.marketdata import PriceMatrix
from crossbt.rng import substream
from crossbt.stats import chi2_sf

from oracles import greedy_fill_loop, quadratic_balance_score


def _serial_rerandomize(cov, sectors, bucket_size, n_buckets, n_candidates, seed,
                        sector_constraint=True):
    """Reference rerandomisation: one ``greedy_fill_loop`` per candidate on
    its own substream, each scored alone, keeping the first strict minimum."""
    if sector_constraint:
        sector_list = [sectors[a] for a in cov.assets]
    else:
        sector_list = [""] * len(cov.assets)
    best_score, best = math.inf, None
    for i in range(n_candidates):
        drawn = greedy_fill_loop(len(cov.assets), sector_list, bucket_size, n_buckets,
                                 substream(seed, i), sector_constraint)
        named = tuple(tuple(cov.assets[j] for j in b) for b in drawn)
        score = mahalanobis_score(Partition(named, 0.0, seed, 1), cov)
        if score < best_score:
            best_score, best = score, named
    return best, best_score


def _outcome(fn, *args, **kwargs):
    """(buckets, score) from a rerandomisation, or the infeasibility marker."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            result = fn(*args, **kwargs)
        except InfeasibleConstraint:
            return "infeasible"
    if isinstance(result, Partition):
        return result.buckets, result.score
    return result


@st.composite
def _universes(draw):
    n_assets = draw(st.integers(4, 40))
    n_sectors = draw(st.integers(1, 9))
    labels = draw(st.lists(st.integers(0, n_sectors - 1), min_size=n_assets,
                           max_size=n_assets))
    bucket_size = draw(st.integers(1, min(10, n_assets)))
    n_buckets = draw(st.integers(1, n_assets // bucket_size))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(size=(n_assets, 3)) * rng.uniform(0.01, 10.0, size=3)
    if draw(st.booleans()):
        values[:, 2] = values[:, 0]  # singular covariance: pseudo-inverse path
    assets = tuple(f"A{i}" for i in range(n_assets))
    sectors = {a: f"s{k}" for a, k in zip(assets, labels)}
    return CovariateTable(assets, values), sectors, bucket_size, n_buckets


@st.composite
def _layouts(draw):
    """Sector codes of a universe with uneven sectors, and a bucket layout
    that may leave assets over or find no feasible partition at all."""
    n_sectors = draw(st.integers(1, 6))
    sizes = draw(st.lists(st.integers(1, 7), min_size=n_sectors, max_size=n_sectors))
    codes = draw(st.permutations(np.repeat(np.arange(n_sectors), sizes).tolist()))
    bucket_size = draw(st.integers(1, n_sectors))
    # Layouts that use nearly every asset are the ones where a shuffle can
    # dead-end and the candidate restarts.
    most = len(codes) // bucket_size
    n_buckets = draw(st.one_of(st.integers(max(1, most - 1), most), st.integers(1, most)))
    return np.array(codes, dtype=np.intp), bucket_size, n_buckets


def _panel(prices, sectors=None):
    prices = np.asarray(prices, dtype=float)
    assets = tuple(f"A{i}" for i in range(prices.shape[1]))
    sec = dict(zip(assets, sectors)) if sectors else None
    return PriceMatrix(tuple(str(i) for i in range(prices.shape[0])), assets, prices, sec)


class TestCovariates:
    def test_constant_prices(self):
        pm = _panel(np.full((40, 3), 50.0))
        cov = compute_covariates(pm)
        assert np.all(cov.values[:, 0] == 0.0)  # volatility
        assert np.all(cov.values[:, 2] == 0.0)  # log total return

    def test_doubling_log_return(self):
        path = np.geomspace(100.0, 200.0, 30)
        pm = _panel(np.column_stack([path, path * 3.0]))
        cov = compute_covariates(pm)
        assert cov.values[0, 2] == pytest.approx(math.log(2), rel=1e-12)

    def test_identical_pair_correlates_one(self, small_universe):
        base = small_universe.prices[:, 0]
        pm = _panel(np.column_stack([base, base]))
        cov = compute_covariates(pm)
        assert cov.values[:, 1] == pytest.approx([1.0, 1.0], abs=1e-12)

    def test_finite_for_degenerate_assets(self):
        pm = _panel(np.column_stack([np.full(30, 5.0), np.geomspace(1, 2, 30)]))
        cov = compute_covariates(pm)
        assert np.all(np.isfinite(cov.values))


class TestMahalanobisScore:
    def test_equal_means_scores_zero(self):
        values = np.array([[1.0, 2.0, 3.0]] * 8)
        cov = CovariateTable(tuple(f"A{i}" for i in range(8)), values)
        part = Partition((("A0", "A1"), ("A2", "A3"), ("A4", "A5"), ("A6", "A7")), 0.0, 0, 1)
        with pytest.warns(RuntimeWarning):
            # Identical covariates make the covariance singular.
            assert mahalanobis_score(part, cov) == 0.0

    def test_identity_matrix_offset_contributes_25(self):
        means = np.array([[3.0, 4.0, 0.0], [0.0, 0.0, 0.0]])
        universe = np.zeros(3)
        forms = bucket_quadratic_forms(means, universe, np.eye(3))
        assert forms[0] == pytest.approx(25.0, rel=1e-12)
        assert forms[1] == 0.0

    def test_matches_brute_force_on_random_instance(self):
        rng = np.random.default_rng(77)
        values = rng.normal(size=(12, 3))
        assets = tuple(f"A{i}" for i in range(12))
        cov = CovariateTable(assets, values)
        buckets = (assets[0:4], assets[4:8], assets[8:12])
        part = Partition(buckets, 0.0, 0, 1)
        mine = mahalanobis_score(part, cov)
        brute = quadratic_balance_score(
            [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11]],
            [list(row) for row in values],
            4,
        )
        assert mine == pytest.approx(brute, rel=1e-12)


@st.composite
def _any_layouts(draw):
    """Sector labels and a bucket layout that may have more slots than assets,
    more slots per bucket than sectors, or no slot at all."""
    n_sectors = draw(st.integers(1, 6))
    labels = draw(st.lists(st.sampled_from([f"s{k}" for k in range(n_sectors)]), max_size=24))
    return labels, draw(st.integers(0, 8)), draw(st.integers(0, 8))


class TestSamplePartition:
    @settings(max_examples=300, deadline=None)
    @given(layout=_any_layouts(), seed=st.integers(-2**64, 2**66), sector_constraint=st.booleans())
    # One sector must go in every bucket: four shuffles dead-end, the fifth fits.
    @example(layout=(["a"] * 4 + ["b", "c", "d", "e"], 2, 4), seed=15, sector_constraint=True)
    @example(layout=(["a"] * 8, 3, 2), seed=1, sector_constraint=False)
    @example(layout=(["a", "b"] * 3, 2, 4), seed=2, sector_constraint=False)
    @example(layout=(["a", "b"] * 3, 3, 1), seed=3, sector_constraint=True)
    @example(layout=(["a", "b"] * 3, 3, 0), seed=4, sector_constraint=True)
    @example(layout=(["a", "b"] * 3, 0, 2), seed=5, sector_constraint=True)
    def test_equals_greedy_fill_loop(self, layout, seed, sector_constraint):
        # Same partition as the asset-by-asset fill on candidate 0's
        # substream, or both infeasible.
        labels, bucket_size, n_buckets = layout
        args = (len(labels), labels, bucket_size, n_buckets)
        drawn = _outcome(sample_partition, *args, seed, sector_constraint)
        assert drawn == _outcome(greedy_fill_loop, *args, substream(seed, 0), sector_constraint)

    @settings(max_examples=60, deadline=None)
    @given(universe=_universes(), seed=st.integers(0, 2**64 - 1), sector_constraint=st.booleans())
    def test_is_candidate_zero_of_rerandomize(self, universe, seed, sector_constraint):
        cov, sectors, bucket_size, n_buckets = universe
        args = (cov, sectors, bucket_size, n_buckets, 1, seed, sector_constraint)
        best = _outcome(rerandomize, *args)
        labels = [sectors[a] for a in cov.assets]
        drawn = _outcome(sample_partition, len(cov.assets), labels, bucket_size, n_buckets, seed,
                         sector_constraint)
        if best == "infeasible":
            assert drawn == "infeasible"
        else:
            assert best[0] == tuple(tuple(cov.assets[i] for i in b) for b in drawn)


class TestRerandomize:
    def _cov(self, pm):
        return compute_covariates(pm)

    def test_single_candidate_returned(self, bucket_universe):
        cov = self._cov(bucket_universe)
        part = rerandomize(cov, bucket_universe.sectors, 6, 5, 1, seed=3)
        assert part.n_candidates == 1
        assert mahalanobis_score(part, cov) == part.score

    def test_identical_covariates_score_zero(self):
        pm = _panel(np.full((40, 4), 10.0), sectors=["s0", "s1", "s0", "s1"])
        values = np.zeros((4, 3))
        cov = CovariateTable(pm.assets, values)
        with pytest.warns(RuntimeWarning):
            part = rerandomize(cov, pm.sectors, 2, 2, 5, seed=0)
        assert part.score == 0.0
        assert part.pinv_fallback
        again = Partition.from_json(part.to_json())
        assert again.pinv_fallback
        assert again == part

    def test_deterministic_for_seed(self, bucket_universe):
        cov = self._cov(bucket_universe)
        a = rerandomize(cov, bucket_universe.sectors, 6, 5, 50, seed=11)
        b = rerandomize(cov, bucket_universe.sectors, 6, 5, 50, seed=11)
        assert a.buckets == b.buckets
        assert a.score == b.score

    def test_partition_invariants(self, bucket_universe):
        cov = self._cov(bucket_universe)
        part = rerandomize(cov, bucket_universe.sectors, 6, 5, 25, seed=1)
        flat = [a for b in part.buckets for a in b]
        assert len(flat) == len(set(flat)) == 30
        assert set(flat) <= set(bucket_universe.assets)
        for bucket in part.buckets:
            assert len(bucket) == 6
            sectors = {bucket_universe.sectors[a] for a in bucket}
            assert len(sectors) == 6

    def test_score_minimal_over_candidate_stream(self, bucket_universe):
        cov = self._cov(bucket_universe)
        n_cand = 40
        part = rerandomize(cov, bucket_universe.sectors, 6, 5, n_cand, seed=9)
        sectors = [bucket_universe.sectors[a] for a in cov.assets]
        rescored = []
        for i in range(n_cand):
            buckets = greedy_fill_loop(36, sectors, 6, 5, substream(9, i))
            named = tuple(tuple(cov.assets[j] for j in b) for b in buckets)
            rescored.append(mahalanobis_score(Partition(named, 0.0, 9, 1), cov))
        assert part.score == min(rescored)

    def test_no_sector_map_with_constraint_disabled(self):
        rng = np.random.default_rng(12)
        pm = _panel(rng.uniform(50, 150, size=(40, 8)))
        cov = compute_covariates(pm)
        part = rerandomize(cov, {}, 2, 4, 10, seed=0, sector_constraint=False)
        assert sum(len(b) for b in part.buckets) == 8

    @pytest.mark.parametrize("bucket_size, n_buckets", [(0, 2), (2, 0), (5, 8)])
    def test_impossible_layout_rejected(self, bucket_universe, bucket_size, n_buckets):
        cov = self._cov(bucket_universe)
        with pytest.raises(ValueError, match="bucket"):
            rerandomize(cov, bucket_universe.sectors, bucket_size, n_buckets, 3, seed=0,
                        sector_constraint=False)

    def test_infeasible_sector_constraint(self):
        pm = _panel(np.full((30, 4), 3.0) + np.arange(4) + np.random.default_rng(0).normal(0, 0.01, (30, 4)),
                    sectors=["only", "only", "only", "only"])
        cov = compute_covariates(pm)
        with pytest.raises(InfeasibleConstraint):
            rerandomize(cov, pm.sectors, 2, 2, 3, seed=0)

    def test_partition_json_roundtrip(self, bucket_universe):
        cov = self._cov(bucket_universe)
        part = rerandomize(cov, bucket_universe.sectors, 6, 5, 10, seed=2)
        again = Partition.from_json(part.to_json())
        assert again.buckets == part.buckets
        assert again.score == part.score
        assert again.seed == part.seed
        assert again.n_candidates == part.n_candidates
        assert again.pinv_fallback is part.pinv_fallback is False
        assert json.loads(part.to_json())["pinv_fallback"] is False

    def test_partition_json_without_fallback_key_loads(self, bucket_universe):
        cov = self._cov(bucket_universe)
        part = rerandomize(cov, bucket_universe.sectors, 6, 5, 10, seed=2)
        obj = json.loads(part.to_json())
        del obj["pinv_fallback"]
        assert Partition.from_json(json.dumps(obj)) == part

    def test_partition_json_with_an_unwritten_key_refused(self, bucket_universe):
        # The reader is the constructor: a key to_json never writes is an
        # error, not ignored.
        part = rerandomize(self._cov(bucket_universe), bucket_universe.sectors, 6, 5, 10, seed=2)
        obj = {**json.loads(part.to_json()), "n_bucket": 6}
        with pytest.raises(TypeError, match="n_bucket"):
            Partition.from_json(json.dumps(obj))

    @settings(max_examples=60, deadline=None)
    @given(
        universe=_universes(),
        n_candidates=st.integers(1, 40),
        block=st.integers(1, 16),
        seed=st.integers(0, 2**63 - 1),
        sector_constraint=st.booleans(),
    )
    def test_batch_matches_serial_reference(self, universe, n_candidates, block, seed,
                                            sector_constraint):
        cov, sectors, bucket_size, n_buckets = universe
        args = (cov, sectors, bucket_size, n_buckets, n_candidates, seed)
        with mock.patch.object(bucketmod, "CANDIDATE_BLOCK", block):
            batch = _outcome(rerandomize, *args, sector_constraint=sector_constraint)
        serial = _outcome(_serial_rerandomize, *args, sector_constraint=sector_constraint)
        assert batch == serial

    @pytest.mark.parametrize("bucket_size, n_buckets, sector_constraint",
                             [(6, 5, True), (9, 4, False), (8, 1, False)])
    def test_batch_crossing_block_matches_serial(self, bucket_universe, bucket_size,
                                                 n_buckets, sector_constraint):
        cov = self._cov(bucket_universe)
        n_candidates = CANDIDATE_BLOCK + 37
        args = (cov, bucket_universe.sectors, bucket_size, n_buckets, n_candidates, 5)
        part = rerandomize(*args, sector_constraint=sector_constraint)
        buckets, score = _serial_rerandomize(*args, sector_constraint=sector_constraint)
        assert part.buckets == buckets
        assert part.score == score

    @settings(max_examples=80, deadline=None)
    @given(
        layout=_layouts(),
        seed=st.integers(-2**64, 2**66),
        first=st.integers(0, 2**64 - 1),
        count=st.integers(1, 6),
        sector_constraint=st.booleans(),
    )
    # One sector must go in every bucket: candidates 3 and 6 take four
    # shuffles each, 4 and 5 one.
    @example(layout=(np.array([0, 0, 0, 0, 1, 2, 3, 4]), 2, 4), seed=0, first=3,
             count=4, sector_constraint=True)
    # Six of eight assets in one sector: two buckets of three never fit.
    @example(layout=(np.array([0, 0, 0, 1, 0, 2, 0, 0]), 3, 2), seed=1, first=3,
             count=2, sector_constraint=True)
    @example(layout=(np.array([0, 0, 0, 1, 0, 2, 0, 0]), 3, 2), seed=1, first=3,
             count=2, sector_constraint=False)
    def test_each_block_candidate_matches_serial_reference(self, layout, seed, first, count,
                                                           sector_constraint):
        codes, bucket_size, n_buckets = layout
        n = len(codes)
        serial = []
        for j in range(count):
            try:
                serial.append(greedy_fill_loop(n, codes.tolist(), bucket_size, n_buckets,
                                               substream(seed, first + j), sector_constraint))
            except InfeasibleConstraint:
                serial.append(None)
        args = (seed, first, count, n, codes if sector_constraint else None, bucket_size,
                n_buckets)
        if None in serial:
            # A block fails when any of its candidates exhausts its restarts.
            with pytest.raises(InfeasibleConstraint):
                bucketmod._sample_block(*args)
        else:
            block = bucketmod._sample_block(*args)
            assert block.shape == (count, n_buckets, bucket_size)
            for j in range(count):
                assert block[j].tolist() == serial[j]

    def test_infeasible_layout_raises_in_batch_and_serial(self):
        # Six of eight assets share one sector: two buckets of three cannot
        # each avoid a repeated sector, though each bucket size fits.
        assets = tuple(f"A{i}" for i in range(8))
        labels = ["x"] * 6 + ["y", "z"]
        sectors = dict(zip(assets, labels))
        cov = CovariateTable(assets, np.random.default_rng(3).normal(size=(8, 3)))
        with pytest.raises(InfeasibleConstraint):
            rerandomize(cov, sectors, 3, 2, 5, seed=1)
        with pytest.raises(InfeasibleConstraint):
            _serial_rerandomize(cov, sectors, 3, 2, 5, seed=1)


class TestSectorBalance:
    def test_uniform_counts(self):
        sectors = {f"A{i}": f"s{i % 4}" for i in range(16)}
        part = Partition(
            tuple(tuple(f"A{j}" for j in range(i, 16, 4)) for i in range(4)), 0.0, 0, 1
        )
        # Each bucket holds one of each sector? Build buckets of 4 distinct sectors.
        part = Partition(
            (
                ("A0", "A1", "A2", "A3"),
                ("A4", "A5", "A6", "A7"),
                ("A8", "A9", "A10", "A11"),
                ("A12", "A13", "A14", "A15"),
            ),
            0.0,
            0,
            1,
        )
        res = sector_balance(part, sectors)
        assert res.chi2 == 0.0
        assert res.p_value == 1.0
        assert res.entropy_ratio == pytest.approx(1.0, abs=1e-12)

    def test_single_sector_entropy_zero(self):
        sectors = {f"A{i}": "one" for i in range(4)}
        part = Partition((("A0", "A1"), ("A2", "A3")), 0.0, 0, 1)
        res = sector_balance(part, sectors)
        assert res.entropy_ratio == 0.0

    def test_hand_chi2(self):
        # Counts (3, 1) against uniform expectation (2, 2): chi2 = 1.0.
        sectors = {"A0": "x", "A1": "x", "A2": "x", "A3": "y"}
        part = Partition((("A0", "A1"), ("A2", "A3")), 0.0, 0, 1)
        res = sector_balance(part, sectors)
        assert res.chi2 == pytest.approx(1.0, rel=1e-12)

    def test_goodness_of_fit_df_is_sectors_minus_one(self):
        # 3 buckets of 2 over sectors x and y: pooled counts (4, 2) against
        # the uniform expectation (3, 3) give chi2 = 2/3 on 2 - 1 = 1 df, not
        # on the (3 - 1)(2 - 1) = 2 df of a bucket x sector table.
        sectors = {"A0": "x", "A1": "x", "A2": "x", "A3": "y", "A4": "x", "A5": "y"}
        part = Partition((("A0", "A1"), ("A2", "A3"), ("A4", "A5")), 0.0, 0, 1)
        res = sector_balance(part, sectors)
        assert res.df == 1
        assert res.chi2 == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert res.p_value == chi2_sf(res.chi2, 1)
        assert res.p_value == pytest.approx(math.erfc(math.sqrt(1.0 / 3.0)), rel=1e-12)
        assert res.p_value != pytest.approx(chi2_sf(res.chi2, 2), rel=1e-3)

    def test_missed_sector_counts_as_zero(self):
        # Universe has 3 sectors but the partition only drew from 2: the
        # absent sector contributes a zero-count cell.
        sectors = {"A0": "x", "A1": "y", "A2": "x", "A3": "y", "A4": "z", "A5": "z"}
        part = Partition((("A0", "A1"), ("A2", "A3")), 0.0, 0, 1)
        res = sector_balance(part, sectors)
        # Counts (2, 2, 0) vs expectation 4/3 each.
        e = 4.0 / 3.0
        expected = 2 * (2 - e) ** 2 / e + (0 - e) ** 2 / e
        assert res.chi2 == pytest.approx(expected, rel=1e-12)
        assert res.entropy_ratio < 1.0
