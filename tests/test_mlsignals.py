import gc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossbt import mlsignals
from crossbt.marketdata import PriceMatrix, SynthSpec, generate_synthetic
from crossbt.mlsignals import (
    FEATURE_NAMES,
    ElasticNetConfig,
    ElasticNetFit,
    NotEnoughHistory,
    WalkForwardConfig,
    build_features,
    feature_panel,
    fit_elastic_net,
    walk_forward_signal,
)

from oracles import (
    elastic_net_residual_cd,
    feature_recompute,
    features_per_day,
    training_targets_loop,
)


def _panel(prices):
    prices = np.asarray(prices, dtype=float)
    return PriceMatrix(
        tuple(str(i + 1) for i in range(prices.shape[0])),
        tuple(f"A{i}" for i in range(prices.shape[1])),
        prices,
    )


class TestFeatures:
    def test_constant_prices_all_zero(self):
        pm = _panel(np.full((200, 3), 42.0))
        feats = build_features(pm, 150)
        assert np.all(feats == 0.0)

    def test_doubling_over_last_21_days(self):
        # Price exactly doubles between t-21 and t: r21 = 1.0.
        prices = np.full((200, 2), 50.0)
        prices[199, 0] = 2 * prices[178, 0]
        pm = _panel(prices)
        feats = build_features(pm, 199)
        assert feats[0, 0] == pytest.approx(1.0, rel=1e-12)

    def test_insufficient_history(self):
        pm = _panel(np.full((200, 2), 10.0))
        with pytest.raises(NotEnoughHistory):
            build_features(pm, 125)
        build_features(pm, 126)

    def test_matches_spreadsheet_recompute(self):
        pm = generate_synthetic(SynthSpec(n_assets=3, n_days=130, seed=99, annual_vol=0.4))
        feats = build_features(pm, 128)
        for i in range(3):
            expected = feature_recompute(list(pm.prices[:, i]), 128)
            assert feats[i] == pytest.approx(expected, rel=1e-12)


@st.composite
def price_panels(draw, min_days=127, max_days=400):
    """Panels of 1-12 assets whose prices range over 1e-2..1e4.

    Styles: i.i.d. log-uniform levels (jumps of many orders of magnitude),
    random walks, and flat stretches that give zero-variance windows.
    """
    n_assets = draw(st.integers(1, 12))
    n_days = draw(st.integers(min_days, max_days))
    style = draw(st.sampled_from(["iid", "walk", "flat"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo, hi = np.log(1e-2), np.log(1e4)
    if style == "iid":
        logp = rng.uniform(lo, hi, size=(n_days, n_assets))
    else:
        steps = rng.normal(0.0, draw(st.floats(0.0, 0.1)), size=(n_days, n_assets))
        if style == "flat":
            steps[rng.uniform(size=n_days) < 0.7] = 0.0
        logp = np.clip(rng.uniform(lo, hi, size=n_assets) + np.cumsum(steps, axis=0), lo, hi)
    return _panel(np.exp(logp))


class TestFeaturePanel:
    @given(pm=price_panels())
    @settings(max_examples=40, deadline=None)
    def test_rows_equal_per_day_formula_bit_for_bit(self, pm):
        panel = feature_panel(pm)
        assert panel.shape == (pm.n_days, pm.n_assets, 5)
        assert np.isnan(panel[:126]).all()
        for t in range(126, pm.n_days):
            expected = features_per_day(pm.prices, t)
            assert np.array_equal(panel[t], expected)
            assert np.array_equal(build_features(pm, t), expected)

    @given(pm=price_panels(), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_subset_rows_equal_per_day_formula_bit_for_bit(self, pm, data):
        """Every bucket is a ``subset`` of a wider panel; its prices are C-order
        like any matrix's, so the premise holds for buckets too."""
        wide = _panel(np.concatenate([pm.prices, pm.prices[:, ::-1] * 1.5], axis=1))
        cols = data.draw(st.lists(st.sampled_from(wide.assets), min_size=1, max_size=8, unique=True))
        sub = wide.subset(cols)
        panel = feature_panel(sub)
        for t in range(126, sub.n_days):
            assert np.array_equal(panel[t], features_per_day(sub.prices, t)), t

    @given(pm=price_panels(min_days=1, max_days=126))
    @settings(max_examples=20, deadline=None)
    def test_short_panel_is_all_missing_and_rows_still_refused(self, pm):
        panel = feature_panel(pm)
        assert panel.shape == (pm.n_days, pm.n_assets, 5)
        assert np.isnan(panel).all()
        for t in (0, pm.n_days - 1):
            with pytest.raises(NotEnoughHistory):
                build_features(pm, t)

    def test_day_past_the_panel_rejected(self):
        pm = _panel(np.full((130, 2), 5.0))
        with pytest.raises(ValueError):
            build_features(pm, 130)

    def test_rows_are_read_only(self):
        pm = generate_synthetic(SynthSpec(n_assets=3, n_days=140, seed=2))
        row = build_features(pm, 130)
        with pytest.raises(ValueError):
            row[0, 0] = 1.0

    def test_alternating_panels_each_get_their_own_rows(self):
        a = generate_synthetic(SynthSpec(n_assets=4, n_days=160, seed=1, annual_vol=0.3))
        b = generate_synthetic(SynthSpec(n_assets=4, n_days=160, seed=2, annual_vol=0.3))
        for t in range(126, 160, 3):
            for pm in (a, b, a):
                assert np.array_equal(build_features(pm, t), features_per_day(pm.prices, t))

    def test_cache_keeps_its_panel_alive(self):
        # Rows are cached by panel identity; holding the panel itself means a
        # freed panel's id can never be handed to a new one and hit its rows.
        prices = np.exp(np.random.default_rng(5).normal(0.0, 0.02, size=(140, 3)).cumsum(axis=0))
        pm = _panel(prices)
        got = np.array(build_features(pm, 139))
        alive = weakref.ref(pm)
        del pm
        gc.collect()
        assert alive() is not None
        assert np.array_equal(got, features_per_day(prices, 139))


def _reference_signal(pm, rebalances, wf, net):
    """Walk-forward loop rebuilt from the per-day feature oracle."""
    p = pm.prices
    n = pm.n_assets
    out = []
    for t in rebalances:
        days = range(t - wf.gap - wf.train_window + 1, t - wf.gap + 1)
        X = np.vstack([features_per_day(p, s) for s in days])
        y = training_targets_loop(p, days[0], days[-1], wf.horizon)
        if float(np.std(y)) == 0.0:
            out.append((np.zeros(n), tuple(range(n))))
            continue
        pred = fit_elastic_net(X, y, net).predict(features_per_day(p, t - 1))
        out.append((pred, tuple(int(i) for i in np.lexsort((np.arange(n), -pred)))))
    return out


class TestWalkForwardAgainstOracle:
    @given(pm=price_panels(min_days=273, max_days=340), data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_predictions_and_rankings_match_per_day_rows(self, pm, data):
        wf = WalkForwardConfig()
        net = ElasticNetConfig()
        rebalances = data.draw(
            st.lists(st.integers(wf.min_history, pm.n_days - 1), min_size=1, max_size=3)
        )
        got = walk_forward_signal(pm, rebalances, wf, net)
        for sig, (pred, ranking) in zip(got, _reference_signal(pm, rebalances, wf, net)):
            assert np.array_equal(sig.predicted, pred)
            assert sig.ranking == ranking

    @given(pm=price_panels(min_days=200, max_days=260), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_training_targets_equal_the_per_day_loop(self, pm, data):
        targets = []

        def recorder(X, y, cfg):
            targets.append(y)
            return ElasticNetFit(np.zeros(X.shape[1]), 0.0, True, 0)

        gap = data.draw(st.integers(1, 30))
        wf = WalkForwardConfig(
            train_window=data.draw(st.integers(1, 30)), gap=gap, horizon=data.draw(st.integers(1, gap))
        )
        t = data.draw(st.integers(wf.min_history, pm.n_days - 1))
        with mock.patch.object(mlsignals, "fit_elastic_net", recorder):
            walk_forward_signal(pm, [t], wf)
        want = training_targets_loop(pm.prices, t - gap - wf.train_window + 1, t - gap, wf.horizon)
        if not targets:  # a zero-variance target is never fitted
            assert float(np.std(want)) == 0.0
        else:
            (y,) = targets
            assert y.tobytes() == want.tobytes()


class TestElasticNet:
    def test_unpenalised_exact_line(self):
        X = np.array([[1.0], [2.0], [3.0]])
        y = np.array([2.0, 4.0, 6.0])
        fit = fit_elastic_net(X, y, ElasticNetConfig(lam=0.0))
        assert fit.coef[0] == pytest.approx(2.0, abs=1e-6)
        assert fit.intercept == pytest.approx(0.0, abs=1e-6)
        assert fit.converged

    def test_full_shrinkage(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(40, 3))
        y = rng.normal(loc=5.0, size=40)
        fit = fit_elastic_net(X, y, ElasticNetConfig(lam=1e9, alpha=1.0))
        assert np.all(fit.coef == 0.0)
        assert fit.intercept == pytest.approx(float(y.mean()), rel=1e-12)

    def test_ridge_closed_form_on_standardised_feature(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=60)
        x = (x - x.mean()) / x.std()
        y = 3.0 * x + rng.normal(scale=0.1, size=60)
        lam = 0.7
        fit = fit_elastic_net(x[:, None], y, ElasticNetConfig(lam=lam, alpha=0.0, tol=1e-12))
        ols = float(x @ (y - y.mean())) / len(x)  # population-standardised OLS slope
        assert fit.coef[0] == pytest.approx(ols / (1 + lam), rel=1e-8)

    def test_not_converged_flag(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(50, 5))
        y = rng.normal(size=50)
        fit = fit_elastic_net(X, y, ElasticNetConfig(lam=1e-6, alpha=0.5, max_iter=1, tol=1e-16))
        assert not fit.converged
        assert fit.n_iter == 1
        assert np.all(np.isfinite(fit.coef))

    def test_kkt_conditions_hold_at_convergence(self):
        rng = np.random.default_rng(21)
        for trial in range(10):
            n, k = 80, 6
            X = rng.normal(size=(n, k)) * rng.uniform(0.5, 3.0, size=k)
            beta_true = np.array([2.0, -1.0, 0.0, 0.0, 0.5, 0.0])
            y = X @ beta_true + rng.normal(scale=0.5, size=n)
            lam, alpha = 0.05, 0.6
            fit = fit_elastic_net(X, y, ElasticNetConfig(lam=lam, alpha=alpha, tol=1e-12))
            assert fit.converged
            # Check KKT on the standardised problem the solver actually solves.
            mu, sd = X.mean(axis=0), X.std(axis=0)
            Xs = (X - mu) / sd
            beta_std = fit.coef * sd
            resid = (y - y.mean()) - Xs @ beta_std
            grad = Xs.T @ resid / n - lam * (1 - alpha) * beta_std
            for j in range(k):
                if beta_std[j] == 0.0:
                    assert abs(grad[j]) <= lam * alpha + 1e-6
                else:
                    assert grad[j] == pytest.approx(lam * alpha * np.sign(beta_std[j]), abs=1e-6)

    @given(scale=st.floats(0.01, 100.0), shift=st.floats(-50.0, 50.0))
    @settings(max_examples=20, deadline=None)
    def test_predictions_invariant_to_feature_rescaling(self, scale, shift):
        rng = np.random.default_rng(17)
        X = rng.normal(size=(60, 3))
        y = X @ np.array([1.0, -2.0, 0.5]) + rng.normal(scale=0.2, size=60)
        cfg = ElasticNetConfig(lam=0.1, alpha=0.5, tol=1e-12)
        base = fit_elastic_net(X, y, cfg)
        X2 = X.copy()
        X2[:, 1] = X2[:, 1] * scale + shift
        rescaled = fit_elastic_net(X2, y, cfg)
        assert rescaled.predict(X2) == pytest.approx(base.predict(X), abs=1e-10)


_U = np.finfo(float).eps / 2


def gram_cd_bound(X, y, cfg, sweeps, peak):
    """How far the Gram-form solver's standardised coefficients may lie from
    the residual-form oracle's after ``sweeps`` sweeps of the same path.

    Both forms evaluate ``rho`` for coordinate j from terms no larger than
    ``m = rms(yc) + peak``: ``|c_j| <= rms(yc)`` and ``|(G b)_j| <= ||b||_1``
    by Cauchy-Schwarz on unit-rms columns, with ``peak`` the largest
    ``||b||_1`` on the path. One evaluation rounds by at most
    ``(n + k + 3) u m`` (an n-long dot product, k Gram terms, three more
    operations), and the state each form carries between updates (``q`` or
    the residual) drifts by at most ``2 u m`` per update, so the t-th of
    ``T = sweeps * k_live`` updates is off by at most
    ``((n + k + 3) + 2 t) u m``; the two errors of a pair add, doubling
    that. To first order on a fixed active set an update is the projection
    of coordinate descent, which moves an error no further in the norm of
    ``H = G + l2 I``, while a unit error in coordinate j has H-norm at most
    1. Summing over the updates and leaving the H-norm through
    ``lambda_min(H)`` over the live columns gives
    ``2 u m (T (n + k + 3) + T (T + 1)) / sqrt(lambda_min(H))``.
    Infinite when H is singular.
    """
    X = np.asarray(X, dtype=float)
    n, k = X.shape
    sigma = X.std(axis=0)
    live = sigma > 0.0
    if not live.any():
        return 0.0
    xs = (X[:, live] - X[:, live].mean(axis=0)) / sigma[live]
    lam_min = float(np.linalg.eigvalsh(xs.T @ xs / n)[0]) + cfg.lam * (1.0 - cfg.alpha)
    if lam_min <= 0.0:
        return float("inf")
    yc = y - y.mean()
    m = float(np.sqrt(yc @ yc / n)) + peak
    updates = sweeps * int(live.sum())
    return 2 * _U * m * (updates * (n + k + 3) + updates * (updates + 1)) / np.sqrt(lam_min)


@st.composite
def enet_problems(draw):
    """Up to 8 features on scales 1e-3..1e3 with a common factor (pairwise
    correlation up to about 0.99), some held constant (dead), a sparse or
    dense true model, and drawn penalty, mix, tolerance and sweep limit."""
    k = draw(st.integers(1, 8))
    n = draw(st.integers(k + 2, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mix = draw(st.floats(0.0, 10.0))
    X = rng.normal(size=(n, k)) + mix * rng.normal(size=(n, 1))
    X = X * 10.0 ** rng.uniform(-3, 3, size=k) + rng.normal(scale=10.0, size=k)
    for j in draw(st.lists(st.integers(0, k - 1), max_size=k, unique=True)):
        X[:, j] = float(draw(st.integers(-3, 3)))
    truth = rng.normal(size=k) * (rng.uniform(size=k) < draw(st.floats(0.0, 1.0)))
    xs = (X - X.mean(axis=0)) / np.where(X.std(axis=0) > 0, X.std(axis=0), 1.0)
    y = xs @ truth + rng.normal(scale=draw(st.sampled_from([0.01, 0.3, 3.0])), size=n) + 5.0
    cfg = ElasticNetConfig(
        lam=draw(st.sampled_from([0.0, 1e-6, 1e-4, 1e-3, 0.01, 0.1, 1.0])),
        alpha=draw(st.floats(0.0, 1.0)),
        max_iter=draw(st.integers(1, 300)),
        tol=10.0 ** draw(st.floats(-13.0, -3.0)),
    )
    return X, y, cfg


class TestGramSolverAgainstResidualOracle:
    """``fit_elastic_net`` against the residual-form solver it replaced, to
    the bound ``gram_cd_bound`` derives."""

    @given(problem=enet_problems())
    @settings(max_examples=200, deadline=None)
    def test_same_path_within_rounding_bound(self, problem):
        X, y, cfg = problem
        fit = fit_elastic_net(X, y, cfg)
        coef, intercept, converged, n_iter, changes, peak = elastic_net_residual_cd(X, y, cfg)
        bound = gram_cd_bound(X, y, cfg, max(n_iter, fit.n_iter), peak)
        if (fit.n_iter, fit.converged) != (n_iter, converged):
            # The paths part only where a sweep's largest change, which the
            # two forms know to within 2 * bound, straddles the tolerance.
            parted = min(fit.n_iter, n_iter)
            assert abs(changes[parted - 1] - cfg.tol) <= 2 * bound
            return
        sigma, mu = X.std(axis=0), X.mean(axis=0)
        # Unscaling by sigma adds one rounding to each side.
        slack = bound + 4 * _U * np.abs(coef * sigma)
        assert np.all(np.abs(fit.coef - coef) * sigma <= slack)
        assert np.all(fit.coef[sigma == 0.0] == 0.0)
        # The intercept is y_mean - coef @ mu on each side: a k-term dot
        # product and one subtraction, rounded on each side.
        rounding = 4 * (X.shape[1] + 2) * _U * (abs(float(y.mean())) + float(np.abs(coef) @ np.abs(mu)))
        assert abs(fit.intercept - intercept) <= float(np.abs(fit.coef - coef) @ np.abs(mu)) + rounding


class TestWalkForward:
    def test_rising_asset_ranked_first(self):
        n = 320
        riser = np.geomspace(100, 180, n)
        flat = np.full(n, 100.0)
        pm = _panel(np.column_stack([flat, riser]))
        wf = WalkForwardConfig()
        signals = walk_forward_signal(pm, [280], wf, ElasticNetConfig(lam=0.0))
        assert signals[0].ranking[0] == 1
        assert not signals[0].degenerate

    def test_identical_assets_tie_by_index(self):
        n = 320
        rng = np.random.default_rng(2)
        path = 100 * np.cumprod(1 + rng.normal(0, 0.01, n))
        pm = _panel(np.column_stack([path, path, path]))
        signals = walk_forward_signal(pm, [280], WalkForwardConfig())
        assert signals[0].ranking == (0, 1, 2)

    def test_degenerate_target_flagged(self):
        pm = _panel(np.full((320, 3), 77.0))
        signals = walk_forward_signal(pm, [280], WalkForwardConfig())
        assert signals[0].degenerate
        assert signals[0].ranking == (0, 1, 2)

    def test_history_precondition(self):
        pm = _panel(np.full((320, 2), 10.0))
        wf = WalkForwardConfig()
        with pytest.raises(NotEnoughHistory):
            walk_forward_signal(pm, [wf.min_history - 1], wf)
        walk_forward_signal(pm, [wf.min_history], wf)

    def test_no_lookahead_in_training_targets(self):
        # The last training-target window may close at the rebalance day
        # itself but never beyond it: prices after t must not move the signal.
        pm = generate_synthetic(SynthSpec(n_assets=4, n_days=320, seed=12, annual_vol=0.3))
        t = 280
        a = walk_forward_signal(pm, [t], WalkForwardConfig())
        bumped = np.array(pm.prices)
        bumped[t + 1 :] *= 2.0
        pm2 = PriceMatrix(pm.dates, pm.assets, bumped, pm.sectors)
        b = walk_forward_signal(pm2, [t], WalkForwardConfig())
        assert a[0].ranking == b[0].ranking
        assert a[0].predicted == pytest.approx(b[0].predicted, rel=1e-12)
        # And the day-t close itself is the permitted boundary: bumping at t
        # may move the last target but only through that single close.
        bumped_at_t = np.array(pm.prices)
        bumped_at_t[t:] *= 2.0
        pm3 = PriceMatrix(pm.dates, pm.assets, bumped_at_t, pm.sectors)
        walk_forward_signal(pm3, [t], WalkForwardConfig())

    def test_gap_shorter_than_horizon_rejected(self):
        with pytest.raises(ValueError):
            WalkForwardConfig(gap=10, horizon=21)

    def test_top_n_gives_equal_weight_regardless_of_fit(self):
        from crossbt.strategies import ml_signal

        pm = generate_synthetic(SynthSpec(n_assets=4, n_days=320, seed=14, annual_vol=0.3))
        sched = ml_signal(pm, start=280, wf=WalkForwardConfig(top=4))
        for w in sched.entries.values():
            assert np.all(w == 0.25)

    def test_constant_predictions_rank_by_asset_index(self):
        constant = ElasticNetFit(np.zeros(len(FEATURE_NAMES)), 0.01, True, 0)
        pm = generate_synthetic(SynthSpec(n_assets=3, n_days=320, seed=6, annual_vol=0.2))
        with mock.patch.object(mlsignals, "fit_elastic_net", lambda X, y, cfg: constant):
            (signal,) = walk_forward_signal(pm, [280], WalkForwardConfig())
        # Constant predictions tie; ranking falls back to asset index.
        assert signal.ranking == (0, 1, 2)
        assert not signal.degenerate
        assert np.all(signal.predicted == 0.01)
