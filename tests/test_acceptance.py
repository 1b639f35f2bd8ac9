"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance is pinned here, not configured elsewhere.
"""

import json
import time
from pathlib import Path

import numpy as np

from crossbt.buckets import (
    Partition,
    compute_covariates,
    mahalanobis_score,
    rerandomize,
    sample_partition,
    sector_balance,
)
from crossbt.cli import main
from crossbt.engine import (
    CONVENTIONS,
    REFERENCE,
    CostSpec,
    WeightSchedule,
    run_variant,
    trade_cost,
)
from crossbt.harness import BucketConfig, RunConfig, analyze, run_suite, validate_results
from crossbt.marketdata import PriceMatrix, SynthSpec, generate_synthetic
from crossbt.riskmetrics import csi, daf, dollar_ambiguity, iui
from crossbt.rng import substream
from crossbt.stats import (
    bh_fdr,
    lin_ccc,
    sign_flip_permutation,
    spearman,
    t_quantile,
    wilcoxon_signed_rank,
)
from crossbt.strategies import BENCHMARKS

from oracles import backtest_loop, bh_threshold_enum, sign_flip_count, wilcoxon_enumeration


def _report(number: int, description: str, passed: bool) -> None:
    print(f"[criterion {number:02d}] {'PASS' if passed else 'FAIL'}  {description}")
    assert passed, f"criterion {number}: {description}"


ZERO_COST_CONVENTIONS = (
    "reference",
    "pre_trade",
    "percent_divided",
    "double_commission",
    "fifo_sequential",
    "sells_first",
)


def test_criterion_01_zero_cost_collapse():
    """Whole synthetic suite at rate 0: bit-equal equity across conventions."""
    t0 = time.time()
    benchmarks = ("bm01", "bm02", "bm03", "bm09", "bm10", "bm12")
    cfg = RunConfig(
        seed=101,
        synth=SynthSpec(n_assets=36, n_days=280, seed=101, annual_vol=0.25, annual_drift=0.06),
        buckets=BucketConfig(n_buckets=5, bucket_size=6, n_candidates=100),
        benchmarks=benchmarks,
        engines=ZERO_COST_CONVENTIONS,
        cost_regimes_bps=(0.0,),
        cost_overrides_bps={b: 0.0 for b in benchmarks},
        permutation_draws=100,
        bootstrap_draws=50,
    )
    store = run_suite(cfg)
    ok = all(c.ok for c in store.cells.values())
    for bm in benchmarks:
        for bucket in store.bucket_ids:
            series = [store.cell(bm, bucket, e).equity for e in store.engine_ids]
            for other in series[1:]:
                ok = ok and np.array_equal(series[0], other)
    bundle = analyze(store)
    ok = ok and all(r["rel_diff_pct"] == 0.0 for r in bundle.tables["divergence_records"])
    elapsed = time.time() - t0
    ok = ok and elapsed < 30.0
    _report(
        1,
        f"zero-cost suite ({len(benchmarks)} benchmarks x 5 buckets x 6 conventions) "
        f"bit-identical, all divergences exactly 0, {elapsed:.1f}s < 30s",
        ok,
    )


def test_criterion_02_floor_reproduction():
    """Buy-and-hold at 18 bps, gross vs net reporting: divergence = rate/(1-rate)."""
    cfg = RunConfig(
        seed=102,
        synth=SynthSpec(n_assets=36, n_days=180, seed=102, annual_vol=0.25, annual_drift=0.07),
        buckets=BucketConfig(n_buckets=5, bucket_size=6, n_candidates=50),
        benchmarks=("bm02",),
        engines=("reference", "pre_trade"),
        permutation_draws=100,
        bootstrap_draws=50,
    )
    bundle = analyze(run_suite(cfg))
    target = 0.0018 / 0.9982 * 100.0
    records = [
        r for r in bundle.tables["divergence_records"] if r["metric"] == "total_return"
    ]
    ok = len(records) == 5 and all(abs(r["rel_diff_pct"] - target) < 1e-6 for r in records)
    _report(
        2,
        f"buy-and-hold pre/post total-return divergence = {target:.6f}% +/- 1e-6 pp "
        f"on every bucket (n={len(records)})",
        ok,
    )


def _mechanism_suite():
    pm = generate_synthetic(
        SynthSpec(n_assets=6, n_days=340, seed=103, annual_vol=0.3, annual_drift=0.08)
    )
    start = max(spec.warmup for spec in BENCHMARKS.values())
    for bm_id, spec in BENCHMARKS.items():
        schedule = spec.build(pm, start)
        rate = spec.cost_bps / 1e4
        yield bm_id, pm, schedule, rate, start


def test_criterion_03_percabs_mechanism():
    """percent_divided charges exactly 1/100 of the reference cost."""
    pdiv = CONVENTIONS["percent_divided"]
    ok = True
    count = 0
    for bm_id, pm, schedule, rate, start in _mechanism_suite():
        ref = run_variant(schedule, pm, 1e6, CostSpec(rate), REFERENCE, start)
        # Cost mechanism on the reference engine's logged notionals.
        for tr in ref.trades:
            count += 1
            ok = ok and trade_cost(tr.traded_notional, rate, pdiv) == tr.cost / 100.0
        # Closed loop: first rebalance trades are identical across engines.
        var = run_variant(schedule, pm, 1e6, CostSpec(rate), pdiv, start)
        if ref.trades:
            ok = ok and var.trades[0].cost == ref.trades[0].cost / 100.0
        total_ref = sum(tr.cost for tr in ref.trades)
        total_mech = sum(trade_cost(tr.traded_notional, rate, pdiv) for tr in ref.trades)
        if total_ref > 0:
            ok = ok and abs(total_mech - total_ref / 100.0) <= 1e-12 * total_ref
    _report(3, f"percent_divided cost = reference/100 exactly on every benchmark "
               f"({count} rebalances checked)", ok)


def test_criterion_04_double_commission_mechanism():
    """commission_multiplier=2 charges exactly twice the reference cost."""
    dbl = CONVENTIONS["double_commission"]
    ok = True
    count = 0
    for bm_id, pm, schedule, rate, start in _mechanism_suite():
        ref = run_variant(schedule, pm, 1e6, CostSpec(rate), REFERENCE, start)
        for tr in ref.trades:
            count += 1
            ok = ok and trade_cost(tr.traded_notional, rate, dbl) == 2.0 * tr.cost
        var = run_variant(schedule, pm, 1e6, CostSpec(rate), dbl, start)
        if ref.trades:
            ok = ok and var.trades[0].cost == 2.0 * ref.trades[0].cost
    _report(4, f"double commission charges exactly 2x per trade log on every benchmark "
               f"({count} rebalances checked)", ok)


def test_criterion_05_cost_intensity_monotonicity():
    """Spearman(cost intensity, engine spread) >= 0.85 over regimes x turnover tiers."""
    t0 = time.time()
    engines = ("reference", "pre_trade", "percent_divided", "double_commission",
               "fifo_sequential")
    benchmarks = ("bm01", "bm02", "bm03", "bm12")
    scores, spreads = [], []
    for bps in (0.0, 18.0, 36.0, 60.0):
        cfg = RunConfig(
            seed=105,
            synth=SynthSpec(n_assets=36, n_days=500, seed=105, annual_vol=0.25,
                            annual_drift=0.06, correlation=0.3),
            buckets=BucketConfig(n_buckets=5, bucket_size=6, n_candidates=100),
            benchmarks=benchmarks,
            engines=engines,
            cost_regimes_bps=(bps,),
            cost_overrides_bps={b: bps for b in benchmarks},
            permutation_draws=100,
            bootstrap_draws=50,
        )
        bundle = analyze(run_suite(cfg))
        for row in bundle.tables["cost_intensity"]:
            scores.append(row["cost_intensity"])
            spreads.append(row["es_range_pp"])
    rho = spearman(scores, spreads).statistic
    elapsed = time.time() - t0
    ok = len(scores) == 16 and rho >= 0.85 and elapsed < 300.0
    _report(
        5,
        f"cost-intensity vs engine-spread Spearman rho = {rho:.3f} >= 0.85 over "
        f"4 regimes x 4 turnover tiers, {elapsed:.1f}s < 300s",
        ok,
    )


def test_criterion_06_truncation_detection():
    """truncate_after=62 on a 1258-day run is flagged LengthMismatch(1258, 62)."""
    cfg = RunConfig(
        seed=106,
        synth=SynthSpec(n_assets=12, n_days=1258, seed=106, annual_vol=0.25, annual_drift=0.05),
        buckets=BucketConfig(n_buckets=1, bucket_size=6, n_candidates=5),
        benchmarks=("bm01",),
        engines=("reference", "post|abs|x1|atomic|aligned|trunc62"),
        permutation_draws=100,
        bootstrap_draws=50,
    )
    store = run_suite(cfg)
    findings = validate_results(store)
    hits = [
        f for f in findings
        if f.kind == "LengthMismatch" and f.expected == 1258 and f.got == 62
    ]
    _report(6, "validate_results reports LengthMismatch(expected=1258, got=62)", len(hits) == 1)


def test_criterion_07_reference_loop_oracle():
    """Reference engine matches a literal independent transcription, 100 instances."""
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(100):
        n_assets = int(rng.integers(1, 4))
        n_days = int(rng.integers(2, 6))
        prices = rng.uniform(1.0, 500.0, size=(n_days, n_assets))
        pm = PriceMatrix(
            tuple(str(i) for i in range(n_days)),
            tuple(f"A{i}" for i in range(n_assets)),
            prices,
        )
        schedule = {}
        for t in range(n_days):
            if rng.random() < 0.7:
                schedule[t] = rng.dirichlet(np.ones(n_assets + 1))[:n_assets]
        rate = float(rng.uniform(0.0, 0.05))
        c0 = float(rng.uniform(10.0, 1e7))
        mine = run_variant(
            WeightSchedule({str(t): w for t, w in schedule.items()}), pm, c0, CostSpec(rate), REFERENCE
        )
        theirs = backtest_loop(
            [list(r) for r in prices], {t: list(w) for t, w in schedule.items()}, c0, rate
        )
        rel = np.max(np.abs(mine.equity - np.array(theirs)) / np.abs(theirs))
        worst = max(worst, float(rel))
    _report(7, f"the reference engine matches the literal loop on 100 random instances "
               f"(worst rel err {worst:.2e} <= 1e-12)", worst <= 1e-12)


def test_criterion_08_statistics_oracles():
    """Wilcoxon/BH/permutation vs enumeration; t table; concordance hand cases."""
    rng = np.random.default_rng(108)
    ok = True
    for _ in range(30):  # Wilcoxon exact vs full enumeration, n <= 12 with ties
        n = int(rng.integers(1, 13))
        d = rng.integers(-4, 5, n) / 2.0
        if np.all(d == 0):
            continue
        mine = wilcoxon_signed_rank(d)
        _, p_ref = wilcoxon_enumeration(list(d))
        ok = ok and abs(mine.p_value - p_ref) < 1e-12
    for _ in range(30):  # BH vs direct threshold enumeration
        m = int(rng.integers(1, 30))
        p = rng.uniform(0, 1, m) ** 2
        q = float(rng.uniform(0.01, 0.25))
        ok = ok and bh_fdr(p, q).tolist() == bh_threshold_enum(list(p), q)
    for _ in range(20):  # permutation exhaustive vs closed-form count, n <= 10
        n = int(rng.integers(2, 11))
        d = rng.normal(0.4, 1.0, n)
        res = sign_flip_permutation(d, exhaustive=True)
        hits, total = sign_flip_count(list(d))
        ok = ok and abs(res.p_value - hits / total) < 1e-12
    ok = ok and abs(t_quantile(0.975, 4) - 2.7764) < 1e-4
    ok = ok and abs(lin_ccc([-1.0, 0.0, 1.0], [1.0, 0.0, -1.0]) - (-1.0)) < 1e-12
    ok = ok and abs(lin_ccc([1.0, 2.0, 3.0], [2.0, 3.0, 4.0]) - 4.0 / 7.0) < 1e-12
    ok = ok and abs(lin_ccc([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) - 1.0) < 1e-12
    _report(8, "Wilcoxon exact = enumeration (n<=12), BH = threshold enumeration, "
               "exhaustive permutation = closed-form count, t_{.975,4} = 2.7764, "
               "concordance hand cases (-1, 4/7, 1)", ok)


def test_criterion_09_metric_identities():
    """CSI sign cases, DAF identity, IUI coverage at K = 2."""
    ok = csi([0.5, 0.3, 0.2]) == 0
    ok = ok and csi([-0.1151, -0.1219, -0.1151, -0.1225, -0.1211]) == 0
    ok = ok and csi([0.5, -0.1]) == 1
    vals = [1.3, 0.4, 2.2]
    ok = ok and daf(vals, vals) == 1.0
    rng = np.random.default_rng(109)
    for _ in range(50):
        pair = rng.normal(size=2) * rng.uniform(0.1, 100)
        lo, hi = iui(pair)
        ok = ok and lo <= pair.min() and pair.max() <= hi
    _report(9, "CSI = 0 same-sign / 1 mixed-sign, daf(b, b) = 1, "
               "IUI contains both values at K = 2", ok)


def test_criterion_10_dollar_translation():
    ok = dollar_ambiguity(0.10, 1e9) == 1_000_000.0
    ok = ok and dollar_ambiguity(3.71, 1e9) == 37_100_000.0
    _report(10, "0.10% on $1B -> $1M/yr and 3.71% on $1B -> $37.1M/yr exactly", ok)


def test_criterion_11_bucket_qc():
    """Rerandomisation beats the median candidate; ideal sector balance stats."""
    pm = generate_synthetic(
        SynthSpec(n_assets=36, n_days=260, seed=111, annual_vol=0.3, annual_drift=0.05,
                  n_sectors=6)
    )
    cov = compute_covariates(pm)
    n_cand = 20_000
    part = rerandomize(cov, pm.sectors, 6, 6, n_cand, seed=111)
    ok = all(len({pm.sectors[a] for a in bucket}) == 6 for bucket in part.buckets)
    sectors = [pm.sectors[a] for a in cov.assets]
    scores = []
    for i in range(n_cand):
        buckets = sample_partition(36, sectors, 6, 6, substream(111, i))
        named = tuple(tuple(cov.assets[j] for j in b) for b in buckets)
        scores.append(mahalanobis_score(Partition(named, 0.0, 111, 1), cov))
    ok = ok and part.score <= float(np.median(scores))
    balance = sector_balance(part, pm.sectors)
    ok = ok and balance.chi2 == 0.0
    ok = ok and balance.p_value == 1.0
    ok = ok and abs(balance.entropy_ratio - 1.0) < 1e-12
    _report(
        11,
        f"rerandomize(20000) sector-feasible, score {part.score:.3f} <= "
        f"median {float(np.median(scores)):.3f}; uniform counts give chi2 = 0, "
        f"p = 1, entropy ratio = 1",
        ok,
    )


def test_criterion_12_byte_identical_runs(tmp_path):
    """Two full CLI runs with the same config and seed are byte-identical
    at different --jobs settings."""
    config = {
        "seed": 112,
        "synthetic": {
            "n_assets": 24, "n_days": 320, "seed": None,
            "annual_vol": 0.25, "annual_drift": 0.06, "correlation": 0.3,
            "n_sectors": 6,
        },
        "buckets": {"n_buckets": 4, "bucket_size": 6, "n_candidates": 60},
        "benchmarks": ["bm01", "bm02", "bm03", "bm08_enet", "bm09"],
        "engines": [
            "reference", "pre_trade", "percent_divided",
            "double_commission", "fifo_sequential", "shifted_one_day",
        ],
        "permutation_draws": 500,
        "bootstrap_draws": 200,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    outs = []
    for label, jobs in (("run1", "1"), ("run2", "2"), ("run3", "1")):
        out = tmp_path / label
        code = main(["all", "--config", str(cfg_path), "--out", str(out), "--jobs", jobs])
        assert code == 0
        outs.append(out)

    def tree(root: Path) -> dict[str, bytes]:
        return {
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file()
        }

    t1, t2, t3 = (tree(o) for o in outs)
    ok = set(t1) == set(t2) == set(t3)
    if ok:
        for name in t1:
            ok = ok and t1[name] == t2[name] == t3[name]
    _report(12, f"full `all` runs byte-identical across reruns and --jobs 1 vs 2 "
                f"({len(t1)} files compared)", ok)
