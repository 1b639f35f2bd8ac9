import copy
import json
from dataclasses import MISSING, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from crossbt import harness
from crossbt.cli import main
from crossbt.engine import REFERENCE
from crossbt.harness import (
    CellResult,
    BucketConfig,
    ReportBundle,
    ResultStore,
    RunConfig,
    analyze,
    emit_reports,
    read_table_csv,
    run_suite,
    validate_results,
)
from crossbt.marketdata import SynthSpec
from crossbt.stats import cluster_bootstrap
from oracles import analyze_loop, cluster_bootstrap_per_draw, resampled_rho_per_draw


def _config(**overrides) -> RunConfig:
    base = dict(
        seed=3,
        synth=SynthSpec(n_assets=18, n_days=140, seed=3, annual_vol=0.25, annual_drift=0.06),
        buckets=BucketConfig(n_buckets=3, bucket_size=6, n_candidates=20),
        benchmarks=("bm01", "bm02", "bm09"),
        engines=("reference", "pre_trade"),
        permutation_draws=200,
        bootstrap_draws=100,
    )
    base.update(overrides)
    return RunConfig(**base)


@pytest.fixture(scope="module")
def demo_store():
    return run_suite(_config())


@pytest.fixture(scope="module")
def demo_bundle(demo_store):
    return analyze(demo_store)


@pytest.fixture(scope="module")
def wide_store():
    """Four engines (six pairs) over four buckets, so damage leaves pairs behind."""
    return run_suite(
        _config(
            buckets=BucketConfig(n_buckets=4, bucket_size=4, n_candidates=20),
            engines=("reference", "pre_trade", "percent_divided", "double_commission"),
        )
    )


class TestRunConfig:
    def test_roster_dedup_and_sort(self):
        cfg = _config(engines=("pre_trade", "reference", "post|abs|x1|atomic|aligned|full"))
        ids = [eid for eid, _ in cfg.roster()]
        assert ids == sorted(ids)
        assert len(ids) == 2

    def test_needs_two_engines(self):
        with pytest.raises(ValueError):
            _config(engines=("reference", "post|abs|x1|atomic|aligned|full"))

    def test_cost_regime_membership_enforced(self):
        with pytest.raises(ValueError):
            _config(cost_regimes_bps=(18.0,), benchmarks=("bm01", "bm09"))

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ValueError):
            _config(benchmarks=("bm99",))

    def test_json_roundtrip_and_run_id(self):
        cfg = _config()
        again = RunConfig.from_dict(json.loads(json.dumps(cfg.canonical_dict())))
        assert again.canonical_dict() == cfg.canonical_dict()
        assert again.run_id() == cfg.run_id()
        assert _config(seed=4).run_id() != cfg.run_id()
        # Every field away from its default survives the round trip, and the
        # canonical JSON (hence the run id and store.json) keeps its bytes.
        cfg = RunConfig(
            seed=11,
            synth=SynthSpec(
                n_assets=4, n_days=90, seed=5, annual_drift={"S0": 0.02, "S1": 0.04},
                annual_vol=(0.1, 0.2, 0.3, 0.4), correlation=0.2, n_sectors=2,
                sectors=("S0", "S1", "S0", "S1"), start_price=50.0,
            ),
            prices_csv="prices.csv",
            sectors_csv="sectors.csv",
            buckets=BucketConfig(n_buckets=2, bucket_size=2, n_candidates=30, sector_constraint=False, seed=9),
            benchmarks=("bm09", "bm02"),
            engines=("pre_trade", "percent_divided", "reference"),
            cost_regimes_bps=(0.0, 18.0, 25.0),
            cost_overrides_bps={"bm02": 25.0},
            initial_capital=5e5,
            warmup=20,
            aum=2e9,
            permutation_draws=300,
            bootstrap_draws=200,
            daf_reference="bm02",
            tost_margins_pp=(0.25,),
            fdr_q=0.1,
        )
        for f in fields(RunConfig):
            default = f.default if f.default is not MISSING else f.default_factory()
            assert getattr(cfg, f.name) != default, f.name
        again = RunConfig.from_dict(json.loads(cfg.to_json()))
        for f in fields(RunConfig):
            if f.name != "engines":
                assert getattr(again, f.name) == getattr(cfg, f.name), f.name
        assert again.roster() == cfg.roster()
        assert again.to_json() == cfg.to_json()
        assert cfg.run_id() == again.run_id() == "2c19f1e8d4cf"

    def test_duplicate_benchmarks_rejected(self):
        with pytest.raises(ValueError, match="twice"):
            _config(benchmarks=("bm01", "bm09", "bm01"))

    def test_analyze_resolves_no_convention(self, demo_store, monkeypatch):
        # The roster is resolved when the config is built; reading engine ids
        # and conventions afterwards must not parse convention strings again.
        calls = []
        real = harness.resolve_convention
        monkeypatch.setattr(harness, "resolve_convention", lambda name: calls.append(name) or real(name))
        analyze(demo_store)
        assert calls == []

    def test_unknown_config_keys_rejected(self):
        obj = _config().canonical_dict()
        obj["permutation_drawss"] = 17
        with pytest.raises(ValueError, match="unknown config keys"):
            RunConfig.from_dict(obj)

    def test_roster_without_reference_engine(self):
        # Turnover and divergence still compute when the reference convention
        # is absent from the roster.
        cfg = _config(engines=("pre_trade", "percent_divided"), benchmarks=("bm01",))
        bundle = analyze(run_suite(cfg))
        rows = bundle.tables["cost_intensity"]
        assert rows and rows[0]["turnover_per_yr"] > 0


class TestRunSuite:
    def test_grid_size(self):
        cfg = _config(benchmarks=("bm01",), buckets=BucketConfig(1, 6, 5))
        store = run_suite(cfg)
        assert len(store.cells) == 1 * 1 * 2

    def test_full_grid_complete(self, demo_store):
        assert len(demo_store.cells) == 3 * 3 * 2
        assert all(c.ok for c in demo_store.cells.values())

    def test_rerun_identical(self, demo_store):
        again = run_suite(_config())
        assert set(again.cells) == set(demo_store.cells)
        for key, cell in again.cells.items():
            assert np.array_equal(cell.equity, demo_store.cells[key].equity)

    def test_parallel_matches_serial(self):
        cfg = _config()
        serial = run_suite(cfg, jobs=1)
        parallel = run_suite(cfg, jobs=2)
        for key in serial.cells:
            assert np.array_equal(serial.cells[key].equity, parallel.cells[key].equity)

    def test_grid_arithmetic_at_thirty_buckets(self):
        # benchmarks x buckets x engines cells, complete, on a 180-asset
        # universe partitioned into 30 buckets of 6.
        cfg = _config(
            synth=SynthSpec(n_assets=180, n_days=120, seed=6, annual_vol=0.25,
                            annual_drift=0.05, n_sectors=11),
            buckets=BucketConfig(n_buckets=30, bucket_size=6, n_candidates=10),
            benchmarks=("bm01", "bm09"),
            engines=(
                "reference", "pre_trade", "percent_divided",
                "double_commission", "fifo_sequential", "shifted_one_day",
            ),
        )
        store = run_suite(cfg)
        assert len(store.cells) == 2 * 30 * 6
        assert all(c.ok for c in store.cells.values())
        assert len(store.bucket_ids) == 30

    def test_csv_panel_without_sectors(self, tmp_path):
        from crossbt.marketdata import generate_synthetic, write_prices_csv

        pm = generate_synthetic(SynthSpec(n_assets=12, n_days=120, seed=4, annual_vol=0.2))
        path = tmp_path / "p.csv"
        write_prices_csv(pm, str(path))
        cfg = RunConfig(
            seed=1,
            prices_csv=str(path),
            buckets=BucketConfig(n_buckets=2, bucket_size=6, n_candidates=10,
                                 sector_constraint=False),
            benchmarks=("bm01", "bm09"),
            engines=("reference", "pre_trade"),
            permutation_draws=50,
            bootstrap_draws=20,
        )
        store = run_suite(cfg)
        assert len(store.cells) == 2 * 2 * 2
        assert store.balance is None
        bundle = analyze(store)
        assert bundle.bucket_qc["balance"] is None
        # Requesting the constraint without sector labels is an error, not a
        # silent degrade.
        strict = RunConfig(
            seed=1,
            prices_csv=str(path),
            buckets=BucketConfig(n_buckets=2, bucket_size=6, n_candidates=10),
            benchmarks=("bm01",),
            engines=("reference", "pre_trade"),
        )
        with pytest.raises(ValueError, match="sector"):
            run_suite(strict)

    def test_store_roundtrip(self, tmp_path, demo_store):
        demo_store.save(str(tmp_path / "store"))
        loaded = ResultStore.load(str(tmp_path / "store"))
        assert set(loaded.cells) == set(demo_store.cells)
        for key, cell in loaded.cells.items():
            orig = demo_store.cells[key]
            assert cell.stats.total_return_pct == orig.stats.total_return_pct
            assert cell.stats.growth == orig.stats.growth
            assert cell.turnover == orig.turnover
            assert np.array_equal(cell.equity, orig.equity)
        assert loaded.run_id == demo_store.run_id
        assert loaded.eval_dates == demo_store.eval_dates


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _cells_equal(a: CellResult, b: CellResult) -> bool:
    same_equity = (a.equity is None and b.equity is None) or (
        a.equity is not None and b.equity is not None and _bits(a.equity) == _bits(b.equity)
    )
    return (a.error, a.n_days, a.stats, a.turnover) == (b.error, b.n_days, b.stats, b.turnover) and same_equity


#: Equity values that must survive the text round trip bit for bit.
_SPECIAL_EQUITY = np.array(
    [5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
     -0.0, 0.0, np.inf, -np.inf, 1e6, 0.1]
)


def _equity_values(rng: np.random.Generator, n: int) -> np.ndarray:
    """Special values mixed with random floats spread over the whole exponent range."""
    spread = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 300, n).astype(float)
    return np.where(rng.random(n) < 0.3, rng.choice(_SPECIAL_EQUITY, n), spread)


class TestStoreFiles:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.sampled_from(["ok", "error", "truncated"]), min_size=18, max_size=18), st.integers(0, 2**32))
    def test_save_load_roundtrip_is_bit_exact(self, tmp_path_factory, demo_store, kinds, seed):
        rng = np.random.default_rng(seed)
        store = copy.copy(demo_store)
        n_eval = store.n_eval_days
        cells = {}
        for kind, (key, cell) in zip(kinds, sorted(demo_store.cells.items())):
            if kind == "error":
                cells[key] = CellResult(*key, error="RuntimeError: boom, again", n_days=int(rng.integers(0, 3)))
                continue
            n = n_eval if kind == "ok" else int(rng.integers(1, n_eval + 1))
            cells[key] = CellResult(
                *key, stats=cell.stats, turnover=cell.turnover, n_days=n, equity=_equity_values(rng, n)
            )
        store.cells = cells
        directory = tmp_path_factory.mktemp("store")
        store.save(str(directory / "a"))
        loaded = ResultStore.load(str(directory / "a"))
        assert list(loaded.cells) == sorted(cells)
        assert all(_cells_equal(loaded.cells[k], cells[k]) for k in cells)
        loaded.save(str(directory / "b"))
        for name in ("store.json", "cells.csv", "equity.csv"):
            assert (directory / "a" / name).read_bytes() == (directory / "b" / name).read_bytes()

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.sampled_from(["swap", "drop", "duplicate", "append", "redate", "rekey", "widen", "header", "value"]),
        st.integers(0, 10**6),
    )
    def test_damaged_equity_file_raises(self, tmp_path_factory, demo_store, damage, where):
        directory = tmp_path_factory.mktemp("store")
        demo_store.save(str(directory))
        path = directory / "equity.csv"
        lines = path.read_text().splitlines()
        i = 1 + where % (len(lines) - 1)
        j = 1 + (where // 7) % (len(lines) - 1)
        fields = lines[i].split(",")
        if damage == "swap":
            j = j if j != i else 1 + i % (len(lines) - 1)
            lines[i], lines[j] = lines[j], lines[i]
        elif damage == "drop":
            del lines[i]
        elif damage == "duplicate":
            lines.insert(i, lines[i])
        elif damage == "append":
            lines.append(lines[i])
        elif damage == "redate":
            lines[i] = ",".join(fields[:3] + ["1900-01-01"] + fields[4:])
        elif damage == "rekey":
            lines[i] = ",".join(fields[:2] + ["no_such_engine"] + fields[3:])
        elif damage == "widen":
            lines[i] += ",1.0"
        elif damage == "header":
            lines[0] = lines[0].replace("equity", "value")
        else:
            lines[i] = ",".join(fields[:4] + ["not-a-number"])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="equity.csv"):
            ResultStore.load(str(directory))

    def test_short_file_names_the_cell(self, tmp_path, demo_store):
        demo_store.save(str(tmp_path))
        path = tmp_path / "equity.csv"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        last = "/".join(max(k for k, c in demo_store.cells.items() if c.ok))
        with pytest.raises(ValueError, match=last):
            ResultStore.load(str(tmp_path))


def _tables(rng: np.random.Generator, m: int, bms: list[str], distinct: int, missing: float):
    """Random per-(benchmark, bucket) turnover and spread tables with ties and gaps."""
    buckets = [f"b{i:02d}" for i in range(m)]
    tables = []
    for _ in range(2):
        pool = rng.uniform(0.0, 50.0, distinct)
        tables.append(
            {(bm, b): float(rng.choice(pool)) for bm in bms for b in buckets if rng.random() >= missing}
        )
    return buckets, tables[0], tables[1]


class TestResampledRho:
    @settings(max_examples=120, deadline=None)
    @given(
        st.integers(2, 40),
        st.integers(0, 6),
        st.integers(1, 300),
        st.integers(1, 4),
        st.sampled_from([0.0, 0.0, 0.1, 0.5, 0.9]),
        st.integers(0, 2**32),
    )
    def test_batched_statistic_matches_per_draw_oracle(self, m, n_bms, draws, distinct, missing, seed):
        rng = np.random.default_rng(seed)
        bms = [f"bm{i:02d}" for i in range(n_bms)]
        buckets, turnover, spread = _tables(rng, m, bms, distinct, missing)
        rates = {bm: float(rng.choice([0.0005, 0.001, 0.0018, 0.003])) for bm in bms}
        index = rng.integers(0, m, size=(draws, m))
        got = harness._resampled_rho(index, buckets, bms, rates, turnover, spread)
        expected = [
            resampled_rho_per_draw([buckets[j] for j in row], bms, rates, turnover, spread)
            for row in index
        ]
        assert _bits(got) == _bits(expected)

        boot = cluster_bootstrap(
            buckets,
            lambda idx: harness._resampled_rho(idx, buckets, bms, rates, turnover, spread),
            draws=draws,
            seed=seed,
        )
        point, ci = cluster_bootstrap_per_draw(
            buckets, lambda gb: resampled_rho_per_draw(gb, bms, rates, turnover, spread), draws, seed
        )
        assert _bits([boot.point, *boot.ci95]) == _bits([point, *ci])

    def test_analyze_interval_matches_per_draw_oracle(self, demo_store, monkeypatch):
        calls = []
        real = harness._resampled_rho

        def spy(index, *tables):
            calls.append(tables)
            return real(index, *tables)

        monkeypatch.setattr(harness, "_resampled_rho", spy)
        conjecture = analyze(demo_store).conjecture
        buckets, bms, rates, turnover, spread = calls[0]
        point, ci = cluster_bootstrap_per_draw(
            buckets,
            lambda gb: resampled_rho_per_draw(gb, bms, rates, turnover, spread),
            demo_store.config.bootstrap_draws,
            harness.derived_seed(demo_store.config.seed, "boot", "conjecture"),
        )
        assert len(calls) == 2
        assert _bits([conjecture["bootstrap_point"], *conjecture["bootstrap_ci95"]]) == _bits([point, *ci])


class TestValidate:
    def test_clean_store_no_findings(self, demo_store):
        assert validate_results(demo_store) == []

    def test_truncation_detected(self):
        cfg = _config(
            engines=("reference", "post|abs|x1|atomic|aligned|trunc62"),
            benchmarks=("bm01",),
        )
        store = run_suite(cfg)
        findings = validate_results(store)
        mismatches = [f for f in findings if f.kind == "LengthMismatch"]
        assert mismatches
        assert all(f.got == 62 for f in mismatches)
        assert all(f.expected == store.n_eval_days for f in mismatches)

    def test_missing_cell_detected(self, demo_store):
        import copy

        store = copy.copy(demo_store)
        store.cells = dict(demo_store.cells)
        key = next(iter(store.cells))
        del store.cells[key]
        findings = validate_results(store)
        assert any(f.kind == "MissingCell" for f in findings)


class TestAnalyze:
    def test_identical_conventions_all_zero(self):
        # At zero cost the reporting convention has nothing to report, so the
        # two engines behave identically and every record degenerates to 0.
        cfg = _config(engines=("reference", "pre_trade"), benchmarks=("bm09",))
        bundle = analyze(run_suite(cfg))
        for row in bundle.tables["divergence_records"]:
            assert row["rel_diff_pct"] == 0.0
        tost_rows = [r for r in bundle.tables["stats_tests"] if r["test"] == "tost"]
        assert tost_rows
        assert all(r["equivalent"] for r in tost_rows)
        assert all(r["degenerate"] for r in tost_rows)

    def test_floor_reproduced_in_pipeline(self):
        cfg = _config(benchmarks=("bm02",))
        bundle = analyze(run_suite(cfg))
        target = 0.0018 / 0.9982 * 100
        recs = [
            r for r in bundle.tables["divergence_records"] if r["metric"] == "total_return"
        ]
        assert recs
        for row in recs:
            assert row["rel_diff_pct"] == pytest.approx(target, abs=1e-6)
        floor_rows = bundle.tables["floor_decomposition"]
        assert all(r["mixed_reporting"] for r in floor_rows)
        for row in floor_rows:
            assert row["floor_pct"] == pytest.approx(target, abs=1e-6)
            assert abs(row["residual_pct"]) < 1e-6

    def test_bh_family_size_is_benchmarks_times_pairs(self):
        cfg = _config(
            engines=("reference", "pre_trade", "percent_divided", "double_commission"),
            benchmarks=("bm01", "bm02"),
        )
        bundle = analyze(run_suite(cfg))
        t_rows = [r for r in bundle.tables["stats_tests"] if r["test"] == "t"]
        assert len(t_rows) == 2 * 6  # benchmarks x C(4,2) pairs
        assert all(r["reject_fdr"] is not None for r in t_rows if not r["degenerate"])

    def test_failed_cells_excluded_pairwise(self, demo_store):
        import copy
        from dataclasses import replace

        store = copy.copy(demo_store)
        store.cells = dict(demo_store.cells)
        victim = ("bm01", store.bucket_ids[0], store.engine_ids[0])
        store.cells[victim] = replace(
            store.cells[victim], error="boom", stats=None, equity=None
        )
        bundle = analyze(store)
        # The broken engine's pairs lose that bucket; other cells keep it.
        recs = [
            r for r in bundle.tables["divergence_records"]
            if r["benchmark"] == "bm01" and r["metric"] == "total_return"
        ]
        buckets_in_records = {r["bucket"] for r in recs}
        assert store.bucket_ids[0] not in buckets_in_records
        summary = {r["benchmark"]: r for r in bundle.tables["divergence_summary"]}
        assert summary["bm01"]["n_buckets"] == len(store.bucket_ids) - 1
        assert any(
            f["kind"] == "CellError" and f["benchmark"] == "bm01"
            for f in bundle.tables["validation"]
        )

    def test_summary_metrics_present(self, demo_bundle):
        rows = {r["benchmark"]: r for r in demo_bundle.tables["divergence_summary"]}
        assert set(rows) == {"bm01", "bm02", "bm09"}
        assert rows["bm01"]["daf"] == 1.0 or rows["bm01"]["daf"] is None
        assert rows["bm09"]["mean_pct"] == 0.0
        for row in rows.values():
            assert row["n_pairs"] == 1
            assert row["csi"] in (0, 1)

    def test_summary_row_matches_hand_recomputation(self, demo_store, demo_bundle):
        # Rebuild bm01's summary from raw equity series with flat code:
        # growth-relative divergence per bucket, averaged over buckets, then
        # mean/max over pairs; ES = per-bucket total-return range averaged.
        store = demo_store
        engines = sorted(store.engine_ids)
        per_pair = []
        for i in range(len(engines)):
            for j in range(i + 1, len(engines)):
                per_bucket = []
                for bucket in store.bucket_ids:
                    ga = store.cell("bm01", bucket, engines[i]).stats.growth
                    gb = store.cell("bm01", bucket, engines[j]).stats.growth
                    per_bucket.append(abs(gb - ga) / abs(ga) * 100.0)
                per_pair.append(sum(per_bucket) / len(per_bucket))
        es_vals = []
        for bucket in store.bucket_ids:
            trs = [store.cell("bm01", bucket, e).stats.total_return_pct for e in engines]
            es_vals.append(max(trs) - min(trs))
        row = next(r for r in demo_bundle.tables["divergence_summary"] if r["benchmark"] == "bm01")
        assert row["mean_pct"] == pytest.approx(sum(per_pair) / len(per_pair), rel=1e-12)
        assert row["max_pct"] == pytest.approx(max(per_pair), rel=1e-12)
        assert row["es_range_pp"] == pytest.approx(sum(es_vals) / len(es_vals), rel=1e-12)

    def test_concordance_table(self, demo_bundle):
        rows = demo_bundle.tables["concordance"]
        assert rows
        for row in rows:
            assert -1.0 - 1e-12 <= row["ccc"] <= 1.0 + 1e-12
        mins = {(r["benchmark"], r["metric"]) for r in demo_bundle.tables["concordance_min"]}
        assert ("bm01", "total_return") in mins

    def test_dollar_table_ruler_rows(self, demo_bundle):
        rows = {r["benchmark"]: r for r in demo_bundle.tables["dollar_ambiguity"]}
        assert rows["ruler_0.10pct"]["annual_ambiguity_usd"] == 1_000_000.0
        assert rows["ruler_3.71pct"]["annual_ambiguity_usd"] == 37_100_000.0

    def test_conjecture_block(self, demo_bundle):
        assert demo_bundle.conjecture["n_benchmarks"] == 3
        assert "spearman_rho" in demo_bundle.conjecture
        assert "bootstrap_ci95" in demo_bundle.conjecture

    def test_bundle_json_roundtrip(self, demo_bundle):
        again = ReportBundle.from_json(demo_bundle.to_json())
        assert again.tables == demo_bundle.tables
        assert again.run_id == demo_bundle.run_id


def _damaged(
    store: ResultStore,
    *,
    errors=(),
    truncated=(),
    dropped=(),
    no_reference=False,
    failed_benchmark=None,
    benchmarks=None,
    n_buckets=None,
    weight_sums=(),
    order=None,
) -> ResultStore:
    """A copy of ``store`` with cells failed, shortened or removed, the
    benchmark list cut or reordered, buckets cut, first-entry weight sums
    changed, and the cells reinserted in ``order``."""
    cells = dict(store.cells)
    for key in errors:
        cells[key] = CellResult(*key, error="RuntimeError: boom")
    for key in truncated:
        if cells[key].ok:
            cells[key] = replace(cells[key], n_days=cells[key].n_days - 1)
    for key in dropped:
        cells.pop(key, None)
    if no_reference:
        cells = {k: c for k, c in cells.items() if k[2] != REFERENCE.id}
    if failed_benchmark is not None:
        cells |= {k: CellResult(*k, error="ValueError: all fail") for k in cells if k[0] == failed_benchmark}
    damaged = copy.copy(store)
    damaged.cells = {k: cells[k] for k in (order or sorted(cells)) if k in cells}
    damaged.config = replace(store.config, benchmarks=tuple(benchmarks or store.config.benchmarks))
    damaged.partition = replace(store.partition, buckets=store.partition.buckets[:n_buckets])
    damaged.first_weight_sums = dict(store.first_weight_sums) | dict(weight_sums)
    return damaged


class TestAnalyzeOracle:
    """``analyze`` against the pre-builder loop in ``oracles.analyze_loop``,
    compared as bundle JSON, on whole and damaged stores."""

    @pytest.mark.parametrize(
        "damage",
        [
            {},
            {"errors": [("bm01", "B00", REFERENCE.id), ("bm09", "B02", REFERENCE.id)]},
            {"dropped": [("bm02", "B01", REFERENCE.id), ("bm01", "B03", REFERENCE.id)]},
            {"no_reference": True},
            {"n_buckets": 1},
            {"benchmarks": ("bm09", "bm01")},
            {"failed_benchmark": "bm02"},
        ],
        ids=["whole", "errors", "dropped", "no_reference", "one_bucket", "two_benchmarks", "failed_benchmark"],
    )
    @pytest.mark.parametrize("which", ["demo_store", "wide_store"])
    def test_named_damage(self, request, which, damage):
        store = _damaged(request.getfixturevalue(which), **damage)
        assert analyze(store).to_json() == analyze_loop(store).to_json()

    def test_one_bucket_skips_the_bootstrap(self, demo_store):
        conjecture = analyze(_damaged(demo_store, n_buckets=1)).conjecture
        assert conjecture["n_benchmarks"] == 3
        assert conjecture["bootstrap_ci95"] is None

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_damaged_store_matches_loop(self, demo_store, wide_store, data):
        store = data.draw(st.sampled_from([demo_store, wide_store]))
        keys = sorted(store.cells)
        some_cells = st.lists(st.sampled_from(keys), max_size=8)
        benchmarks = data.draw(st.permutations(store.config.benchmarks))
        damaged = _damaged(
            store,
            errors=data.draw(some_cells),
            truncated=data.draw(some_cells),
            dropped=data.draw(some_cells),
            no_reference=data.draw(st.booleans()),
            failed_benchmark=data.draw(st.none() | st.sampled_from(store.config.benchmarks)),
            benchmarks=benchmarks[: data.draw(st.integers(1, len(benchmarks)))],
            n_buckets=data.draw(st.integers(1, len(store.bucket_ids))),
            weight_sums=data.draw(
                st.dictionaries(st.sampled_from(sorted(store.first_weight_sums)), st.sampled_from([None, 0.5, 1.0]))
            ),
            order=data.draw(st.permutations(keys)),
        )
        assert analyze(damaged).to_json() == analyze_loop(damaged).to_json()


class TestEmit:
    def test_emitted_tables_reload(self, tmp_path, demo_bundle):
        paths = emit_reports(demo_bundle, str(tmp_path))
        records = read_table_csv(str(tmp_path / "divergence_records.csv"))
        assert len(records) == len(demo_bundle.tables["divergence_records"])
        for row, orig in zip(records, demo_bundle.tables["divergence_records"]):
            assert float(row["rel_diff_pct"]) == orig["rel_diff_pct"]
            assert row["run_id"] == demo_bundle.run_id
        meta = json.loads((tmp_path / "run_metadata.json").read_text())
        assert meta["run_id"] == demo_bundle.run_id
        assert meta["config"]["seed"] == 3
        assert "post|abs|x1|atomic|aligned|full" in meta["engine_conventions"]
        partition = json.loads((tmp_path / "partition.json").read_text())
        assert {"seed", "n_candidates", "score", "buckets"} <= set(partition)

    def test_unwritable_dir_raises(self, demo_bundle):
        with pytest.raises(OSError):
            emit_reports(demo_bundle, "/proc/definitely/not/writable")


class TestCli:
    def _write_config(self, path: Path) -> str:
        cfg = {
            "seed": 5,
            "synthetic": {
                "n_assets": 18,
                "n_days": 140,
                "seed": None,
                "annual_vol": 0.25,
                "annual_drift": 0.06,
                "correlation": 0.3,
                "n_sectors": 6,
            },
            "buckets": {"n_buckets": 3, "bucket_size": 6, "n_candidates": 20},
            "benchmarks": ["bm01", "bm02", "bm09"],
            "engines": ["reference", "pre_trade"],
            "permutation_draws": 100,
            "bootstrap_draws": 50,
        }
        p = path / "config.json"
        p.write_text(json.dumps(cfg))
        return str(p)

    def test_full_pipeline_exit_codes(self, tmp_path):
        cfg = self._write_config(tmp_path)
        out = str(tmp_path / "out")
        assert main(["gen-data", "--config", cfg, "--out", out]) == 0
        assert main(["buckets", "--config", cfg, "--out", out]) == 0
        assert main(["run", "--config", cfg, "--out", out]) == 0
        assert main(["analyze", "--config", cfg, "--out", out]) == 0
        assert main(["report", "--config", cfg, "--out", out]) == 0
        for name in ("prices.csv", "sectors.csv", "partition.json", "bucket_qc.json"):
            assert (tmp_path / "out" / name).exists()
        assert (tmp_path / "out" / "store" / "cells.csv").exists()
        assert (tmp_path / "out" / "report" / "divergence_summary.csv").exists()

    def test_analyze_refuses_a_store_from_another_seed(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        run_id = json.loads((out / "store" / "store.json").read_text())["run_id"]
        assert main(["analyze", "--config", cfg, "--seed", "99", "--out", str(out)]) == 1
        assert not (out / "analysis").exists()
        assert run_id in capsys.readouterr().err

    def test_report_refuses_a_bundle_from_another_seed(self, tmp_path):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0
        assert main(["report", "--config", cfg, "--seed", "99", "--out", str(out)]) == 1
        assert not (out / "report").exists()

    def test_all_command(self, tmp_path):
        cfg = self._write_config(tmp_path)
        out = str(tmp_path / "all-out")
        assert main(["all", "--config", cfg, "--out", out]) == 0

    def test_validation_findings_exit_code(self, tmp_path):
        cfg_obj = json.loads(Path(self._write_config(tmp_path)).read_text())
        cfg_obj["engines"] = ["reference", "post|abs|x1|atomic|aligned|trunc30"]
        cfg_obj["benchmarks"] = ["bm01"]
        p = tmp_path / "trunc.json"
        p.write_text(json.dumps(cfg_obj))
        out = str(tmp_path / "trunc-out")
        assert main(["all", "--config", str(p), "--out", out]) == 2

    def test_error_exit_code(self, tmp_path):
        assert main(["analyze", "--out", str(tmp_path / "nonexistent")]) == 1

    def test_engine_and_benchmark_overrides(self, tmp_path):
        cfg = self._write_config(tmp_path)
        out = str(tmp_path / "ovr")
        code = main(
            [
                "run", "--config", cfg, "--out", out,
                "--engines", "reference,percent_divided",
                "--benchmarks", "bm01",
            ]
        )
        assert code == 0
        meta = json.loads((Path(out) / "store" / "store.json").read_text())
        assert meta["config"]["benchmarks"] == ["bm01"]
        assert len(meta["config"]["engines"]) == 2
