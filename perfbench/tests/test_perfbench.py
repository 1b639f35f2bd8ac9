"""Tests of the benchmark itself: workload configs, span arithmetic, counters.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
REPO = BENCH.parent
sys.path[:0] = [str(BENCH), str(REPO / "src")]

import pipeline  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from crossbt import buckets, cli, harness, mlsignals, strategies  # noqa: E402
from crossbt.harness import RunConfig  # noqa: E402
from crossbt.mlsignals import WalkForwardConfig  # noqa: E402
from crossbt.strategies import rebalance_indices  # noqa: E402


@pytest.mark.parametrize("seed", [7, 23])
@pytest.mark.parametrize("name", sorted(workloads.SHAPES))
def test_workload_config_parses(name, seed):
    cfg = RunConfig.from_dict(workloads.make_config(name, seed))
    assert cfg.seed == seed and cfg.synth.seed == seed
    n_assets, n_days, _, n_buckets, size, cands, bms, engines = workloads.SHAPES[name]
    assert (cfg.synth.n_assets, cfg.synth.n_days) == (n_assets, n_days)
    assert (cfg.buckets.n_buckets, cfg.buckets.bucket_size) == (n_buckets, size)
    assert len(cfg.roster()) == len(engines)
    assert cfg.buckets.n_candidates == cands and list(cfg.benchmarks) == bms
    assert (cfg.permutation_draws, cfg.bootstrap_draws) == workloads.DRAWS[name]


def test_expected_findings_match_truncation():
    assert workloads.expected_findings("daily_signals") == 6 * 3
    assert workloads.expected_findings("paper") == 0
    assert workloads.expected_findings("wide_short") == 0


# -- span arithmetic -----------------------------------------------------------

TREE = [
    ["trace.root", 0.0, 10.0, -1],
    ["cli.main", 1.0, 9.0, 0],
    ["harness.grid", 2.0, 8.0, 1],
    ["engine.run:reference", 3.0, 5.0, 2],
    ["engine.metrics", 5.0, 5.5, 2],
    ["strategies.build:bm01", 6.0, 7.0, 2],
]


def test_self_times_on_hand_built_tree():
    assert tracing.self_times(TREE) == pytest.approx([2.0, 2.0, 2.5, 2.0, 0.5, 1.0])


def test_module_self_times_sum_to_root():
    by_module = tracing.module_self_times(TREE)
    assert by_module["unattributed"] == pytest.approx(2.0)
    assert by_module["cli"] == pytest.approx(2.0)
    assert by_module["harness"] == pytest.approx(2.5)
    assert by_module["engine"] == pytest.approx(2.5)
    assert by_module["strategies"] == pytest.approx(1.0)
    assert by_module["stats"] == 0.0
    assert sum(by_module.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [["harness.analyze", 0.0, 10.0, -1],
             ["stats.tost", 1.0, 4.0, 0],
             ["stats.tost", 3.0, 6.0, 0],
             ["stats.pearson", 8.0, 12.0, 0]]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 2.0)


def test_layer_totals_do_not_double_count_nested_spans():
    spans = [["trace.root", 0.0, 10.0, -1],
             ["stats.bootstrap", 1.0, 5.0, 0],
             ["stats.spearman", 2.0, 3.0, 1],
             ["stats.tost", 6.0, 7.0, 0]]
    m = tracing.layer_metrics(spans, {}, 9.0)
    assert m["stats.bootstrap_s"] == pytest.approx(4.0)
    assert m["stats.other_s"] == pytest.approx(1.0)
    assert m["stats.self_s"] == pytest.approx(5.0)
    assert m["trace.unattributed_s"] == pytest.approx(5.0)
    assert m["trace.overhead_s"] == pytest.approx(1.0)


def test_times_scale_each_stage_by_the_calibrations_around_it():
    ref = run.REFERENCE_CALIBRATION_S
    one = {"setup_s": 0.5, "total_s": 4.0, "stage_s": {"buckets": 1.0, "run": 2.0},
           "calibration_s": [ref, 2 * ref, 4 * ref]}
    assert run.times(one, False) == {"setup_s": 0.5, "total_s": 4.0, "buckets_s": 1.0, "run_s": 2.0}
    scaled = run.times(one, True)
    assert scaled["setup_s"] == pytest.approx(0.5)
    assert scaled["buckets_s"] == pytest.approx(1.0 / 1.5)
    assert scaled["run_s"] == pytest.approx(2.0 / 3.0)
    assert scaled["total_s"] == pytest.approx(4.0 / (7 / 3))


# -- a traced pipeline on a tiny config ---------------------------------------

TINY = {
    "seed": 3,
    "synthetic": {"n_assets": 12, "n_days": 330, "seed": None, "n_sectors": 4},
    "buckets": {"n_buckets": 2, "bucket_size": 3, "n_candidates": 20},
    "benchmarks": ["bm01", "bm08_enet", "bm12"],
    "engines": ["reference", "pre_trade", "fifo_sequential"],
    "permutation_draws": 200,
    "bootstrap_draws": 50,
}


def _names_in_use():
    """Every object the tracer replaces, keyed by where callers look it up."""
    owners = {
        "cli": (cli, ["main", "write_prices_csv", "write_sector_map", "compute_covariates",
                      "rerandomize", "sector_balance", "load_panel", "run_suite",
                      "analyze", "emit_reports"]),
        "buckets": (buckets, ["compute_covariates", "rerandomize", "sector_balance",
                              "sample_partition"]),
        "harness": (harness, ["generate_synthetic", "descriptive_stats", "run_variant",
                              "performance_metrics", "annual_turnover", "validate_results",
                              "sign_flip_permutation", "cluster_bootstrap", "spearman"]),
        "strategies": (strategies, ["walk_forward_signal"]),
        "mlsignals": (mlsignals, ["fit_elastic_net", "build_features"]),
    }
    found = {f"{label}.{a}": vars(mod)[a] for label, (mod, attrs) in owners.items() for a in attrs}
    found |= {f"COMMANDS.{k}": v for k, v in cli.COMMANDS.items()}
    found |= {f"BENCHMARKS.{k}": v for k, v in strategies.BENCHMARKS.items()}
    for cls, attr in [(harness.ResultStore, "save"), (harness.ResultStore, "load"),
                      (harness.ReportBundle, "to_json"), (harness.ReportBundle, "from_json")]:
        found[f"{cls.__name__}.{attr}"] = vars(cls)[attr]
    return found


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """The tiny config run untraced and traced, in-process; spans and output trees."""
    root = tmp_path_factory.mktemp("tiny")
    config = root / "config.json"
    config.write_text(json.dumps(TINY))
    plain = pipeline.run_stages(cli, str(config), str(root / "plain"), 1, pipeline.STAGES)

    before = _names_in_use()
    tracer = tracing.Tracer("tiny")
    top = tracer.open(tracing.ROOT)
    restore = tracing.install(tracer)
    changed = [k for k, v in _names_in_use().items() if v is not before[k]]
    try:
        traced = pipeline.run_stages(cli, str(config), str(root / "traced"), 1, pipeline.STAGES)
    finally:
        restore()
    tracer.close(top)
    return {"root": root, "plain": plain, "traced": traced, "before": before,
            "changed": changed, "snapshot": tracer.snapshot()}


def test_tracing_wraps_then_restores_every_name(tiny_runs):
    assert sorted(tiny_runs["changed"]) == sorted(tiny_runs["before"])
    after = _names_in_use()
    assert all(after[k] is v for k, v in tiny_runs["before"].items())


def test_traced_output_is_byte_identical(tiny_runs):
    assert [s["code"] for s in tiny_runs["traced"]] == [0] * 5
    assert [s["code"] for s in tiny_runs["plain"]] == [0] * 5
    root = tiny_runs["root"]
    assert run.tree_digest(root / "traced") == run.tree_digest(root / "plain")


def test_counters_on_tiny_config(tiny_runs):
    snap = tiny_runs["snapshot"]
    m = tracing.layer_metrics(snap["spans"], snap["counters"], 1.0)
    cfg = RunConfig.from_dict(TINY)
    n_buckets = cfg.buckets.n_buckets

    # Every schedule runs once per engine convention.
    assert m["engine.runs_per_schedule"] == len(cfg.roster())
    assert m["engine.runs"] == len(cfg.benchmarks) * n_buckets * len(cfg.roster())
    # `buckets` and `run` both re-draw the partition; only one draw is used.
    assert m["buckets.rerandomize_calls"] == 2
    assert m["buckets.useful_frac"] == 0.5
    assert m["buckets.candidates"] == 2 * cfg.buckets.n_candidates
    assert m["marketdata.panel_builds"] == 3

    # Walk-forward features: each rebalance rebuilds its training window
    # and the prediction row; overlapping windows repeat (bucket, day) rows.
    wf = WalkForwardConfig()
    warmup = max(strategies.BENCHMARKS[b].warmup for b in cfg.benchmarks)
    days_per_bucket: set[int] = set()
    calls = 0
    for t in rebalance_indices(cfg.synth.n_days, warmup, "monthly"):
        rows = set(range(t - wf.gap - wf.train_window + 1, t - wf.gap + 1)) | {t - 1}
        days_per_bucket |= rows
        calls += wf.train_window + 1
    assert m["mlsignals.feature_rows"] == n_buckets * calls
    assert m["mlsignals.feature_reuse_frac"] == pytest.approx(len(days_per_bucket) / calls)
    assert m["mlsignals.fits"] == n_buckets * len(rebalance_indices(cfg.synth.n_days, warmup, "monthly"))


def test_module_self_times_sum_to_traced_total(tiny_runs):
    spans = tiny_runs["snapshot"]["spans"]
    m = tracing.layer_metrics(spans, tiny_runs["snapshot"]["counters"], 1.0)
    layers = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert layers + m["trace.unattributed_s"] == pytest.approx(m["trace.total_s"], abs=1e-9)
    assert {row[4] for row in spans} == {"tiny"}


def test_benchmark_json_lists_every_metric(tiny_runs):
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.BENCHMARKED)
    assert all(w["why"] == workloads.WHY[w["name"]] for w in spec["workloads"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    snap = tiny_runs["snapshot"]
    names = tracing.layer_metrics(snap["spans"], snap["counters"], 1.0)
    assert [m["name"] for m in spec["per_layer"]] == list(names)
    for m in spec["per_layer"]:
        assert (m["unit"], m["better"]) == (tracing.unit_of(m["name"]), tracing.better_of(m["name"]))


def test_baseline_records_the_generated_configs():
    base = json.loads((BENCH / "baseline.json").read_text())
    assert set(base["workloads"]) == set(workloads.SHAPES)
    for name, entry in base["workloads"].items():
        assert entry["config_seed_7"] == workloads.make_config(name, 7)
        assert entry["why"] == workloads.WHY[name]
        assert entry["benchmarked"] == (name in workloads.BENCHMARKED)
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    per_layer = {m["name"] for m in spec["per_layer"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    for layer, entry in base["layers"].items():
        assert set(entry["metrics"]) <= per_layer, layer
        assert {m for m, _ in entry["moves"]} <= end_to_end, layer
