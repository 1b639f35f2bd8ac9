"""Span tracing for the crossbt benchmark, kept entirely outside ``src/``.

``install`` replaces each layer's public functions at the names their
callers look up (module globals, class attributes, the ``BENCHMARKS`` and
``cli.COMMANDS`` registries) with wrappers that record one span per call
and a few counters; the returned ``restore`` puts every original object
back. Spans live in memory as ``(name, start, end, parent, run_id)`` rows
and are written out once, at the end of a traced pipeline.

A span name is ``<module>.<what>`` with an optional ``:<label>`` suffix
(benchmark id, engine convention); the module prefix is the ``src/crossbt``
layer that did the work. The benchmark's own root span is ``trace.root``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from collections import defaultdict

#: One clock for the benchmark and its child processes: system-wide monotonic.
CLOCK = time.CLOCK_MONOTONIC


def now() -> float:
    return time.clock_gettime(CLOCK)


ROOT = "trace.root"

LAYERS = (
    "marketdata", "buckets", "strategies", "mlsignals", "engine",
    "riskmetrics", "stats", "harness", "cli",
)

BENCHMARK_IDS = (
    "bm01", "bm02", "bm03", "bm04", "bm05", "bm06", "bm07",
    "bm08_enet", "bm09", "bm10", "bm11", "bm12",
)

#: Metric suffix for each engine convention a workload runs.
CONVENTION_LABELS = {
    "post|abs|x1|atomic|aligned|full": "reference",
    "gross|abs|x1|atomic|aligned|full": "pre_trade",
    "post|div100|x1|atomic|aligned|full": "percent_divided",
    "post|abs|x2|atomic|aligned|full": "double_commission",
    "post|abs|x1|fifo|aligned|full": "fifo_sequential",
    "post|abs|x1|sellsfirst|aligned|full": "sells_first",
    "post|abs|x1|atomic|shift1|full": "shifted_one_day",
    "post|abs|x1|atomic|aligned|trunc756": "trunc756",
}


class Tracer:
    """In-memory span list plus counters for one traced pipeline."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.feature_rows: set = set()

    def open(self, name: str, start: float | None = None) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, now() if start is None else start, None, parent])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int, end: float | None = None) -> None:
        assert self.stack and self.stack[-1] == index, "spans must nest"
        self.stack.pop()
        self.spans[index][2] = now() if end is None else end

    def bump(self, key: str, by: float = 1.0) -> None:
        self.counters[key] += by

    def peak(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters[key], value)

    def snapshot(self) -> dict:
        """Spans as ``[name, start, end, parent, run_id]`` rows plus the counters."""
        counters = dict(self.counters)
        counters["mlsignals.distinct_feature_rows"] = len(self.feature_rows)
        return {"spans": [[n, s, e, p, self.run_id] for n, s, e, p in self.spans],
                "counters": counters}

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.snapshot(), f)


# ---------------------------------------------------------------------------
# Wrapping
# ---------------------------------------------------------------------------

def _wrap(tracer, fn, name, label=None, before=None, after=None):
    def traced(*args, **kwargs):
        if before is not None:
            args, kwargs = before(args, kwargs)
        span = name if label is None else f"{name}:{label(args, kwargs)}"
        index = tracer.open(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if after is not None:
            after(args, kwargs, result)
        return result

    traced.__wrapped__ = fn
    return traced


def _counted(fn, after):
    def counted(*args, **kwargs):
        result = fn(*args, **kwargs)
        after(args, kwargs, result)
        return result

    counted.__wrapped__ = fn
    return counted


class _Patches:
    """Replacements applied in order and undone in reverse."""

    def __init__(self):
        self.undo: list[tuple[object, str, object, bool]] = []

    def set(self, owner, key, value) -> None:
        is_dict = isinstance(owner, dict)
        original = owner[key] if is_dict else vars(owner)[key]
        self.undo.append((owner, key, original, is_dict))
        if is_dict:
            owner[key] = value
        else:
            setattr(owner, key, value)

    def restore(self) -> None:
        for owner, key, original, is_dict in reversed(self.undo):
            if is_dict:
                owner[key] = original
            else:
                setattr(owner, key, original)
        for owner, key, original, is_dict in self.undo:
            current = owner[key] if is_dict else vars(owner)[key]
            if current is not original:
                raise RuntimeError(f"failed to restore {key!r}")
        self.undo.clear()


def _dir_bytes(directory: str) -> int:
    total = 0
    for root, _, files in os.walk(directory):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return total


def install(tracer: Tracer):
    """Wrap every traced name; returns a function that restores them all."""
    from crossbt import buckets, cli, harness, mlsignals, strategies

    p = _Patches()

    def func(owner, attr, name, **hooks):
        p.set(owner, attr, _wrap(tracer, vars(owner)[attr], name, **hooks))

    def method(cls, attr, name, **hooks):
        original = vars(cls)[attr]
        if isinstance(original, classmethod):
            p.set(cls, attr, classmethod(_wrap(tracer, original.__func__, name, **hooks)))
        else:
            p.set(cls, attr, _wrap(tracer, original, name, **hooks))

    # -- cli: the pipeline entry point and one span per stage command -------
    func(cli, "main", "cli.main")
    for stage, command in list(cli.COMMANDS.items()):
        p.set(cli.COMMANDS, stage, _wrap(tracer, command, f"cli.{stage}"))

    # -- marketdata ----------------------------------------------------------
    func(harness, "generate_synthetic", "marketdata.generate",
         after=lambda a, k, r: tracer.bump("marketdata.panel_builds"))
    func(harness, "descriptive_stats", "marketdata.descriptive_stats")
    func(cli, "write_prices_csv", "marketdata.write_prices_csv")
    func(cli, "write_sector_map", "marketdata.write_sector_map")

    # -- buckets: cli calls its own imports, run_suite goes through the module
    def rerandomized(a, k, r):
        tracer.bump("buckets.rerandomize_calls")
        tracer.bump("buckets.candidates", a[4] if len(a) > 4 else k["n_candidates"])

    for owner in (cli, buckets):
        func(owner, "compute_covariates", "buckets.compute_covariates")
        func(owner, "rerandomize", "buckets.rerandomize", after=rerandomized)
        func(owner, "sector_balance", "buckets.sector_balance")
    func(buckets, "sample_partition", "buckets.sample")

    # -- strategies: each registry entry's schedule builder ------------------
    def built(a, k, schedule):
        tracer.bump("strategies.builds")
        tracer.bump("strategies.rebalances", len(schedule.entries))

    for bm, spec in list(strategies.BENCHMARKS.items()):
        wrapped = _wrap(tracer, spec.build, f"strategies.build:{bm}", after=built)
        p.set(strategies.BENCHMARKS, bm, dataclasses.replace(spec, build=wrapped))

    # -- mlsignals -------------------------------------------------------------
    def fitted(a, k, fit):
        tracer.bump("mlsignals.fits")
        tracer.bump("mlsignals.fit_sweeps", fit.n_iter)
        tracer.bump("mlsignals.nonconverged", not fit.converged)

    def featured(a, k, rows):
        pm = a[0] if a else k["pm"]
        t = a[1] if len(a) > 1 else k["t"]
        tracer.bump("mlsignals.feature_rows")
        tracer.feature_rows.add((pm.assets, int(t)))

    func(strategies, "walk_forward_signal", "mlsignals.walk_forward")
    func(mlsignals, "fit_elastic_net", "mlsignals.fit", after=fitted)
    p.set(mlsignals, "build_features", _counted(mlsignals.build_features, featured))

    # -- engine ------------------------------------------------------------------
    def ran(a, k, series):
        tracer.bump("engine.runs")
        tracer.bump("engine.cell_days", len(series.equity))
        tracer.bump("engine.rebalances", len(series.trades))
        tracer.bump("engine.skipped_orders", sum(len(tr.skipped) for tr in series.trades))

    func(harness, "run_variant", "engine.run", after=ran,
         label=lambda a, k: (a[4] if len(a) > 4 else k["conv"]).id)
    func(harness, "performance_metrics", "engine.metrics")
    func(harness, "annual_turnover", "engine.metrics")

    # -- riskmetrics and stats, as harness imported them --------------------------
    for attr in ("csi", "dollar_ambiguity", "es_cv", "es_range",
                 "floor_decomposition", "iui", "pairwise_divergence"):
        func(harness, attr, f"riskmetrics.{attr}",
             after=lambda a, k, r: tracer.bump("riskmetrics.calls"))
    for attr in ("bh_fdr", "lag1_autocorr", "lin_ccc", "one_sample_t",
                 "pearson", "spearman", "tost", "wilcoxon_signed_rank"):
        func(harness, attr, f"stats.{attr}")

    def permuted(a, k, r):
        tracer.bump("stats.permutation_calls")
        draws = k.get("draws", a[1] if len(a) > 1 else 10_000)
        tracer.peak("stats.permutation_sign_mb", draws * len(a[0]) * 8 / 1e6)

    def count_statistic(a, k):
        statistic = a[1] if len(a) > 1 else k["statistic"]
        counted = _counted(statistic, lambda *_: tracer.bump("stats.bootstrap_statistic_calls"))
        if len(a) > 1:
            return (a[0], counted) + tuple(a[2:]), k
        return a, k | {"statistic": counted}

    func(harness, "sign_flip_permutation", "stats.permutation", after=permuted)
    func(harness, "cluster_bootstrap", "stats.bootstrap", before=count_statistic)

    # -- harness -----------------------------------------------------------------
    func(cli, "load_panel", "harness.load_panel")
    func(cli, "run_suite", "harness.grid")
    func(cli, "analyze", "harness.analyze")
    func(harness, "validate_results", "harness.validate")
    func(cli, "emit_reports", "harness.emit")
    method(harness.ResultStore, "save", "harness.save",
           after=lambda a, k, r: tracer.peak("harness.save_mb", _dir_bytes(a[1]) / 1e6))
    method(harness.ResultStore, "load", "harness.load")
    method(harness.ReportBundle, "to_json", "harness.bundle_json")
    method(harness.ReportBundle, "from_json", "harness.bundle_json")

    return p.restore


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------

def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (name, start, end, parent, *_) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children[i]):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def module_of(name: str) -> str:
    return name.split(":", 1)[0].split(".", 1)[0]


def module_self_times(spans: list) -> dict[str, float]:
    """Self time summed by layer; the root span's self time is unattributed."""
    totals = {layer: 0.0 for layer in LAYERS}
    totals["unattributed"] = 0.0
    for (name, *_), own in zip(spans, self_times(spans)):
        key = "unattributed" if name == ROOT else module_of(name)
        totals[key] += own
    return totals


def _span_totals(spans: list) -> dict[str, float]:
    """Summed duration per span name (label included) and per base name, and
    per layer over the spans not nested in another span of that layer."""
    totals: dict[str, float] = defaultdict(float)
    for name, start, end, parent, *_ in spans:
        totals[name] += end - start
        if ":" in name:
            totals[name.split(":", 1)[0]] += end - start
        if parent < 0 or module_of(spans[parent][0]) != module_of(name):
            totals[module_of(name)] += end - start
    return totals


def unit_of(metric: str) -> str:
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_frac"):
        return "frac"
    if metric.endswith("ns_per_cell_day"):
        return "ns"
    if metric.endswith(("_s", ".s")) or "_s." in metric:
        return "s"
    return "count"


def better_of(metric: str) -> str:
    """Ratios of useful to attempted work should rise; time, memory and work should fall."""
    return "higher" if metric.endswith("_frac") else "lower"


def layer_metrics(spans: list, counters: dict, untraced_total_s: float) -> dict[str, float]:
    """Every per-layer metric of one traced pipeline, by name.

    ``untraced_total_s`` is the same pipeline's total without tracing; the
    difference is reported as ``trace.overhead_s``."""
    own = self_times(spans)
    dur = _span_totals(spans)
    c = defaultdict(float, counters)
    by_module = module_self_times(spans)
    self_by_name: dict[str, float] = defaultdict(float)
    for (name, *_), s in zip(spans, own):
        self_by_name[name.split(":", 1)[0]] += s
    root = next(s for s in spans if s[0] == ROOT)

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = by_module[layer]
    m["marketdata.generate_s"] = dur["marketdata.generate"]
    m["marketdata.panel_builds"] = c["marketdata.panel_builds"]

    calls = c["buckets.rerandomize_calls"]
    m["buckets.rerandomize_s"] = dur["buckets.rerandomize"]
    m["buckets.sample_s"] = dur["buckets.sample"]
    m["buckets.rerandomize_calls"] = calls
    m["buckets.useful_frac"] = 1.0 / calls if calls else 0.0
    m["buckets.candidates"] = c["buckets.candidates"]

    m["strategies.build_s"] = dur["strategies.build"]
    for bm in BENCHMARK_IDS:
        m[f"strategies.build_s.{bm}"] = dur[f"strategies.build:{bm}"]
    m["strategies.rebalances"] = c["strategies.rebalances"]

    rows = c["mlsignals.feature_rows"]
    m["mlsignals.walk_forward_s"] = dur["mlsignals.walk_forward"]
    m["mlsignals.fit_s"] = dur["mlsignals.fit"]
    m["mlsignals.fits"] = c["mlsignals.fits"]
    m["mlsignals.fit_sweeps"] = c["mlsignals.fit_sweeps"]
    m["mlsignals.nonconverged"] = c["mlsignals.nonconverged"]
    m["mlsignals.feature_rows"] = rows
    m["mlsignals.feature_reuse_frac"] = c["mlsignals.distinct_feature_rows"] / rows if rows else 0.0

    runs, cell_days = c["engine.runs"], c["engine.cell_days"]
    m["engine.run_s"] = dur["engine.run"]
    for conv_id, label in CONVENTION_LABELS.items():
        m[f"engine.run_s.{label}"] = dur[f"engine.run:{conv_id}"]
    m["engine.runs"] = runs
    m["engine.runs_per_schedule"] = runs / c["strategies.builds"] if c["strategies.builds"] else 0.0
    m["engine.cell_days"] = cell_days
    m["engine.ns_per_cell_day"] = dur["engine.run"] * 1e9 / cell_days if cell_days else 0.0
    m["engine.rebalances"] = c["engine.rebalances"]
    m["engine.skipped_orders"] = c["engine.skipped_orders"]
    m["engine.metrics_s"] = dur["engine.metrics"]

    m["riskmetrics.s"] = dur["riskmetrics"]
    m["riskmetrics.calls"] = c["riskmetrics.calls"]

    m["stats.permutation_s"] = dur["stats.permutation"]
    m["stats.permutation_calls"] = c["stats.permutation_calls"]
    m["stats.permutation_sign_mb"] = c["stats.permutation_sign_mb"]
    m["stats.bootstrap_s"] = dur["stats.bootstrap"]
    m["stats.bootstrap_statistic_calls"] = c["stats.bootstrap_statistic_calls"]
    m["stats.other_s"] = dur["stats"] - dur["stats.permutation"] - dur["stats.bootstrap"]

    m["harness.save_s"] = dur["harness.save"]
    m["harness.save_mb"] = c["harness.save_mb"]
    m["harness.load_s"] = dur["harness.load"]
    m["harness.grid_self_s"] = self_by_name["harness.grid"]
    m["harness.analyze_self_s"] = self_by_name["harness.analyze"]
    m["harness.validate_s"] = dur["harness.validate"]
    m["harness.emit_s"] = dur["harness.emit"]
    m["harness.bundle_json_s"] = dur["harness.bundle_json"]

    m["trace.total_s"] = root[2] - root[1]
    m["trace.unattributed_s"] = by_module["unattributed"]
    m["trace.spans"] = float(len(spans))
    m["trace.overhead_s"] = m["trace.total_s"] - untraced_total_s
    return m
