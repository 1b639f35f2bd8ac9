"""Experiment orchestration: run the benchmark grid across engine
conventions, validate the result store, run the analysis battery, and emit
machine-readable reports.

Everything downstream of the config is deterministic: all randomness flows
through substreams keyed off the master seed, parallel workers return
results that are merged in sorted key order, and emitted files carry no
timestamps, so a (config, seed) pair fixes every output byte at any
parallelism degree.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from collections.abc import Iterator, Mapping, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from itertools import islice

import numpy as np

from . import buckets as bucketmod
from .engine import (
    CostSpec,
    EngineConvention,
    PerfStats,
    annual_turnover,
    performance_metrics,
    resolve_convention,
    run_variant,
    REFERENCE,
    DEFAULT_ROSTER,
)
from .marketdata import (
    PriceMatrix,
    SynthSpec,
    descriptive_stats,
    generate_synthetic,
    load_prices_csv,
)
from .riskmetrics import (
    DivergenceRecord,
    csi,
    dollar_ambiguity,
    es_cv,
    es_range,
    floor_decomposition,
    iui,
    pairwise_divergence,
)
from .rng import derived_seed
from .stats import (
    NotEnoughClusters,
    bh_fdr,
    cluster_bootstrap,
    lag1_autocorr,
    lin_ccc,
    one_sample_t,
    pearson,
    sign_flip_permutation,
    spearman,
    spearman_rows,
    tost,
    wilcoxon_signed_rank,
)
from .strategies import BENCHMARKS

__version__ = "0.1.0"

DIVERGENCE_METRICS = PerfStats.METRICS

FULLY_INVESTED_TOL = 1e-9

#: Columns of the long ``equity.csv`` in a saved store.
EQUITY_COLUMNS = ["benchmark", "bucket", "engine", "date", "equity"]

#: Dollar-translation ruler rows included in every ambiguity table.
AMBIGUITY_RULER_PCTS = (0.10, 3.71)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BucketConfig:
    n_buckets: int = 5
    bucket_size: int = 6
    n_candidates: int = 2000
    sector_constraint: bool = True
    seed: int | None = None


@dataclass(frozen=True)
class RunConfig:
    """Full experiment description; hashable to a run id."""

    seed: int = 0
    synth: SynthSpec | None = None
    prices_csv: str | None = None
    sectors_csv: str | None = None
    buckets: BucketConfig = field(default_factory=BucketConfig)
    benchmarks: tuple[str, ...] = tuple(BENCHMARKS)
    engines: tuple[str, ...] = DEFAULT_ROSTER
    cost_regimes_bps: tuple[float, ...] = (0.0, 18.0, 36.0, 60.0)
    cost_overrides_bps: Mapping[str, float] = field(default_factory=dict)
    initial_capital: float = 1_000_000.0
    warmup: int | None = None
    aum: float = 1_000_000_000.0
    permutation_draws: int = 10_000
    bootstrap_draws: int = 5_000
    daf_reference: str = "bm01"
    tost_margins_pp: tuple[float, ...] = (0.10, 0.50)
    fdr_q: float = 0.05

    def __post_init__(self) -> None:
        object.__setattr__(self, "benchmarks", tuple(self.benchmarks))
        object.__setattr__(self, "engines", tuple(self.engines))
        object.__setattr__(self, "cost_regimes_bps", tuple(float(x) for x in self.cost_regimes_bps))
        object.__setattr__(self, "tost_margins_pp", tuple(float(x) for x in self.tost_margins_pp))
        object.__setattr__(self, "cost_overrides_bps", dict(self.cost_overrides_bps))
        if len(self.roster()) < 2:
            raise ValueError("need at least 2 distinct engine conventions")
        unknown = [b for b in self.benchmarks if b not in BENCHMARKS]
        if unknown:
            raise ValueError(f"unknown benchmarks: {unknown}")
        for b in self.benchmarks:
            if self.benchmark_cost_bps(b) not in self.cost_regimes_bps:
                raise ValueError(
                    f"benchmark {b} cost {self.benchmark_cost_bps(b)} bps "
                    f"not in configured regimes {self.cost_regimes_bps}"
                )
        if self.synth is None and self.prices_csv is None:
            raise ValueError("config needs either a synthetic spec or a prices CSV")

    def benchmark_cost_bps(self, benchmark: str) -> float:
        if benchmark in self.cost_overrides_bps:
            return float(self.cost_overrides_bps[benchmark])
        return float(BENCHMARKS[benchmark].cost_bps)

    def roster(self) -> list[tuple[str, EngineConvention]]:
        """(engine id, convention) pairs, deduplicated and sorted by id."""
        seen: dict[str, EngineConvention] = {}
        for name in self.engines:
            conv = resolve_convention(name)
            seen[conv.id] = conv
        return sorted(seen.items())

    def canonical_dict(self) -> dict:
        d: dict = {
            "seed": self.seed,
            "prices_csv": self.prices_csv,
            "sectors_csv": self.sectors_csv,
            "buckets": asdict(self.buckets),
            "benchmarks": list(self.benchmarks),
            "engines": [eid for eid, _ in self.roster()],
            "cost_regimes_bps": list(self.cost_regimes_bps),
            "cost_overrides_bps": dict(sorted(self.cost_overrides_bps.items())),
            "initial_capital": self.initial_capital,
            "warmup": self.warmup,
            "aum": self.aum,
            "permutation_draws": self.permutation_draws,
            "bootstrap_draws": self.bootstrap_draws,
            "daf_reference": self.daf_reference,
            "tost_margins_pp": list(self.tost_margins_pp),
            "fdr_q": self.fdr_q,
        }
        if self.synth is not None:
            synth = asdict(self.synth)
            if isinstance(synth["annual_vol"], np.ndarray):
                synth["annual_vol"] = [float(x) for x in synth["annual_vol"]]
            d["synthetic"] = synth
        else:
            d["synthetic"] = None
        return d

    def run_id(self) -> str:
        payload = json.dumps(self.canonical_dict(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:12]

    def to_json(self) -> str:
        return json.dumps(self.canonical_dict(), sort_keys=True, indent=2)

    _CONFIG_KEYS = frozenset(
        {
            "seed", "synthetic", "prices_csv", "sectors_csv", "buckets",
            "benchmarks", "engines", "cost_regimes_bps", "cost_overrides_bps",
            "initial_capital", "warmup", "aum", "permutation_draws",
            "bootstrap_draws", "daf_reference", "tost_margins_pp", "fdr_q",
        }
    )

    @classmethod
    def from_dict(cls, obj: Mapping) -> "RunConfig":
        obj = dict(obj)
        unknown = sorted(set(obj) - cls._CONFIG_KEYS)
        if unknown:
            raise ValueError(f"unknown config keys: {unknown}")
        seed = int(obj.get("seed", 0))
        synth = None
        if obj.get("synthetic"):
            s = dict(obj["synthetic"])
            if s.get("seed") is None:
                s["seed"] = seed
            if s.get("annual_vol") is not None and not np.isscalar(s["annual_vol"]):
                s["annual_vol"] = tuple(s["annual_vol"])
            if s.get("sectors") is not None:
                s["sectors"] = tuple(s["sectors"])
            synth = SynthSpec(**s)
        bucket_cfg = BucketConfig(**obj.get("buckets", {}))
        kwargs = {
            k: obj[k]
            for k in (
                "prices_csv",
                "sectors_csv",
                "benchmarks",
                "engines",
                "cost_regimes_bps",
                "cost_overrides_bps",
                "initial_capital",
                "warmup",
                "aum",
                "permutation_draws",
                "bootstrap_draws",
                "daf_reference",
                "tost_margins_pp",
                "fdr_q",
            )
            if k in obj
        }
        return cls(seed=seed, synth=synth, buckets=bucket_cfg, **kwargs)

    @classmethod
    def from_json_file(cls, path: str) -> "RunConfig":
        with open(path) as f:
            return cls.from_dict(json.load(f))


# ---------------------------------------------------------------------------
# Result store
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CellResult:
    """One (benchmark, bucket, engine) cell: either stats or an error."""

    benchmark: str
    bucket: str
    engine: str
    error: str | None = None
    stats: PerfStats | None = None
    turnover: float | None = None
    n_days: int = 0
    equity: np.ndarray | None = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.stats is not None


@dataclass
class ResultStore:
    """Frozen grid of backtest results plus run-level metadata."""

    config: RunConfig
    run_id: str
    eval_dates: tuple[str, ...]
    partition: bucketmod.Partition
    balance: bucketmod.SectorBalance | None
    universe: dict
    first_weight_sums: dict[tuple[str, str], float | None]
    cells: dict[tuple[str, str, str], CellResult]

    @property
    def n_eval_days(self) -> int:
        return len(self.eval_dates)

    @property
    def bucket_ids(self) -> tuple[str, ...]:
        return self.partition.bucket_ids

    @property
    def engine_ids(self) -> tuple[str, ...]:
        return tuple(eid for eid, _ in self.config.roster())

    def conventions(self) -> dict[str, EngineConvention]:
        return dict(self.config.roster())

    def cell(self, benchmark: str, bucket: str, engine: str) -> CellResult | None:
        return self.cells.get((benchmark, bucket, engine))

    # -- persistence (flat files) -------------------------------------------

    def save(self, directory: str) -> None:
        os.makedirs(directory, exist_ok=True)
        meta = {
            "run_id": self.run_id,
            "config": self.config.canonical_dict(),
            "eval_dates": list(self.eval_dates),
            "partition": json.loads(self.partition.to_json()),
            "balance": asdict(self.balance) if self.balance else None,
            "universe": self.universe,
            "first_weight_sums": {
                f"{bm}/{bucket}": fw for (bm, bucket), fw in sorted(self.first_weight_sums.items())
            },
        }
        with open(os.path.join(directory, "store.json"), "w") as f:
            json.dump(meta, f, sort_keys=True, indent=2)
        with open(os.path.join(directory, "cells.csv"), "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(
                [
                    "benchmark", "bucket", "engine", "error", "n_days",
                    "total_return_pct", "cagr_pct", "ann_vol_pct", "sharpe",
                    "max_drawdown_pct", "growth", "degenerate_sharpe", "turnover",
                ]
            )
            for key in sorted(self.cells):
                c = self.cells[key]
                if c.ok:
                    s = c.stats
                    writer.writerow(
                        [
                            c.benchmark, c.bucket, c.engine, "", c.n_days,
                            repr(s.total_return_pct), repr(s.cagr_pct), repr(s.ann_vol_pct),
                            repr(s.sharpe), repr(s.max_drawdown_pct), repr(s.growth),
                            str(s.degenerate_sharpe).lower(), repr(c.turnover),
                        ]
                    )
                else:
                    writer.writerow([c.benchmark, c.bucket, c.engine, c.error, c.n_days] + [""] * 8)
        with open(os.path.join(directory, "equity.csv"), "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(EQUITY_COLUMNS)
            for key in sorted(self.cells):
                c = self.cells[key]
                if c.equity is None:
                    continue
                for date, value in zip(self.eval_dates, c.equity):
                    writer.writerow([c.benchmark, c.bucket, c.engine, date, repr(float(value))])

    @classmethod
    def load(cls, directory: str) -> "ResultStore":
        with open(os.path.join(directory, "store.json")) as f:
            meta = json.load(f)
        config = RunConfig.from_dict(meta["config"])
        partition = bucketmod.Partition.from_json(json.dumps(meta["partition"]))
        balance = bucketmod.SectorBalance(**meta["balance"]) if meta["balance"] else None
        fw = {}
        for key, value in meta["first_weight_sums"].items():
            bm, bucket = key.split("/", 1)
            fw[(bm, bucket)] = value
        with open(os.path.join(directory, "cells.csv"), newline="") as f:
            rows = list(csv.DictReader(f))
        lengths = {
            (r["benchmark"], r["bucket"], r["engine"]): int(r["n_days"]) for r in rows if not r["error"]
        }
        equity: dict[tuple[str, str, str], np.ndarray | None] = {}
        eval_dates = tuple(meta["eval_dates"])
        with open(os.path.join(directory, "equity.csv"), newline="") as f:
            reader = csv.reader(f)
            if next(reader, None) != EQUITY_COLUMNS:
                raise ValueError("equity.csv: header is not " + ",".join(EQUITY_COLUMNS))
            for key in sorted(lengths):
                equity[key] = _read_equity(reader, key, eval_dates[: lengths[key]])
            extra = next(reader, None)
            if extra is not None:
                raise ValueError(f"equity.csv: row {extra[:4]} follows the last cell")
        cells: dict[tuple[str, str, str], CellResult] = {}
        for row in rows:
            key = (row["benchmark"], row["bucket"], row["engine"])
            if row["error"]:
                cells[key] = CellResult(*key, error=row["error"], n_days=int(row["n_days"]))
                continue
            stats = PerfStats(
                float(row["total_return_pct"]),
                float(row["cagr_pct"]),
                float(row["ann_vol_pct"]),
                float(row["sharpe"]),
                float(row["max_drawdown_pct"]),
                float(row["growth"]),
                row["degenerate_sharpe"] == "true",
            )
            cells[key] = CellResult(
                *key,
                stats=stats,
                turnover=float(row["turnover"]),
                n_days=lengths[key],
                equity=equity[key],
            )
        return cls(
            config=config,
            run_id=meta["run_id"],
            eval_dates=eval_dates,
            partition=partition,
            balance=balance,
            universe=meta["universe"],
            first_weight_sums=fw,
            cells=cells,
        )


def _read_equity(
    reader: Iterator[list[str]], key: tuple[str, str, str], dates: tuple[str, ...]
) -> np.ndarray | None:
    """The next ``len(dates)`` rows of ``equity.csv`` as one cell's equity.

    Raises ValueError naming the cell unless every row carries the cell's
    key and the expected date, in order. None for a cell with no days.
    """
    n = len(dates)
    if n == 0:
        return None
    block = list(islice(reader, n))
    columns = tuple(zip(*block))
    if (
        len(block) != n
        or set(map(len, block)) != {len(EQUITY_COLUMNS)}
        or columns[:4] != ((key[0],) * n, (key[1],) * n, (key[2],) * n, dates)
    ):
        raise ValueError(
            f"equity.csv: rows for cell {'/'.join(key)} do not match its {n} evaluation days"
        )
    try:
        return np.fromiter(map(float, columns[4]), dtype=float, count=n)
    except ValueError as exc:
        raise ValueError(f"equity.csv: cell {'/'.join(key)}: {exc}") from None


# ---------------------------------------------------------------------------
# Suite execution
# ---------------------------------------------------------------------------

def load_panel(cfg: RunConfig) -> PriceMatrix:
    if cfg.prices_csv is not None:
        return load_prices_csv(cfg.prices_csv, cfg.sectors_csv)
    return generate_synthetic(cfg.synth)


def _run_grid_task(args) -> tuple[str, str, float | None, list[CellResult]]:
    """Run every engine for one (benchmark, bucket); picklable for pools."""
    bm_id, bucket_id, bucket_pm, eval_start, rate, roster, capital = args
    out: list[CellResult] = []
    try:
        schedule = BENCHMARKS[bm_id].build(bucket_pm, eval_start)
        first_w = schedule.first_entry_weight_sum(bucket_pm)
    except Exception as exc:
        msg = f"schedule: {type(exc).__name__}: {exc}"
        return bm_id, bucket_id, None, [
            CellResult(bm_id, bucket_id, eid, error=msg) for eid, _ in roster
        ]
    for engine_id, conv in roster:
        try:
            series = run_variant(
                schedule, bucket_pm, capital, CostSpec(rate), conv, eval_start
            )
            out.append(
                CellResult(
                    bm_id,
                    bucket_id,
                    engine_id,
                    stats=performance_metrics(series),
                    turnover=annual_turnover(series),
                    n_days=len(series.equity),
                    equity=series.equity,
                )
            )
        except Exception as exc:
            out.append(
                CellResult(bm_id, bucket_id, engine_id, error=f"{type(exc).__name__}: {exc}")
            )
    return bm_id, bucket_id, first_w, out


def run_suite(cfg: RunConfig, jobs: int = 1) -> ResultStore:
    """Execute the full benchmark x bucket x engine grid.

    Per-cell failures are recorded in the store and never abort the run.
    """
    pm = load_panel(cfg)
    if cfg.buckets.sector_constraint and pm.sectors is None:
        raise ValueError(
            "sector constraint requires sector labels; provide a sectors_csv "
            "or set buckets.sector_constraint to false"
        )
    cov = bucketmod.compute_covariates(pm)
    bucket_seed = cfg.buckets.seed if cfg.buckets.seed is not None else cfg.seed
    partition = bucketmod.rerandomize(
        cov,
        pm.sectors or {},
        cfg.buckets.bucket_size,
        cfg.buckets.n_buckets,
        cfg.buckets.n_candidates,
        bucket_seed,
        sector_constraint=cfg.buckets.sector_constraint,
    )
    balance = bucketmod.sector_balance(partition, pm.sectors) if pm.sectors else None
    universe = descriptive_stats(pm).to_dict()

    warmup = cfg.warmup
    if warmup is None:
        warmup = max(BENCHMARKS[b].warmup for b in cfg.benchmarks)
    if warmup >= pm.n_days - 1:
        raise ValueError(f"warm-up {warmup} leaves under 2 evaluation days of {pm.n_days}")

    roster = cfg.roster()
    tasks = []
    for bm_id in cfg.benchmarks:
        rate = cfg.benchmark_cost_bps(bm_id) / 1e4
        for bucket_id, members in zip(partition.bucket_ids, partition.buckets):
            bucket_pm = pm.subset(members)
            tasks.append((bm_id, bucket_id, bucket_pm, warmup, rate, roster, cfg.initial_capital))

    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            raw = list(pool.map(_run_grid_task, tasks))
    else:
        raw = [_run_grid_task(t) for t in tasks]

    cells: dict[tuple[str, str, str], CellResult] = {}
    first_weight_sums: dict[tuple[str, str], float | None] = {}
    for bm_id, bucket_id, first_w, results in sorted(raw, key=lambda r: (r[0], r[1])):
        first_weight_sums[(bm_id, bucket_id)] = first_w
        for cell in results:
            cells[(cell.benchmark, cell.bucket, cell.engine)] = cell

    return ResultStore(
        config=cfg,
        run_id=cfg.run_id(),
        eval_dates=pm.dates[warmup:],
        partition=partition,
        balance=balance,
        universe=universe,
        first_weight_sums=first_weight_sums,
        cells=cells,
    )


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Finding:
    kind: str
    benchmark: str
    bucket: str
    engine: str
    expected: int | None = None
    got: int | None = None
    detail: str = ""


def validate_results(store: ResultStore) -> list[Finding]:
    """Flag missing cells, cell errors, truncated series, and bad equity."""
    findings: list[Finding] = []
    expected = store.n_eval_days
    for bm in store.config.benchmarks:
        for bucket in store.bucket_ids:
            for engine in store.engine_ids:
                cell = store.cell(bm, bucket, engine)
                if cell is None:
                    findings.append(Finding("MissingCell", bm, bucket, engine))
                    continue
                if not cell.ok:
                    findings.append(Finding("CellError", bm, bucket, engine, detail=cell.error or ""))
                    continue
                if cell.n_days != expected:
                    findings.append(
                        Finding("LengthMismatch", bm, bucket, engine, expected=expected, got=cell.n_days)
                    )
                if cell.equity is not None and np.any(cell.equity <= 0):
                    findings.append(Finding("NonPositiveEquity", bm, bucket, engine))
    return findings


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------

@dataclass
class ReportBundle:
    """All analysis tables plus the metadata they cross-reference."""

    run_id: str
    metadata: dict
    tables: dict[str, list[dict]]
    bucket_qc: dict
    conjecture: dict

    def to_json(self) -> str:
        return json.dumps(
            {
                "run_id": self.run_id,
                "metadata": self.metadata,
                "tables": self.tables,
                "bucket_qc": self.bucket_qc,
                "conjecture": self.conjecture,
            },
            sort_keys=True,
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "ReportBundle":
        obj = json.loads(text)
        return cls(obj["run_id"], obj["metadata"], obj["tables"], obj["bucket_qc"], obj["conjecture"])


def _metric_values(store: ResultStore, bm: str, bucket: str, metric: str) -> dict[str, float]:
    values = {}
    for engine in store.engine_ids:
        cell = store.cell(bm, bucket, engine)
        if cell is not None and cell.ok:
            values[engine] = cell.stats.metric(metric)
    return values


def _resampled_means(
    table: dict[tuple[str, str], float], bm: str, buckets: Sequence[str], index: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Mean of ``table[(bm, bucket)]`` over each row of resampled bucket
    positions, skipping buckets absent from the table.

    Row i equals ``np.mean`` over the list of present values in draw order,
    bit for bit: rows with the same count of present values are packed to
    the front and reduced together. Returns the means and a mask of the rows
    with at least one present value (the others read NaN).
    """
    present = np.array([(bm, b) in table for b in buckets], dtype=bool)
    picked = np.array([table.get((bm, b), np.nan) for b in buckets], dtype=float)[index]
    if present.all():
        return picked.mean(axis=-1), np.ones(len(index), dtype=bool)
    keep = present[index]
    counts = keep.sum(axis=-1)
    packed = np.take_along_axis(picked, np.argsort(~keep, axis=-1, kind="stable"), axis=-1)
    means = np.full(len(index), np.nan)
    for c in np.unique(counts[counts > 0]):
        rows = counts == c
        means[rows] = np.ascontiguousarray(packed[rows, :c]).mean(axis=-1)
    return means, counts > 0


def _resampled_rho(
    index: np.ndarray,
    buckets: Sequence[str],
    bms: Sequence[str],
    rates: dict[str, float],
    turnover_by_bucket: dict[tuple[str, str], float],
    es_by_bucket: dict[tuple[str, str], float],
) -> np.ndarray:
    """Spearman rho of cost intensity against engine spread for each row of
    resampled bucket positions; 0.0 where a benchmark has no turnover or no
    spread among the row's buckets, or where rho is undefined."""
    if len(bms) < 3:
        return np.zeros(len(index))
    xs, ys = [], []
    defined = np.ones(len(index), dtype=bool)
    for bm in bms:
        turnover, has_turnover = _resampled_means(turnover_by_bucket, bm, buckets, index)
        spread, has_spread = _resampled_means(es_by_bucket, bm, buckets, index)
        xs.append(rates[bm] * turnover)
        ys.append(spread)
        defined &= has_turnover & has_spread
    rho = spearman_rows(np.stack(xs, axis=-1), np.stack(ys, axis=-1))
    rho[~defined] = 0.0
    return rho


def analyze(store: ResultStore) -> ReportBundle:
    """Divergences, spread metrics, the statistics battery, floor
    decomposition, the cost-intensity scaling check, and dollar translation,
    all from a frozen store. Degenerate cells propagate as flags."""
    cfg = store.config
    engines = store.engine_ids
    conventions = store.conventions()
    buckets_sorted = list(store.bucket_ids)
    pairs = [
        (engines[i], engines[j])
        for i in range(len(engines))
        for j in range(i + 1, len(engines))
    ]
    pairs = sorted(pairs)

    findings = validate_results(store)

    records_rows: list[dict] = []
    # (bm, pair) -> ordered per-bucket total-return divergences
    pair_series: dict[tuple[str, tuple[str, str]], list[float]] = {}
    # (bm, metric, engine) -> per-bucket values for concordance
    metric_by_engine: dict[tuple[str, str, str], dict[str, float]] = {}
    # per-benchmark per-bucket spread inputs
    es_by_bucket: dict[tuple[str, str], float] = {}
    escv_by_bucket: dict[tuple[str, str], float | None] = {}
    iui_by_bucket: dict[tuple[str, str], tuple[float, float]] = {}
    csi_by_bucket: dict[tuple[str, str], int] = {}
    turnover_by_bucket: dict[tuple[str, str], float] = {}

    reference_id = REFERENCE.id

    for bm in cfg.benchmarks:
        for bucket in buckets_sorted:
            for metric in DIVERGENCE_METRICS:
                values = _metric_values(store, bm, bucket, metric)
                for engine, value in values.items():
                    metric_by_engine.setdefault((bm, metric, engine), {})[bucket] = value
                if len(values) < 2:
                    continue
                for rec in pairwise_divergence(values, bm, bucket, metric):
                    records_rows.append(
                        {
                            "benchmark": rec.benchmark,
                            "bucket": rec.bucket,
                            "metric": rec.metric,
                            "engine_a": rec.engine_a,
                            "engine_b": rec.engine_b,
                            "rel_diff_pct": rec.rel_diff_pct,
                            "absolute_fallback": rec.absolute_fallback,
                        }
                    )
                    if rec.metric == "total_return":
                        pair_series.setdefault((bm, (rec.engine_a, rec.engine_b)), []).append(
                            rec.rel_diff_pct
                        )
            tr_values = _metric_values(store, bm, bucket, "total_return")
            tr_pct = {
                e: store.cell(bm, bucket, e).stats.total_return_pct for e in tr_values
            }
            if len(tr_pct) >= 2:
                sample = np.array([tr_pct[e] for e in sorted(tr_pct)])
                es_by_bucket[(bm, bucket)] = es_range(sample)
                escv_by_bucket[(bm, bucket)] = es_cv(sample)
                iui_by_bucket[(bm, bucket)] = iui(sample)
            sharpes = _metric_values(store, bm, bucket, "sharpe")
            if len(sharpes) >= 2:
                csi_by_bucket[(bm, bucket)] = csi(np.array([sharpes[e] for e in sorted(sharpes)]))
            ref_cell = store.cell(bm, bucket, reference_id)
            if ref_cell is not None and ref_cell.ok:
                turnover_by_bucket[(bm, bucket)] = ref_cell.turnover
            else:
                ok_cells = [store.cell(bm, bucket, e) for e in engines]
                ok_cells = [c for c in ok_cells if c is not None and c.ok]
                if ok_cells:
                    turnover_by_bucket[(bm, bucket)] = ok_cells[0].turnover

    # -- benchmark summary ---------------------------------------------------
    summary_rows: list[dict] = []
    es_mean: dict[str, float] = {}
    for bm in cfg.benchmarks:
        pair_means = {}
        for pair in pairs:
            series = pair_series.get((bm, pair))
            if series:
                pair_means[pair] = float(np.mean(series))
        es_vals = [es_by_bucket[k] for k in es_by_bucket if k[0] == bm]
        escv_vals = [v for k, v in escv_by_bucket.items() if k[0] == bm and v is not None]
        iui_vals = [iui_by_bucket[k] for k in iui_by_bucket if k[0] == bm]
        csi_vals = [csi_by_bucket[k] for k in csi_by_bucket if k[0] == bm]
        if es_vals:
            es_mean[bm] = float(np.mean(es_vals))
        row = {
            "benchmark": bm,
            "category": BENCHMARKS[bm].category,
            "cost_bps": cfg.benchmark_cost_bps(bm),
            "mean_pct": float(np.mean(list(pair_means.values()))) if pair_means else None,
            "max_pct": float(np.max(list(pair_means.values()))) if pair_means else None,
            "n_pairs": len(pair_means),
            "n_buckets": len(es_vals),
            "es_range_pp": es_mean.get(bm),
            "es_cv_pct": float(np.mean(escv_vals)) if escv_vals else None,
            "iui_lo": float(np.mean([v[0] for v in iui_vals])) if iui_vals else None,
            "iui_hi": float(np.mean([v[1] for v in iui_vals])) if iui_vals else None,
            "iui_width_pp": float(np.mean([v[1] - v[0] for v in iui_vals])) if iui_vals else None,
            "csi": int(max(csi_vals)) if csi_vals else None,
        }
        summary_rows.append(row)
    ref_bm = cfg.daf_reference
    for row in summary_rows:
        bm = row["benchmark"]
        if ref_bm in es_mean and es_mean[ref_bm] > 0 and bm in es_mean:
            row["daf"] = es_mean[bm] / es_mean[ref_bm]
        else:
            row["daf"] = None

    # -- statistics battery ---------------------------------------------------
    stats_rows: list[dict] = []
    t_index: list[int] = []
    t_ps: list[float] = []
    for bm in cfg.benchmarks:
        for pair in pairs:
            series = pair_series.get((bm, pair))
            if not series or len(series) < 2:
                continue
            pair_label = f"{pair[0]} vs {pair[1]}"
            base = {"benchmark": bm, "pair": pair_label, "n": len(series)}
            t_res = one_sample_t(series)
            stats_rows.append(
                base | {
                    "test": "t",
                    "statistic": None if t_res.degenerate else t_res.statistic,
                    "p_value": t_res.p_value,
                    "degenerate": t_res.degenerate,
                    "reject_fdr": None,
                    "equivalent": None,
                    "margin_pp": None,
                }
            )
            if not t_res.degenerate and t_res.p_value is not None:
                t_index.append(len(stats_rows) - 1)
                t_ps.append(t_res.p_value)
            w_res = wilcoxon_signed_rank(series)
            stats_rows.append(
                base | {
                    "test": w_res.method,
                    "statistic": None if w_res.degenerate else w_res.statistic,
                    "p_value": w_res.p_value,
                    "degenerate": w_res.degenerate,
                    "reject_fdr": None,
                    "equivalent": None,
                    "margin_pp": None,
                }
            )
            perm_seed = derived_seed(cfg.seed, "perm", bm, pair_label)
            p_res = sign_flip_permutation(series, draws=cfg.permutation_draws, seed=perm_seed)
            stats_rows.append(
                base | {
                    "test": "permutation",
                    "statistic": p_res.statistic,
                    "p_value": p_res.p_value,
                    "degenerate": p_res.degenerate,
                    "reject_fdr": None,
                    "equivalent": None,
                    "margin_pp": None,
                }
            )
            for margin in cfg.tost_margins_pp:
                t_eq = tost(series, margin)
                stats_rows.append(
                    base | {
                        "test": "tost",
                        "statistic": None,
                        "p_value": t_eq.p_value,
                        "degenerate": t_eq.degenerate,
                        "reject_fdr": None,
                        "equivalent": t_eq.equivalent,
                        "margin_pp": margin,
                    }
                )
            if len(series) >= 3:
                l_res = lag1_autocorr(series)
                stats_rows.append(
                    base | {
                        "test": "lag1_autocorr",
                        "statistic": None if l_res.degenerate else l_res.statistic,
                        "p_value": None,
                        "degenerate": l_res.degenerate,
                        "reject_fdr": None,
                        "equivalent": None,
                        "margin_pp": None,
                    }
                )
    if t_ps:
        rejected = bh_fdr(t_ps, cfg.fdr_q)
        for pos, rej in zip(t_index, rejected):
            stats_rows[pos]["reject_fdr"] = bool(rej)

    # -- concordance -----------------------------------------------------------
    ccc_rows: list[dict] = []
    ccc_min_rows: list[dict] = []
    for bm in cfg.benchmarks:
        for metric in DIVERGENCE_METRICS:
            per_metric = []
            for pair in pairs:
                va = metric_by_engine.get((bm, metric, pair[0]), {})
                vb = metric_by_engine.get((bm, metric, pair[1]), {})
                common = sorted(set(va) & set(vb))
                if len(common) < 2:
                    continue
                value = lin_ccc([va[b] for b in common], [vb[b] for b in common])
                per_metric.append(value)
                ccc_rows.append(
                    {
                        "benchmark": bm,
                        "metric": metric,
                        "engine_a": pair[0],
                        "engine_b": pair[1],
                        "ccc": value,
                        "n_buckets": len(common),
                    }
                )
            if per_metric:
                ccc_min_rows.append(
                    {"benchmark": bm, "metric": metric, "ccc_min": float(np.min(per_metric))}
                )

    # -- floor decomposition ----------------------------------------------------
    floor_rows: list[dict] = []
    for bm in cfg.benchmarks:
        rate = cfg.benchmark_cost_bps(bm) / 1e4
        sums = [store.first_weight_sums.get((bm, b)) for b in buckets_sorted]
        fully = all(s is not None and s >= 1.0 - FULLY_INVESTED_TOL for s in sums)
        for pair in pairs:
            series = pair_series.get((bm, pair))
            if not series:
                continue
            mean_div = float(np.mean(series))
            rec = DivergenceRecord(bm, "*", "total_return", pair[0], pair[1], mean_div)
            split = floor_decomposition(rec, conventions, CostSpec(rate), fully)
            floor_rows.append(
                {
                    "benchmark": bm,
                    "engine_a": pair[0],
                    "engine_b": pair[1],
                    "mean_divergence_pct": mean_div,
                    "floor_pct": split.floor_pct,
                    "residual_pct": split.residual_pct,
                    "mixed_reporting": split.mixed_reporting,
                    "fully_invested": fully,
                }
            )

    # -- cost-intensity scaling check ---------------------------------------------
    cost_rows: list[dict] = []
    score_by_bm: dict[str, float] = {}
    for bm in cfg.benchmarks:
        rate = cfg.benchmark_cost_bps(bm) / 1e4
        t_vals = [turnover_by_bucket[k] for k in turnover_by_bucket if k[0] == bm]
        if not t_vals or bm not in es_mean:
            continue
        turnover = float(np.mean(t_vals))
        score = rate * turnover
        score_by_bm[bm] = score
        cost_rows.append(
            {
                "benchmark": bm,
                "cost_bps": cfg.benchmark_cost_bps(bm),
                "turnover_per_yr": turnover,
                "cost_intensity": score,
                "es_range_pp": es_mean[bm],
            }
        )
    conjecture: dict = {"n_benchmarks": len(cost_rows)}
    if len(cost_rows) >= 3:
        scores = [r["cost_intensity"] for r in cost_rows]
        spreads = [r["es_range_pp"] for r in cost_rows]
        sp = spearman(scores, spreads)
        pe = pearson(scores, spreads)
        conjecture |= {
            "spearman_rho": None if sp.degenerate else sp.statistic,
            "spearman_p": sp.p_value,
            "pearson_r": None if pe.degenerate else pe.statistic,
            "pearson_p": pe.p_value,
        }
        bms = [r["benchmark"] for r in cost_rows]
        rates = {r["benchmark"]: r["cost_bps"] / 1e4 for r in cost_rows}

        def _statistic(index: np.ndarray) -> np.ndarray:
            return _resampled_rho(index, buckets_sorted, bms, rates, turnover_by_bucket, es_by_bucket)

        try:
            boot = cluster_bootstrap(
                buckets_sorted,
                _statistic,
                draws=cfg.bootstrap_draws,
                seed=derived_seed(cfg.seed, "boot", "conjecture"),
            )
            conjecture |= {
                "bootstrap_point": boot.point,
                "bootstrap_ci95": list(boot.ci95),
                "bootstrap_draws": boot.draws,
                "n_clusters": boot.n_clusters,
            }
        except NotEnoughClusters:
            conjecture |= {"bootstrap_point": None, "bootstrap_ci95": None}

    # -- dollar translation ----------------------------------------------------
    dollar_rows: list[dict] = []
    for pct in AMBIGUITY_RULER_PCTS:
        dollar_rows.append(
            {
                "benchmark": f"ruler_{pct:.2f}pct",
                "max_divergence_pct": pct,
                "aum_usd": cfg.aum,
                "annual_ambiguity_usd": dollar_ambiguity(pct, cfg.aum),
            }
        )
    for row in summary_rows:
        if row["max_pct"] is None:
            continue
        dollar_rows.append(
            {
                "benchmark": row["benchmark"],
                "max_divergence_pct": row["max_pct"],
                "aum_usd": cfg.aum,
                "annual_ambiguity_usd": dollar_ambiguity(row["max_pct"], cfg.aum),
            }
        )

    # -- pair heatmap (plot-ready long format) -----------------------------------
    heatmap_rows = []
    for bm in cfg.benchmarks:
        for pair in pairs:
            series = pair_series.get((bm, pair))
            if series:
                heatmap_rows.append(
                    {
                        "benchmark": bm,
                        "engine_a": pair[0],
                        "engine_b": pair[1],
                        "mean_divergence_pct": float(np.mean(series)),
                        "n_buckets": len(series),
                    }
                )

    validation_rows = [
        {
            "kind": f.kind,
            "benchmark": f.benchmark,
            "bucket": f.bucket,
            "engine": f.engine,
            "expected": f.expected,
            "got": f.got,
            "detail": f.detail,
        }
        for f in findings
    ]

    bucket_qc = {
        "partition": json.loads(store.partition.to_json()),
        "balance": asdict(store.balance) if store.balance else None,
        "mahalanobis_score": store.partition.score,
        "universe": store.universe,
    }
    metadata = {
        "run_id": store.run_id,
        "package_version": __version__,
        "config": cfg.canonical_dict(),
        "engine_conventions": {eid: eid for eid in engines},
        "constants": {
            "annualisation_days": 252,
            "sharpe_risk_free_rate": 0.0,
            "spread_stdev_ddof": 1,
            "divergence_base": "lexicographically-first engine id in the pair",
            "total_return_divergence_basis": "growth factor (final over first reported equity)",
            "csi_sign_of_zero": "positive",
            "ccc_moments": "population (divisor n)",
            "turnover_definition": "one-sided notional / pre-cost value, annualised 252/(T-1)",
            "wilcoxon_zero_handling": "dropped",
            "permutation_estimator": "add-one",
        },
    }
    tables = {
        "divergence_records": records_rows,
        "divergence_summary": summary_rows,
        "stats_tests": stats_rows,
        "concordance": ccc_rows,
        "concordance_min": ccc_min_rows,
        "floor_decomposition": floor_rows,
        "cost_intensity": cost_rows,
        "dollar_ambiguity": dollar_rows,
        "pair_divergence": heatmap_rows,
        "validation": validation_rows,
    }
    return ReportBundle(store.run_id, metadata, tables, bucket_qc, conjecture)


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

TABLE_COLUMNS: dict[str, list[str]] = {
    "divergence_records": [
        "benchmark", "bucket", "metric", "engine_a", "engine_b",
        "rel_diff_pct", "absolute_fallback",
    ],
    "divergence_summary": [
        "benchmark", "category", "cost_bps", "mean_pct", "max_pct", "n_pairs",
        "n_buckets", "es_range_pp", "es_cv_pct", "iui_lo", "iui_hi",
        "iui_width_pp", "daf", "csi",
    ],
    "stats_tests": [
        "benchmark", "pair", "test", "n", "statistic", "p_value",
        "degenerate", "reject_fdr", "equivalent", "margin_pp",
    ],
    "concordance": ["benchmark", "metric", "engine_a", "engine_b", "ccc", "n_buckets"],
    "concordance_min": ["benchmark", "metric", "ccc_min"],
    "floor_decomposition": [
        "benchmark", "engine_a", "engine_b", "mean_divergence_pct",
        "floor_pct", "residual_pct", "mixed_reporting", "fully_invested",
    ],
    "cost_intensity": [
        "benchmark", "cost_bps", "turnover_per_yr", "cost_intensity", "es_range_pp",
    ],
    "dollar_ambiguity": [
        "benchmark", "max_divergence_pct", "aum_usd", "annual_ambiguity_usd",
    ],
    "pair_divergence": [
        "benchmark", "engine_a", "engine_b", "mean_divergence_pct", "n_buckets",
    ],
    "validation": ["kind", "benchmark", "bucket", "engine", "expected", "got", "detail"],
}


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def write_table_csv(rows: list[dict], columns: list[str], path: str, run_id: str) -> None:
    """Stable-column CSV with the run id stamped on every row."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(columns + ["run_id"])
        for row in rows:
            writer.writerow([_format_cell(row.get(c)) for c in columns] + [run_id])


def emit_reports(bundle: ReportBundle, directory: str) -> list[str]:
    """Write every table as CSV plus the JSON sidecars; returns paths."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for name, columns in TABLE_COLUMNS.items():
        path = os.path.join(directory, f"{name}.csv")
        write_table_csv(bundle.tables.get(name, []), columns, path, bundle.run_id)
        paths.append(path)
    for name, payload in [
        ("run_metadata", bundle.metadata),
        ("bucket_qc", bundle.bucket_qc),
        ("conjecture_check", bundle.conjecture | {"run_id": bundle.run_id}),
        ("partition", bundle.bucket_qc["partition"]),
    ]:
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w") as f:
            json.dump(payload, f, sort_keys=True, indent=2)
        paths.append(path)
    return paths


def read_table_csv(path: str) -> list[dict]:
    """Inverse of write_table_csv with numeric fields left as strings."""
    with open(path, newline="") as f:
        return list(csv.DictReader(f))
