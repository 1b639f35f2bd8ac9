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
import io
import json
import math
import os
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from functools import cached_property
from itertools import combinations, islice
from typing import get_type_hints

import numpy as np

from . import __version__
from . import buckets as bucketmod
from .engine import (
    CostSpec,
    EngineConvention,
    PerfStats,
    annual_turnover,
    cost_intensity,
    performance_metrics,
    resolve_convention,
    run_buckets,
    run_variant,
    REFERENCE,
    DEFAULT_ROSTER,
)
from .marketdata import (
    TRADING_DAYS_PER_YEAR,
    PriceMatrix,
    SynthSpec,
    descriptive_stats,
    generate_synthetic,
    load_prices_csv,
    read_fields,
    refuse_unless,
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

DIVERGENCE_METRICS = PerfStats.METRICS

FULLY_INVESTED_TOL = 1e-9

#: Each ``PerfStats`` field, in order, with the type ``load`` parses it as.
_PERF_TYPES = get_type_hints(PerfStats)

#: Columns of ``cells.csv`` in a saved store: the cell key, the error and
#: length, every ``PerfStats`` field, then turnover and the smallest equity.
CELL_COLUMNS = ["benchmark", "bucket", "engine", "error", "n_days", *_PERF_TYPES, "turnover", "min_equity"]

#: Columns of the long ``equity.csv`` in a saved store.
EQUITY_COLUMNS = ["benchmark", "bucket", "engine", "date", "equity"]

#: Dollar-translation ruler rows included in every ambiguity table.
AMBIGUITY_RULER_PCTS = (0.10, 3.71)


def dumps_json(obj, **kwargs) -> str:
    """``json.dumps`` that writes a NaN or infinite float as ``null``: JSON
    (RFC 8259) has no token for them. An object without one is encoded in
    one pass; only one with one is copied, its non-finite floats replaced."""
    try:
        return json.dumps(obj, allow_nan=False, **kwargs)
    except ValueError:
        return json.dumps(_finite_or_null(obj), allow_nan=False, **kwargs)


def _finite_or_null(obj):
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return obj


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

    def __post_init__(self) -> None:
        read_fields(self, prefix="buckets.")
        refuse_unless(self, (
            ("n_buckets", self.n_buckets >= 1, ">= 1"),
            ("bucket_size", self.bucket_size >= 1, ">= 1"),
            ("n_candidates", self.n_candidates >= 1, ">= 1"),
            ("seed", self.seed is None or self.seed >= 0, ">= 0"),
        ), prefix="buckets.")


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

    #: The config-file key of each field not stored under its own name.
    _KEYS = {"synth": "synthetic"}

    def __post_init__(self) -> None:
        read_fields(self)
        # Resolved once: every engine id the store and the analysis read comes
        # from here, not from parsing the convention strings again.
        resolved = {conv.id: conv for conv in map(resolve_convention, self.engines)}
        object.__setattr__(self, "_roster", tuple(sorted(resolved.items())))
        object.__setattr__(self, "engines", tuple(eid for eid, _ in self._roster))
        # An override for an unregistered id would never apply, yet enter the run id.
        unknown = [b for b in (*self.benchmarks, *self.cost_overrides_bps) if b not in BENCHMARKS]
        if unknown:
            raise ValueError(f"unknown benchmarks: {unknown}")
        if len(set(self.benchmarks)) < len(self.benchmarks):
            raise ValueError(f"benchmarks listed twice: {self.benchmarks}")
        for b in self.benchmarks:
            bps = self.benchmark_cost_bps(b)
            try:
                CostSpec.from_bps(bps)
            except ValueError as exc:
                raise ValueError(f"benchmark {b} cost {bps} bps: {exc}") from None
            if bps not in self.cost_regimes_bps:
                raise ValueError(f"benchmark {b} cost {bps} bps not in configured regimes {self.cost_regimes_bps}")
        # Checked here, not where each is read: most are read only after the grid has run.
        b, panel = self.buckets, self.synth if self.prices_csv is None else None
        refuse_unless(self, (
            ("seed", self.seed >= 0, ">= 0"),
            ("engines", len(self._roster) >= 2, "at least 2 distinct conventions"),
            ("benchmarks", len(self.benchmarks) >= 1, "non-empty"),
            ("permutation_draws", self.permutation_draws >= 0, ">= 0"),
            ("bootstrap_draws", self.bootstrap_draws >= 1, ">= 1"),
            ("aum", self.aum >= 0, ">= 0"),
            ("warmup", self.warmup is None or self.warmup >= 0, ">= 0"),
            ("initial_capital", self.initial_capital > 0, "> 0"),
            ("fdr_q", 0 < self.fdr_q <= 1, "in (0, 1]"),
            ("tost_margins_pp", all(m > 0 for m in self.tost_margins_pp), "each > 0"),
            ("daf_reference", self.daf_reference in BENCHMARKS, "a registered benchmark"),
            ("prices_csv", self.prices_csv is not None or self.synth is not None, "set when synthetic is not"),
            ("buckets.bucket_size", panel is None or b.bucket_size * b.n_buckets <= panel.n_assets,
             "<= synthetic.n_assets // buckets.n_buckets"),
            ("buckets.bucket_size",
             panel is None or not b.sector_constraint or b.bucket_size <= len(set(panel.sector_labels())),
             "<= the synthetic panel's sector count while buckets.sector_constraint is on"),
            ("sectors_csv", self.prices_csv is None or self.sectors_csv is not None or not b.sector_constraint,
             "set for a prices_csv while buckets.sector_constraint is on"),
        ))
        if panel is not None:
            self.warmup_days(panel.n_days)

    def benchmark_cost_bps(self, benchmark: str) -> float:
        return self.cost_overrides_bps.get(benchmark, BENCHMARKS[benchmark].cost_bps)

    def warmup_days(self, n_days: int) -> int:
        """The warm-up of a run over ``n_days``: ``warmup``, or the benchmarks'
        largest when unset. ValueError when it leaves under 2 evaluation days."""
        warmup = self.warmup if self.warmup is not None else max(BENCHMARKS[b].warmup for b in self.benchmarks)
        if warmup >= n_days - 1:
            raise ValueError(f"warm-up {warmup} leaves under 2 evaluation days of {n_days}")
        return warmup

    def roster(self) -> list[tuple[str, EngineConvention]]:
        """(engine id, convention) pairs, deduplicated and sorted by id."""
        return list(self._roster)

    def canonical_dict(self) -> dict:
        return {self._KEYS.get(key, key): value for key, value in asdict(self).items()}

    def run_id(self) -> str:
        payload = json.dumps(self.canonical_dict(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:12]

    def to_json(self) -> str:
        return json.dumps(self.canonical_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_dict(cls, obj: Mapping) -> "RunConfig":
        kwargs = _record_args(cls, obj)
        kwargs["buckets"] = BucketConfig(**_record_args(BucketConfig, kwargs.get("buckets", {}), "buckets"))
        if kwargs.get("synth") is None:
            return cls(**kwargs)
        synth = _record_args(SynthSpec, kwargs["synth"], "synthetic", seed=None)
        lent = synth["seed"] is None  # an absent or null synthetic seed takes the run's seed
        cfg = cls(**{**kwargs, "synth": SynthSpec(**{**synth, "seed": 0} if lent else synth)})
        if lent:  # after the run has read its seed; no rule of the run reads the synthetic one
            object.__setattr__(cfg, "synth", replace(cfg.synth, seed=cfg.seed))
        return cfg

    @classmethod
    def from_json_file(cls, path: str) -> "RunConfig":
        with open(path) as f:
            return cls.from_dict(json.load(f))


def _record_args(cls, obj, key: str | None = None, **defaults) -> dict:
    """The arguments of record ``cls`` in config map ``obj``, found at ``key``
    (None at the top level), each under its field name, over ``defaults``.
    ValueError for a value that is not a map, a key that names no field, or
    a field with no default that neither gives."""
    if not isinstance(obj, Mapping):
        raise ValueError(f"{key or 'config'} must be a map, got {obj!r}")
    names = {getattr(cls, "_KEYS", {}).get(f.name, f.name): f for f in fields(cls)}
    unknown = sorted(set(obj) - set(names))
    if unknown:
        raise ValueError(f"unknown config keys: {[f'{key}.{k}' if key else k for k in unknown]}")
    args = {**defaults, **{names[k].name: value for k, value in obj.items()}}
    missing = [k for k, f in names.items() if f.name not in args and f.default is f.default_factory is MISSING]
    if missing:
        raise ValueError(f"missing config keys: {[f'{key}.{k}' if key else k for k in missing]}")
    return args


# ---------------------------------------------------------------------------
# Result store
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CellResult:
    """One (benchmark, bucket, engine) cell: either stats or an error.

    ``min_equity`` is the smallest non-NaN equity value (NaN when every
    value is NaN), derived from a non-empty ``equity`` when the cell is
    made, so ``min_equity <= 0`` holds exactly when some value is <= 0. A
    cell read without its series carries the value the store wrote.
    """

    benchmark: str
    bucket: str
    engine: str
    error: str | None = None
    stats: PerfStats | None = None
    turnover: float | None = None
    n_days: int = 0
    equity: np.ndarray | None = None
    min_equity: float | None = None

    def __post_init__(self) -> None:
        if self.equity is not None and len(self.equity):
            object.__setattr__(self, "min_equity", float(np.fmin.reduce(self.equity)))

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

    def cell(self, benchmark: str, bucket: str, engine: str) -> CellResult | None:
        return self.cells.get((benchmark, bucket, engine))

    # -- persistence (flat files) -------------------------------------------

    def save(self, directory: str) -> None:
        """Write ``store.json``, ``cells.csv`` and ``equity.csv`` under ``directory``.

        ``equity.csv`` holds the rows ``csv.writer`` would write, one per
        evaluation day of each cell with equity, cells in sorted key order,
        values as ``repr`` writes them. Each cell's rows are one %-format
        template (the cell's key fields, quoted once, before each date's
        field and a ``%r``) filled from its equity in one call and written
        at once, so one cell's text is held at a time. ValueError for a
        field that holds a line break.
        """
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
            f.write(dumps_json(meta, sort_keys=True, indent=2))
        with open(os.path.join(directory, "cells.csv"), "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(CELL_COLUMNS)
            for key in sorted(self.cells):
                c = self.cells[key]
                stats = [getattr(c.stats, name) if c.ok else None for name in _PERF_TYPES]
                row = [c.benchmark, c.bucket, c.engine, c.error, c.n_days, *stats, c.turnover, c.min_equity]
                writer.writerow(map(_format_cell, row))
        # A field's own % signs are escaped, so they are written as text.
        dates = [_csv_prefix(date).replace("%", "%%") + "%r" for date in self.eval_dates]
        with open(os.path.join(directory, "equity.csv"), "w", newline="") as f:
            f.write(",".join(EQUITY_COLUMNS) + "\r\n")
            for key in sorted(self.cells):
                c = self.cells[key]
                if c.equity is None or not len(c.equity):
                    continue
                prefix = _csv_prefix(c.benchmark, c.bucket, c.engine).replace("%", "%%")
                rows = prefix + ("\r\n" + prefix).join(dates[: len(c.equity)]) + "\r\n"
                f.write(rows % tuple(c.equity.tolist()))

    @classmethod
    def load_cells(cls, directory: str) -> "ResultStore":
        """``store.json`` and ``cells.csv`` under ``directory`` as a store
        whose cells hold no equity series; each keeps the ``min_equity`` the
        store wrote. ValueError for a ``cells.csv`` with no such column."""
        with open(os.path.join(directory, "store.json")) as f:
            meta = json.load(f)
        config = RunConfig.from_dict(meta["config"])
        partition = bucketmod.Partition.from_json(json.dumps(meta["partition"]))
        balance = bucketmod.SectorBalance(**meta["balance"]) if meta["balance"] else None
        fw = {}
        for key, value in meta["first_weight_sums"].items():
            bm, bucket = key.split("/", 1)
            fw[(bm, bucket)] = value
        path = os.path.join(directory, "cells.csv")
        with open(path, newline="") as f:
            reader = csv.DictReader(f)
            if "min_equity" not in (reader.fieldnames or ()):
                raise ValueError(f"{path}: no min_equity column; rerun `crossbt run` to write the store again")
            rows = list(reader)
        cells: dict[tuple[str, str, str], CellResult] = {}
        for row in rows:
            key = (row["benchmark"], row["bucket"], row["engine"])
            if row["error"]:
                cells[key] = CellResult(*key, error=row["error"], n_days=int(row["n_days"]))
                continue
            stats = PerfStats(**{
                name: row[name] == "true" if kind is bool else kind(row[name])
                for name, kind in _PERF_TYPES.items()
            })
            cells[key] = CellResult(
                *key,
                stats=stats,
                turnover=float(row["turnover"]),
                n_days=int(row["n_days"]),
                min_equity=float(row["min_equity"]) if row["min_equity"] else None,
            )
        return cls(
            config=config,
            run_id=meta["run_id"],
            eval_dates=tuple(meta["eval_dates"]),
            partition=partition,
            balance=balance,
            universe=meta["universe"],
            first_weight_sums=fw,
            cells=cells,
        )

    @classmethod
    def load(cls, directory: str) -> "ResultStore":
        """``load_cells`` with each ok cell's series read from ``equity.csv``.

        ValueError, naming the cell where there is one, for an
        ``equity.csv`` row out of place, or for a cell whose stored
        ``min_equity`` differs in any bit from the one its series gives.
        """
        store = cls.load_cells(directory)
        lengths = {key: c.n_days for key, c in store.cells.items() if c.ok}
        dates = [_csv_prefix(date)[:-1] for date in store.eval_dates]
        with open(os.path.join(directory, "equity.csv"), newline="") as f:
            if next(f, "").rstrip("\r\n") != ",".join(EQUITY_COLUMNS):
                raise ValueError("equity.csv: header is not " + ",".join(EQUITY_COLUMNS))
            equity = {key: _read_equity(f, key, dates[: lengths[key]]) for key in sorted(lengths)}
            extra = next(f, None)
            if extra is not None:
                raise ValueError(f"equity.csv: row {next(csv.reader([extra]))[:4]} follows the last cell")
        for key, series in equity.items():
            stored = store.cells[key]
            read = store.cells[key] = replace(stored, equity=series)
            if _float_bits(read.min_equity) != _float_bits(stored.min_equity):
                raise ValueError(
                    f"cells.csv: cell {'/'.join(key)} has min_equity {stored.min_equity!r}, "
                    f"but its equity.csv series gives {read.min_equity!r}"
                )
        return store


def _float_bits(value: float | None) -> bytes | None:
    return None if value is None else np.float64(value).tobytes()


def _csv_prefix(*fields: str) -> str:
    """``fields`` as csv.writer writes them at the start of a row: each one
    quoted where it needs to be and followed by a comma.

    Raises ValueError on a field with a line break: ``load`` reads
    ``equity.csv`` one line per row, so such a field could not be read back.
    """
    for value in fields:
        if "\r" in value or "\n" in value:
            raise ValueError(f"equity.csv: field {value!r} holds a line break")
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow([*fields, ""])
    return buf.getvalue()


def _read_equity(lines: Iterator[str], key: tuple[str, str, str], dates: Sequence[str]) -> np.ndarray | None:
    """The next ``len(dates)`` lines of ``equity.csv`` as one cell's equity.

    ``dates`` are the cell's date fields as ``save`` writes them. Raises
    ValueError naming the cell unless each line, up to its last comma, is
    the cell's key and the expected date, in order, and the rest is a
    float. None for a cell with no days.
    """
    n = len(dates)
    if n == 0:
        return None
    prefix = _csv_prefix(*key)
    rows = [line.rpartition(",") for line in islice(lines, n)]
    if [head for head, _, _ in rows] != [prefix + date for date in dates]:
        raise ValueError(
            f"equity.csv: rows for cell {'/'.join(key)} do not match its {n} evaluation days"
        )
    values = [value for _, _, value in rows]
    try:
        return np.fromiter(map(float, values), dtype=float, count=n)
    except ValueError:
        # float() ignores the line ending; parse again without it, so that
        # the message quotes the bad value as the csv module reads it.
        try:
            [float(value.rstrip("\r\n")) for value in values]
        except ValueError as exc:
            raise ValueError(f"equity.csv: cell {'/'.join(key)}: {exc}") from None
        raise


# ---------------------------------------------------------------------------
# Suite execution
# ---------------------------------------------------------------------------

def load_panel(cfg: RunConfig) -> PriceMatrix:
    if cfg.prices_csv is not None:
        return load_prices_csv(cfg.prices_csv, cfg.sectors_csv)
    return generate_synthetic(cfg.synth)


def partition_args(cfg: RunConfig, pm: PriceMatrix) -> dict:
    """The keyword arguments of ``buckets.rerandomize`` that draw ``cfg``'s
    partition of ``pm``, given its covariates. The bucket seed falls back to
    the master seed."""
    b = cfg.buckets
    return {
        "sectors": pm.sectors or {},
        "bucket_size": b.bucket_size,
        "n_buckets": b.n_buckets,
        "n_candidates": b.n_candidates,
        "seed": b.seed if b.seed is not None else cfg.seed,
        "sector_constraint": b.sector_constraint,
    }


def _failed(bm_id: str, bucket_id: str, roster, message: str) -> list[CellResult]:
    return [CellResult(bm_id, bucket_id, eid, error=message) for eid, _ in roster]


def _run_grid_task(args) -> list[tuple[str, str, float | None, list[CellResult]]]:
    """Run every engine for one benchmark over all its buckets; picklable for pools.

    Each bucket's schedule is built and checked on its own, and one
    ``run_buckets`` call runs the roster's rows over the buckets that pass,
    simulating each holdings path once; each cell is then one
    ``run_variant`` call with its own row as the base. One ``(benchmark,
    bucket, first weight sum, cells)`` per bucket.
    """
    bm_id, buckets, eval_start, rate, roster, capital = args
    out = []
    built = []
    for bucket_id, bucket_pm in buckets:
        try:
            schedule = BENCHMARKS[bm_id].build(bucket_pm, eval_start)
            first_w = schedule.first_entry_weight_sum(bucket_pm)
        except Exception as exc:
            msg = f"schedule: {type(exc).__name__}: {exc}"
            out.append((bm_id, bucket_id, None, _failed(bm_id, bucket_id, roster, msg)))
        else:
            built.append((bucket_id, bucket_pm, schedule, first_w))
    # The config admits only valid rates and every bucket is a subset of one
    # panel, so the pass itself cannot fail; a bucket fails on its own checks.
    batches = run_buckets(
        [schedule for _, _, schedule, _ in built],
        [bucket_pm for _, bucket_pm, _, _ in built],
        capital,
        [(conv, rate) for _, conv in roster],
        eval_start,
    )
    for (bucket_id, bucket_pm, schedule, first_w), rows in zip(built, batches):
        if isinstance(rows, Exception):
            # A bucket fails only on the input checks, which its cells share.
            msg = f"{type(rows).__name__}: {rows}"
            out.append((bm_id, bucket_id, first_w, _failed(bm_id, bucket_id, roster, msg)))
            continue
        cells: list[CellResult] = []
        for (engine_id, conv), row in zip(roster, rows):
            try:
                series = run_variant(schedule, bucket_pm, capital, CostSpec(rate), conv, eval_start, base=row)
                cells.append(
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
                cells.append(
                    CellResult(bm_id, bucket_id, engine_id, error=f"{type(exc).__name__}: {exc}")
                )
        out.append((bm_id, bucket_id, first_w, cells))
    return out


def run_suite(cfg: RunConfig, jobs: int = 1) -> ResultStore:
    """Execute the full benchmark x bucket x engine grid.

    Per-cell failures are recorded in the store and never abort the run.
    """
    pm = load_panel(cfg)
    partition = bucketmod.rerandomize(bucketmod.compute_covariates(pm), **partition_args(cfg, pm))
    balance = bucketmod.sector_balance(partition, pm.sectors) if pm.sectors else None
    universe = descriptive_stats(pm)

    warmup = cfg.warmup_days(pm.n_days)

    roster = cfg.roster()
    # One matrix per bucket, shared by every benchmark.
    buckets = tuple((bucket_id, pm.subset(members))
                    for bucket_id, members in zip(partition.bucket_ids, partition.buckets))
    tasks = [
        (bm_id, buckets, warmup, CostSpec.from_bps(cfg.benchmark_cost_bps(bm_id)).rate, roster,
         cfg.initial_capital)
        for bm_id in cfg.benchmarks
    ]

    if jobs > 1:
        # Imported here: it loads multiprocessing, which a serial run never uses.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            raw = [r for results in pool.map(_run_grid_task, tasks) for r in results]
    else:
        raw = [r for t in tasks for r in _run_grid_task(t)]

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
                if cell.min_equity is not None and cell.min_equity <= 0:
                    findings.append(Finding("NonPositiveEquity", bm, bucket, engine))
    return findings


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------

@dataclass
class ReportBundle:
    """All analysis tables plus the metadata they cross-reference. Its JSON
    writes a NaN value (the cagr of a negative equity path) as null."""

    run_id: str
    metadata: dict
    tables: dict[str, list[dict]]
    bucket_qc: dict
    conjecture: dict

    def to_json(self) -> str:
        # No indent: with one, json always runs its pure-Python encoder,
        # about three times slower than the C one on a bundle.
        return dumps_json(
            {
                "run_id": self.run_id,
                "metadata": self.metadata,
                "tables": self.tables,
                "bucket_qc": self.bucket_qc,
                "conjecture": self.conjecture,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "ReportBundle":
        return cls(**json.loads(text))


#: Conventions the report's numbers rest on, recorded in its metadata.
REPORT_CONSTANTS = {
    "annualisation_days": TRADING_DAYS_PER_YEAR,
    "sharpe_risk_free_rate": 0.0,
    "spread_stdev_ddof": 1,
    "divergence_base": "lexicographically-first engine id in the pair",
    "total_return_divergence_basis": "growth factor (final over first reported equity)",
    "csi_sign_of_zero": "positive",
    "ccc_moments": "population (divisor n)",
    "turnover_definition": "one-sided notional / pre-cost value, annualised 252/(T-1)",
    "wilcoxon_zero_handling": "dropped",
    "permutation_estimator": "add-one",
}


@dataclass(frozen=True)
class BucketCells:
    """The ok cells of one (benchmark, bucket), reduced to what the report
    tables read. Records and spreads need two ok engines; turnover is the
    reference engine's, else the first ok engine's."""

    benchmark: str
    bucket: str
    values: dict[str, dict[str, float]]  # metric -> engine -> value, engines sorted
    records: list[DivergenceRecord]
    turnover: float | None
    es: float | None = None
    es_cv: float | None = None
    iui: tuple[float, float] | None = None
    csi: int | None = None


@dataclass(frozen=True)
class CellTable:
    """Every (benchmark, bucket) of a store in config and bucket order, and
    each (benchmark, engine pair)'s total-return divergence over buckets."""

    store: ResultStore
    pairs: list[tuple[str, str]]
    cells: dict[str, list[BucketCells]]
    divergence: dict[tuple[str, tuple[str, str]], list[float]]
    mean_divergence: dict[tuple[str, tuple[str, str]], float]
    es_mean: dict[str, float]

    def pair_means(self, bm: str) -> list[float]:
        return [mean for (b, _), mean in self.mean_divergence.items() if b == bm]

    @cached_property
    def concordance(self) -> list[tuple[str, str, str, str, float, int]]:
        """Lin's CCC of each engine pair across buckets, per benchmark and
        metric, as (benchmark, metric, engine a, engine b, ccc, buckets). A
        pair's values over its common buckets are one row, engine a's then
        engine b's, and the CCCs run once per row length."""
        keys, rows_ab = [], []
        for bm, row in self.cells.items():
            for metric in DIVERGENCE_METRICS:
                for a, b in self.pairs:
                    both = {c.bucket: c.values[metric] for c in row if {a, b} <= c.values[metric].keys()}
                    if len(both) >= 2:
                        common = sorted(both)
                        keys.append((bm, metric, a, b))
                        rows_ab.append([both[k][a] for k in common] + [both[k][b] for k in common])
        cccs = _stacked(lambda ab: lin_ccc(*np.split(ab, 2, axis=1)).tolist(), rows_ab)
        return [(*key, ccc, len(ab) // 2) for key, ccc, ab in zip(keys, cccs, rows_ab)]

    @cached_property
    def intensity(self) -> dict[str, tuple[float, float, float]]:
        """Cost rate, mean turnover and cost intensity of each benchmark
        with a turnover and an engine spread."""
        out = {}
        for bm, row in self.cells.items():
            turnovers = [c.turnover for c in row if c.turnover is not None]
            if turnovers and bm in self.es_mean:
                cost = CostSpec.from_bps(self.store.config.benchmark_cost_bps(bm))
                turnover = float(np.mean(turnovers))
                out[bm] = (cost.rate, turnover, cost_intensity(cost, turnover))
        return out


def _bucket_cells(store: ResultStore, engines: Sequence[str], bm: str, bucket: str) -> BucketCells:
    ok = [c for e in engines if (c := store.cell(bm, bucket, e)) is not None and c.ok]
    values = {m: {c.engine: c.stats.metric(m) for c in ok} for m in DIVERGENCE_METRICS}
    source = next((c for c in ok if c.engine == REFERENCE.id), ok[0] if ok else None)
    turnover = source.turnover if source else None
    if len(ok) < 2:
        return BucketCells(bm, bucket, values, [], turnover)
    records = [r for m in DIVERGENCE_METRICS for r in pairwise_divergence(values[m], bm, bucket, m)]
    sample = np.array([c.stats.total_return_pct for c in ok])
    sharpes = np.array(list(values["sharpe"].values()))
    return BucketCells(
        bm, bucket, values, records, turnover, es_range(sample), es_cv(sample), iui(sample), csi(sharpes)
    )


def _cell_table(store: ResultStore) -> CellTable:
    engines = store.engine_ids
    pairs = list(combinations(engines, 2))
    cells = {
        bm: [_bucket_cells(store, engines, bm, bucket) for bucket in store.bucket_ids]
        for bm in store.config.benchmarks
    }
    found: dict[tuple[str, tuple[str, str]], list[float]] = {}
    for bm, row in cells.items():
        for rec in (r for c in row for r in c.records):
            if rec.metric == "total_return":
                found.setdefault((bm, (rec.engine_a, rec.engine_b)), []).append(rec.rel_diff_pct)
    divergence = {(bm, p): found[(bm, p)] for bm in cells for p in pairs if (bm, p) in found}
    spreads = {bm: [c.es for c in row if c.es is not None] for bm, row in cells.items()}
    return CellTable(
        store,
        pairs,
        cells,
        divergence,
        {key: float(np.mean(series)) for key, series in divergence.items()},
        {bm: float(np.mean(es)) for bm, es in spreads.items() if es},
    )


def _summary_rows(t: CellTable) -> Iterator[tuple]:
    cfg = t.store.config
    ref = t.es_mean.get(cfg.daf_reference, 0.0)
    for bm, row in t.cells.items():
        means = t.pair_means(bm)
        spread = [c for c in row if c.es is not None]
        es_cvs = [c.es_cv for c in spread if c.es_cv is not None]
        iuis = [c.iui for c in spread]
        yield (
            bm,
            BENCHMARKS[bm].category,
            cfg.benchmark_cost_bps(bm),
            float(np.mean(means)) if means else None,
            float(np.max(means)) if means else None,
            len(means),
            len(spread),
            t.es_mean.get(bm),
            float(np.mean(es_cvs)) if es_cvs else None,
            float(np.mean([lo for lo, _ in iuis])) if iuis else None,
            float(np.mean([hi for _, hi in iuis])) if iuis else None,
            float(np.mean([hi - lo for lo, hi in iuis])) if iuis else None,
            t.es_mean[bm] / ref if ref > 0 and bm in t.es_mean else None,
            int(max(c.csi for c in spread)) if spread else None,
        )


def _statistic(result) -> float | None:
    return None if result.degenerate else result.statistic


def _test_row(
    bm: str, pair: str, n: int, test: str, result, statistic=None,
    reject_fdr=None, equivalent=None, margin_pp=None,
) -> tuple:
    return bm, pair, test, n, statistic, result.p_value, result.degenerate, reject_fdr, equivalent, margin_pp


def _stacked(test: Callable[[np.ndarray], list], series: list[Sequence[float]]) -> list:
    """``test`` on each series, called once per series length on the (k, n)
    stack of the series of that length; results in the order of ``series``."""
    by_length: dict[int, list[int]] = {}
    for i, s in enumerate(series):
        by_length.setdefault(len(s), []).append(i)
    out: list = [None] * len(series)
    for rows in by_length.values():
        for i, result in zip(rows, test(np.array([series[i] for i in rows]))):
            out[i] = result
    return out


def _stats_rows(t: CellTable) -> Iterator[tuple]:
    """The test battery on each pair's divergence series, with the t-tests'
    Benjamini-Hochberg rejections over all benchmarks and pairs. Each test
    runs once per series length, on the stack of the series of that length."""
    cfg = t.store.config
    tested = {key: series for key, series in t.divergence.items() if len(series) >= 2}
    series = list(tested.values())
    t_tests = _stacked(one_sample_t, series)
    wilcoxon = _stacked(wilcoxon_signed_rank, series)
    tosts = [_stacked(lambda d: tost(d, margin), series) for margin in cfg.tost_margins_pp]
    long = [i for i, d in enumerate(series) if len(d) >= 3]
    lag1 = dict(zip(long, _stacked(lag1_autocorr, [series[i] for i in long])))
    family = [i for i, res in enumerate(t_tests) if not res.degenerate and res.p_value is not None]
    rejected = {}
    if family:
        rejected = dict(zip(family, map(bool, bh_fdr([t_tests[i].p_value for i in family], cfg.fdr_q))))
    for i, ((bm, pair), d) in enumerate(tested.items()):
        label, n = f"{pair[0]} vs {pair[1]}", len(d)
        t_res = t_tests[i]
        yield _test_row(bm, label, n, "t", t_res, _statistic(t_res), rejected.get(i))
        w_res = wilcoxon[i]
        yield _test_row(bm, label, n, w_res.method, w_res, _statistic(w_res))
        perm_seed = derived_seed(cfg.seed, "perm", bm, label)
        p_res = sign_flip_permutation(d, draws=cfg.permutation_draws, seed=perm_seed)
        yield _test_row(bm, label, n, "permutation", p_res, p_res.statistic)
        for margin, results in zip(cfg.tost_margins_pp, tosts):
            t_eq = results[i]
            yield _test_row(bm, label, n, "tost", t_eq, equivalent=t_eq.equivalent, margin_pp=margin)
        if i in lag1:
            l_res = lag1[i]
            yield _test_row(bm, label, n, "lag1_autocorr", l_res, _statistic(l_res))


def _concordance_min_rows(t: CellTable) -> list[tuple]:
    by_metric: dict[tuple[str, str], list[float]] = {}
    for bm, metric, _, _, ccc, _ in t.concordance:
        by_metric.setdefault((bm, metric), []).append(ccc)
    return [(bm, metric, float(np.min(v))) for (bm, metric), v in by_metric.items()]


def _fully_invested(store: ResultStore, bm: str) -> bool:
    sums = [store.first_weight_sums.get((bm, bucket)) for bucket in store.bucket_ids]
    return all(s is not None and s >= 1.0 - FULLY_INVESTED_TOL for s in sums)


def _floor_rows(t: CellTable) -> Iterator[tuple]:
    """Each pair's mean divergence split into the reporting floor, which
    needs every bucket's first schedule entry fully invested, and the rest."""
    store = t.store
    conventions = dict(store.config.roster())
    fully = {bm: _fully_invested(store, bm) for bm in t.cells}
    for (bm, (a, b)), mean in t.mean_divergence.items():
        cost = CostSpec.from_bps(store.config.benchmark_cost_bps(bm))
        split = floor_decomposition(mean, conventions[a], conventions[b], cost, fully[bm])
        yield bm, a, b, mean, split.floor_pct, split.residual_pct, split.mixed_reporting, fully[bm]


def _cost_rows(t: CellTable) -> list[tuple]:
    cfg = t.store.config
    return [
        (bm, cfg.benchmark_cost_bps(bm), turnover, score, t.es_mean[bm])
        for bm, (_, turnover, score) in t.intensity.items()
    ]


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
    # A set, not np.unique: its first call imports numpy.ma.
    for c in set(counts[counts > 0].tolist()):
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


def _conjecture(t: CellTable) -> dict:
    """Across benchmarks, does the engine spread rank with cost rate times
    turnover?"""
    conjecture: dict = {"n_benchmarks": len(t.intensity)}
    if len(t.intensity) < 3:
        return conjecture
    cfg = t.store.config
    scores = [score for _, _, score in t.intensity.values()]
    spreads = [t.es_mean[bm] for bm in t.intensity]
    sp = spearman(scores, spreads)
    pe = pearson(scores, spreads)
    conjecture |= {
        "spearman_rho": _statistic(sp),
        "spearman_p": sp.p_value,
        "pearson_r": _statistic(pe),
        "pearson_p": pe.p_value,
    }
    cells = [c for row in t.cells.values() for c in row]
    turnover = {(c.benchmark, c.bucket): c.turnover for c in cells if c.turnover is not None}
    es = {(c.benchmark, c.bucket): c.es for c in cells if c.es is not None}
    rates = {bm: rate for bm, (rate, _, _) in t.intensity.items()}
    buckets, bms = list(t.store.bucket_ids), list(rates)
    try:
        boot = cluster_bootstrap(
            buckets,
            lambda index: _resampled_rho(index, buckets, bms, rates, turnover, es),
            draws=cfg.bootstrap_draws,
            seed=derived_seed(cfg.seed, "boot", "conjecture"),
        )
    except NotEnoughClusters:
        return conjecture | {"bootstrap_point": None, "bootstrap_ci95": None}
    return conjecture | {
        "bootstrap_point": boot.point,
        "bootstrap_ci95": list(boot.ci95),
        "bootstrap_draws": boot.draws,
        "n_clusters": boot.n_clusters,
    }


def _dollar_rows(t: CellTable) -> list[tuple]:
    """Annual dollar ambiguity of the ruler divergences and of each
    benchmark's largest pair divergence."""
    aum = t.store.config.aum
    maxima = [(f"ruler_{pct:.2f}pct", pct) for pct in AMBIGUITY_RULER_PCTS]
    maxima += [(bm, float(np.max(means))) for bm in t.cells if (means := t.pair_means(bm))]
    return [(name, pct, aum, dollar_ambiguity(pct, aum)) for name, pct in maxima]


#: The name of the table of ``validate_results`` findings, which sets the
#: exit code of ``crossbt analyze`` and ``report``.
VALIDATION = "validation"

#: Every report table, in the order it is written: its columns, and the one
#: builder that yields its rows from the cell table as value tuples in the
#: columns' order. A record's or finding's fields are flat, so ``vars()``
#: gives what ``astuple()`` would without its per-field deep copy.
TABLES: dict[str, tuple[list[str], Callable[[CellTable], Iterable[tuple]]]] = {
    "divergence_records": (
        [f.name for f in fields(DivergenceRecord)],
        lambda t: (tuple(vars(r).values()) for row in t.cells.values() for c in row for r in c.records),
    ),
    "divergence_summary": (
        "benchmark category cost_bps mean_pct max_pct n_pairs n_buckets es_range_pp es_cv_pct"
        " iui_lo iui_hi iui_width_pp daf csi".split(),
        _summary_rows,
    ),
    "stats_tests": (
        "benchmark pair test n statistic p_value degenerate reject_fdr equivalent margin_pp".split(),
        _stats_rows,
    ),
    "concordance": ("benchmark metric engine_a engine_b ccc n_buckets".split(), lambda t: t.concordance),
    "concordance_min": ("benchmark metric ccc_min".split(), _concordance_min_rows),
    "floor_decomposition": (
        "benchmark engine_a engine_b mean_divergence_pct floor_pct residual_pct mixed_reporting"
        " fully_invested".split(),
        _floor_rows,
    ),
    "cost_intensity": ("benchmark cost_bps turnover_per_yr cost_intensity es_range_pp".split(), _cost_rows),
    "dollar_ambiguity": ("benchmark max_divergence_pct aum_usd annual_ambiguity_usd".split(), _dollar_rows),
    "pair_divergence": (
        "benchmark engine_a engine_b mean_divergence_pct n_buckets".split(),
        lambda t: [(bm, *pair, mean, len(t.divergence[(bm, pair)])) for (bm, pair), mean in t.mean_divergence.items()],
    ),
    VALIDATION: (
        [f.name for f in fields(Finding)],
        lambda t: (tuple(vars(f).values()) for f in validate_results(t.store)),
    ),
}


def analyze(store: ResultStore) -> ReportBundle:
    """Every ``TABLES`` table and the cost-intensity conjecture check, from a
    frozen store. Degenerate cells propagate as flags."""
    t = _cell_table(store)
    tables = {
        name: [dict(zip(columns, row, strict=True)) for row in build(t)] for name, (columns, build) in TABLES.items()
    }
    bucket_qc = {
        "partition": json.loads(store.partition.to_json()),
        "balance": asdict(store.balance) if store.balance else None,
        "mahalanobis_score": store.partition.score,
        "universe": store.universe,
    }
    metadata = {
        "run_id": store.run_id,
        "package_version": __version__,
        "config": store.config.canonical_dict(),
        "constants": dict(REPORT_CONSTANTS),
    }
    return ReportBundle(store.run_id, metadata, tables, bucket_qc, _conjecture(t))


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------


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
    for name, (columns, _) in TABLES.items():
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
            f.write(dumps_json(payload, sort_keys=True, indent=2))
        paths.append(path)
    return paths
