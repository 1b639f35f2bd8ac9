"""Command-line front end for the experiment harness.

Subcommands mirror the pipeline stages: ``gen-data`` writes a synthetic
panel, ``buckets`` stratifies it, ``run`` executes the grid, ``analyze``
computes the report bundle, ``report`` renders it to CSV/JSON, and ``all``
chains the lot. Exit codes: 0 success, 2 validation findings, 1 errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from dataclasses import asdict

from .buckets import compute_covariates, rerandomize, sector_balance
from .harness import (
    ReportBundle,
    ResultStore,
    RunConfig,
    analyze,
    dumps_json,
    emit_reports,
    load_panel,
    partition_args,
    run_suite,
)
from .marketdata import write_prices_csv, write_sector_map

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FINDINGS = 2

#: Built-in demonstration config used when --config is not given: what it
#: sets differs from the ``RunConfig``, ``SynthSpec`` and ``BucketConfig`` defaults.
DEMO_CONFIG = {
    "seed": 7,
    "synthetic": {"n_assets": 36, "n_days": 420, "annual_drift": 0.06, "annual_vol": 0.25},
    "buckets": {"n_candidates": 500},
    "permutation_draws": 2000,
    "bootstrap_draws": 1000,
}


def _load_config(args: argparse.Namespace) -> RunConfig:
    if args.config:
        with open(args.config) as f:
            obj = json.load(f)
    else:
        obj = json.loads(json.dumps(DEMO_CONFIG))
    if args.seed is not None:
        obj["seed"] = args.seed
        if obj.get("synthetic") is not None:
            obj["synthetic"]["seed"] = None
    if args.engines:
        obj["engines"] = [e.strip() for e in args.engines.split(",") if e.strip()]
    if args.benchmarks:
        obj["benchmarks"] = [b.strip() for b in args.benchmarks.split(",") if b.strip()]
    return RunConfig.from_dict(obj)


def _store_dir(out: str) -> str:
    return os.path.join(out, "store")


def _bundle_path(out: str) -> str:
    return os.path.join(out, "analysis", "bundle.json")


def cmd_gen_data(cfg: RunConfig, out: str, jobs: int) -> int:
    pm = load_panel(cfg)
    os.makedirs(out, exist_ok=True)
    write_prices_csv(pm, os.path.join(out, "prices.csv"))
    if pm.sectors is not None:
        write_sector_map(pm.sectors, os.path.join(out, "sectors.csv"))
    print(f"wrote {pm.n_days} days x {pm.n_assets} assets to {out}/prices.csv")
    return EXIT_OK


def cmd_buckets(cfg: RunConfig, out: str, jobs: int) -> int:
    pm = load_panel(cfg)
    partition = rerandomize(compute_covariates(pm), **partition_args(cfg, pm))
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "partition.json"), "w") as f:
        f.write(partition.to_json())
    qc = {"partition": json.loads(partition.to_json())}
    if pm.sectors is not None:
        balance = sector_balance(partition, pm.sectors)
        qc["balance"] = asdict(balance)
    with open(os.path.join(out, "bucket_qc.json"), "w") as f:
        f.write(dumps_json(qc, sort_keys=True, indent=2))
    print(
        f"partition of {cfg.buckets.n_buckets} x {cfg.buckets.bucket_size} "
        f"score {partition.score:.4f} -> {out}/partition.json"
    )
    return EXIT_OK


def cmd_run(cfg: RunConfig, out: str, jobs: int) -> int:
    store = run_suite(cfg, jobs=jobs)
    store.save(_store_dir(out))
    n_err = sum(1 for c in store.cells.values() if not c.ok)
    print(
        f"ran {len(store.cells)} cells "
        f"({len(cfg.benchmarks)} benchmarks x {len(store.bucket_ids)} buckets "
        f"x {len(store.engine_ids)} engines), {n_err} errors -> {_store_dir(out)}"
    )
    return EXIT_OK


def _check_run_id(found: str, cfg: RunConfig, what: str) -> None:
    """Refuse outputs that another configuration or seed produced."""
    expected = cfg.run_id()
    if found != expected:
        raise ValueError(
            f"{what} holds run {found} but the configuration is run {expected}; "
            f"rerun the earlier stages with the same --config and --seed"
        )


def cmd_analyze(cfg: RunConfig, out: str, jobs: int) -> int:
    store = ResultStore.load_cells(_store_dir(out))
    _check_run_id(store.run_id, cfg, _store_dir(out))
    bundle = analyze(store)
    os.makedirs(os.path.dirname(_bundle_path(out)), exist_ok=True)
    with open(_bundle_path(out), "w") as f:
        f.write(bundle.to_json())
    n_findings = len(bundle.tables["validation"])
    print(f"analysis bundle ({n_findings} validation findings) -> {_bundle_path(out)}")
    return EXIT_FINDINGS if n_findings else EXIT_OK


def cmd_report(cfg: RunConfig, out: str, jobs: int) -> int:
    with open(_bundle_path(out)) as f:
        bundle = ReportBundle.from_json(f.read())
    _check_run_id(bundle.run_id, cfg, _bundle_path(out))
    paths = emit_reports(bundle, os.path.join(out, "report"))
    print(f"wrote {len(paths)} report files -> {out}/report")
    n_findings = len(bundle.tables["validation"])
    return EXIT_FINDINGS if n_findings else EXIT_OK


def cmd_all(cfg: RunConfig, out: str, jobs: int) -> int:
    cmd_gen_data(cfg, out, jobs)
    cmd_buckets(cfg, out, jobs)
    cmd_run(cfg, out, jobs)
    code = cmd_analyze(cfg, out, jobs)
    cmd_report(cfg, out, jobs)
    return code


COMMANDS = {
    "gen-data": cmd_gen_data,
    "buckets": cmd_buckets,
    "run": cmd_run,
    "analyze": cmd_analyze,
    "report": cmd_report,
    "all": cmd_all,
}


def _jobs(text: str) -> int:
    """The ``--jobs`` value: a whole number of grid workers, at least 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a whole number of at least 1, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossbt",
        description="Differential testing of portfolio backtesting conventions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON run configuration (default: built-in demo)")
        p.add_argument("--seed", type=int, help="override the master seed")
        p.add_argument("--out", default="crossbt-out", help="output directory")
        p.add_argument("--jobs", type=_jobs, default=1, help="parallel workers for the grid")
        p.add_argument("--engines", help="comma-separated convention names or flag strings")
        p.add_argument("--benchmarks", help="comma-separated benchmark ids")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error, which here
        # would read as validation findings.
        return EXIT_OK if exc.code == 0 else EXIT_ERROR
    try:
        cfg = _load_config(args)
        return COMMANDS[args.command](cfg, args.out, args.jobs)
    except Exception:
        traceback.print_exc()
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
