"""crossbt benchmark: one workload, timed end to end, outputs checked.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload daily_signals --seed 7 --seconds 55 --trace 0

``--trace 0`` runs the whole pipeline (``gen-data``, ``buckets``, ``run``,
``analyze``, ``report``), each time in a fresh process at ``--jobs 1``, as
often as fits in ``--seconds`` (at least once), after an untimed
``gen-data``+``buckets`` warm-up run, and reports the end-to-end metrics as
medians; times are scaled to one machine speed by a calibration task run
between stages (see ``times``), and the unscaled medians are printed beside
them. ``--trace 1`` runs the pipeline once
untraced and once traced and reports the per-layer metrics. Every run
checks the outputs: stage exit codes and validation findings, cell errors,
byte identity of every output tree of the run (and of a ``--jobs 2`` grid's
store), and the reference engine against ``tests/oracles.backtest_loop``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracing import LAYERS, layer_metrics, module_self_times, now, unit_of  # noqa: E402

WORK = REPO / ".perfbench_work"
#: Stages of the untimed warm-up run before the timed pipelines (trace 0 only).
WARMUP_STAGES = "gen-data,buckets"
#: Every child process must end this long after the benchmark started.
DEADLINE_S = 175
#: One BLAS thread per pipeline, so a pipeline keeps to one of the machine's
#: cores and does not wait on a second one it shares with other tenants.
CHILD_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
ORACLE_RTOL = 1e-12
#: Seconds the calibration task in pipeline.py takes at the speed the times
#: are reported at: a round figure near its median (0.038-0.045 s per run) on
#: the 2-vCPU host the baselines were taken on.
REFERENCE_CALIBRATION_S = 0.045

END_TO_END = {
    "setup_s": "s",
    "total_s": "s",
    "buckets_s": "s",
    "run_s": "s",
    "analyze_s": "s",
    "peak_rss_mb": "MB",
    "out_mb": "MB",
    "cells_ok_frac": "frac",
}


class CheckFailed(Exception):
    pass


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

def spawn(deadline: float, config: Path, out: Path, *extra: str) -> tuple[float, dict]:
    """Run pipeline.py in a fresh interpreter, killed at the ``deadline`` clock
    reading; returns (start clock, its result)."""
    result = out.with_suffix(".result.json")
    t0 = now()
    cmd = [sys.executable, str(HERE / "pipeline.py"), "--config", str(config),
           "--out", str(out), "--result", str(result), "--t0", repr(t0), *extra]
    # In a process group of its own, so a timeout also ends the --jobs 2 pool workers.
    proc = subprocess.Popen(cmd, cwd=REPO, env=CHILD_ENV, stdout=subprocess.DEVNULL, start_new_session=True)
    try:
        proc.wait(timeout=max(1.0, deadline - t0))
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"pipeline exited {proc.returncode}: {' '.join(cmd)}")
    with open(result) as f:
        return t0, json.load(f)


def pipeline(deadline: float, config: Path, out: Path, *extra: str) -> dict:
    """One pipeline; stage wall times and exit codes, totals from process start
    without the calibration runs between stages."""
    t0, res = spawn(deadline, config, out, *extra)
    stages = {s["stage"]: s for s in res["stages"]}
    calibration = res["calibration_s"]
    return {
        "setup_s": res["setup_end"] - t0,
        "total_s": res["end"] - t0 - sum(calibration[:-1]),
        "stage_s": {k: s["end"] - s["start"] for k, s in stages.items()},
        "calibration_s": calibration,
        "codes": {k: s["code"] for k, s in stages.items()},
        "peak_rss_mb": res["peak_rss_kib"] * 1024 / 1e6,
        "out": out,
    }


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def tree_digest(root: Path) -> tuple[str, int]:
    """SHA-256 over every file's relative path and bytes, plus total bytes."""
    h = hashlib.sha256()
    size = 0
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(data).digest())
        size += len(data)
    return h.hexdigest(), size


def cell_counts(out: Path) -> tuple[int, int]:
    """(cells attempted, cells with an error) from the stored grid."""
    with open(out / "store" / "cells.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    return len(rows), sum(1 for r in rows if r["error"])


def check_pipeline(name: str, run: dict) -> None:
    """Exit codes and validation findings are exactly what the workload predicts."""
    findings = workloads.expected_findings(name)
    want = {"gen-data": 0, "buckets": 0, "run": 0,
            "analyze": 2 if findings else 0, "report": 2 if findings else 0}
    check(run["codes"] == want, f"stage exit codes {run['codes']}, expected {want}")
    with open(run["out"] / "report" / "validation.csv", newline="") as f:
        kinds = [r["kind"] for r in csv.DictReader(f)]
    check(kinds == ["LengthMismatch"] * findings,
          f"{len(kinds)} validation findings {sorted(set(kinds))}, expected {findings} LengthMismatch")


def equity_rows(path: Path, prefix: str) -> list[float]:
    """Equity values of one (benchmark, bucket, engine) cell from the store's long CSV."""
    values = []
    with open(path) as f:
        for line in f:
            if line.startswith(prefix):
                values.append(float(line.rstrip("\r\n").rsplit(",", 1)[1]))
            elif values:
                break
    return values


def check_oracle(out: Path) -> float:
    """Reference equity of one bucket per benchmark against the plain-loop oracle.

    Returns the worst relative error seen."""
    sys.path.insert(0, str(REPO / "tests"))
    from oracles import backtest_loop
    from crossbt.buckets import Partition
    from crossbt.engine import REFERENCE
    from crossbt.harness import RunConfig
    from crossbt.marketdata import load_prices_csv
    from crossbt.strategies import BENCHMARKS

    with open(out / "store" / "store.json") as f:
        meta = json.load(f)
    cfg = RunConfig.from_dict(meta["config"])
    pm = load_prices_csv(str(out / "prices.csv"), str(out / "sectors.csv"))
    start = pm.dates.index(meta["eval_dates"][0])
    partition = Partition.from_json(json.dumps(meta["partition"]))
    bucket_id, members = partition.bucket_ids[0], partition.buckets[0]
    sub = pm.subset(members)
    index = sub.date_index()
    worst = 0.0
    for bm in cfg.benchmarks:
        schedule = BENCHMARKS[bm].build(sub, start)
        plan = {index[d] - start: [float(x) for x in w] for d, w in schedule.entries.items()}
        prices = [[float(x) for x in row] for row in sub.prices[start:]]
        expected = backtest_loop(prices, plan, cfg.initial_capital, cfg.benchmark_cost_bps(bm) / 1e4)
        got = equity_rows(out / "store" / "equity.csv", f"{bm},{bucket_id},{REFERENCE.id},")
        check(len(got) == len(expected), f"{bm}: {len(got)} reference equity rows, oracle has {len(expected)}")
        worst = max(worst, max(abs(g - e) / abs(e) for g, e in zip(got, expected)))
    check(worst <= ORACLE_RTOL, f"reference equity deviates from the oracle by {worst:.3e} relative")
    return worst


# ---------------------------------------------------------------------------
# Workload runs
# ---------------------------------------------------------------------------

def median(values) -> float:
    return float(statistics.median(values))


def times(run: dict, at_reference_speed: bool) -> dict:
    """Set-up, total and ``<stage>_s`` times of one untraced pipeline.

    At the reference speed they are in seconds at the machine speed where the
    calibration task takes ``REFERENCE_CALIBRATION_S``: set-up is scaled by
    the calibration right after it, each stage by the mean of the
    calibrations just before and after it, the total by the mean of all."""
    cal = run["calibration_s"]

    def scale(*around: float) -> float:
        return REFERENCE_CALIBRATION_S / statistics.fmean(around) if at_reference_speed else 1.0

    out = {"setup_s": run["setup_s"] * scale(cal[0]), "total_s": run["total_s"] * scale(*cal)}
    for i, (stage, seconds) in enumerate(run["stage_s"].items()):
        out[f"{stage}_s"] = seconds * scale(cal[i], cal[i + 1])
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    config = WORK / "config.json"
    with open(config, "w") as f:
        json.dump(workloads.make_config(name, seed), f, indent=2)

    warmups: list[dict] = []
    runs: list[dict] = []
    if trace:
        runs.append(pipeline(deadline, config, WORK / "run0"))
        traced = pipeline(deadline, config, WORK / "traced", "--spans", str(WORK / "spans.json"))
        others = [traced]
    else:
        # An untimed gen-data+buckets run first compiles the bytecode and
        # fills the page cache. Another pipeline starts only if one more like
        # the last still ends within --seconds, so a run never measures much
        # longer than asked.
        warmups.append(pipeline(deadline, config, WORK / "warmup", "--stages", WARMUP_STAGES))
        start = now()
        while True:
            began = now()
            runs.append(pipeline(deadline, config, WORK / f"run{len(runs)}"))
            end = now()
            if (end - start) + (end - began) > seconds:
                break
        others = runs[1:]

    first = runs[0]["out"]
    digest, size = tree_digest(first)
    attempted = failed = 0
    for run in [runs[0]] + others:
        check_pipeline(name, run)
        a, e = cell_counts(run["out"])
        attempted, failed = attempted + a, failed + e
    check(failed == 0, f"{failed} of {attempted} cells errored")
    for run in others:
        check(tree_digest(run["out"])[0] == digest, f"{run['out'].name} output differs from run0")
        shutil.rmtree(run["out"])
    for warmup in warmups:
        check(warmup["codes"] == {"gen-data": 0, "buckets": 0}, f"warm-up exit codes {warmup['codes']}")
        for path in sorted(p for p in warmup["out"].rglob("*") if p.is_file()):
            check(path.read_bytes() == (first / path.relative_to(warmup["out"])).read_bytes(),
                  f"{path.relative_to(WORK)} differs from run0")
        shutil.rmtree(warmup["out"])

    # The grid at --jobs 2 must store the same bytes as at --jobs 1.
    spawn(deadline, config, WORK / "jobs2", "--jobs", "2", "--stages", "run")
    check(tree_digest(WORK / "jobs2" / "store")[0] == tree_digest(first / "store")[0],
          "--jobs 2 store differs from --jobs 1")
    worst = check_oracle(first)

    print(f"workload {name} seed {seed}: {len(runs)} pipeline(s)")
    print(f"  output tree sha256 {digest}, identical across every run and the --jobs 2 store")
    print(f"  reference equity vs tests/oracles.backtest_loop: worst relative error {worst:.2e}")
    if trace:
        with open(WORK / "spans.json") as f:
            dump = json.load(f)
        metrics = layer_metrics(dump["spans"], dump["counters"], runs[0]["total_s"])
        by_module = module_self_times(dump["spans"])
        check(abs(sum(by_module.values()) - metrics["trace.total_s"]) < 1e-6,
              "module self times do not sum to the traced total")
        print_layer_table(runs[0], traced, by_module)
        units = {k: unit_of(k) for k in metrics}
    else:
        scaled = [times(r, True) for r in runs]
        unscaled = [times(r, False) for r in runs]
        samples = {k: [t[k] for t in scaled] for k in ("setup_s", "total_s", "buckets_s", "run_s", "analyze_s")}
        samples |= {
            "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
            "out_mb": [size / 1e6],
            "cells_ok_frac": [(attempted - failed) / attempted],
        }
        metrics = {k: median(v) for k, v in samples.items()}
        print(f"  calibration task median {median(c for r in runs for c in r['calibration_s']):.4f} s,"
              f" reference {REFERENCE_CALIBRATION_S} s; times below are at the reference speed")
        for key, values in samples.items():
            raw = f"; unscaled median {median(t[key] for t in unscaled):.4f}" if key in unscaled[0] else ""
            print(f"  {key:<14} median {metrics[key]:12.4f} {END_TO_END[key]:<5}"
                  f" (n={len(values)}, min {min(values):.4f}, max {max(values):.4f}{raw})")
        units = END_TO_END
    return {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def print_layer_table(untraced: dict, traced: dict, by_module: dict) -> None:
    """Per-module self time of the traced pipeline beside the untraced stage times."""
    print("  untraced stage times      traced self time by module")
    stages = list(untraced["stage_s"].items()) + [("total", untraced["total_s"])]
    modules = [(m, by_module[m]) for m in LAYERS] + [("unattributed", by_module["unattributed"]),
                                                      ("traced total", traced["total_s"])]
    for i in range(max(len(stages), len(modules))):
        left = f"{stages[i][0]:<10} {stages[i][1]:9.3f} s" if i < len(stages) else ""
        right = f"{modules[i][0]:<13} {modules[i][1]:9.3f} s" if i < len(modules) else ""
        print(f"  {left:<24}  {right}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.SHAPES))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = now() + DEADLINE_S

    for needed in (REPO / "src" / "crossbt" / "cli.py", REPO / "tests" / "oracles.py"):
        if not needed.is_file():
            print(f"missing {needed.relative_to(REPO)}: run from a crossbt checkout", file=sys.stderr)
            return 1
    sys.path.insert(0, str(REPO / "src"))
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), deadline)
    except CheckFailed as exc:
        print(f"CHECK FAILED: {exc}")
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
