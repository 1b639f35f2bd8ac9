"""Seeded workload configs for the crossbt benchmark.

Each workload is a fixed shape (universe, buckets, benchmarks, roster,
draw counts); the seed argument picks the synthetic panel and every
derived random stream, so one ``(workload, seed)`` pair fixes every
input byte.
"""

from __future__ import annotations

ALL_BENCHMARKS = [
    "bm01", "bm02", "bm03", "bm04", "bm05", "bm06", "bm07",
    "bm08_enet", "bm09", "bm10", "bm11", "bm12",
]

DEFAULT_ENGINES = [
    "reference", "pre_trade", "percent_divided",
    "double_commission", "fifo_sequential", "shifted_one_day",
]

TRUNCATED_ENGINE = "post|abs|x1|atomic|aligned|trunc756"

# name -> (n_assets, n_days, n_sectors, n_buckets, bucket_size, n_candidates,
#          benchmarks, engines)
#
# The two benchmarked shapes are cut down so that one pipeline takes 3-5 s
# on 2 shared cores and a run holds about ten of them, enough for medians
# that hold still; each keeps the layers it is about in front. ``paper`` is
# the full north-star scale and runs on demand only.
SHAPES = {
    "paper": (120, 1260, 12, 20, 6, 2000, ALL_BENCHMARKS, DEFAULT_ENGINES),
    "daily_signals": (
        40, 1050, 8, 3, 6, 200,
        ["bm03", "bm05", "bm07", "bm08_enet", "bm09", "bm12"],
        DEFAULT_ENGINES + ["sells_first", TRUNCATED_ENGINE],
    ),
    "wide_short": (
        120, 250, 12, 30, 4, 1000,
        ["bm01", "bm03", "bm10"],
        DEFAULT_ENGINES,
    ),
}

#: name -> (permutation draws, bootstrap draws).
DRAWS = {
    "paper": (10_000, 5_000),
    "daily_signals": (5_000, 1_000),
    "wide_short": (5_000, 2_500),
}

WHY = {
    "paper": "paper-scale north-star grid; every layer in realistic proportion",
    "daily_signals": "daily engine loops (fifo, sells-first, a truncated engine to detect) and walk-forward ML fits dominate",
    "wide_short": "partition sampling and the stats battery dominate; engine, ML and store are small",
}

#: The workloads BENCHMARK.json lists. ``paper`` runs on demand only: one
#: pipeline takes 35-50 s on 2 shared cores, so it cannot be repeated within
#: a run, and its run-to-run spread there is 20-30%.
BENCHMARKED = ("daily_signals", "wide_short")

#: Workloads whose truncated engine yields LengthMismatch findings (exit 2).
EXPECTS_FINDINGS = {"daily_signals": True, "paper": False, "wide_short": False}


def make_config(name: str, seed: int) -> dict:
    """The run configuration (as ``RunConfig.from_dict`` takes it) for one workload and seed."""
    n_assets, n_days, n_sectors, n_buckets, size, cands, bms, engines = SHAPES[name]
    return {
        "seed": seed,
        "synthetic": {
            "n_assets": n_assets,
            "n_days": n_days,
            "seed": None,
            "annual_drift": 0.06,
            "annual_vol": 0.25,
            "correlation": 0.30,
            "n_sectors": n_sectors,
        },
        "buckets": {"n_buckets": n_buckets, "bucket_size": size, "n_candidates": cands},
        "benchmarks": list(bms),
        "engines": list(engines),
        "permutation_draws": DRAWS[name][0],
        "bootstrap_draws": DRAWS[name][1],
    }


def expected_findings(name: str) -> int:
    """LengthMismatch findings the truncated engine must produce: one per (benchmark, bucket)."""
    if not EXPECTS_FINDINGS[name]:
        return 0
    _, _, _, n_buckets, _, _, bms, _ = SHAPES[name]
    return len(bms) * n_buckets
