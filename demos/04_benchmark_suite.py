"""Tour of the benchmark strategy registry.

Builds each benchmark's weight schedule on one bucket-sized panel and runs
them through the reference engine at their configured cost regimes.
"""

from crossbt import REFERENCE, CostSpec, SynthSpec, annual_turnover, generate_synthetic, \
    performance_metrics, run_variant
from crossbt.strategies import BENCHMARKS

panel = generate_synthetic(
    SynthSpec(n_assets=6, n_days=560, seed=7, annual_drift=0.07, annual_vol=0.25)
)
start = max(spec.warmup for spec in BENCHMARKS.values())
print(f"panel: {panel.n_days} days; common warm-up {start} days "
      f"-> {panel.n_days - start} evaluation days\n")

header = f"{'id':10s} {'category':9s} {'bps':>4s} {'rebal':8s} {'entries':>7s} " \
         f"{'turnover/yr':>11s} {'total ret %':>11s} {'sharpe':>7s}"
print(header)
print("-" * len(header))
for bm_id, spec in BENCHMARKS.items():
    schedule = spec.build(panel, start)
    series = run_variant(
        schedule, panel, 1_000_000, CostSpec.from_bps(spec.cost_bps), REFERENCE, start
    )
    stats = performance_metrics(series)
    print(
        f"{bm_id:10s} {spec.category:9s} {spec.cost_bps:4.0f} {spec.freq:8s} "
        f"{len(schedule.entries):7d} {annual_turnover(series):11.2f} "
        f"{stats.total_return_pct:11.3f} {stats.sharpe:7.3f}"
    )

print("\nml signal detail (bm08_enet): walk-forward elastic net, top-2 picks")
sched = BENCHMARKS["bm08_enet"].build(panel, start)
first_date = sorted(sched.entries, key=int)[0]
held = [a for a, w in zip(panel.assets, sched.entries[first_date]) if w > 0]
print(f"  first rebalance {first_date}: holds {held}")
