"""Run the reference proportional-cost engine on a synthetic panel.

Walks through the core loop: generate prices, build an equal-weight monthly
schedule, run the backtest at 18 bps, and inspect the equity series, trade
log, and performance statistics.
"""

import numpy as np

from crossbt import (
    REFERENCE,
    CostSpec,
    SynthSpec,
    annual_turnover,
    cost_intensity,
    generate_synthetic,
    performance_metrics,
    run_variant,
)
from crossbt.strategies import equal_weight

panel = generate_synthetic(
    SynthSpec(n_assets=6, n_days=504, seed=42, annual_drift=0.07, annual_vol=0.22)
)
print(f"panel: {panel.n_days} days x {panel.n_assets} assets")

schedule = equal_weight(panel)  # 1/N, every 21st trading day
cost = CostSpec.from_bps(18)
series = run_variant(schedule, panel, 1_000_000, cost, REFERENCE)

print(f"\nfirst five equity marks: {np.round(series.equity[:5], 2)}")
print(f"final equity:            {series.equity[-1]:,.2f}")

first = series.trades[0]
print(f"\nfirst rebalance on day {first.date}:")
print(f"  traded notional : {first.traded_notional:,.2f}")
print(f"  cost charged    : {first.cost:,.2f}  (= rate x notional)")

stats = performance_metrics(series)
turnover = annual_turnover(series)
print("\nperformance:")
print(f"  total return : {stats.total_return_pct:8.3f} %")
print(f"  cagr         : {stats.cagr_pct:8.3f} %/yr")
print(f"  ann vol      : {stats.ann_vol_pct:8.3f} %/yr")
print(f"  sharpe       : {stats.sharpe:8.3f}")
print(f"  max drawdown : {stats.max_drawdown_pct:8.3f} %")
print(f"  turnover     : {turnover:8.3f} /yr")
print(f"  cost score   : {cost_intensity(cost, turnover):8.5f}  (rate x turnover)")
