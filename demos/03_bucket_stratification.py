"""Covariate-balanced buckets via rerandomisation.

Builds a 36-stock universe over six sectors, samples candidate partitions,
keeps the best-balanced one, and prints the balance diagnostics alongside a
naive single-draw baseline.
"""

import numpy as np

from crossbt import SynthSpec, generate_synthetic
from crossbt.buckets import (
    Partition,
    compute_covariates,
    mahalanobis_score,
    rerandomize,
    sample_partition,
    sector_balance,
)

panel = generate_synthetic(
    SynthSpec(n_assets=36, n_days=504, seed=1, annual_drift=0.05, annual_vol=0.3, n_sectors=6)
)
cov = compute_covariates(panel)
print("covariates per asset: annualised vol, mean pairwise corr, log total return")
print(f"first asset: {np.round(cov.values[0], 4)}")

naive_buckets = sample_partition(36, [panel.sectors[a] for a in cov.assets], 6, 6, 123)
naive = Partition(
    tuple(tuple(cov.assets[i] for i in b) for b in naive_buckets), 0.0, 123, 1
)
print(f"\nsingle random draw balance score : {mahalanobis_score(naive, cov):8.3f}")

part = rerandomize(cov, panel.sectors, bucket_size=6, n_buckets=6,
                   n_candidates=20_000, seed=123)
print(f"best of 20,000 candidates        : {part.score:8.3f}")

balance = sector_balance(part, panel.sectors)
print("\nsector balance of the selected partition:")
print(f"  chi2          = {balance.chi2:.4f}  (p = {balance.p_value:.4f})")
print(f"  entropy ratio = {balance.entropy_ratio:.6f}")
for bucket_id, members in zip(part.bucket_ids, part.buckets):
    sectors = sorted({panel.sectors[a] for a in members})
    print(f"  {bucket_id}: {', '.join(members)}  [{len(sectors)} sectors]")
