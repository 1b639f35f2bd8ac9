"""Covariate-balanced asset buckets via rerandomisation.

Candidate partitions are sampled uniformly-enough (shuffle + greedy fill
under the sector-distinctness constraint) and the one minimising a
Mahalanobis balance score is retained. Each candidate draws from its own
RNG substream keyed by (seed, candidate index), so batched and serial
candidate generation agree: ``rerandomize`` samples and scores candidates in
vectorised blocks, and ``sample_partition`` draws one partition through the
same bucket steps. The asset-by-asset fill they are tested against is
``tests/oracles.py``'s ``greedy_fill_loop``; ``_sample_block`` explains why
one step per bucket builds the partition that fill builds.
"""

from __future__ import annotations

import json
import math
import warnings
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .marketdata import TRADING_DAYS_PER_YEAR, PriceMatrix, correlation_matrix
from .rng import substream_state
from .stats import chi2_sf

COVARIATE_NAMES = ("ann_vol", "mean_corr", "log_return")

# Candidates sampled and scored together by ``rerandomize``; bounds its memory.
CANDIDATE_BLOCK = 1024

# Fresh shuffles a candidate may take before the layout counts as infeasible.
MAX_RESTARTS = 100


class InfeasibleConstraint(ValueError):
    """No sector-feasible partition could be constructed."""


@dataclass(frozen=True)
class CovariateTable:
    """Per-asset balance covariates: annualised volatility, mean pairwise
    correlation of daily log returns, and log total return."""

    assets: tuple[str, ...]
    values: np.ndarray  # (n_assets, 3), columns per COVARIATE_NAMES

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=float)
        if vals.shape != (len(self.assets), len(COVARIATE_NAMES)):
            raise ValueError("covariate table must be n_assets x 3")
        if not np.all(np.isfinite(vals)):
            raise ValueError("covariates must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "assets", tuple(self.assets))


def compute_covariates(pm: PriceMatrix) -> CovariateTable:
    """Balance covariates over the full panel.

    Volatility is the sample stdev of daily log returns times sqrt(252);
    correlation is each asset's mean pairwise correlation of log returns
    against all others (zero-variance series correlate 0 by convention);
    log total return is ln(p_T / p_1).
    """
    if pm.n_days < 2:
        raise ValueError("need at least 2 dates")
    logret = np.diff(np.log(pm.prices), axis=0)
    if len(logret) >= 2:
        vol = np.std(logret, axis=0, ddof=1) * math.sqrt(TRADING_DAYS_PER_YEAR)
    else:
        vol = np.zeros(pm.n_assets)
    corr = correlation_matrix(logret)
    n = pm.n_assets
    mean_corr = (corr.sum(axis=1) - 1.0) / (n - 1)
    log_total = np.log(pm.prices[-1] / pm.prices[0])
    return CovariateTable(pm.assets, np.column_stack([vol, mean_corr, log_total]))


@dataclass(frozen=True)
class Partition:
    """Disjoint equal-size buckets plus the balance score they achieved."""

    buckets: tuple[tuple[str, ...], ...]
    score: float
    seed: int
    n_candidates: int
    pinv_fallback: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "buckets", tuple(tuple(b) for b in self.buckets))
        flat = [a for b in self.buckets for a in b]
        if len(flat) != len(set(flat)):
            raise ValueError("buckets overlap")
        sizes = {len(b) for b in self.buckets}
        if len(sizes) > 1:
            raise ValueError("buckets must share one size")

    @property
    def bucket_ids(self) -> tuple[str, ...]:
        return tuple(f"B{i:02d}" for i in range(len(self.buckets)))

    def to_json(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "n_candidates": self.n_candidates,
                "pinv_fallback": self.pinv_fallback,
                "score": self.score,
                "buckets": [list(b) for b in self.buckets],
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "Partition":
        obj = json.loads(text)
        return cls(
            tuple(tuple(b) for b in obj["buckets"]),
            float(obj["score"]),
            int(obj["seed"]),
            int(obj["n_candidates"]),
            bool(obj.get("pinv_fallback", False)),
        )


def bucket_quadratic_forms(
    bucket_means: np.ndarray, universe_mean: np.ndarray, scaled_cov_inv: np.ndarray
) -> np.ndarray:
    """Per-bucket quadratic form (m_b - m)' S^-1 (m_b - m)."""
    d = bucket_means - universe_mean
    return np.einsum("bi,ij,bj->b", d, scaled_cov_inv, d)


def _scoring_matrix(cov: CovariateTable, bucket_size: int) -> tuple[np.ndarray, np.ndarray, bool]:
    """Universe mean and inverse of the covariance scaled by 1/bucket_size.

    A singular covariance falls back to the pseudo-inverse with a warning.
    """
    mean = cov.values.mean(axis=0)
    scaled = np.cov(cov.values.T, ddof=1) / bucket_size
    scaled = np.atleast_2d(scaled)
    fallback = False
    try:
        inv = np.linalg.inv(scaled)
    except np.linalg.LinAlgError:
        inv = np.linalg.pinv(scaled)
        fallback = True
    if not np.all(np.isfinite(inv)):
        inv = np.linalg.pinv(scaled)
        fallback = True
    if fallback:
        warnings.warn("singular covariate covariance; using pseudo-inverse", RuntimeWarning)
    return mean, inv, fallback


def _block_scores(
    members: np.ndarray, values: np.ndarray, universe_mean: np.ndarray, scaled_cov_inv: np.ndarray
) -> np.ndarray:
    """Balance score of each candidate in a (count, n_buckets, bucket_size)
    block of asset indices: the sum of its buckets' quadratic forms."""
    means = values[members].mean(axis=2)
    forms = bucket_quadratic_forms(means.reshape(-1, means.shape[-1]), universe_mean, scaled_cov_inv)
    return forms.reshape(members.shape[:2]).sum(axis=1)


def mahalanobis_score(partition: Partition, cov: CovariateTable) -> float:
    """Sum over buckets of the Mahalanobis form of the bucket covariate mean
    against the universe mean, with covariance scaled by 1/bucket_size.

    A singular covariance falls back to the pseudo-inverse with a warning.
    """
    pos = {a: i for i, a in enumerate(cov.assets)}
    members = np.array([[[pos[a] for a in b] for b in partition.buckets]], dtype=np.intp)
    mean, inv, _ = _scoring_matrix(cov, members.shape[2])
    return float(_block_scores(members, cov.values, mean, inv)[0])


def sample_partition(
    n_assets: int,
    sectors: Sequence[str],
    bucket_size: int,
    n_buckets: int,
    rng: np.random.Generator,
    sector_constraint: bool = True,
    max_restarts: int = MAX_RESTARTS,
) -> list[list[int]]:
    """One random sector-feasible partition (asset indices), or raise.

    Shuffles assets uniformly and fills buckets greedily, placing each asset
    in the first bucket with room whose sectors it does not collide with;
    dead ends restart with a fresh shuffle, capped at ``max_restarts``.

    This is the single-draw API: each shuffle is filled as a one-row block
    by the bucket steps of ``_bucket_positions``, with each asset its own
    sector when the constraint is off, so candidate ``i`` of ``rerandomize``
    equals this function on ``substream(seed, i)``.
    """
    labels = sectors[:n_assets] if sector_constraint else range(n_assets)
    codes = np.unique(list(labels), return_inverse=True)[1]
    # A bucket takes each asset from another sector: with fewer sectors than
    # slots, every shuffle fails unless there is no bucket to fill.
    fits = n_buckets == 0 or bucket_size <= len(np.bincount(codes))
    for _ in range(max_restarts):
        order = rng.permutation(n_assets)
        if fits:
            taken = _bucket_positions(order[None], codes, bucket_size, n_buckets)[0]
            if (taken < n_assets).all():
                return order[taken].tolist()
    raise InfeasibleConstraint(
        f"no sector-feasible partition after {max_restarts} restarts "
        f"({n_buckets} buckets of {bucket_size})"
    )


def _bucket_positions(
    orders: np.ndarray, sector_codes: np.ndarray, bucket_size: int, n_buckets: int
) -> np.ndarray:
    """Shuffle positions that each bucket of the sector-constrained greedy
    fill takes, one bucket step at a time (see ``_sample_block``), for a
    (rows, n_assets) block of shuffles. Returns (rows, n_buckets,
    bucket_size) positions in ascending order per bucket; a bucket that
    found too few sectors holds the sentinel position n_assets."""
    n_rows, n_assets = orders.shape
    sizes = np.bincount(sector_codes)
    n_sectors = len(sizes)
    # A row of ``queue`` lists each sector's shuffle positions in ascending
    # order, one sector after another, each followed by the sentinel.
    heads = np.concatenate(([0], np.cumsum(sizes + 1)[:-1]))
    listed = np.ones(n_assets + n_sectors, dtype=bool)
    listed[heads + sizes] = False
    # Sector at each shuffle position; the sentinel belongs to the extra
    # sector n_sectors, whose pointer nothing reads.
    sector = np.full((n_rows, n_assets + 1), n_sectors, dtype=np.min_scalar_type(n_sectors))
    sector[:, :n_assets] = sector_codes[orders]
    queue = np.full((n_rows, n_assets + n_sectors), n_assets, dtype=np.intp)
    queue[:, listed] = np.argsort(sector[:, :n_assets], axis=1, kind="stable")
    # Column in ``queue`` of each sector's first untaken asset.
    pointers = np.zeros((n_rows, n_sectors + 1), dtype=np.intp)
    pointers[:, :n_sectors] = heads
    row = np.arange(n_rows)[:, None]
    taken = np.empty((n_rows, n_buckets, bucket_size), dtype=np.intp)
    for b in range(n_buckets):
        nxt = queue[row, pointers[:, :n_sectors]]
        nxt.sort(axis=1)
        taken[:, b] = nxt[:, :bucket_size]
        pointers[row, sector[row, taken[:, b]]] += 1
    return taken


def _sample_block(
    seed: int,
    first: int,
    count: int,
    n_assets: int,
    sector_codes: np.ndarray | None,
    bucket_size: int,
    n_buckets: int,
) -> np.ndarray:
    """Candidates ``first`` to ``first + count - 1`` as asset indices of shape
    (count, n_buckets, bucket_size), each equal to ``sample_partition`` on
    ``substream(seed, candidate)``.

    The greedy first-fit is run one bucket at a time. Bucket b sees, in
    shuffle order, the assets that buckets 0 to b - 1 did not take, because
    an asset is offered to the buckets in order and stays with the first one
    that accepts it. Bucket b accepts an asset while it has room and lacks
    the asset's sector, so it takes the first free asset of each of the
    ``bucket_size`` sectors whose first free asset comes earliest, and holds
    them in shuffle order. Each sector's taken assets are thus always a
    prefix of that sector's assets in shuffle order, and one pointer per
    (candidate, sector) is all the state a bucket step needs. A candidate
    fails exactly when some bucket finds fewer than ``bucket_size`` sectors
    with a free asset left. With the sector constraint off (``sector_codes``
    None), bucket b takes shuffle positions b * bucket_size to
    (b + 1) * bucket_size - 1 and never fails.

    ``sector_codes`` holds an integer sector per asset; with it, the caller
    ensures ``bucket_size`` does not exceed the number of sectors. Each
    round gives every candidate still pending its next restart. One Philox
    draws every shuffle: it is set to the candidate's substream, or to where
    that stream stopped, before each draw, so each candidate draws its
    shuffles from its own substream in the serial order.
    """
    bits = np.random.Philox(0)
    shuffle = np.random.Generator(bits)
    streams = [substream_state(seed, first + j) for j in range(count)]
    members = np.empty((count, n_buckets, bucket_size), dtype=np.intp)
    pending = np.arange(count)
    for _ in range(MAX_RESTARTS):
        orders = np.empty((len(pending), n_assets), dtype=np.intp)
        for row, j in enumerate(pending):
            bits.state = streams[j]
            orders[row] = shuffle.permutation(n_assets)
            streams[j] = bits.state
        if sector_codes is None:
            members[pending] = orders[:, : n_buckets * bucket_size].reshape(-1, n_buckets, bucket_size)
            return members
        taken = _bucket_positions(orders, sector_codes, bucket_size, n_buckets)
        done = (taken < n_assets).all(axis=(1, 2))
        positions = taken[done].reshape(-1, n_buckets * bucket_size)
        members[pending[done]] = np.take_along_axis(orders[done], positions, axis=1).reshape(
            -1, n_buckets, bucket_size
        )
        pending = pending[~done]
        if len(pending) == 0:
            return members
    raise InfeasibleConstraint(
        f"no sector-feasible partition after {MAX_RESTARTS} restarts "
        f"({n_buckets} buckets of {bucket_size})"
    )


def rerandomize(
    cov: CovariateTable,
    sectors: Mapping[str, str],
    bucket_size: int,
    n_buckets: int,
    n_candidates: int,
    seed: int,
    sector_constraint: bool = True,
) -> Partition:
    """Draw candidate partitions and retain the one with the best balance.

    Candidate ``i`` is the partition ``sample_partition`` draws from
    ``substream(seed, i)``. Candidates are sampled and scored in blocks of
    ``CANDIDATE_BLOCK``, which bounds memory and leaves every draw and score
    unchanged. Deterministic for a fixed seed; the returned score is the
    minimum over all sampled candidates (ties keep the earliest candidate).
    """
    n = len(cov.assets)
    if bucket_size < 1 or n_buckets < 1:
        raise ValueError("need at least one bucket of at least one asset")
    if bucket_size * n_buckets > n:
        raise ValueError("bucket_size * n_buckets exceeds universe size")
    if n_candidates < 1:
        raise ValueError("need at least one candidate")
    codes = None
    if sector_constraint:
        labels, codes = np.unique([sectors[a] for a in cov.assets], return_inverse=True)
        if bucket_size > len(labels):
            raise InfeasibleConstraint(
                f"bucket size {bucket_size} exceeds {len(labels)} distinct sectors"
            )
    mean, inv, fallback = _scoring_matrix(cov, bucket_size)
    best_score = math.inf
    best_buckets: np.ndarray | None = None
    for first in range(0, n_candidates, CANDIDATE_BLOCK):
        count = min(CANDIDATE_BLOCK, n_candidates - first)
        members = _sample_block(seed, first, count, n, codes, bucket_size, n_buckets)
        scores = _block_scores(members, cov.values, mean, inv)
        # A NaN score never beats the running minimum, as in a serial scan.
        j = int(np.argmin(np.where(np.isnan(scores), np.inf, scores)))
        if scores[j] < best_score:
            best_score = float(scores[j])
            best_buckets = members[j]
    if best_buckets is None:
        raise ValueError("no candidate partition has a finite balance score")
    named = tuple(tuple(cov.assets[i] for i in b) for b in best_buckets)
    return Partition(named, best_score, seed, n_candidates, fallback)


@dataclass(frozen=True)
class SectorBalance:
    chi2: float
    p_value: float
    entropy_ratio: float
    df: int


def sector_balance(partition: Partition, sectors: Mapping[str, str]) -> SectorBalance:
    """Sector balance diagnostics for a partition.

    Chi-square compares the pooled sector counts of the partitioned assets
    against a uniform expectation, a goodness-of-fit test with n_sectors - 1
    degrees of freedom (at least 1); the entropy ratio is the Shannon
    entropy of the pooled sector distribution over ln(n_sectors).
    Sector labels come from the full universe map, so a sector the partition
    missed entirely shows up as a zero count.
    """
    assets = [a for b in partition.buckets for a in b]
    labels = sorted(set(sectors.values()))
    counts = np.array([sum(1 for a in assets if sectors[a] == s) for s in labels], float)
    expected = len(assets) / len(labels)
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    df = max(len(labels) - 1, 1)
    p = chi2_sf(chi2, df)
    probs = counts / counts.sum()
    live = probs > 0
    entropy = float(-np.sum(probs[live] * np.log(probs[live])))
    ratio = entropy / math.log(len(labels)) if len(labels) > 1 else 0.0
    return SectorBalance(chi2, p, ratio, df)
