"""Baseline anomaly scorers: LOF, isolation forest, k-NN distance.

All three return one finite score per object, aligned to dataset row
order, with larger meaning more outlying.  Neighbor-based detectors reuse
the exact k-NN machinery (and its tie rule) from knngraph.
"""

from __future__ import annotations

import math

import numpy as np

from .dataset import Dataset
from .errors import ConfigError
from .knngraph import build

__all__ = ["lof_scores", "iforest_scores", "knn_dist_scores"]


def lof_scores(ds: Dataset, n_neighbors: int = 20) -> np.ndarray:
    """Local outlier factor: mean ratio of neighbor density to own density.

    Classical formulation: reachability distance reach(a, b) =
    max(kdist(b), d(a, b)), local reachability density lrd(a) =
    1 / mean_b reach(a, b), score(a) = mean_b lrd(b) / lrd(a).
    Mean reachability is floored at 1e-12 of the dataset diameter so
    coincident duplicates cannot produce infinities.
    """
    if not 1 <= n_neighbors <= ds.count - 1:
        raise ConfigError(
            f"n_neighbors must be in [1, {ds.count - 1}], got {n_neighbors}"
        )
    g = build(ds, n_neighbors)
    idx = g.neighbor_idx
    dist = g.neighbor_dist
    kdist = dist[:, -1]

    reach = np.maximum(kdist[idx], dist)
    mean_reach = reach.mean(axis=1)
    floor = 1e-12 * (ds.diameter() or 1.0)
    mean_reach = np.maximum(mean_reach, floor)
    # lrd(b)/lrd(a) == mean_reach(a)/mean_reach(b)
    return (mean_reach[:, None] / mean_reach[idx]).mean(axis=1)


def knn_dist_scores(ds: Dataset, k: int) -> np.ndarray:
    """Distance to the k-th nearest neighbor, the simplest global baseline."""
    if not 1 <= k <= ds.count - 1:
        raise ConfigError(f"k must be in [1, {ds.count - 1}], got {k}")
    return build(ds, k).neighbor_dist[:, -1].copy()


# --- isolation forest -------------------------------------------------------

_N_TREES = 100
_SUBSAMPLE = 256  # points per tree, capped at N

_HARMONIC_CACHE = [0.0]  # _HARMONIC_CACHE[m] == sum(1/i for i in 1..m)


def _harmonic(m: int) -> float:
    while len(_HARMONIC_CACHE) <= m:
        _HARMONIC_CACHE.append(_HARMONIC_CACHE[-1] + 1.0 / len(_HARMONIC_CACHE))
    return _HARMONIC_CACHE[m]


def average_path_length(n: int) -> float:
    """Expected unsuccessful-search path length c(n) = 2H(n-1) - 2(n-1)/n."""
    if n <= 1:
        return 0.0
    return 2.0 * _harmonic(n - 1) - 2.0 * (n - 1) / n


def _grow_and_score(
    pts: np.ndarray,
    sample: np.ndarray,
    reach: np.ndarray,
    depth: int,
    limit: int,
    rng: np.random.Generator,
    paths: np.ndarray,
) -> None:
    """Grow one isolation-tree node and score the points that reach it.

    ``sample`` indexes the tree's subsample at this node and ``reach`` every
    dataset point that gets here; one random test splits both.  At a leaf
    each reaching point's running path sum gains depth + c(leaf size).
    """
    size = len(sample)
    if size > 1 and depth < limit:
        sub = pts[sample]
        lo = sub.min(axis=0)
        hi = sub.max(axis=0)
        splittable = np.flatnonzero(hi > lo)
        if splittable.size:  # otherwise all remaining points coincide
            feat = splittable[rng.integers(splittable.size)]
            s = rng.uniform(lo[feat], hi[feat])
            left = sub[:, feat] < s
            reach_left = pts[reach, feat] < s
            for part, reach_part in ((left, reach_left), (~left, ~reach_left)):
                _grow_and_score(
                    pts, sample[part], reach[reach_part], depth + 1, limit, rng, paths
                )
            return
    paths[reach] += depth + average_path_length(size)


def iforest_scores(ds: Dataset, seed: int = 0) -> np.ndarray:
    """Isolation-forest scores 2^(-E[h] / c(subsample)), in (0, 1).

    100 trees, each grown on min(256, N) points drawn without replacement
    and never stored: every point is scored while its tree grows.
    Deterministic for a fixed seed: each tree draws from its own generator
    spawned from one seed sequence.
    """
    n = ds.count
    subsample = min(_SUBSAMPLE, n)
    pts = ds.points
    height_limit = math.ceil(math.log2(subsample))
    paths = np.zeros(n)
    all_points = np.arange(n)
    for child in np.random.SeedSequence(seed).spawn(_N_TREES):
        rng = np.random.default_rng(child)
        sample = rng.choice(n, size=subsample, replace=False)
        _grow_and_score(pts, sample, all_points, 0, height_limit, rng, paths)
    mean_path = paths / _N_TREES
    return 2.0 ** (-mean_path / average_path_length(subsample))
