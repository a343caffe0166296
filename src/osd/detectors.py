"""Baseline anomaly scorers: LOF, isolation forest, k-NN distance.

All three return one finite score per object, aligned to dataset row
order, with larger meaning more outlying.  Neighbor-based detectors reuse
the exact k-NN machinery (and its tie rule) from knngraph.
"""

from __future__ import annotations

import math

import numpy as np

from .dataset import Dataset
from .knngraph import build

__all__ = ["lof_scores", "iforest_scores", "knn_dist_scores"]


def lof_scores(ds: Dataset, n_neighbors: int = 20) -> np.ndarray:
    """Local outlier factor: mean ratio of neighbor density to own density.

    Classical formulation: reachability distance reach(a, b) =
    max(kdist(b), d(a, b)), local reachability density lrd(a) =
    1 / mean_b reach(a, b), score(a) = mean_b lrd(b) / lrd(a).
    Mean reachability is floored at 1e-12 of the dataset diameter so
    coincident duplicates cannot produce infinities.  build checks that
    1 <= n_neighbors <= N-1.
    """
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
    return build(ds, k).neighbor_dist[:, -1].copy()


# --- isolation forest -------------------------------------------------------

_N_TREES = 100
_SUBSAMPLE = 256  # points per tree, capped at N


def _path_lengths(n: int) -> np.ndarray:
    """c(m) = 2H(m-1) - 2(m-1)/m for m = 0..n, with c(0) = c(1) = 0.

    H is a running sum of 1/i, so it has the bits of a term-by-term loop.
    """
    c = np.zeros(n + 1)
    m = np.arange(2, n + 1)
    c[2:] = 2.0 * np.cumsum(1.0 / (m - 1)) - 2.0 * (m - 1) / m
    return c


def average_path_length(n: int) -> float:
    """Expected unsuccessful-search path length c(n) = 2H(n-1) - 2(n-1)/n."""
    return float(_path_lengths(n)[n]) if n > 1 else 0.0


def iforest_scores(ds: Dataset, seed: int = 0) -> np.ndarray:
    """Isolation-forest scores 2^(-E[h] / c(subsample)), in (0, 1).

    100 trees, each grown on min(256, N) points drawn without replacement
    and never stored: every point is scored while its tree grows.  A tree
    grows depth-first from an explicit stack of (subsample indices, indices
    of every dataset point reaching the node, depth), left child first, so
    its generator makes the same draws in the same order as a recursive
    build and the scores are the same.  At a leaf each reaching point's
    path sum gains depth + c(leaf size).  Deterministic for a fixed seed:
    each tree draws from its own generator spawned from one seed sequence.
    """
    n = ds.count
    subsample = min(_SUBSAMPLE, n)
    pts = ds.points
    height_limit = math.ceil(math.log2(subsample))
    c = _path_lengths(subsample)
    paths = np.zeros(n)
    all_points = np.arange(n)
    for child in np.random.SeedSequence(seed).spawn(_N_TREES):
        rng = np.random.default_rng(child)
        stack = [(rng.choice(n, size=subsample, replace=False), all_points, 0)]
        while stack:
            sample, reach, depth = stack.pop()
            if len(sample) > 1 and depth < height_limit:
                sub = pts[sample]
                lo = sub.min(axis=0)
                hi = sub.max(axis=0)
                splittable = np.flatnonzero(hi > lo)
                if splittable.size:  # otherwise all remaining points coincide
                    feat = splittable[rng.integers(splittable.size)]
                    s = rng.uniform(lo[feat], hi[feat])
                    left = sub[:, feat] < s
                    reach_left = pts[reach, feat] < s
                    stack.append((sample[~left], reach[~reach_left], depth + 1))
                    stack.append((sample[left], reach[reach_left], depth + 1))
                    continue
            paths[reach] += depth + c[len(sample)]
    mean_path = paths / _N_TREES
    return 2.0 ** (-mean_path / c[subsample])
