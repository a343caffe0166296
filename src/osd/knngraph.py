"""Exact k-nearest-neighbor graph with negative-distance edge weights.

Neighbor lists are exact: identical to brute-force all-pairs ranking under
the tie rule "nondecreasing distance, equal distances by ascending object
index".  A KD-tree supplies candidates; every stored distance is recomputed
with one canonical formula so results never depend on tree internals, and a
radius re-query resolves any tie that crosses the k-th position.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .dataset import Dataset
from .errors import ConfigError

__all__ = ["KnnGraph", "build"]

# Relative slack for detecting ties that a fixed-size candidate query
# cannot rule out; generous versus float64 rounding, tiny versus data.
_TIE_RTOL = 1e-12


@dataclass(frozen=True)
class KnnGraph:
    """k-NN graph: per-object ordered neighbor lists plus undirected edges.

    neighbor_idx[i] holds the k nearest objects of i (ascending distance,
    ties by ascending index); neighbor_dist matches elementwise.  edges is
    the deduplicated union over all directed (i -> neighbor) pairs, stored
    once with i < j; edge_weights[e] = -distance(i, j) <= 0.
    """

    k: int
    neighbor_idx: np.ndarray
    neighbor_dist: np.ndarray
    edges: np.ndarray
    edge_weights: np.ndarray

    @property
    def n_objects(self) -> int:
        return self.neighbor_idx.shape[0]

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]


def _distances(point: np.ndarray, others: np.ndarray) -> np.ndarray:
    """Canonical Euclidean distance used everywhere in this module."""
    diff = others - point
    return np.sqrt(np.sum(diff * diff, axis=-1))


def _rank_by_radius(
    tree: cKDTree, pts: np.ndarray, i: int, radius: float
) -> tuple[np.ndarray, np.ndarray]:
    """All non-self neighbors within radius, sorted by (distance, index)."""
    cand = np.asarray(tree.query_ball_point(pts[i], radius * (1.0 + 1e-9)))
    cand = cand[cand != i]
    d = _distances(pts[i], pts[cand])
    order = np.lexsort((cand, d))
    return cand[order], d[order]


def build(ds: Dataset, k: int) -> KnnGraph:
    """Build the exact k-NN graph of a dataset.

    Requires 1 <= k <= N-1.  Deterministic for a fixed input.
    """
    n = ds.count
    if not 1 <= k <= n - 1:
        raise ConfigError(f"k must be in [1, {n - 1}], got {k}")
    pts = ds.points
    tree = cKDTree(pts)

    # k+2 candidates: self, the k neighbors, and one sentinel whose distance
    # tells us whether a tie could extend past what the query returned.
    kq = min(n, k + 2)
    _, cand = tree.query(pts, k=kq)
    cand = cand.reshape(n, kq)

    neighbor_idx = np.empty((n, k), dtype=np.int64)
    neighbor_dist = np.empty((n, k), dtype=np.float64)
    for i in range(n):
        idx = cand[i][cand[i] != i]
        d = _distances(pts[i], pts[idx])
        order = np.lexsort((idx, d))
        idx, d = idx[order], d[order]
        if len(idx) > k and d[k - 1] >= d[-1] * (1.0 - _TIE_RTOL):
            # Tie (or the self point displaced by coincident duplicates)
            # reaches the candidate horizon; re-rank everything in range.
            idx, d = _rank_by_radius(tree, pts, i, d[k - 1])
        neighbor_idx[i] = idx[:k]
        neighbor_dist[i] = d[:k]

    src = np.repeat(np.arange(n, dtype=np.int64), k)
    dst = neighbor_idx.ravel()
    pairs = np.stack([np.minimum(src, dst), np.maximum(src, dst)], axis=1)
    edges = np.unique(pairs, axis=0)
    weights = -_distances(pts[edges[:, 0]], pts[edges[:, 1]]) + 0.0

    for arr in (neighbor_idx, neighbor_dist, edges, weights):
        arr.setflags(write=False)
    return KnnGraph(k, neighbor_idx, neighbor_dist, edges, weights)

