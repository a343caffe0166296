"""Exact k-nearest-neighbor graph with negative-distance edge weights.

Neighbor lists are exact: identical to brute-force all-pairs ranking under
the tie rule "nondecreasing distance, equal distances by ascending object
index".  One KD-tree query supplies k+2 candidates per row; every stored
distance is recomputed with one canonical formula so results never depend
on tree internals.  Candidates are ranked as whole arrays, in blocks of
rows that bound the temporaries' memory, and a radius re-query resolves,
row by row, only the ties that cross the k-th position.

Under that total order a k-list is a prefix of every longer list.  The
graph built on a Dataset is therefore kept on that instance and serves
every later request for the same or a smaller k on it.  Sharing is per
instance, never by content: an equal Dataset built separately gets its own
graph.
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

# Rows ranked per block; caps the (rows, k+2, d) distance temporaries.
_BLOCK_ROWS = 4096


@dataclass(frozen=True, eq=False)
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


def _graph(neighbor_idx: np.ndarray, neighbor_dist: np.ndarray) -> KnnGraph:
    """Freeze neighbor lists and derive their deduplicated undirected edges."""
    n, k = neighbor_idx.shape
    neighbor_idx = np.ascontiguousarray(neighbor_idx)
    neighbor_dist = np.ascontiguousarray(neighbor_dist)
    src = np.repeat(np.arange(n, dtype=np.int64), k)
    dst = neighbor_idx.ravel()
    codes = np.minimum(src, dst) * n + np.maximum(src, dst)
    codes, first = np.unique(codes, return_index=True)
    edges = np.stack(np.divmod(codes, n), axis=1)
    # (a-b)^2 == (b-a)^2 exactly, so the directed distance is the edge's.
    weights = -neighbor_dist.ravel()[first] + 0.0

    for arr in (neighbor_idx, neighbor_dist, edges, weights):
        arr.setflags(write=False)
    return KnnGraph(k, neighbor_idx, neighbor_dist, edges, weights)


def build(ds: Dataset, k: int) -> KnnGraph:
    """Build the exact k-NN graph of a dataset.

    Requires 1 <= k <= N-1.  Deterministic for a fixed input.  The graph
    is kept on ds, so a later call on the same instance with this or a
    smaller k is answered from it without a new query.
    """
    n = ds.count
    if not 1 <= k <= n - 1:
        raise ConfigError(f"k must be in [1, {n - 1}], got {k}")
    kept = getattr(ds, "_knn", None)
    if kept is not None and k <= kept.k:
        if k == kept.k:
            return kept
        return _graph(kept.neighbor_idx[:, :k], kept.neighbor_dist[:, :k])

    pts = ds.points
    tree = cKDTree(pts)

    # k+2 candidates: self, the k neighbors, and one sentinel whose distance
    # tells us whether a tie could extend past what the query returned.
    kq = min(n, k + 2)
    _, cand = tree.query(pts, k=kq)
    cand = cand.reshape(n, kq)

    neighbor_idx = np.empty((n, k), dtype=np.int64)
    neighbor_dist = np.empty((n, k), dtype=np.float64)
    for lo in range(0, n, _BLOCK_ROWS):
        rows = np.arange(lo, min(lo + _BLOCK_ROWS, n))
        idx = cand[rows]
        d = _distances(pts[rows, None], pts[idx])
        # Self (absent when coincident duplicates displaced it) sorts last.
        is_self = idx == rows[:, None]
        order = np.lexsort((idx, d, is_self), axis=-1)
        idx = np.take_along_axis(idx, order, axis=-1)
        d = np.take_along_axis(d, order, axis=-1)
        n_valid = kq - is_self.sum(axis=1)
        horizon = d[np.arange(len(rows)), n_valid - 1]
        neighbor_idx[rows] = idx[:, :k]
        neighbor_dist[rows] = d[:, :k]
        # A tie reaching the candidate horizon: re-rank everything in range.
        tie = (n_valid > k) & (d[:, k - 1] >= horizon * (1.0 - _TIE_RTOL))
        for i in rows[tie]:
            idx_i, d_i = _rank_by_radius(tree, pts, i, neighbor_dist[i, k - 1])
            neighbor_idx[i] = idx_i[:k]
            neighbor_dist[i] = d_i[:k]

    graph = _graph(neighbor_idx, neighbor_dist)
    # Dataset is frozen and its points read-only, so the graph stays valid.
    object.__setattr__(ds, "_knn", graph)
    return graph
