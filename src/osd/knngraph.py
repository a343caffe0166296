"""Exact k-nearest-neighbor graph: ordered neighbor lists per object.

Neighbor lists are exact: identical to brute-force all-pairs ranking under
the tie rule "nondecreasing distance, equal distances by ascending object
index".  Byte-identical rows are collapsed into distinct points, the only
ones in the KD-tree.  Each candidate point a row queries expands into at
most k+1 of its lowest-index copies, all a k-list can use.  Ranking sees
the points times 2^-e, with the largest |coordinate| in [0.5, 1), so no
square overflows; every distance is recomputed there by one canonical
formula, not by the tree, and scaled back by 2^e.  Candidates are ranked as
whole arrays in row blocks that bound memory; rows whose k-th distance ties
the candidate horizon query again, as blocks, with twice the candidates.
No row is re-ranked on its own, so duplicated rows cost linear time.  A
pass of several blocks ranks them on one thread per CPU in the process's
affinity mask, the calling thread among them, sharing one block's memory
budget.  Each row's list depends only on that row and each block writes
only its own rows, so the output cannot depend on block size or scheduling.

Under that total order a k-list is a prefix of every longer list.  The
graph built on a Dataset is therefore kept on that instance and serves
every later request for the same or a smaller k on it.  Sharing is per
instance, never by content: an equal Dataset built separately gets its own
graph.  The undirected edges, weighted by negative distance, are derived
from the lists on first read, so graphs nobody reads edges of never pay.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dataset import Dataset, _unit_scale
from .errors import _integer

__all__ = ["KnnGraph", "build"]

# Relative slack for detecting ties that a fixed-size candidate query
# cannot rule out; generous versus float64 rounding, tiny versus data.
_TIE_RTOL = 1e-12

# Rows in flight at k+2 candidates of one copy each, split across the
# workers; wider lists get fewer.
_BLOCK_ROWS = 4096

# One worker per CPU this process may run on.
try:
    _WORKERS = len(os.sched_getaffinity(0))
except AttributeError:  # no affinity masks on this platform
    _WORKERS = os.cpu_count() or 1


@dataclass(frozen=True, eq=False)
class KnnGraph:
    """k-NN graph: per-object ordered neighbor lists plus undirected edges.

    neighbor_idx[i] holds the k nearest objects of i (ascending distance,
    ties by ascending index); neighbor_dist matches elementwise.  edges is
    the deduplicated union over all directed (i -> neighbor) pairs, stored
    once with i < j; edge_weights[e] = -distance(i, j) <= 0.  Both are
    derived from the lists on first read and kept; every array is read-only.
    """

    neighbor_idx: np.ndarray
    neighbor_dist: np.ndarray

    @property
    def k(self) -> int:
        return self.neighbor_idx.shape[1]

    @property
    def n_objects(self) -> int:
        return self.neighbor_idx.shape[0]

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def edges(self) -> np.ndarray:
        return self._undirected[0]

    @property
    def edge_weights(self) -> np.ndarray:
        return self._undirected[1]

    @cached_property
    def _undirected(self) -> tuple[np.ndarray, np.ndarray]:
        n = self.n_objects
        src, dst = np.arange(n)[:, None], self.neighbor_idx
        codes = np.minimum(src, dst) * n + np.maximum(src, dst)
        codes, first = np.unique(codes, return_index=True)  # flattened row-major
        edges = np.stack(np.divmod(codes, n), axis=1)
        # (a-b)^2 == (b-a)^2 exactly, so the directed distance is the edge's.
        weights = -self.neighbor_dist.ravel()[first] + 0.0
        edges.setflags(write=False)
        weights.setflags(write=False)
        return edges, weights


def _distances(point: np.ndarray, others: np.ndarray) -> np.ndarray:
    """Canonical Euclidean distance used everywhere in this module."""
    diff = others - point
    return np.sqrt(np.sum(diff * diff, axis=-1))


def build(ds: Dataset, k: int) -> KnnGraph:
    """Build the exact k-NN graph of a dataset.

    Requires an integer k with 1 <= k <= N-1.  Deterministic for a fixed
    input.  The graph is kept on ds, so a later call on the same instance
    with this or a smaller k is answered from it without a new query.
    """
    n = ds.count
    k = _integer("k", k, 1, n - 1)
    kept = getattr(ds, "_knn", None)
    if kept is not None and k <= kept.k:
        if k == kept.k:
            return kept
        return KnnGraph(kept.neighbor_idx[:, :k], kept.neighbor_dist[:, :k])
    # Imported on first use: at module level they took about half a second
    # (scipy.spatial) and 6 ms of `import osd`, paid also by commands that
    # never build a graph.
    from concurrent.futures import ThreadPoolExecutor

    from scipy.spatial import cKDTree

    pts = ds.points
    # Collapse byte-identical rows into distinct points, renumbered by first
    # appearance (the tree answers row-ordered queries faster that way).
    keys = pts.view(np.dtype((np.void, pts.itemsize * ds.dim))).ravel()
    _, first, group, copies = np.unique(
        keys, return_index=True, return_inverse=True, return_counts=True
    )
    by_first = np.argsort(first)
    (distinct, e), copies = _unit_scale(pts[first[by_first]]), copies[by_first]
    # members[start[p] : start[p] + copies[p]] are point p's rows, ascending.
    members = np.argsort(np.argsort(by_first)[group], kind="stable")
    start = np.cumsum(copies) - copies
    m, tree = len(distinct), cKDTree(distinct)
    reps_max = min(k + 1, int(copies.max()))
    neighbor_idx, neighbor_dist = np.empty((n, k), np.int64), np.empty((n, k))

    def rank(rows: np.ndarray, kq: int) -> np.ndarray:
        """Write the lists of rows from kq candidates; return rows to widen."""
        at = np.ldexp(pts[rows], -e)  # the rows at the scale of distinct
        cand = tree.query(at, k=kq)[1].reshape(len(rows), kq)
        dp = _distances(at[:, None], distinct[cand])
        # A list uses <= k+1 copies of a point; absent copies sort as inf.
        nth = np.arange(min(k + 1, int(copies[cand].max())))
        idx = members.take(start[cand][..., None] + nth, mode="clip")
        d = np.where(nth < copies[cand][..., None], dp[..., None], np.inf)
        idx, d = idx.reshape(len(rows), -1), d.reshape(len(rows), -1)
        # Self sorts last, so it never enters a list.
        order = np.lexsort((idx, d, idx == rows[:, None]), axis=-1)[:, :k]
        neighbor_idx[rows] = np.take_along_axis(idx, order, axis=-1)
        neighbor_dist[rows] = np.take_along_axis(d, order, axis=-1)
        # A tie reaching the candidate horizon: widen, unless all is in.
        tie = neighbor_dist[rows, -1] >= dp.max(axis=1) * (1.0 - _TIE_RTOL)
        return rows[tie & (kq < m)]

    # First k+2 points: self, the k neighbors and a sentinel for the horizon.
    todo, kq = np.arange(n), min(m, k + 2)
    while todo.size:
        step = max(1, _BLOCK_ROWS // _WORKERS * (k + 2) // (kq * reps_max))
        blocks = [todo[lo : lo + step] for lo in range(0, todo.size, step)]
        flagged = [None] * len(blocks)  # by block, so the next pass keeps row order
        queue = iter(range(len(blocks)))  # next() on it is atomic under the GIL

        def drain() -> None:  # on the calling thread, beside any pool threads
            for b in queue:
                flagged[b] = rank(blocks[b], kq)

        if len(blocks) == 1 or _WORKERS == 1:
            drain()
        else:
            with ThreadPoolExecutor(_WORKERS - 1) as pool:
                helpers = [pool.submit(drain) for _ in range(_WORKERS - 1)]
                drain()
            for helper in helpers:  # re-raises a pool thread's error
                helper.result()
        todo, kq = np.concatenate(flagged), min(m, 2 * kq)

    np.ldexp(neighbor_dist, e, out=neighbor_dist)
    neighbor_idx.setflags(write=False)
    neighbor_dist.setflags(write=False)
    graph = KnnGraph(neighbor_idx, neighbor_dist)
    # Dataset is frozen and its points read-only, so the graph stays valid.
    object.__setattr__(ds, "_knn", graph)
    return graph
