"""Baseline anomaly scorers: LOF, isolation forest, k-NN distance.

All three return one finite score per object, aligned to dataset row
order, with larger meaning more outlying.  Neighbor-based detectors reuse
the exact k-NN machinery (and its tie rule) from knngraph.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .dataset import Dataset, _unit_scale
from .errors import _integer
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
    # LOF is scale-free; at this scale the floor cannot round as a subnormal
    mean_reach, e = _unit_scale(reach.mean(axis=1))
    mean_reach = np.maximum(mean_reach, 1e-12 * np.ldexp(ds.diameter() or 1.0, -e))
    # lrd(b)/lrd(a) == mean_reach(a)/mean_reach(b)
    return (mean_reach[:, None] / mean_reach[idx]).mean(axis=1)


def knn_dist_scores(ds: Dataset, k: int) -> np.ndarray:
    """Distance to the k-th nearest neighbor, the simplest global baseline."""
    return build(ds, k).neighbor_dist[:, -1].copy()


# --- isolation forest -------------------------------------------------------

_N_TREES = 100
_SUBSAMPLE = 256  # points per tree, capped at N
_BLOCK = 1 << 14  # (tree, point) pairs descended at once; bounds the memory


def _path_lengths(n: int) -> np.ndarray:
    """c(m) = 2H(m-1) - 2(m-1)/m for m = 0..n, with c(0) = c(1) = 0.

    H is a running sum of 1/i, so it has the bits of a term-by-term loop.
    """
    c = np.zeros(n + 1)
    m = np.arange(2, n + 1)
    c[2:] = 2.0 * np.cumsum(1.0 / (m - 1)) - 2.0 * (m - 1) / m
    return c


@functools.lru_cache(maxsize=1)  # evaluate's before and after calls share one set
def _draws(n: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (order, u, c) for _grow_forest: a pure function of (n, seed)."""
    subsample = min(_SUBSAMPLE, n)
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(_N_TREES)]
    order = np.stack([rng.choice(n, size=subsample, replace=False) for rng in rngs])
    u = np.stack([rng.random((2 ** math.ceil(math.log2(subsample)) - 1, 2)) for rng in rngs])
    draws = order, u, _path_lengths(subsample)
    for a in draws:
        a.setflags(write=False)
    return draws


@np.errstate(over="ignore")  # only span can overflow, and it is checked
def _grow_forest(
    pts: np.ndarray, order: np.ndarray, u: np.ndarray, c: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Grow every tree of the forest level by level into one flat heap.

    order[t] holds tree t's subsample rows and u[t, i] the uniform pair of its
    heap node i; c holds c(m) for m up to the subsample size.  Each tree has
    2^(h+1) - 1 heap nodes for height limit h, node i's children are 2i + 1
    and 2i + 2, and tree t's root is node t * (2^(h+1) - 1).  A node at a
    depth below h whose subsample has m > 0 splittable features splits on
    splittable feature number min(floor(u1 * m), m - 1) at lo + span * u2.

    Returns (feature, cut): node i sends x to 2i + 2 if x[feature[i]] >=
    cut[i], else to 2i + 1.  A node that does not split keeps cut +inf and so
    passes every point left: a leaf's path length depth + c(leaf size) sits
    at its leftmost bottom-level node.  An empty node is a leaf of size 0.
    """
    n_trees, subsample = order.shape
    height_limit = u.shape[1].bit_length()
    width = 2 * u.shape[1] + 1
    feature = np.zeros(n_trees * width, dtype=np.intp)
    cut = np.full(n_trees * width, np.inf)
    # One level's nodes and sizes; rows lists their points node by node, a slice each.
    at = np.arange(0, n_trees * width, width)
    size = np.full(n_trees, subsample)
    rows = order.ravel()
    cols = np.ascontiguousarray(pts.T)  # a column gather and its reduceat run along memory
    for level in range(height_limit + 1):
        # Its path length if a leaf, on its leftmost bottom node (a left child overwrites it)
        cut[at + (at % width + 1) * (2 ** (height_limit - level) - 1)] = level + c[size]
        if level == height_limit:
            break
        at, size = at[size > 0], size[size > 0]  # an empty child is a leaf
        sub = cols.take(rows, axis=1)
        starts = np.cumsum(size) - size
        lo = np.minimum.reduceat(sub, starts, axis=1)
        hi = np.maximum.reduceat(sub, starts, axis=1)
        splittable = hi > lo
        m = splittable.sum(axis=0)
        split = np.flatnonzero(m)  # a node whose points coincide is a leaf
        if not split.size:
            break
        parent = at[split]
        u1, u2 = u[parent // width, parent % width].T
        j = np.minimum((u1 * m[split]).astype(np.intp), m[split] - 1)
        feat = (np.cumsum(splittable[:, split], axis=0) <= j).sum(axis=0)
        low = lo[feat, split]
        span = hi[feat, split] - low
        if not np.isfinite(span).all():  # as Generator.uniform refuses it
            raise OverflowError("Range exceeds valid bounds")
        edge = low + span * u2
        feature[parent] = feat
        cut[parent] = edge
        # Points of splitting nodes move on: left children, then right ones, in node order.
        kept = np.flatnonzero(np.repeat(m > 0, size))
        moving = size[split]
        right = (sub.ravel().take(np.repeat(feat * rows.size, moving) + kept)
                 >= np.repeat(edge, moving))
        del sub  # a level's widest array
        rows = rows[kept[np.argsort(right, kind="stable")]]
        n_right = np.add.reduceat(right, np.cumsum(moving) - moving)
        kids = parent + parent % width + 1
        at = np.concatenate([kids, kids + 1])
        size = np.concatenate([moving - n_right, n_right])
    return feature, cut


def iforest_scores(ds: Dataset, *, seed: int = 0) -> np.ndarray:
    """Isolation-forest scores 2^(-E[h] / c(subsample)), in (0, 1).

    100 trees, each grown to height limit h = ceil(log2(subsample)) on
    subsample = min(256, N) points drawn without replacement.  Tree t's
    generator, spawned from SeedSequence(seed), draws choice(N, subsample,
    replace=False) and then random((2^h - 1, 2)): one uniform pair per heap
    node that may split (see _grow_forest).  The draws depend on (N, seed)
    alone, so consecutive calls with the same pair share one cached set
    (about 0.6 MB).  They pick rows by index, so the scores are not
    permutation-equivariant.  A seed other than an integer >= 0 raises
    ConfigError; like Generator.uniform, a span beyond the float range
    raises OverflowError.

    All points take all h steps together through one flat heap, in blocks
    that bound the memory, to the bottom level where the leaf values sit.
    Path sums add them one tree at a time in tree order, as a tree-by-tree
    build does: a pairwise sum over the trees would round differently.
    """
    n, d = ds.points.shape
    order, u, c = _draws(n, _integer("seed", seed, 0))
    feature, cut = _grow_forest(ds.points, order, u, c)
    flat = ds.points.ravel()
    paths = np.empty(n)
    roots = np.arange(0, len(feature), len(feature) // _N_TREES)[:, None]
    shift = 1 - roots  # 2 * at + shift is at's left child within its tree
    block = max(1, _BLOCK // _N_TREES)
    for first in range(0, n, block):
        last = min(first + block, n)
        row_starts = np.arange(first * d, last * d, d)
        at = np.repeat(roots, last - first, axis=1)  # (trees, points) block
        for _ in range(u.shape[1].bit_length()):  # the height limit
            x = flat.take(row_starts + feature.take(at))
            at = 2 * at + shift + (x >= cut.take(at))
        paths[first:last] = cut.take(at).cumsum(axis=0)[-1]  # one tree at a time, in tree order
    return 2.0 ** (-(paths / _N_TREES) / c[-1])
