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
_BLOCK = 1 << 14  # (tree, point) pairs descended at once; bounds the memory


def _path_lengths(n: int) -> np.ndarray:
    """c(m) = 2H(m-1) - 2(m-1)/m for m = 0..n, with c(0) = c(1) = 0.

    H is a running sum of 1/i, so it has the bits of a term-by-term loop.
    """
    c = np.zeros(n + 1)
    m = np.arange(2, n + 1)
    c[2:] = 2.0 * np.cumsum(1.0 / (m - 1)) - 2.0 * (m - 1) / m
    return c


def _grow_forest(
    pts: np.ndarray, seed: int, height_limit: int, c: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Grow the trees in lockstep into one flat node table.

    c holds c(m) for m up to the subsample size.  Nodes are numbered in
    the order they are visited, so tree t's root is node t.  Returns
    (feature, cut, child): node i sends point x on to child[2i] if
    x[feature[i]] < cut[i], else to child[2i + 1].  A leaf is both its own
    children, and its cut is its path length depth + c(leaf size).
    """
    n = len(pts)
    subsample = len(c) - 1
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(_N_TREES)]
    # Tree t's subsample is block t of `order`.  A node owns a slice of its
    # tree's block, and splitting it reorders the slice into left | right.
    order = np.concatenate([rng.choice(n, size=subsample, replace=False) for rng in rngs])

    # stack[t, i] is a pending node of tree t: (its slot in child, start in
    # order, size, depth).  A depth-first stack never holds more than
    # height_limit + 1 nodes.  Roots have no slot.
    stack = np.zeros((_N_TREES, height_limit + 1, 4), dtype=np.intp)
    stack[:, 0, 1] = np.arange(_N_TREES) * subsample
    stack[:, 0, 2] = subsample
    top = np.ones(_N_TREES, dtype=np.intp)
    n_nodes = 0
    visited = []  # per step: (feature, cut, slot) of every popped node
    while (live := np.flatnonzero(top)).size:
        top[live] -= 1
        slot, start, size, depth = stack[live, top[live]].T
        feature = np.zeros(live.size, dtype=np.intp)
        cut = depth + c[size]
        grow = np.flatnonzero((size > 1) & (depth < height_limit))
        if grow.size:
            sizes = size[grow]
            offsets = np.cumsum(sizes) - sizes
            pos = np.repeat(start[grow] - offsets, sizes) + np.arange(offsets[-1] + sizes[-1])
            sample = order[pos]
            sub = pts.take(sample, axis=0)
            lo = np.minimum.reduceat(sub, offsets)
            hi = np.maximum.reduceat(sub, offsets)
            del sub  # a step's widest array; the split reads one column of it
            splittable = hi > lo
            counts = splittable.sum(axis=1)
            split = np.flatnonzero(counts)  # otherwise all of the node's points coincide
            if split.size:
                owners = live[grow[split]].tolist()
                j = np.array([rngs[t].integers(k) for t, k in zip(owners, counts[split].tolist())])
                u = np.array([rngs[t].random() for t in owners])
                feat = (np.cumsum(splittable[split], axis=1) <= j[:, None]).sum(axis=1)
                low = lo[split, feat]
                with np.errstate(over="ignore"):  # reported below, as uniform does
                    span = hi[split, feat] - low
                if not np.isfinite(span).all():
                    raise OverflowError("Range exceeds valid bounds")
                # a node that does not split keeps every point on side 0
                edge = np.full(grow.size, np.inf)
                edge[split] = low + span * u
                at = grow[split]
                feature[at] = feat
                cut[at] = edge[split]
                side = pts[sample, np.repeat(feature[grow], sizes)] >= np.repeat(edge, sizes)
                # keys stay below 2 * _N_TREES; int16 keys sort by radix
                keys = np.repeat(np.arange(0, 2 * grow.size, 2, dtype=np.int16), sizes) + side
                order[pos] = sample[np.argsort(keys, kind="stable")]
                n_left = sizes[split] - np.add.reduceat(side, offsets)[split]
                owner = live[at]
                below = top[owner]
                slots = 2 * (n_nodes + at)
                stack[owner, below] = np.column_stack(
                    [slots + 1, start[at] + n_left, sizes[split] - n_left, depth[at] + 1])
                stack[owner, below + 1] = np.column_stack(
                    [slots, start[at], n_left, depth[at] + 1])
                top[owner] += 2
        visited.append((feature, cut, slot.copy()))  # a view would keep all four columns
        n_nodes += live.size

    feature, cut, slot = (np.concatenate(col) for col in zip(*visited))
    child = np.repeat(np.arange(n_nodes), 2)
    child[slot[_N_TREES:]] = np.arange(_N_TREES, n_nodes)
    return feature, cut, child


def iforest_scores(ds: Dataset, seed: int = 0) -> np.ndarray:
    """Isolation-forest scores 2^(-E[h] / c(subsample)), in (0, 1).

    100 trees, each grown on min(256, N) points drawn without replacement.
    Each tree draws from its own generator, spawned from one seed sequence,
    so the scores are deterministic for a fixed seed.  The draws pick rows
    by index, so the scores are not permutation-equivariant: shuffling the
    rows changes which points each tree samples.

    The trees grow in lockstep.  Every tree keeps its own depth-first
    stack, left child on top, and each step pops the next node of every
    live tree.  The popped nodes' subsamples are concatenated, and their
    per-node bounds, splittable features, thresholds and splits are
    whole-array operations.  Only the two draws of a splitting node,
    integers(#splittable) and random(), are made one node at a time, from
    that tree's generator.  Since a tree only ever draws for its own nodes,
    in its own depth-first order, every generator makes the same draws in
    the same order as a tree grown recursively on its own, and the trees
    are the same.  The threshold lo + (hi - lo) * random() is how
    uniform(lo, hi) computes it, bit for bit; like uniform, a range beyond
    the float range raises OverflowError.

    All trees then descend together through one flat node table, over
    blocks of points that bound the memory.  Each point's path sum adds its
    leaf values, depth + c(leaf size), one tree at a time in tree order,
    as a tree-by-tree build does: a pairwise sum over the trees would round
    differently.
    """
    n, d = ds.points.shape
    flat = ds.points.ravel()
    subsample = min(_SUBSAMPLE, n)
    height_limit = math.ceil(math.log2(subsample))
    c = _path_lengths(subsample)
    feature, cut, child = _grow_forest(ds.points, seed, height_limit, c)
    roots = np.arange(_N_TREES)[:, None]
    paths = np.zeros(n)
    block = max(1, _BLOCK // _N_TREES)
    for first in range(0, n, block):
        last = min(first + block, n)
        row_starts = np.arange(first * d, last * d, d)
        at = np.repeat(roots, last - first, axis=1)  # (trees, points) block
        for _ in range(height_limit):
            x = flat.take(row_starts + feature.take(at))
            at = child.take(2 * at + (x >= cut.take(at)))
        for leaf in cut.take(at):  # one tree at a time, in tree order
            paths[first:last] += leaf
    mean_path = paths / _N_TREES
    return 2.0 ** (-mean_path / c[subsample])
