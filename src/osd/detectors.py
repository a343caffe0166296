"""Baseline anomaly scorers: LOF, isolation forest, k-NN distance.

All three return one finite score per object, aligned to dataset row
order, with larger meaning more outlying.  Neighbor-based detectors reuse
the exact k-NN machinery (and its tie rule) from knngraph.
"""

from __future__ import annotations

import math

import numpy as np

from .dataset import Dataset
from .errors import DataError
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


class _Draws:
    """Each tree's integers(m) and random() draws, decoded from raw words.

    The decoding replays numpy 2.x's Generator on PCG64, bit for bit.
    random() is (w >> 11) * 2^-53 of the next 64-bit word w.  integers(m)
    draws nothing at m = 1.  Otherwise it takes a 32-bit half: the high half
    that the last such draw left pending, or else the low half of the next
    word, whose high half is then pending.  Lemire's method maps the half
    to prod >> 32, where prod = half * m, and draws again while
    prod mod 2^32 < (2^32 - m) mod m.  random() leaves a pending half
    alone.  Tree t of group g reads generator t's words with a cursor and a
    pending half of its own, so every group's tree t makes the draws of one
    generator.  random_raw appends a block when some cursor reaches the end
    and so continues each stream exactly.
    """

    def __init__(self, rngs: list[np.random.Generator], block: int, groups: int):
        self.rngs = rngs
        self.words = np.stack([rng.bit_generator.random_raw(block) for rng in rngs])
        self.block = block
        self.cursor = np.zeros(groups * len(rngs), dtype=np.intp)
        state = [rng.bit_generator.state for rng in rngs]
        self.pending = np.tile([s["has_uint32"] == 1 for s in state], groups)
        self.half = np.tile(np.array([s["uinteger"] for s in state], dtype=np.uint64), groups)

    def _next(self, trees: np.ndarray) -> np.ndarray:
        if self.cursor.max() == self.words.shape[1]:  # rare: a stream has read every word
            more = [rng.bit_generator.random_raw(self.block) for rng in self.rngs]
            self.words = np.hstack([self.words, more])
        word = self.words[trees % len(self.rngs), self.cursor[trees]]
        self.cursor[trees] += 1
        return word

    def pairs(self, trees: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """integers(m[i]), then random(), from distinct trees[i]'s generators."""
        j = np.zeros(trees.size, dtype=np.intp)
        todo = np.flatnonzero(m > 1)
        while todo.size:  # a rejection draws again, which is rare
            t, k = trees[todo], m[todo].astype(np.uint64)
            half = self.half[t]
            fresh = ~self.pending[t]
            word = self._next(t[fresh])
            half[fresh] = word & 0xFFFFFFFF
            self.half[t[fresh]] = word >> 32
            self.pending[t] = fresh
            prod = half * k
            j[todo] = prod >> 32
            todo = todo[(prod & 0xFFFFFFFF) < (2**32 - k) % k]
        return j, (self._next(trees) >> 11) * 2.0**-53


@np.errstate(over="ignore")  # only span can overflow, and it is checked
def _grow_forest(
    pts: np.ndarray, groups: int, seed: int, height_limit: int, c: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Grow groups x 100 trees in lockstep into one flat node table.

    pts stacks the groups' point sets, N rows each.  Tree g * 100 + t
    samples the rows of tree t, offset by g * N, and makes tree t's draws
    (see _Draws), so each group grows the forest of its own point set.

    Every tree keeps a depth-first stack of the nodes that may split, left
    child on top, and each step pops the next node of every live tree.  The
    popped nodes' subsamples are concatenated, and their bounds, splittable
    features, draws, thresholds and splits are whole-array operations over
    at most 100 subsamples (see _steps).  A child of at most one point, or
    at the height limit, is a leaf: it draws nothing, so it goes into the
    table when its parent splits and is never pushed.  c holds c(m) for m
    up to the subsample size.

    Returns (feature, cut, child): node i sends point x on to child[2i] if
    x[feature[i]] < cut[i], else to child[2i + 1].  Tree t's root is node t.
    A leaf is both its own children, and its cut is its path length
    depth + c(leaf size).
    """
    n = len(pts) // groups
    subsample = len(c) - 1
    n_trees = groups * _N_TREES
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(_N_TREES)]
    # Tree t's subsample is block t of `order`.  A node owns a slice of its
    # tree's block, and splitting it reorders the slice into left | right.
    order = np.concatenate([rng.choice(n, size=subsample, replace=False) for rng in rngs])
    order = (order + np.arange(groups)[:, None] * n).ravel()
    draws = _Draws(rngs, subsample // 4 + 1, groups)  # most trees read one more block

    # stack[t, i] is a pending node of tree t that may split: (its slot in
    # child, start in order, size, depth).  A depth-first stack never holds
    # more than height_limit + 1 nodes.  Roots have no slot.
    stack = np.zeros((n_trees, height_limit + 1, 4), dtype=np.intp)
    stack[:, 0, 1] = np.arange(n_trees) * subsample
    stack[:, 0, 2] = subsample
    top = np.ones(n_trees, dtype=np.intp)
    n_popped = 0
    visited = []  # per chunk: (feature, cut, slot) of every popped node
    settled = []  # per chunk: the same of the leaves its splits made
    for live, (slot, start, size, depth) in _steps(stack, top, _N_TREES * subsample):
        offsets = np.cumsum(size) - size
        pos = np.repeat(start - offsets, size) + np.arange(offsets[-1] + size[-1])
        sample = order[pos]
        sub = pts.take(sample, axis=0)
        lo = np.minimum.reduceat(sub, offsets)
        hi = np.maximum.reduceat(sub, offsets)
        del sub  # a step's widest array; the split reads one column of it
        splittable = hi > lo
        counts = splittable.sum(axis=1)
        split = np.flatnonzero(counts)  # otherwise all of the node's points coincide
        feature = np.zeros(live.size, dtype=np.intp)
        cut = depth + c[size]
        if split.size:
            owner = live[split]
            j, u = draws.pairs(owner, counts[split])
            feat = (np.cumsum(splittable[split], axis=1) <= j[:, None]).sum(axis=1)
            low = lo[split, feat]
            span = hi[split, feat] - low
            if not np.isfinite(span).all():  # as uniform reports it
                raise OverflowError("Range exceeds valid bounds")
            # a node that does not split keeps every point on side 0
            edge = np.full(live.size, np.inf)
            edge[split] = low + span * u
            feature[split] = feat
            cut[split] = edge[split]
            side = pts[sample, np.repeat(feature, size)] >= np.repeat(edge, size)
            # a node holds 2+ points, so keys stay below 100 * 256; int16 keys sort by radix
            keys = np.repeat(np.arange(0, 2 * live.size, 2, dtype=np.int16), size) + side
            order[pos] = sample[np.argsort(keys, kind="stable")]
            n_left = size[split] - np.add.reduceat(side, offsets)[split]
            slots = 2 * (n_popped + split)
            kids = np.array([  # (node, right | left, slot start size depth)
                [slots + 1, start[split] + n_left, size[split] - n_left, depth[split] + 1],
                [slots, start[split], n_left, depth[split] + 1]]).transpose(2, 0, 1)
            # a leaf draws nothing, so it is settled at once and never pushed
            push = (kids[..., 2] > 1) & (kids[..., 3] < height_limit)
            rows, sides = np.nonzero(push)
            level = top[owner, None] + np.cumsum(push, axis=1) - push  # left child on top
            stack[owner[rows], level[rows, sides]] = kids[rows, sides]
            top[owner] += push.sum(axis=1)
            leaves = kids[~push]
            settled.append((np.zeros_like(leaves[:, 0]), leaves[:, 3] + c[leaves[:, 2]],
                            leaves[:, 0].copy()))  # a view would keep all four columns
        visited.append((feature, cut, slot.copy()))
        n_popped += live.size

    # settled leaves are numbered after every popped node
    feature, cut, slot = (np.concatenate(col) for col in zip(*visited, *settled))
    child = np.repeat(np.arange(feature.size), 2)
    child[slot[n_trees:]] = np.arange(n_trees, feature.size)
    return feature, cut, child


def _steps(stack: np.ndarray, top: np.ndarray, cap: int):
    """Pop the next node of every live tree, step by step, and yield (trees, node
    columns): all of them, or chunks of 100 trees if the nodes hold over cap points."""
    while (live := np.flatnonzero(top)).size:
        top[live] -= 1
        nodes = stack[live, top[live]].T
        step = live.size if nodes[2].sum() <= cap else _N_TREES
        for first in range(0, live.size, step):
            yield live[first:first + step], nodes[:, first:first + step]


def iforest_scores(*datasets: Dataset, seed: int = 0) -> np.ndarray | tuple[np.ndarray, ...]:
    """Isolation-forest scores 2^(-E[h] / c(subsample)), in (0, 1).

    100 trees, each grown on min(256, N) points drawn without replacement.
    Each tree draws from its own generator, spawned from one seed sequence,
    so the scores are deterministic for a fixed seed.  The draws pick rows
    by index, so the scores are not permutation-equivariant: shuffling the
    rows changes which points each tree samples.

    Like np.atleast_1d, one dataset gives one array and several of one
    shape give a tuple, each equal to its own call; their forests grow together.

    The trees grow in lockstep (see _grow_forest), yet every tree is the
    one a recursive build of that tree alone would grow: its generator
    makes the same draws in the same order, integers(#splittable) and then
    random() at each splitting node, depth first, left before right.  The
    threshold lo + (hi - lo) * random() is how uniform(lo, hi) computes
    it, bit for bit; like uniform, a range beyond the float range raises
    OverflowError.  Past each tree's choice(), the draws are decoded from
    the generator's raw 64-bit words (see _Draws).  That relies on numpy
    2.x's PCG64 internals, and the tests that compare these scores bitwise
    with a tree-by-tree oracle on the real generator guard it.

    All points then descend together through their own group's trees of
    one flat node table, over blocks of points that bound the memory.  Each
    point's path sum adds its leaf values, depth + c(leaf size), one tree
    at a time in tree order, as a tree-by-tree build does: a pairwise sum
    over the trees would round differently.
    """
    if len(shapes := {ds.points.shape for ds in datasets}) != 1:
        raise DataError(f"iforest_scores needs datasets of one shape, got {sorted(shapes)}")
    ((n, d),) = shapes
    groups = len(datasets)
    pts = datasets[0].points if groups == 1 else np.concatenate([ds.points for ds in datasets])
    flat = pts.ravel()
    subsample = min(_SUBSAMPLE, n)
    height_limit = math.ceil(math.log2(subsample))
    c = _path_lengths(subsample)
    feature, cut, child = _grow_forest(pts, groups, seed, height_limit, c)
    paths = np.zeros(groups * n)
    block = max(1, _BLOCK // _N_TREES)
    for first in range(0, groups * n, block):
        last = min(first + block, groups * n)
        row_starts = np.arange(first * d, last * d, d)
        # (trees, points) block; row r descends through its group's roots
        at = np.arange(_N_TREES)[:, None] + np.arange(first, last) // n * _N_TREES
        for _ in range(height_limit):
            x = flat.take(row_starts + feature.take(at))
            at = child.take(2 * at + (x >= cut.take(at)))
        for leaf in cut.take(at):  # one tree at a time, in tree order
            paths[first:last] += leaf
    scores = 2.0 ** (-(paths / _N_TREES) / c[subsample])
    return scores if groups == 1 else tuple(scores.reshape(groups, n))
