"""Independent brute-force oracles the tests check the library against.

Everything here is written from the definitions with plain loops, except
iforest_oracle, which stores each tree in flat arrays and walks the points
through it afterwards where the library scores them while the tree grows.
No code is shared with the implementations under test.
"""

from __future__ import annotations

import math

import numpy as np


def knn_oracle(pts: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """All-pairs k-NN ranking: ascending distance, ties by ascending index."""
    n = len(pts)
    idx = np.empty((n, k), dtype=np.int64)
    dist = np.empty((n, k))
    for i in range(n):
        cand = []
        for j in range(n):
            if j == i:
                continue
            diff = pts[j] - pts[i]
            cand.append((float(np.sqrt(np.sum(diff * diff))), j))
        cand.sort()
        idx[i] = [j for _, j in cand[:k]]
        dist[i] = [d for d, _ in cand[:k]]
    return idx, dist


def flood_fill_components(n: int, edges: np.ndarray) -> list[set[int]]:
    """Connected components of an undirected edge list, by BFS."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        adj[int(a)].append(int(b))
        adj[int(b)].append(int(a))
    seen = [False] * n
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        comp = {start}
        seen[start] = True
        queue = [start]
        while queue:
            u = queue.pop()
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    comp.add(v)
                    queue.append(v)
        comps.append(comp)
    return comps


def auc_pairs_oracle(scores: np.ndarray, flags: np.ndarray) -> float:
    """AUC by counting outlier-vs-normal score pairs, ties worth 0.5."""
    pos = np.flatnonzero(flags == 1)
    neg = np.flatnonzero(flags == 0)
    total = 0.0
    for i in pos:
        for j in neg:
            if scores[i] > scores[j]:
                total += 1.0
            elif scores[i] == scores[j]:
                total += 0.5
    return total / (len(pos) * len(neg))


def average_ranks_oracle(scores: np.ndarray) -> np.ndarray:
    """1-based average ranks by walking each run of equal sorted values."""
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(len(scores))
    sorted_scores = scores[order]
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def ap_oracle(scores: np.ndarray, flags: np.ndarray) -> float:
    """Average precision straight from the definition.

    Rank by descending score, equal scores by ascending index; AP is the
    mean of precision values taken at each outlier's position.
    """
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    hits = 0
    total = 0.0
    for rank, i in enumerate(order, start=1):
        if flags[i] == 1:
            hits += 1
            total += hits / rank
    return total / int(np.sum(flags == 1))


def lof_oracle(pts: np.ndarray, k: int) -> np.ndarray:
    """Reference LOF with explicit loops over the oracle neighbor lists."""
    n = len(pts)
    idx, dist = knn_oracle(pts, k)
    kdist = dist[:, -1]
    mean_reach = np.empty(n)
    for a in range(n):
        total = 0.0
        for pos, b in enumerate(idx[a]):
            total += max(kdist[b], dist[a, pos])
        mean_reach[a] = total / k
    scores = np.empty(n)
    for a in range(n):
        scores[a] = np.mean([mean_reach[a] / mean_reach[b] for b in idx[a]])
    return scores


def histogram_recount(weights: np.ndarray, bin_edges: np.ndarray) -> np.ndarray:
    """Interval counts by explicit scan: [a, b) bins, last bin closed."""
    counts = np.zeros(len(bin_edges) - 1, dtype=np.int64)
    for w in weights:
        for g in range(len(counts)):
            last = g == len(counts) - 1
            if bin_edges[g] <= w < bin_edges[g + 1] or (last and w == bin_edges[g + 1]):
                counts[g] += 1
                break
    return counts


def knn_rows_oracle(
    pts: np.ndarray, rows: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """knn_oracle for selected rows only, one all-pairs numpy ranking per row."""
    others = np.arange(len(pts))
    idx = np.empty((len(rows), k), dtype=np.int64)
    dist = np.empty((len(rows), k))
    for r, i in enumerate(rows):
        diff = pts - pts[i]
        d = np.sqrt(np.sum(diff * diff, axis=-1))
        order = np.lexsort((others, d))
        order = order[order != i][:k]
        idx[r], dist[r] = others[order], d[order]
    return idx, dist


def _average_path_length(n: int) -> float:
    """c(n) = 2H(n-1) - 2(n-1)/n, the harmonic number summed term by term."""
    if n <= 1:
        return 0.0
    harmonic = 0.0
    for i in range(1, n):
        harmonic += 1.0 / i
    return 2.0 * harmonic - 2.0 * (n - 1) / n


class _TreeBuilder:
    """Grows one isolation tree into flat arrays for vectorized traversal."""

    def __init__(self, data: np.ndarray, rng: np.random.Generator, height_limit: int):
        self.data = data
        self.rng = rng
        self.limit = height_limit
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.leaf_path: list[float] = []

    def grow(self, idx: np.ndarray, depth: int) -> int:
        node = len(self.feature)
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.leaf_path.append(0.0)

        size = len(idx)
        if size <= 1 or depth >= self.limit:
            self.leaf_path[node] = depth + _average_path_length(size)
            return node
        sub = self.data[idx]
        lo = sub.min(axis=0)
        hi = sub.max(axis=0)
        splittable = np.flatnonzero(hi > lo)
        if splittable.size == 0:  # all remaining points coincide
            self.leaf_path[node] = depth + _average_path_length(size)
            return node

        feat = int(self.rng.choice(splittable))
        s = float(self.rng.uniform(lo[feat], hi[feat]))
        mask = sub[:, feat] < s
        self.feature[node] = feat
        self.threshold[node] = s
        self.left[node] = self.grow(idx[mask], depth + 1)
        self.right[node] = self.grow(idx[~mask], depth + 1)
        return node

    def arrays(self) -> tuple[np.ndarray, ...]:
        return (
            np.array(self.feature, dtype=np.int64),
            np.array(self.threshold),
            np.array(self.left, dtype=np.int64),
            np.array(self.right, dtype=np.int64),
            np.array(self.leaf_path),
        )


def _tree_paths(tree: tuple[np.ndarray, ...], pts: np.ndarray) -> np.ndarray:
    """Path length of every point through one flattened tree."""
    feature, threshold, left, right, leaf_path = tree
    node = np.zeros(len(pts), dtype=np.int64)
    out = np.zeros(len(pts))
    active = np.arange(len(pts))
    while active.size:
        cur = node[active]
        feat = feature[cur]
        at_leaf = feat < 0
        done = active[at_leaf]
        out[done] = leaf_path[node[done]]
        active = active[~at_leaf]
        if not active.size:
            break
        cur = cur[~at_leaf]
        go_left = pts[active, feature[cur]] < threshold[cur]
        node[active] = np.where(go_left, left[cur], right[cur])
    return out


def iforest_oracle(pts: np.ndarray, seed: int) -> np.ndarray:
    """Isolation forest of 100 stored trees over min(256, N) samples each.

    Each tree is grown into flat arrays first and every point is then
    walked through it level by level; the trees draw from generators
    spawned from one seed sequence, in order.
    """
    n = len(pts)
    n_trees = 100
    subsample = min(256, n)
    height_limit = math.ceil(math.log2(subsample))
    paths = np.zeros(n)
    for child in np.random.SeedSequence(seed).spawn(n_trees):
        rng = np.random.default_rng(child)
        sample = rng.choice(n, size=subsample, replace=False)
        builder = _TreeBuilder(pts, rng, height_limit)
        builder.grow(sample, 0)
        paths += _tree_paths(builder.arrays(), pts)
    mean_path = paths / n_trees
    return 2.0 ** (-mean_path / _average_path_length(subsample))
