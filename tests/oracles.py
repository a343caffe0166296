"""Independent brute-force oracles the tests check the library against.

Everything here is written from the definitions with plain loops, except
iforest_oracle, which grows each tree by recursion into flat arrays and
walks the points through it afterwards, where the library grows all trees
level by level into one heap-ordered table.  No code is shared with the
implementations under test.
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


def repel_oracle(
    pts: np.ndarray, assignment: np.ndarray, pairs: np.ndarray, sign_mode: str, c: float
) -> np.ndarray:
    """Repulsion by one loop over the pairs in (g, p) order, then one per block.

    Pair (g, p) adds c * (p - g) / ||p - g||^2 to g's block, nothing when
    ||p - g|| <= 1e-12 of the bounding-box diagonal.  A block with a
    nonzero resultant F moves by F*F / M^2 per component, signed like F
    unless sign_mode is "literal".
    """
    span = pts.max(axis=0) - pts.min(axis=0)
    eps = 1e-12 * math.sqrt(float(np.sum(span * span)))
    n_blocks = int(assignment.max()) + 1
    total = np.zeros((n_blocks, pts.shape[1]))
    for g, p in pairs:
        diff = pts[p] - pts[g]
        r2 = float(np.sum(diff * diff))  # numpy's summation order, as the library's
        if math.sqrt(r2) > eps:
            for j in range(len(diff)):
                total[assignment[g], j] += c * diff[j] / r2
    moved = pts.copy()
    for b in range(n_blocks):
        if not total[b].any():
            continue
        mass = int(np.sum(assignment == b))
        for j, f in enumerate(total[b]):
            mag = f * f / (mass * mass)
            shift = -mag if sign_mode == "corrected" and f < 0 else mag
            moved[assignment == b, j] += shift
    return moved


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


def blocks_of(partition) -> list[np.ndarray]:
    """Each block's member indices, ascending, in block-id order."""
    return [
        np.flatnonzero(partition.assignment == b) for b in range(partition.n_blocks)
    ]


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
    """Grows one isolation tree into flat arrays for vectorized traversal.

    u[i] is the uniform pair of heap node i: the root is node 0 and node i's
    children are 2i + 1 and 2i + 2.
    """

    def __init__(self, data: np.ndarray, u: np.ndarray, height_limit: int):
        self.data = data
        self.u = u
        self.limit = height_limit
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.leaf_path: list[float] = []

    def grow(self, idx: np.ndarray, depth: int, heap: int) -> int:
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

        u1, u2 = (float(v) for v in self.u[heap])
        m = len(splittable)
        feat = int(splittable[min(int(u1 * m), m - 1)])
        low = float(lo[feat])
        span = float(hi[feat]) - low  # Python floats overflow to inf without a warning
        if math.isinf(span):
            raise OverflowError("span beyond the float range")
        s = low + span * u2
        mask = sub[:, feat] < s
        self.feature[node] = feat
        self.threshold[node] = s
        self.left[node] = self.grow(idx[mask], depth + 1, 2 * heap + 1)
        self.right[node] = self.grow(idx[~mask], depth + 1, 2 * heap + 2)
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
    walked through it level by level.  Tree t's generator, the t-th spawned
    from one seed sequence, draws its subsample and then one uniform pair
    per heap node that may split.  A splitting node with m splittable
    features splits on the min(floor(u1 * m), m - 1)-th of them at
    lo + (hi - lo) * u2.  A node no sample reaches is a leaf at its depth.
    """
    n = len(pts)
    n_trees = 100
    subsample = min(256, n)
    height_limit = math.ceil(math.log2(subsample))
    paths = np.zeros(n)
    for child in np.random.SeedSequence(seed).spawn(n_trees):
        rng = np.random.default_rng(child)
        sample = rng.choice(n, size=subsample, replace=False)
        u = rng.random((2**height_limit - 1, 2))
        builder = _TreeBuilder(pts, u, height_limit)
        builder.grow(sample, 0, 0)
        paths += _tree_paths(builder.arrays(), pts)
    mean_path = paths / n_trees
    return 2.0 ** (-mean_path / _average_path_length(subsample))
