"""Independent brute-force oracles the tests check the library against.

Everything here is written from the definitions with plain loops: no code
is shared with the implementations under test.
"""

from __future__ import annotations

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
