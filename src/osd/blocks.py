"""Object-block division: weight histogram, knee threshold, edge pruning.

The edge-weight distribution of a k-NN graph piles up near 0 (short edges
between close objects) with a thin tail of very negative weights (long
edges reaching isolated objects).  Cutting the tail at the knee of the
distribution and taking connected components of what survives yields the
object-blocks: sets of mutually close objects that later move as rigid
units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .knngraph import KnnGraph

__all__ = [
    "WeightHistogram",
    "InflectionResult",
    "BlockPartition",
    "weight_histogram",
    "find_inflection",
    "divide",
]


@dataclass(frozen=True, eq=False)
class WeightHistogram:
    """Equidistant histogram of edge weights.

    probs[g] is the number of edge weights falling in bin g divided by the
    number of OBJECTS, not edges, so the values need not sum to 1; only the
    curve's shape matters downstream.  Intermediate bins are half-open
    [a, b); the last bin is closed on the right.
    """

    bin_edges: np.ndarray
    probs: np.ndarray


@dataclass(frozen=True)
class InflectionResult:
    threshold: float
    knee_bin: int | None  # None when there are too few bins to detect a knee


@dataclass(frozen=True, eq=False)
class BlockPartition:
    """Partition of all objects into connected components of the pruned graph.

    Blocks are numbered by ascending smallest member index; assignment[i]
    is the block id of object i and masses[b] is block b's object count.
    """

    assignment: np.ndarray
    masses: np.ndarray

    @property
    def n_blocks(self) -> int:
        return len(self.masses)

    @property
    def n_objects(self) -> int:
        return self.assignment.shape[0]


def weight_histogram(g: KnnGraph) -> WeightHistogram:
    """Bin the deduplicated edge weights into equidistant intervals.

    Bin width is (max - min) * 10 / N for N > 20 objects; smaller graphs
    fall back to 2 bins, and an all-equal weight set gets a synthetic
    2-bin range with every edge in the bin whose left edge is that weight.
    """
    if g.n_edges == 0:
        raise DataError("graph has no edges to histogram")
    w = g.edge_weights
    n = g.n_objects
    wmin = float(w.min())
    wmax = float(w.max())

    if wmax == wmin:
        edges = np.array([wmin - 0.5, wmin, wmin + 0.5])
    elif n > 20:
        width = (wmax - wmin) * 10.0 / n
        nbins = math.ceil(n / 10)
        edges = wmin + width * np.arange(nbins + 1)
        edges[-1] = max(edges[-1], wmax)  # float guard: cover max exactly
    else:
        edges = np.array([wmin, wmin + (wmax - wmin) / 2.0, wmax])

    counts, _ = np.histogram(w, bins=edges)
    return WeightHistogram(edges, counts / n)


def find_inflection(h: WeightHistogram) -> InflectionResult:
    """Locate the knee of the weight-probability curve.

    Smooths probs with a 3-bin moving average, then maximizes the discrete
    second difference D(g) = sm[g+1] - 2*sm[g] + sm[g-1], scanning from the
    most-negative-weight side; ties pick the smallest g.  The scan stops at
    the smoothed curve's peak: the knee of interest sits on the rising
    flank, and the decelerating downslope past the mode can fake a large
    positive curvature near the right boundary.  Returns the left edge of
    the winning bin.  With fewer than 3 bins there is no interior bin, so
    the minimum weight is returned (prunes nothing).
    """
    p = h.probs
    if len(p) < 3:
        return InflectionResult(float(h.bin_edges[0]), None)

    sm = np.empty_like(p)
    sm[0] = (p[0] + p[1]) / 2.0
    sm[-1] = (p[-2] + p[-1]) / 2.0
    sm[1:-1] = (p[:-2] + p[1:-1] + p[2:]) / 3.0

    d2 = sm[2:] - 2.0 * sm[1:-1] + sm[:-2]
    last = min(int(np.argmax(sm)), len(p) - 2)  # D(g) exists for g <= nbins-2
    if last < 1:
        knee = 1  # curve peaks at the first bin; fall back to minimal pruning
    else:
        knee = 1 + int(np.argmax(d2[:last]))  # first max wins: smallest g
    return InflectionResult(float(h.bin_edges[knee]), knee)


def divide(g: KnnGraph, threshold: float) -> BlockPartition:
    """Prune edges with weight strictly below threshold and split into blocks.

    Every connected component of the surviving undirected graph becomes one
    block; objects left with no edges become singleton blocks of mass 1.
    """
    # Imported on first use: at module level these two added 20-40 ms to
    # `import osd` (csgraph loads scipy.sparse.linalg), paid by every command.
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    n = g.n_objects
    kept = g.edges[g.edge_weights >= threshold]
    adjacency = coo_matrix(
        (np.ones(len(kept), dtype=np.int8), (kept[:, 0], kept[:, 1])), shape=(n, n)
    )
    n_blocks, labels = connected_components(adjacency, directed=False)
    # Number blocks by first appearance, i.e. by smallest member index;
    # scipy does not document its label order.
    _, first = np.unique(labels, return_index=True)
    relabel = np.empty(n_blocks, dtype=np.int64)
    relabel[np.argsort(first)] = np.arange(n_blocks)
    assignment = relabel[labels]
    masses = np.bincount(assignment)
    assignment.setflags(write=False)
    masses.setflags(write=False)
    return BlockPartition(assignment, masses)
