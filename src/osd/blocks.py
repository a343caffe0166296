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

__all__ = ["BlockPartition", "weight_histogram", "find_inflection", "divide"]


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


def weight_histogram(weights: np.ndarray, n_objects: int) -> tuple[np.ndarray, np.ndarray]:
    """Bin a graph's edge weights into equidistant intervals.

    Returns (probs, bin_edges) in np.histogram's order.  probs[g] is the
    number of edge weights in bin g divided by the number of OBJECTS, not
    edges, so the values need not sum to 1; only the curve's shape matters
    downstream.  Bins are (max - min) * 10 / N wide, ceil(N / 10) of them at
    every N; intermediate bins are half-open [a, b), the last one closed.
    Below 21 objects that is fewer than 3 bins, so find_inflection prunes
    nothing.  An all-equal weight set gets a synthetic 2-bin range with
    every edge in the bin whose left edge is that weight.
    """
    if len(weights) == 0:
        raise DataError("graph has no edges to histogram")
    wmin, wmax = float(weights.min()), float(weights.max())
    if wmax == wmin:
        edges = np.array([wmin - 0.5, wmin, wmin + 0.5])
    else:
        width = (wmax - wmin) * 10.0 / n_objects
        nbins = math.ceil(n_objects / 10)
        edges = wmin + width * np.arange(nbins + 1)
        edges[-1] = max(edges[-1], wmax)  # float guard: cover max exactly

    counts, _ = np.histogram(weights, bins=edges)
    return counts / n_objects, edges


def find_inflection(probs: np.ndarray, bin_edges: np.ndarray) -> tuple[float, int | None]:
    """Locate the knee of the weight-probability curve.

    Smooths probs with a 3-bin moving average, then maximizes the discrete
    second difference D(g) = sm[g+1] - 2*sm[g] + sm[g-1], scanning from the
    most-negative-weight side; ties pick the smallest g.  The scan stops at
    the smoothed curve's peak: the knee of interest sits on the rising
    flank, and the decelerating downslope past the mode can fake a large
    positive curvature near the right boundary.  Returns (threshold,
    knee_bin): the left edge of the winning bin and its index.  With fewer
    than 3 bins there is no interior bin, so it returns the minimum weight
    (prunes nothing) and knee_bin None.
    """
    if len(probs) < 3:
        return float(bin_edges[0]), None

    sm = np.empty_like(probs)
    sm[0] = (probs[0] + probs[1]) / 2.0
    sm[-1] = (probs[-2] + probs[-1]) / 2.0
    sm[1:-1] = (probs[:-2] + probs[1:-1] + probs[2:]) / 3.0

    d2 = sm[2:] - 2.0 * sm[1:-1] + sm[:-2]
    last = min(int(np.argmax(sm)), len(probs) - 2)  # D(g) exists for g <= nbins-2
    # first max wins: smallest g; a peak at the first bin gives minimal pruning
    knee = 1 + int(np.argmax(d2[:max(last, 1)]))
    return float(bin_edges[knee]), knee


def divide(g: KnnGraph, threshold: float) -> BlockPartition:
    """Prune edges with weight strictly below threshold and split into blocks.

    Every connected component of the surviving undirected graph becomes one
    block; objects left with no edges become singleton blocks of mass 1.
    """
    # Imported on first use: at module level these two added 20-40 ms to
    # `import osd` (csgraph loads scipy.sparse.linalg), paid by every command.
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    # The directed pairs (i, neighbor) stand in for the deduplicated edges:
    # an edge survives iff either direction does (both carry the same
    # distance, and -d >= threshold is the IEEE test d <= -threshold), and
    # components of an undirected graph ignore repeated or reversed pairs.
    # Row i of the adjacency is row i's kept neighbors, in list order.
    keep = g.neighbor_dist <= -threshold
    n = g.n_objects
    indptr = np.concatenate(([0], np.cumsum(keep.sum(axis=1))))
    indices = g.neighbor_idx[keep]
    ones = np.ones(len(indices), dtype=np.int8)
    adjacency = csr_matrix((ones, indices, indptr), shape=(n, n))
    labels = connected_components(adjacency, directed=False)[1]
    # Number blocks by smallest member index, first[label] (scipy does not
    # document its label order).
    first = np.unique(labels, return_index=True)[1]
    assignment = np.unique(first[labels], return_inverse=True)[1]
    masses = np.bincount(assignment)
    assignment.setflags(write=False)
    masses.setflags(write=False)
    return BlockPartition(assignment, masses)
