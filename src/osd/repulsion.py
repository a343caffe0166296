"""Post-explosion repulsion between blocks that got too close.

The explosion can make a light block overshoot into the neighborhood of a
heavier one.  The tell-tale is an invalid neighbor: an object that was NOT
among another object's k nearest before the explosion but IS afterwards,
across block boundaries.  Each such pair contributes an inverse-distance
force; the per-block resultant drives one further rigid translation
(same squared-force law as the explosion, with no duration factor).
"""

from __future__ import annotations

import numpy as np

from .blocks import BlockPartition
from .dataset import Dataset
from .explosion import _epsilon, _law, displacement, shock_force
from .knngraph import KnnGraph, build

__all__ = ["find_invalid_neighbors", "repel"]


def find_invalid_neighbors(
    original: KnnGraph, exploded_ds: Dataset, partition: BlockPartition
) -> np.ndarray:
    """Detect invalid neighbors created by the explosion.

    (g, p) qualifies iff p is not a k-NN of g in the original graph, p is a
    k-NN of g in the exploded dataset (same k, same tie rule), and g and p
    live in different blocks.  Returns the pairs as a (P, 2) int array
    sorted by (g, p).
    """
    new = build(exploded_ds, original.k).neighbor_idx
    a = partition.assignment
    known = (new[:, :, None] == original.neighbor_idx[:, None, :]).any(axis=2)
    g_idx, col = np.nonzero(~known & (a[new] != a[:, None]))
    p_idx = new[g_idx, col]
    order = np.lexsort((p_idx, g_idx))
    return np.column_stack([g_idx[order], p_idx[order]])


def repel(
    exploded_ds: Dataset,
    partition: BlockPartition,
    pairs: np.ndarray,
    law: str = "corrected",
) -> Dataset:
    """Apply one repulsive translation per block; identity if pairs is empty.

    law names the row (sign_mode, c) of explosion.LAWS.  Pair (g, p) pushes
    g's block by the shock force on g with its intruder p as the bomb and
    -c as the scale: c * (p - g) / ||p - g||^2, zero within 1e-12 of the
    diameter, and away from p when c = -1.  Each block's resultant sums its
    members' forces in (g, p) order and moves the block as the explosion
    does, with the row's sign convention and T = 1; a zero resultant moves
    a block by +0.0, which changes only the sign of a -0.0 coordinate.
    """
    pts = exploded_ds.points
    a = partition.assignment
    g_idx, p_idx = pairs[:, 0], pairs[:, 1]
    sign_mode, c = _law(law)
    f = shock_force(pts[g_idx], pts[p_idx], -c, _epsilon(exploded_ds))
    total = np.zeros((partition.n_blocks, exploded_ds.dim))
    np.add.at(total, a[g_idx], f)
    return Dataset(pts + displacement(total, 1.0, partition.masses[:, None], sign_mode)[a])
