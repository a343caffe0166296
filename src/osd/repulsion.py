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
from .errors import ConfigError
from .explosion import _epsilon, _inverse_distance, displacement
from .knngraph import KnnGraph, build

__all__ = ["find_invalid_neighbors", "repulsive_force", "repel"]


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


def repulsive_force(
    g_pos: np.ndarray,
    p_pos: np.ndarray,
    direction_mode: str = "corrected",
    eps: float = 0.0,
) -> np.ndarray:
    """Inverse-distance force between objects and their invalid neighbors.

    "literal" orients it from g toward p; "corrected" (default) negates
    that, pushing g's block away from the intruder.  Magnitude is
    1/distance either way; coincident positions give zero force.  Takes
    one (d,) pair or (P, d) arrays of pairs.
    """
    if direction_mode not in ("corrected", "literal"):
        raise ConfigError("direction_mode must be 'corrected' or 'literal'")
    scale = 1.0 if direction_mode == "literal" else -1.0
    return _inverse_distance(p_pos - g_pos, scale, eps)


def repel(
    exploded_ds: Dataset,
    partition: BlockPartition,
    pairs: np.ndarray,
    sign_mode: str = "corrected",
    direction_mode: str = "corrected",
) -> Dataset:
    """Apply one repulsive translation per block; identity if pairs is empty.

    Each block's resultant is the sum of the forces on its members, taken
    in (g, p) order.  Translation is the squared resultant over squared
    mass, with the same sign convention as the explosion displacement and
    no T factor.  Blocks with a zero resultant do not move.  Under
    sign_mode "literal" direction_mode has no effect: flipping every force
    flips each resultant, whose components are then squared.  run_osd
    reads both modes from pipeline.LAWS, whose "literal-sign" is that case.
    """
    pts = exploded_ds.points
    a = partition.assignment
    g_idx, p_idx = pairs[:, 0], pairs[:, 1]
    f = repulsive_force(pts[g_idx], pts[p_idx], direction_mode, _epsilon(exploded_ds))
    total = np.zeros((partition.n_blocks, exploded_ds.dim))
    np.add.at(total, a[g_idx], f)
    shift = displacement(total, 1.0, partition.masses[:, None], sign_mode)
    rows = total.any(axis=1)[a]
    new_pts = pts.copy()
    new_pts[rows] += shift[a[rows]]
    return Dataset(new_pts)
