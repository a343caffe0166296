"""One-shot outward relocation of object-blocks away from a virtual bomb.

Each block is summarized by a particle: its centroid, weighing the block's
object count.  A virtual bomb placed at the particles' mean exerts an
inverse-distance force on every particle; impulse-momentum bookkeeping with
friction 0.5 collapses the ensuing motion into a single displacement
F*F * T^2 / M^2 per block, applied rigidly to all of the block's objects.
Small blocks therefore fly far while heavy blocks barely move.  Every
function works on all blocks at once: positions are (B, d) arrays.
"""

from __future__ import annotations

import numpy as np

from .blocks import BlockPartition
from .dataset import Dataset
from .errors import ConfigError
from .knngraph import KnnGraph

__all__ = [
    "centroids",
    "bomb_position",
    "constant_g",
    "shock_force",
    "displacement",
    "explode",
]

def _epsilon(ds: Dataset) -> float:
    """Singularity guard for the inverse-distance forces: 1e-12 of the diameter."""
    return 1e-12 * ds.diameter()


def _inverse_distance(diff: np.ndarray, scale: float, eps: float) -> np.ndarray:
    """scale * diff / ||diff||^2 along the last axis; zero where ||diff|| <= eps."""
    r2 = np.sum(diff * diff, axis=-1, keepdims=True)
    dead = r2 <= eps * eps  # eps >= 0, so this covers r2 == 0
    return np.where(dead, 0.0, scale * diff / np.where(dead, 1.0, r2))


def centroids(ds: Dataset, partition: BlockPartition) -> np.ndarray:
    """(B, d) block centroids, members summed in ascending index order."""
    sums = np.zeros((partition.n_blocks, ds.dim))
    np.add.at(sums, partition.assignment, ds.points)
    return sums / partition.masses[:, None]


def bomb_position(positions: np.ndarray) -> np.ndarray:
    """Unweighted mean of (B, d) particle positions (masses play no role here)."""
    return positions.mean(axis=0)


def constant_g(g: KnnGraph) -> float:
    """Force-scale constant: mean k-th-nearest-neighbor distance."""
    return float(g.neighbor_dist[:, -1].mean())


def shock_force(
    positions: np.ndarray, theta: np.ndarray, g_const: float, eps: float
) -> np.ndarray:
    """Inverse-distance force on each particle, directed away from the bomb.

    F = G * (B - theta) / ||B - theta||^2, zero within eps of the bomb.
    positions is one (d,) particle or a (B, d) array of them.
    """
    return _inverse_distance(positions - theta, g_const, eps)


def displacement(
    f: np.ndarray, T: float, mass: int | np.ndarray, sign_mode: str = "corrected"
) -> np.ndarray:
    """Block displacement from a force: componentwise F*F * T^2 / M^2.

    "literal" squares each component verbatim (always nonnegative);
    "corrected" reapplies the component signs so motion points along F.
    Both agree whenever F has no negative component.  For (B, d) forces
    pass mass as a (B, 1) column.
    """
    mag = f * f * (T * T) / (mass * mass)
    if sign_mode == "literal":
        return mag
    if sign_mode == "corrected":
        return np.sign(f) * mag
    raise ConfigError("sign_mode must be 'corrected' or 'literal'")


def explode(
    ds: Dataset,
    partition: BlockPartition,
    g_const: float,
    T: float = 1.0,
    sign_mode: str = "corrected",
    theta: np.ndarray | None = None,
) -> tuple[Dataset, np.ndarray]:
    """Translate every block by its displacement.

    Returns the moved dataset and the (B, d) moved centroids.  g_const is
    the force scale (run_osd passes constant_g, or 1 when that is 0); T
    and sign_mode are the displacement law's duration and sign convention
    (run_osd reads sign_mode from RunConfig.law through pipeline.LAWS);
    theta overrides the bomb position (used by the random-bomb ablation).
    Masses and within-block geometry are preserved exactly.
    """
    positions = centroids(ds, partition)
    if theta is None:
        theta = bomb_position(positions)
    f = shock_force(positions, theta, g_const, _epsilon(ds))
    s = displacement(f, T, partition.masses[:, None], sign_mode)
    return Dataset(ds.points + s[partition.assignment]), positions + s
