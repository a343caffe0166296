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
from .dataset import Dataset, _unit_scale
from .errors import _choice
from .knngraph import KnnGraph

__all__ = [
    "centroids",
    "bomb_position",
    "constant_g",
    "shock_force",
    "displacement",
    "explode",
]

# The force laws that explode and repulsion.repel read by name: the sign_mode
# of displacement and the factor c of the repulsive force c*(p-g)/||p-g||^2.
# Literal signs square each resultant component, so c's sign is moot there.
LAWS = {
    "corrected": ("corrected", -1.0),
    "literal-sign": ("literal", -1.0),
    "literal-direction": ("corrected", 1.0),
}


def _law(name: str) -> tuple[str, float]:
    """The row of LAWS called name; ConfigError for any other value."""
    return LAWS[_choice("law", name, LAWS)]


def _epsilon(ds: Dataset) -> float:
    """Singularity guard for the inverse-distance forces: 1e-12 of the diameter."""
    return 1e-12 * ds.diameter()


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
    positions is one (d,) particle or a (B, d) array of them, and theta is
    one (d,) bomb for all of them or a (B, d) array, one bomb per particle.
    """
    diff, e = _unit_scale(positions - theta, axis=-1)
    r2 = np.sum(diff * diff, axis=-1, keepdims=True)
    with np.errstate(over="ignore"):  # a guard beyond the float range covers the row
        dead = r2 <= np.ldexp(eps, -e) ** 2  # eps >= 0, so this covers r2 == 0
    return np.ldexp(np.where(dead, 0.0, g_const * diff / np.where(dead, 1.0, r2)), -e)


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
    literal = _choice("sign_mode", sign_mode, ("corrected", "literal")) == "literal"
    return mag if literal else np.sign(f) * mag


def explode(
    ds: Dataset,
    partition: BlockPartition,
    g_const: float,
    T: float = 1.0,
    law: str = "corrected",
    theta: np.ndarray | None = None,
) -> tuple[Dataset, np.ndarray]:
    """Translate every block by its displacement.

    Returns the moved dataset and the (B, d) moved centroids.  g_const is
    the force scale (run_osd passes constant_g, or 1 when that is 0); T is
    the duration, law names the row of LAWS whose sign convention applies,
    and theta overrides the bomb position (used by the random-bomb ablation).
    Masses and within-block geometry are preserved exactly.
    """
    positions = centroids(ds, partition)
    if theta is None:
        theta = bomb_position(positions)
    f = shock_force(positions, theta, g_const, _epsilon(ds))
    s = displacement(f, T, partition.masses[:, None], _law(law)[0])
    return Dataset(ds.points + s[partition.assignment]), positions + s
