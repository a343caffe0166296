"""Seeded generators for cluster-plus-outlier benchmarks.

Used by the property tests and the robustness experiments; everything is
a pure function of its seed.
"""

from __future__ import annotations

import math

import numpy as np

from .dataset import Dataset, Labels
from .errors import ConfigError, _integer, _real

__all__ = ["gen_clusters_outliers", "gen_imbalance_series"]

_MAX_TRIES = 10_000


def _place_centers(
    rng: np.random.Generator, n_clusters: int, dim: int, separation: float
) -> np.ndarray:
    """Uniform centers in a box, rejected until pairwise >= separation."""
    side = separation * max(2.0, 2.0 * n_clusters ** (1.0 / dim))
    centers: list[np.ndarray] = []
    for _ in range(_MAX_TRIES):
        cand = rng.uniform(0.0, side, size=dim)
        if all(np.linalg.norm(cand - c) >= separation for c in centers):
            centers.append(cand)
            if len(centers) == n_clusters:
                return np.array(centers)
    raise ConfigError(
        f"could not place {n_clusters} centers {separation} apart "
        f"in {_MAX_TRIES} tries"
    )


def _add_outliers(
    rng: np.random.Generator,
    normal: np.ndarray,
    n_outliers: int,
    centers: np.ndarray,
    keepout: float | np.ndarray,
) -> tuple[Dataset, Labels]:
    """Append n_outliers uniform draws over normal's bounding box, labeled 1;
    each draw is rejected within any center's keepout radius."""
    lo, hi = normal.min(axis=0), normal.max(axis=0)
    out = np.empty((n_outliers, normal.shape[1]))
    for i in range(n_outliers):
        for _ in range(_MAX_TRIES):
            cand = rng.uniform(lo, hi)
            if np.all(np.linalg.norm(centers - cand, axis=1) >= keepout):
                out[i] = cand
                break
        else:
            raise ConfigError(f"outlier {i}: no draw outside the keepout in {_MAX_TRIES} tries")
    flags = np.zeros(len(normal) + n_outliers, dtype=np.int8)
    flags[len(normal):] = 1
    return Dataset(np.vstack([normal, out])), Labels(flags)


def gen_clusters_outliers(
    n_clusters: int,
    pts_per_cluster: int,
    n_outliers: int,
    dim: int,
    separation: float,
    seed: int,
) -> tuple[Dataset, Labels]:
    """Unit-spread Gaussian clusters plus uniform box outliers.

    Cluster centers are pairwise at least ``separation`` apart; outliers
    are drawn over the cluster points' bounding box and rejected within
    separation/4 of any center.  Rows are ordered cluster by cluster with
    outliers last; labels mark outliers with 1.  Raises ConfigError on bad
    settings and when a rejection budget runs out.
    """
    n_clusters = _integer("n_clusters", n_clusters, 1)
    pts_per_cluster = _integer("pts_per_cluster", pts_per_cluster, 1)
    n_outliers = _integer("n_outliers", n_outliers, 0)
    dim = _integer("dim", dim, 1)
    separation = _real("separation", separation)
    if not (math.isfinite(separation) and separation > 0):
        raise ConfigError(f"separation must be positive and finite, got {separation}")
    seed = _integer("seed", seed, 0)
    rng = np.random.default_rng(seed)
    centers = _place_centers(rng, n_clusters, dim, separation)
    clusters = [
        c + rng.standard_normal((pts_per_cluster, dim)) for c in centers
    ]
    return _add_outliers(rng, np.vstack(clusters), n_outliers, centers, separation / 4.0)


def gen_imbalance_series(
    levels: list[float],
    seed: int,
    dim: int = 2,
    pts_per_cluster: int = 150,
) -> list[tuple[Dataset, Labels]]:
    """Two-cluster datasets whose cluster density ratio sweeps over levels.

    Density scales as spread^-dim, so a level-L dataset keeps one cluster
    at unit spread and widens the other by L^(1/dim).  Each dataset adds
    5% uniform outliers over the cluster bounding box, rejected within 5
    spreads of either center.  One derived seed per level keeps every
    dataset reproducible independently of the others.  Raises ConfigError
    on bad settings and when the outliers' rejection budget runs out.
    """
    pts_per_cluster = _integer("pts_per_cluster", pts_per_cluster, 1)
    dim = _integer("dim", dim, 1)
    levels = [_real("imbalance level", lv) for lv in levels]
    if not all(math.isfinite(lv) and lv >= 1 for lv in levels):
        raise ConfigError(f"imbalance levels must be finite and >= 1, got {levels}")
    seed = _integer("seed", seed, 0)
    out: list[tuple[Dataset, Labels]] = []
    for lv, child in zip(levels, np.random.SeedSequence(seed).spawn(len(levels))):
        rng = np.random.default_rng(child)
        spread = lv ** (1.0 / dim)
        sep = 20.0 * (1.0 + spread)
        centers = np.zeros((2, dim))
        centers[1, 0] = sep
        dense = centers[0] + rng.standard_normal((pts_per_cluster, dim))
        sparse = centers[1] + spread * rng.standard_normal((pts_per_cluster, dim))
        normal = np.vstack([dense, sparse])
        n_out = max(1, round(0.05 * len(normal)))
        out.append(_add_outliers(rng, normal, n_out, centers, np.array([5.0, 5.0 * spread])))
    return out
