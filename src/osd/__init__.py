"""Detector-agnostic outlier-separation preprocessing.

The transform divides a dataset into object-blocks (connected components
of a knee-pruned k-NN graph), blasts the blocks away from a virtual bomb
so that light blocks (candidate outliers) travel far while heavy blocks
(clusters) barely move, then applies one repulsive correction between
blocks the explosion pushed too close together.  Detectors and ranking
metrics for before/after comparison ship alongside.
"""

from .blocks import (
    BlockPartition,
    InflectionResult,
    WeightHistogram,
    divide,
    find_inflection,
    weight_histogram,
)
from .dataset import Dataset, Labels, load_csv, min_max_normalize
from .detectors import iforest_scores, knn_dist_scores, lof_scores
from .errors import ConfigError, DataError
from .explosion import (
    ExplosionParams,
    bomb_position,
    centroids,
    constant_g,
    displacement,
    explode,
    shock_force,
)
from .knngraph import KnnGraph, build
from .metrics import EvalResult, average_precision, evaluate_scores, roc_auc
from .pipeline import RunConfig, RunReport, evaluate, prepare, run_osd
from .repulsion import find_invalid_neighbors, repel, repulsive_force
from .synth import gen_clusters_outliers, gen_imbalance_series

__version__ = "0.1.0"

__all__ = [
    "BlockPartition",
    "ConfigError",
    "DataError",
    "Dataset",
    "EvalResult",
    "ExplosionParams",
    "InflectionResult",
    "KnnGraph",
    "Labels",
    "RunConfig",
    "RunReport",
    "WeightHistogram",
    "average_precision",
    "bomb_position",
    "build",
    "centroids",
    "constant_g",
    "displacement",
    "divide",
    "evaluate",
    "evaluate_scores",
    "explode",
    "find_inflection",
    "find_invalid_neighbors",
    "gen_clusters_outliers",
    "gen_imbalance_series",
    "iforest_scores",
    "knn_dist_scores",
    "load_csv",
    "lof_scores",
    "min_max_normalize",
    "prepare",
    "repel",
    "repulsive_force",
    "roc_auc",
    "run_osd",
    "shock_force",
    "weight_histogram",
]
