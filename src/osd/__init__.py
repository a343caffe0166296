"""Detector-agnostic outlier-separation preprocessing.

The transform divides a dataset into object-blocks (connected components
of a knee-pruned k-NN graph), blasts the blocks away from a virtual bomb
so that light blocks (candidate outliers) travel far while heavy blocks
(clusters) barely move, then applies one repulsive correction between
blocks the explosion pushed too close together.  Detectors and ranking
metrics for before/after comparison ship alongside.

The package exports the pipeline: RunConfig -> prepare -> run_osd ->
evaluate.  Each layer's functions (build, divide, explode, repel, ...)
live in their own module, e.g. osd.knngraph or osd.explosion.
"""

from .blocks import BlockPartition
from .dataset import Dataset, Labels, load_csv, min_max_normalize
from .detectors import iforest_scores, knn_dist_scores, lof_scores
from .errors import ConfigError, DataError
from .metrics import average_precision, evaluate_scores, roc_auc
from .pipeline import RunConfig, RunReport, evaluate, prepare, run_osd
from .synth import gen_clusters_outliers, gen_imbalance_series

__version__ = "0.1.0"

__all__ = [
    "BlockPartition",
    "ConfigError",
    "DataError",
    "Dataset",
    "Labels",
    "RunConfig",
    "RunReport",
    "average_precision",
    "evaluate",
    "evaluate_scores",
    "gen_clusters_outliers",
    "gen_imbalance_series",
    "iforest_scores",
    "knn_dist_scores",
    "load_csv",
    "lof_scores",
    "min_max_normalize",
    "prepare",
    "roc_auc",
    "run_osd",
]
