"""End-to-end orchestration: transform, ablations, evaluation, run report.

The transform chain is: k-NN graph -> weight histogram -> knee threshold ->
block division -> explosion -> invalid-neighbor detection -> repulsion.
Ablations each disable exactly one ingredient: "random-bomb" places the
bomb uniformly in the bounding box instead of at the particle centroid,
"no-repulsion" stops after the explosion, and "no-division" treats every
object as its own block of mass 1 (one block for everything would be a
provable fixed point, which would make the ablation meaningless).

One run is recorded in one schema-versioned RunReport whose config is the
RunConfig itself: run_osd fills the transform fields, evaluate adds the
detector results (for a report made under its own config only), and both
CLI commands write it as JSON.  Labels never enter the transform; they are
only consumed by evaluate().
"""

from __future__ import annotations

import json
import math
import time
from collections.abc import Iterable
from dataclasses import asdict, dataclass, field, replace
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from . import detectors, knngraph
from .blocks import BlockPartition, divide, find_inflection, weight_histogram
from .dataset import Dataset, Labels, min_max_normalize
from .errors import ConfigError, DataError
from .explosion import constant_g, explode
from .knngraph import build
from .metrics import evaluate_scores
from .repulsion import find_invalid_neighbors, repel

__all__ = ["RunConfig", "RunReport", "prepare", "run_osd", "evaluate"]

ABLATIONS = ("none", "random-bomb", "no-repulsion", "no-division")
# Each force law names the (sign_mode, direction_mode) pair of explode and repel;
# literal signs square each resultant component, so the direction is moot there.
LAWS = {
    "corrected": ("corrected", "corrected"),
    "literal-sign": ("literal", "corrected"),
    "literal-direction": ("corrected", "literal"),
}
DETECTOR_NAMES = ("lof", "iforest", "knn")

REPORT_SCHEMA_VERSION = 3


@dataclass(frozen=True)
class RunConfig:
    """Every run setting, checked when built; seed covers every random draw.

    threshold, when set, is the pruning weight itself and skips knee
    detection; -inf keeps every edge and +inf prunes them all.
    """

    k: int | None = None  # default resolves to min(10, N-1)
    T: float = 1.0
    threshold: float | None = None
    law: str = "corrected"
    normalize: bool = True
    ablation: str = "none"
    detectors: tuple[str, ...] = DETECTOR_NAMES
    seed: int = 0

    def __post_init__(self) -> None:
        # plain Python numbers, because numpy scalars would break to_json
        for name, kind in (("k", Integral), ("seed", Integral), ("T", Real), ("threshold", Real)):
            value = getattr(self, name)
            if value is None and name in ("k", "threshold"):
                continue
            if isinstance(value, bool) or not isinstance(value, kind):
                what = "an integer" if kind is Integral else "a real number"
                raise ConfigError(f"{name} must be {what}, got {value!r}")
            try:
                object.__setattr__(self, name, int(value) if kind is Integral else float(value))
            except OverflowError:
                raise ConfigError(f"{name} is beyond the float range") from None
        if self.k is not None and self.k < 1:
            raise ConfigError(f"k must be an integer >= 1, got {self.k!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be an integer >= 0, got {self.seed!r}")
        if not (math.isfinite(self.T) and self.T > 0):
            raise ConfigError(f"T must be positive and finite, got {self.T}")
        if self.threshold is not None and math.isnan(self.threshold):
            raise ConfigError("threshold must not be NaN")
        if not isinstance(self.normalize, (bool, np.bool_)):
            raise ConfigError(f"normalize must be a bool, got {self.normalize!r}")
        object.__setattr__(self, "normalize", bool(self.normalize))
        if self.law not in tuple(LAWS):  # a tuple, so an unhashable value is refused too
            raise ConfigError(f"law must be one of {tuple(LAWS)}")
        if self.ablation not in ABLATIONS:
            raise ConfigError(f"ablation must be one of {ABLATIONS}")
        if isinstance(self.detectors, str) or not isinstance(self.detectors, Iterable):
            raise ConfigError(f"detectors must be a tuple of names: {self.detectors!r}")
        object.__setattr__(self, "detectors", tuple(self.detectors))  # argparse gives a list
        for name in self.detectors:
            if name not in DETECTOR_NAMES:
                raise ConfigError(f"unknown detector {name!r}")
        if len(set(self.detectors)) != len(self.detectors):
            raise ConfigError(f"detectors must not repeat a name: {self.detectors!r}")

    def resolve_k(self, n: int) -> int:
        return self.k if self.k is not None else min(10, n - 1)


@dataclass(frozen=True)
class RunReport:
    """The record of one run: transform diagnostics and detector results.

    A field left at its default (None, empty) means its stage did not run:
    evaluate() on its own fills only config, detector_results and timings.
    threshold and knee_bin are also None under the no-division ablation,
    and knee_bin when config.threshold was set.  timings holds wall-clock
    seconds per transform stage and per detector (each its own; they may overlap).
    """

    config: RunConfig
    k: int | None = None
    n_edges: int | None = None
    threshold: float | None = None
    knee_bin: int | None = None
    n_blocks: int | None = None
    block_masses: list[int] = field(default_factory=list)
    g_const: float | None = None
    n_invalid_pairs: int | None = None
    warnings: list[str] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)
    detector_results: dict[str, dict[str, float]] = field(default_factory=dict)
    schema_version: int = REPORT_SCHEMA_VERSION

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def prepare(ds: Dataset, config: RunConfig) -> Dataset:
    """Apply the configured preprocessing (min-max normalization by default)."""
    return min_max_normalize(ds) if config.normalize else ds


def run_osd(
    ds: Dataset, config: RunConfig
) -> tuple[Dataset, BlockPartition, RunReport]:
    """Run the full transform on an already-prepared dataset.

    Returns the relocated dataset, the block partition used, and a
    RunReport with the transform fields filled (threshold, knee bin, block
    count and masses, edge count, G, invalid-pair count, warnings and
    per-stage wall-clock seconds).  Deterministic for a fixed config and
    seed.
    """
    timings: dict[str, float] = {}
    warnings: list[str] = []
    clock = time.perf_counter

    t0 = clock()
    k = config.resolve_k(ds.count)
    graph = build(ds, k)
    timings["knngraph"] = clock() - t0

    t0 = clock()
    if config.ablation == "no-division":
        partition = divide(graph, math.inf)  # prunes everything: all singletons
        threshold = knee_bin = None
    else:
        if config.threshold is not None:
            threshold, knee_bin = config.threshold, None
        else:
            threshold, knee_bin = find_inflection(
                *weight_histogram(graph.edge_weights, graph.n_objects))
            if knee_bin is None:
                warnings.append("histogram too coarse for knee detection; nothing pruned")
        partition = divide(graph, threshold)
    timings["division"] = clock() - t0

    t0 = clock()
    g_const = constant_g(graph)
    if g_const <= 0.0:
        warnings.append("degenerate scale: G = 0, substituting G = 1")
        g_const = 1.0
    theta = None
    if config.ablation == "random-bomb":
        rng = np.random.default_rng(config.seed)
        theta = rng.uniform(ds.points.min(axis=0), ds.points.max(axis=0))
    exploded, _ = explode(ds, partition, g_const, config.T, LAWS[config.law][0], theta)
    timings["explosion"] = clock() - t0

    t0 = clock()
    if config.ablation == "no-repulsion":
        result = exploded
        n_invalid_pairs = 0
    else:
        invalid = find_invalid_neighbors(graph, exploded, partition)
        n_invalid_pairs = len(invalid)
        result = repel(exploded, partition, invalid, *LAWS[config.law])
    timings["repulsion"] = clock() - t0

    report = RunReport(
        config,
        k=k,
        n_edges=graph.n_edges,
        threshold=threshold,
        knee_bin=knee_bin,
        n_blocks=partition.n_blocks,
        block_masses=partition.masses.tolist(),
        g_const=g_const,
        n_invalid_pairs=n_invalid_pairs,
        warnings=warnings,
        timings=timings,
    )
    return result, partition, report


def _run_detector(
    name: str, before: Dataset, after: Dataset, config: RunConfig
) -> tuple[np.ndarray, ...]:
    """Both sides' scores: LOF with 20 neighbors, iForest's defaults, kNN at the transform's k."""
    n = before.count
    if name == "iforest":
        return tuple(detectors.iforest_scores(ds, seed=config.seed) for ds in (before, after))
    if name == "lof":
        return tuple(detectors.lof_scores(ds, min(20, n - 1)) for ds in (before, after))
    return tuple(detectors.knn_dist_scores(ds, config.resolve_k(n)) for ds in (before, after))


def evaluate(
    before: Dataset,
    after: Dataset,
    labels: Labels | None,
    config: RunConfig,
    report: RunReport | None = None,
) -> RunReport:
    """Score each configured detector on both datasets.

    Returns a copy of ``report`` (the one run_osd produced under this same
    ``config``, or an empty one for it) with the detector results and
    per-detector timings added; ``report`` itself is left as it was.  Each
    timing is that detector's own wall time, and they may overlap: above one
    k-NN block per worker, the iForest grows on its own thread beside LOF and kNN.
    """
    if report is not None and report.config != config:
        raise ConfigError("report was made under another config than evaluate's")
    if labels is None:
        raise DataError("evaluation requires labels")
    if labels.count != before.count or labels.count != after.count:
        raise DataError("labels do not match the dataset length")

    def score(name: str) -> tuple[float, dict[str, float]]:
        t0 = time.perf_counter()
        scores_before, scores_after = _run_detector(name, before, after, config)
        auc_before, ap_before = evaluate_scores(scores_before, labels)
        auc_after, ap_after = evaluate_scores(scores_after, labels)
        return time.perf_counter() - t0, {"auc_before": auc_before, "ap_before": ap_before,
                                          "auc_after": auc_after, "ap_after": ap_after}

    names, outcomes = config.detectors, {}
    # kd-tree queries and the forest's large gathers release the GIL; small inputs lose by it.
    if ("iforest" in names and len(names) > 1 and knngraph._WORKERS > 1
            and before.count > knngraph._BLOCK_ROWS // knngraph._WORKERS):
        from concurrent.futures import ThreadPoolExecutor  # imported on first use, as in build
        with ThreadPoolExecutor(1) as pool:
            forest = pool.submit(score, "iforest")
            try:  # in names order, so kNN after LOF reads LOF's k=20 graph
                for name in names:
                    if name != "iforest":
                        outcomes[name] = score(name)
            except Exception:  # the first failure in names order is raised
                if names.index("iforest") < names.index(name) and forest.exception():
                    raise forest.exception() from None
                raise
            outcomes["iforest"] = forest.result()
    else:
        for name in names:
            outcomes[name] = score(name)
    base = report or RunReport(config)
    return replace(base, detector_results={name: outcomes[name][1] for name in names},
                   timings={**base.timings, **{name: outcomes[name][0] for name in names}})


def write_points_csv(path: str | Path, ds: Dataset, labels: Labels | None = None) -> None:
    """Dump points (and optionally a trailing label column) as headered CSV."""
    cols = [f"x{i}" for i in range(ds.dim)]
    data: np.ndarray = ds.points
    if labels is not None:
        cols.append("label")
        data = np.column_stack([ds.points, labels.flags])
    line = ",".join(["%.17g"] * data.shape[1]) + "\n"  # np.savetxt's bytes, a block at a time
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for block in np.split(data, range(4096, len(data), 4096)):
            fh.write(line * len(block) % tuple(block.ravel().tolist()))


def write_partition_csv(path: str | Path, partition: BlockPartition) -> None:
    rows = np.column_stack(
        [np.arange(partition.n_objects), partition.assignment]
    )
    np.savetxt(
        path, rows, delimiter=",", header="object_id,block_id", comments="", fmt="%d"
    )
