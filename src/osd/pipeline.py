"""End-to-end orchestration: transform, ablations, evaluation, reporting.

The transform chain is: k-NN graph -> weight histogram -> knee threshold ->
block division -> explosion -> invalid-neighbor detection -> repulsion.
Ablations each disable exactly one ingredient: "random-bomb" places the
bomb uniformly in the bounding box instead of at the particle centroid,
"no-repulsion" stops after the explosion, and "no-division" treats every
object as its own block of mass 1 (one block for everything would be a
provable fixed point, which would make the ablation meaningless).

Labels never enter the transform; they are only consumed by evaluate().
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from . import detectors
from .blocks import BlockPartition, divide, find_inflection, weight_histogram
from .dataset import Dataset, Labels, min_max_normalize
from .errors import ConfigError, DataError
from .explosion import ExplosionParams, constant_g, explode
from .knngraph import build
from .metrics import evaluate_scores
from .repulsion import find_invalid_neighbors, repel
from .synth import gen_clusters_outliers

__all__ = ["RunConfig", "EvalReport", "prepare", "run_osd", "evaluate", "scaling_probe"]

ABLATIONS = ("none", "random-bomb", "no-repulsion", "no-division")
DETECTOR_NAMES = ("lof", "iforest", "knn")

REPORT_SCHEMA_VERSION = 1


@dataclass
class RunConfig:
    """Everything a run needs; seed covers every stochastic component."""

    k: int | None = None  # default resolves to min(10, N-1)
    T: float = 1.0
    threshold: float | None = None  # knee override
    sign_mode: str = "corrected"
    direction_mode: str = "corrected"
    normalize: bool = True
    ablation: str = "none"
    detectors: tuple[str, ...] = ("lof", "iforest", "knn")
    lof_neighbors: int = 20
    iforest_trees: int = 100
    iforest_subsample: int | None = None
    knn_score_k: int | None = None  # defaults to the transform's k
    seed: int = 0

    def __post_init__(self) -> None:
        if self.ablation not in ABLATIONS:
            raise ConfigError(f"ablation must be one of {ABLATIONS}")
        for name in self.detectors:
            if name not in DETECTOR_NAMES:
                raise ConfigError(f"unknown detector {name!r}")

    def resolve_k(self, n: int) -> int:
        return self.k if self.k is not None else min(10, n - 1)


@dataclass
class EvalReport:
    """Before/after metrics per detector plus transform diagnostics."""

    config: dict[str, Any]
    detector_results: dict[str, dict[str, float]]
    n_blocks: int
    block_masses: list[int]
    threshold: float | None
    timings: dict[str, float] = field(default_factory=dict)
    schema_version: int = REPORT_SCHEMA_VERSION

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "EvalReport":
        raw = json.loads(text)
        if raw.get("schema_version") != REPORT_SCHEMA_VERSION:
            raise DataError(f"unsupported report schema: {raw.get('schema_version')}")
        return cls(**raw)


def prepare(ds: Dataset, config: RunConfig) -> Dataset:
    """Apply the configured preprocessing (min-max normalization by default)."""
    return min_max_normalize(ds) if config.normalize else ds


def run_osd(
    ds: Dataset, config: RunConfig
) -> tuple[Dataset, BlockPartition, dict[str, Any]]:
    """Run the full transform on an already-prepared dataset.

    Returns the relocated dataset, the block partition used, and a
    diagnostics dict (threshold, knee bin, block count and masses, edge
    count, G, invalid-pair count, per-stage wall-clock seconds).
    Deterministic for a fixed config and seed.
    """
    diag: dict[str, Any] = {"timings": {}}
    clock = time.perf_counter

    t0 = clock()
    k = config.resolve_k(ds.count)
    graph = build(ds, k)
    diag["k"] = k
    diag["n_edges"] = graph.n_edges
    diag["timings"]["knngraph"] = clock() - t0

    t0 = clock()
    if config.ablation == "no-division":
        partition = divide(graph, math.inf)  # prunes everything: all singletons
        diag["threshold"] = None
        diag["knee_bin"] = None
    else:
        hist = weight_histogram(graph)
        knee = find_inflection(hist, override=config.threshold)
        partition = divide(graph, knee.threshold)
        diag["threshold"] = knee.threshold
        diag["knee_bin"] = knee.knee_bin
        if knee.too_coarse:
            diag.setdefault("warnings", []).append(
                "histogram too coarse for knee detection; nothing pruned"
            )
    diag["n_blocks"] = partition.n_blocks
    diag["block_masses"] = partition.masses.tolist()
    diag["timings"]["division"] = clock() - t0

    t0 = clock()
    g_const = constant_g(ds, graph)
    if g_const <= 0.0:
        diag.setdefault("warnings", []).append(
            "degenerate scale: G = 0, substituting G = 1"
        )
        g_const = 1.0
    diag["g_const"] = g_const
    params = ExplosionParams(
        T=config.T, sign_mode=config.sign_mode, direction_mode=config.direction_mode
    )
    theta = None
    if config.ablation == "random-bomb":
        rng = np.random.default_rng(config.seed)
        theta = rng.uniform(ds.points.min(axis=0), ds.points.max(axis=0))
    exploded, _ = explode(ds, partition, params, g_const, theta=theta)
    diag["timings"]["explosion"] = clock() - t0

    t0 = clock()
    if config.ablation == "no-repulsion":
        result = exploded
        diag["n_invalid_pairs"] = 0
    else:
        invalid = find_invalid_neighbors(graph, exploded, partition)
        diag["n_invalid_pairs"] = len(invalid)
        result = repel(exploded, partition, invalid, params)
    diag["timings"]["repulsion"] = clock() - t0

    return result, partition, diag


def _run_detector(name: str, ds: Dataset, config: RunConfig) -> np.ndarray:
    n = ds.count
    if name == "lof":
        return detectors.lof_scores(ds, min(config.lof_neighbors, n - 1))
    if name == "iforest":
        return detectors.iforest_scores(
            ds, config.iforest_trees, config.iforest_subsample, config.seed
        )
    if name == "knn":
        k = config.knn_score_k or config.resolve_k(n)
        return detectors.knn_dist_scores(ds, k)
    raise ConfigError(f"unknown detector {name!r}")


def evaluate(
    before: Dataset,
    after: Dataset,
    labels: Labels | None,
    config: RunConfig,
    transform_diag: dict[str, Any] | None = None,
) -> EvalReport:
    """Score each configured detector on both datasets and fill the report."""
    if labels is None:
        raise DataError("evaluation requires labels")
    if labels.count != before.count:
        raise DataError("labels do not match the dataset length")
    results: dict[str, dict[str, float]] = {}
    timings: dict[str, float] = {}
    for name in config.detectors:
        t0 = time.perf_counter()
        before_res = evaluate_scores(_run_detector(name, before, config), labels)
        after_res = evaluate_scores(_run_detector(name, after, config), labels)
        timings[name] = time.perf_counter() - t0
        results[name] = {
            "auc_before": before_res.auc,
            "ap_before": before_res.ap,
            "auc_after": after_res.auc,
            "ap_after": after_res.ap,
        }
    diag = transform_diag or {}
    timings.update(diag.get("timings", {}))
    cfg = asdict(config)
    cfg["detectors"] = list(cfg["detectors"])
    return EvalReport(
        config=cfg,
        detector_results=results,
        n_blocks=diag.get("n_blocks", 0),
        block_masses=diag.get("block_masses", []),
        threshold=diag.get("threshold"),
        timings=timings,
    )


def scaling_probe(
    sizes: list[int], config: RunConfig, dim: int = 5
) -> list[dict[str, Any]]:
    """Time the full transform on generated datasets of the given sizes."""
    if sizes != sorted(sizes):
        raise ConfigError("sizes must be ascending")
    rows: list[dict[str, Any]] = []
    for n in sizes:
        n_out = max(1, n // 20)
        ds, _ = gen_clusters_outliers(
            n_clusters=3,
            pts_per_cluster=(n - n_out) // 3,
            n_outliers=n - 3 * ((n - n_out) // 3),
            dim=dim,
            separation=30.0,
            seed=config.seed,
        )
        prepared = prepare(ds, config)
        t0 = time.perf_counter()
        _, _, diag = run_osd(prepared, config)
        rows.append(
            {
                "n": ds.count,
                "seconds": time.perf_counter() - t0,
                "n_edges": diag["n_edges"],
                "n_blocks": diag["n_blocks"],
            }
        )
    return rows


def write_tidy_metrics_csv(
    path: str | Path, tagged_reports: list[tuple[float, EvalReport]]
) -> None:
    """Long-format (level, metric, value) rows for plotting metric curves.

    ``level`` is whatever the sweep varied (imbalance level, seed, ...);
    metrics are named <detector>_<auc|ap>_<before|after>.
    """
    lines = ["level,metric,value"]
    for level, report in tagged_reports:
        for detector, res in report.detector_results.items():
            for key, value in res.items():
                lines.append(f"{level},{detector}_{key},{value:.17g}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_points_csv(path: str | Path, ds: Dataset, labels: Labels | None = None) -> None:
    """Dump points (and optionally a trailing label column) as headered CSV."""
    cols = [f"x{i}" for i in range(ds.dim)]
    data: np.ndarray = ds.points
    if labels is not None:
        cols.append("label")
        data = np.column_stack([ds.points, labels.flags])
    header = ",".join(cols)
    np.savetxt(path, data, delimiter=",", header=header, comments="", fmt="%.17g")


def write_partition_csv(path: str | Path, partition: BlockPartition) -> None:
    rows = np.column_stack(
        [np.arange(partition.n_objects), partition.assignment]
    )
    np.savetxt(
        path, rows, delimiter=",", header="object_id,block_id", comments="", fmt="%d"
    )
