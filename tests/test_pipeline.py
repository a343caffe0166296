import copy
import dataclasses
import hashlib
import inspect
import json

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from osd.blocks import divide, find_inflection, weight_histogram
from osd.dataset import Dataset, Labels
from osd.errors import ConfigError, DataError
from osd.explosion import constant_g, explode
from osd.knngraph import build
from osd.pipeline import (
    LAWS,
    REPORT_SCHEMA_VERSION,
    RunConfig,
    RunReport,
    evaluate,
    prepare,
    run_osd,
)
from osd.repulsion import find_invalid_neighbors, repel
from osd.synth import gen_clusters_outliers


def ring_dataset(seed, n_outliers=5):
    """Two tight clusters with outliers on a ring outside the cluster span."""
    rng = np.random.default_rng(seed)
    s = 40.0
    c1 = rng.standard_normal((50, 2))
    c2 = rng.standard_normal((50, 2)) + [s, 0.0]
    mid = np.array([s / 2, 0.0])
    ang = rng.uniform(0, 2 * np.pi, n_outliers)
    rad = rng.uniform(1.0 * s, 1.4 * s, n_outliers)
    outl = mid + rad[:, None] * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    pts = np.vstack([c1, c2, outl])
    flags = np.zeros(len(pts), dtype=np.int8)
    flags[100:] = 1
    return Dataset(pts), Labels(flags)


def test_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(ablation="bogus")
    with pytest.raises(ConfigError):
        RunConfig(detectors=("lof", "nope"))
    for repeated in (("lof", "lof"), ("lof", "knn", "lof"), ["iforest", "iforest"]):
        with pytest.raises(ConfigError, match="repeat"):
            RunConfig(detectors=repeated)


def test_config_rejects_bad_explosion_settings_at_construction():
    for bad in ({"T": 0}, {"law": "bogus"}, {"law": "literal"}, {"law": ["corrected"]},
                {"k": 0}, {"k": -3}, {"T": np.nan}, {"T": np.inf},
                {"T": -np.inf}, {"threshold": np.nan}, {"k": 2.5}, {"k": "3"},
                {"seed": -1}, {"seed": 1.5}, {"detectors": "lof"}, {"T": "1"},
                {"threshold": "0.5"}, {"k": True}, {"seed": False}, {"T": True},
                {"threshold": False}, {"normalize": "no"}, {"normalize": 1},
                {"detectors": 5}, {"detectors": None}, {"seed": None}, {"T": None},
                {"T": 10**400}, {"threshold": 10**400}, {"threshold": -(10**400)}):
        with pytest.raises(ConfigError):
            RunConfig(**bad)
    for edge in (-np.inf, np.inf):  # keep every edge / prune every edge
        assert RunConfig(threshold=edge).threshold == edge


@pytest.mark.parametrize("t", [-0.7, np.float64(-1.5), -1, -np.inf, np.inf])
def test_threshold_setting_skips_knee_detection(t):
    ds, _ = ring_dataset(6)
    config = RunConfig(k=5, threshold=t)
    prepared = prepare(ds, config)
    _, partition, report = run_osd(prepared, config)
    assert report.threshold == float(t) and type(report.threshold) is float
    assert report.knee_bin is None
    assert report.warnings == []
    expected = divide(build(Dataset(prepared.points), 5), t)
    np.testing.assert_array_equal(partition.assignment, expected.assignment)
    np.testing.assert_array_equal(partition.masses, expected.masses)


def test_default_run_of_twenty_objects_warns_and_prunes_nothing():
    # 20 objects give 2 histogram bins, too few for a knee
    ds = Dataset(np.random.default_rng(12).normal(size=(20, 2)))
    config = RunConfig()
    prepared = prepare(ds, config)
    _, partition, report = run_osd(prepared, config)
    assert report.warnings == ["histogram too coarse for knee detection; nothing pruned"]
    assert report.knee_bin is None
    graph = build(prepared, report.k)
    assert report.threshold == graph.edge_weights.min()
    expected = divide(graph, -np.inf)
    np.testing.assert_array_equal(partition.assignment, expected.assignment)


def test_direction_mode_has_no_effect_under_literal_signs():
    # literal displacement squares each component of a block's resultant,
    # so negating every repulsive force moves no point differently; that is
    # why LAWS holds literal signs once.  Checked on repel with the invalid
    # pairs of a real run.
    ds = prepare(gen_clusters_outliers(2, 40, 4, 2, 25.0, 1)[0], RunConfig())
    graph = build(ds, 10)
    threshold, _ = find_inflection(*weight_histogram(graph.edge_weights, graph.n_objects))
    partition = divide(graph, threshold)
    for signs, moot in (("literal", True), ("corrected", False)):
        exploded, _ = explode(ds, partition, constant_g(graph), 1.0, signs)
        pairs = find_invalid_neighbors(graph, exploded, partition)
        assert len(pairs) > 0
        literal, corrected = (repel(exploded, partition, pairs, signs, direction).points
                              for direction in ("literal", "corrected"))
        assert (literal.tobytes() == corrected.tobytes()) is moot


def test_each_law_moves_points_its_own_way():
    # sha256 prefixes of the relocated points; each equals what the law's
    # (sign_mode, direction_mode) pair gave when they were two settings
    ds, _ = gen_clusters_outliers(2, 40, 4, 2, 25.0, 1)
    digests = {}
    for law in LAWS:
        config = RunConfig(law=law)
        out, _, report = run_osd(prepare(ds, config), config)
        assert report.n_invalid_pairs > 0
        digests[law] = hashlib.sha256(out.points.tobytes()).hexdigest()[:12]
    assert digests == {"corrected": "6b5dab12cfc6", "literal-sign": "19641a65df90",
                       "literal-direction": "24df3ac1f455"}


def test_single_block_dataset_is_fixed_point():
    rng = np.random.default_rng(0)
    ds = Dataset(rng.normal(size=(20, 2)))
    config = RunConfig(k=3, threshold=-np.inf, normalize=False)
    out, partition, report = run_osd(ds, config)
    assert partition.n_blocks == 1
    np.testing.assert_array_equal(out.points, ds.points)
    assert report.n_invalid_pairs == 0


def test_no_repulsion_equals_none_when_no_invalid_pairs():
    rng = np.random.default_rng(1)
    ds = Dataset(rng.normal(size=(25, 2)))
    base = RunConfig(k=3, threshold=-np.inf, normalize=False)
    out_none, _, report = run_osd(ds, base)
    assert report.n_invalid_pairs == 0
    out_nore, _, _ = run_osd(ds, RunConfig(k=3, threshold=-np.inf,
                                           normalize=False,
                                           ablation="no-repulsion"))
    np.testing.assert_array_equal(out_none.points, out_nore.points)


def test_outliers_recede_from_normals_across_seeds():
    for seed in range(20):
        ds, labels = ring_dataset(seed)
        config = RunConfig(k=5, T=1.0, seed=seed)
        prepared = prepare(ds, config)
        out, _, _ = run_osd(prepared, config)
        o = labels.flags == 1
        n = labels.flags == 0
        before = cdist(prepared.points[o], prepared.points[n]).min()
        after = cdist(out.points[o], out.points[n]).min()
        assert after > before


def test_full_pipeline_deterministic():
    ds, labels = ring_dataset(3)
    config = RunConfig(k=5, seed=9)
    prepared = prepare(ds, config)
    out1, _, report1 = run_osd(prepared, config)
    out2, _, report2 = run_osd(prepared, config)
    np.testing.assert_array_equal(out1.points, out2.points)
    assert report1.threshold == report2.threshold
    assert report1.n_invalid_pairs == report2.n_invalid_pairs


def test_transform_never_sees_labels():
    params = inspect.signature(run_osd).parameters
    assert "labels" not in params
    ds, _ = ring_dataset(0)
    config = RunConfig(k=5)
    run_osd(prepare(ds, config), config)  # callable with no labels at all


def test_degenerate_scale_warns_and_substitutes():
    ds = Dataset(np.zeros((6, 2)))
    config = RunConfig(k=2, threshold=1.0, normalize=False)  # singletons
    out, _, report = run_osd(ds, config)
    assert any("G = 0" in w for w in report.warnings)
    np.testing.assert_array_equal(out.points, ds.points)  # eps guard holds


def test_no_division_ablation_gives_singletons():
    ds, _ = ring_dataset(2)
    config = RunConfig(k=5, ablation="no-division")
    _, partition, report = run_osd(prepare(ds, config), config)
    assert partition.n_blocks == ds.count
    assert report.threshold is None


def test_random_bomb_ablation_seeded():
    ds, _ = ring_dataset(4)
    config = RunConfig(k=5, ablation="random-bomb", seed=7)
    out1, _, _ = run_osd(prepare(ds, config), config)
    out2, _, _ = run_osd(prepare(ds, config), config)
    np.testing.assert_array_equal(out1.points, out2.points)
    other = RunConfig(k=5, ablation="random-bomb", seed=8)
    out3, _, _ = run_osd(prepare(ds, other), other)
    assert not np.array_equal(out1.points, out3.points)


def test_evaluate_identical_datasets_identical_metrics():
    ds, labels = ring_dataset(5)
    config = RunConfig(k=5, detectors=("lof", "knn"), seed=0)
    prepared = prepare(ds, config)
    report = evaluate(prepared, prepared, labels, config)
    for res in report.detector_results.values():
        assert res["auc_before"] == res["auc_after"]
        assert res["ap_before"] == res["ap_after"]


def test_evaluate_perfect_separation_scores_one():
    rng = np.random.default_rng(6)
    normal = rng.normal(size=(40, 2))
    outl = rng.normal(size=(4, 2)) + 500.0
    ds = Dataset(np.vstack([normal, outl]))
    labels = Labels(np.concatenate([np.zeros(40, int), np.ones(4, int)]))
    config = RunConfig(k=5, detectors=("knn",), normalize=False)
    report = evaluate(ds, ds, labels, config)
    assert report.detector_results["knn"]["auc_after"] == 1.0


def test_evaluate_requires_labels():
    ds, _ = ring_dataset(7)
    with pytest.raises(DataError):
        evaluate(ds, ds, None, RunConfig(k=5))


def test_evaluate_rejects_after_of_another_length():
    ds, labels = ring_dataset(7)
    shorter = Dataset(ds.points[:-1])
    with pytest.raises(DataError, match="dataset length"):
        evaluate(ds, shorter, labels, RunConfig(k=5, detectors=("knn",)))


def test_evaluate_without_report_leaves_transform_fields_at_defaults():
    ds, labels = ring_dataset(9)
    config = RunConfig(k=5, detectors=("knn",))
    report = evaluate(ds, ds, labels, config)
    assert report == RunReport(
        config=config,
        detector_results=report.detector_results,
        timings=report.timings,
    )
    assert set(report.detector_results) == set(report.timings) == {"knn"}


def test_evaluate_refuses_a_report_made_under_another_config():
    ds, labels = ring_dataset(11)
    prepared = prepare(ds, RunConfig())
    out, _, report = run_osd(prepared, RunConfig())
    with pytest.raises(ConfigError, match="another config"):
        evaluate(prepared, out, labels, RunConfig(seed=7, detectors=("iforest",)), report)


def test_evaluate_copies_the_transform_report():
    ds, labels = ring_dataset(10)
    config = RunConfig(k=5, detectors=("knn",))
    prepared = prepare(ds, config)
    out, _, transform = run_osd(prepared, config)
    kept = copy.deepcopy(transform)
    report = evaluate(prepared, out, labels, config, transform)
    assert transform == kept  # the argument is not mutated
    assert report.detector_results and not transform.detector_results
    assert report.timings == {**transform.timings, "knn": report.timings["knn"]}
    assert dataclasses.replace(report, detector_results={}, timings=transform.timings) == transform


def test_report_json_round_trip():
    ds, labels = ring_dataset(8)
    config = RunConfig(k=5, detectors=("knn",), seed=1)
    prepared = prepare(ds, config)
    out, _, report = run_osd(prepared, config)
    report = evaluate(prepared, out, labels, config, report)
    restored = RunReport.from_json(report.to_json())
    assert restored == report
    assert json.loads(report.to_json())["schema_version"] == 3


def test_report_json_round_trip_with_numpy_settings():
    ds, _ = ring_dataset(8)
    config = RunConfig(k=np.int64(5), T=np.float32(0.5), threshold=np.float32(0.25),
                       seed=np.int64(1), normalize=np.bool_(True))
    _, _, report = run_osd(prepare(ds, config), config)
    assert RunReport.from_json(report.to_json()) == report
    assert [type(v) for v in (config.k, config.seed, config.T, config.threshold,
                              config.normalize)] == [int, int, float, float, bool]


def test_report_config_is_the_run_config_and_round_trips():
    ds, _ = ring_dataset(8)
    config = RunConfig(k=5, threshold=-np.inf, ablation="random-bomb", detectors=("lof",))
    _, _, report = run_osd(prepare(ds, config), config)
    assert report.config is config
    restored = RunReport.from_json(report.to_json())
    assert type(restored.config) is RunConfig and restored.config == config
    assert json.loads(report.to_json())["config"]["detectors"] == ["lof"]


@pytest.mark.parametrize("threshold", [-np.inf, np.inf])
def test_report_with_infinite_threshold_round_trips(threshold):
    ds, labels = ring_dataset(8)
    config = RunConfig(k=5, threshold=threshold, detectors=("knn",))
    prepared = prepare(ds, config)
    out, _, report = run_osd(prepared, config)
    report = evaluate(prepared, out, labels, config, report)
    assert report.threshold == threshold
    assert RunReport.from_json(report.to_json()) == report


def test_report_rejects_unknown_schema():
    with pytest.raises(DataError):
        RunReport.from_json('{"schema_version": 99}')


HEAD = f'{{"schema_version": {REPORT_SCHEMA_VERSION}'  # a report text at today's schema


@pytest.mark.parametrize(
    "text",
    [
        HEAD + '}',
        pytest.param('{"schema_version": 2, "config": {"sign_mode": "literal", '
                     '"direction_mode": "corrected"}}', id="schema-2-mode-pair"),
        HEAD + ', "config": {"sign_mode": "literal", "direction_mode": "corrected"}}',
        HEAD + ', "config": {"law": "literal"}}',
        HEAD + ', "config": {}, "unknown": 1}',
        HEAD + ', "config": [1]}',
        HEAD + ', "config": {"k": -5, "ablation": "bogus", "whatever": 1}}',
        HEAD + ', "config": {"k": -5}}',
        HEAD + ', "config": {"ablation": "bogus"}}',
        HEAD + ', "config": {"whatever": 1}}',
        HEAD + ', "config": {"k": 5.0}}',
        "[1]",
        "{not json",
        pytest.param(HEAD + ', "config": {}, "k": ' + "9" * 5000 + "}",
                     id="k-of-5000-digits"),
        pytest.param("[" * 100_000, id="nested-100000-deep"),
        HEAD + ', "config": {}, "k": "abc", "block_masses": 5, "timings": [1]}',
        HEAD + ', "config": {}, "k": "abc"}',
        HEAD + ', "config": {}, "k": 5.0}',
        HEAD + ', "config": {}, "n_edges": true}',
        HEAD + ', "config": {}, "knee_bin": [3]}',
        HEAD + ', "config": {}, "n_blocks": "7"}',
        HEAD + ', "config": {}, "n_invalid_pairs": false}',
        HEAD + ', "config": {}, "threshold": "-Infinity"}',
        HEAD + '.0, "config": {}}',
        HEAD + ', "config": {}, "threshold": NaN}',
        HEAD + ', "config": {}, "g_const": NaN}',
        HEAD + ', "config": {}, "g_const": true}',
        HEAD + ', "config": {}, "block_masses": 5}',
        HEAD + ', "config": {}, "block_masses": [1, 2.5]}',
        HEAD + ', "config": {}, "warnings": "one"}',
        HEAD + ', "config": {}, "warnings": [1]}',
        HEAD + ', "config": {}, "timings": [1]}',
        HEAD + ', "config": {}, "timings": {"knngraph": "fast"}}',
        HEAD + ', "config": {}, "detector_results": {"lof": 0.5}}',
        HEAD + ', "config": {}, "detector_results": {"lof": {"auc_after": null}}}',
        HEAD + ', "config": {}, "timings": {"knngraph": NaN}}',
        HEAD + ', "config": {}, "detector_results": {"lof": {"auc_after": NaN}}}',
    ],
)
def test_report_from_json_rejects_malformed_input(text):
    with pytest.raises(DataError):
        RunReport.from_json(text)
