import concurrent.futures
import copy
import dataclasses
import hashlib
import inspect
import json
import sys
import threading
from functools import cache

import numpy as np
import pytest
import scipy.spatial
from scipy.spatial.distance import cdist

from osd import detectors, knngraph
from osd.blocks import divide, find_inflection, weight_histogram
from osd.dataset import Dataset, Labels
from osd.errors import ConfigError, DataError
from osd.explosion import constant_g, explode
from osd.knngraph import build
from osd.metrics import evaluate_scores
from osd.pipeline import (
    LAWS,
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
                {"T": 10**400}, {"threshold": 10**400}, {"threshold": -(10**400)},
                {"k": 5.0}):
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


def test_evaluate_scores_each_side_with_its_own_forest(monkeypatch):
    # the bench times the forest where evaluate looks it up: osd.detectors.iforest_scores
    ds, labels = ring_dataset(12)
    config = RunConfig(k=5, seed=3)
    prepared = prepare(ds, config)
    out, _, _ = run_osd(prepared, config)
    real, calls = detectors.iforest_scores, []

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(detectors, "iforest_scores", spy)
    result = evaluate(prepared, out, labels, config).detector_results["iforest"]
    # one call per side; Datasets compare by identity
    assert calls == [((prepared,), {"seed": 3}), ((out,), {"seed": 3})]
    for side, ds_side in (("before", prepared), ("after", out)):
        auc, ap = evaluate_scores(real(ds_side, seed=config.seed), labels)
        assert (result[f"auc_{side}"], result[f"ap_{side}"]) == (auc, ap)


@cache
def _probe_points():
    ds, labels = gen_clusters_outliers(3, 1584, 248, 5, 30.0, 20)
    config = RunConfig(k=10)
    prepared = prepare(ds, config)
    return prepared.points, run_osd(prepared, config)[0].points, labels


def _probe():
    """N=5000, d=5 before and after, above one k-NN block per worker at 2
    workers; fresh Datasets, so no k-NN graph is kept on them yet."""
    before, after, labels = _probe_points()
    return Dataset(before), Dataset(after), labels


def _forest_thread_spy(monkeypatch):
    real, threads = detectors.iforest_scores, []

    def spy(*args, **kwargs):
        threads.append(threading.get_ident())
        return real(*args, **kwargs)

    monkeypatch.setattr(detectors, "iforest_scores", spy)
    return threads


def test_forest_beside_lof_and_knn_equals_serial_and_leaves_no_thread(monkeypatch):
    # Frequent thread switches make a race between the two sides likelier to show.
    config, threads = RunConfig(k=10, seed=5), _forest_thread_spy(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        reports = []
        for workers in (2, 1):
            monkeypatch.setattr(knngraph, "_WORKERS", workers)
            before = threading.active_count()
            reports.append(evaluate(*_probe(), config))
            assert threading.active_count() == before
    finally:
        sys.setswitchinterval(interval)
    pooled, serial = reports
    main = threading.get_ident()
    assert threads[0] == threads[1] != main and threads[2:] == [main, main]  # one call per side
    assert pooled.detector_results == serial.detector_results
    for report in reports:  # in config order, whichever thread finished first
        assert list(report.detector_results) == list(report.timings) == list(config.detectors)


def _raising(error):
    def fail(*args, **kwargs):
        raise error

    return fail


@pytest.mark.parametrize("names", [("lof", "iforest", "knn"), ("iforest", "lof"), ("lof", "iforest")])
def test_errors_beside_the_forest_thread_raise_in_detector_order(monkeypatch, names):
    forest_error, lof_error = DataError("forest"), DataError("lof")
    monkeypatch.setattr(knngraph, "_WORKERS", 2)
    monkeypatch.setattr(detectors, "iforest_scores", _raising(forest_error))
    before = threading.active_count()
    with pytest.raises(DataError) as failed:
        evaluate(*_probe(), RunConfig(k=10, detectors=names))
    assert failed.value is forest_error
    assert threading.active_count() == before
    # Both sides fail: the error of the detector named first is raised.
    monkeypatch.setattr(detectors, "lof_scores", _raising(lof_error))
    with pytest.raises(DataError) as failed:
        evaluate(*_probe(), RunConfig(k=10, detectors=names))
    assert failed.value is (forest_error if names[0] == "iforest" else lof_error)
    assert threading.active_count() == before


def test_forest_thread_keeps_knn_after_lofs_graph(monkeypatch):
    # kNN at k=10 reads the prefix of LOF's k=20 lists: one kd-tree per side.
    # Run before LOF (or beside it), kNN would build a k=10 graph of its own.
    real, trees = scipy.spatial.cKDTree, []

    def spy(data, *args, **kwargs):
        trees.append(len(data))
        return real(data, *args, **kwargs)

    monkeypatch.setattr(scipy.spatial, "cKDTree", spy)
    monkeypatch.setattr(knngraph, "_WORKERS", 2)
    threads = _forest_thread_spy(monkeypatch)
    evaluate(*_probe(), RunConfig(k=10))
    assert threads[0] == threads[1] != threading.get_ident() and trees == [5000, 5000]


def test_forest_thread_threshold_is_one_knn_block_per_worker(monkeypatch):
    # A sweep-sized input grows its forest on the calling thread.
    def refuse(*args, **kwargs):
        raise AssertionError("thread pool started")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
    monkeypatch.setattr(knngraph, "_WORKERS", 4)
    ds, labels = gen_clusters_outliers(3, 158, 26, 3, 28.0, 0)
    prepared = prepare(ds, RunConfig())
    evaluate(prepared, run_osd(prepared, RunConfig())[0], labels, RunConfig())
    # At 4 workers a block holds 1024 rows; a row more takes the forest aside.
    threads = _forest_thread_spy(monkeypatch)
    before, after, labels = _probe()

    def evaluate_rows(n):
        rows = np.random.default_rng(n).permutation(5000)[:n]
        return evaluate(Dataset(before.points[rows]), Dataset(after.points[rows]),
                        Labels(labels.flags[rows]), RunConfig(k=10, detectors=("iforest", "lof")))

    evaluate_rows(1024)
    assert threads == [threading.get_ident()] * 2
    with pytest.raises(AssertionError, match="pool started"):  # before LOF's build starts one
        evaluate_rows(1025)
    assert threads == [threading.get_ident()] * 2


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


def rebuilt(report):
    """The report read back from its JSON, its settings checked by RunConfig."""
    raw = json.loads(report.to_json())
    return RunReport(**{**raw, "config": RunConfig(**raw["config"])})


def test_report_json_round_trip():
    ds, labels = ring_dataset(8)
    config = RunConfig(k=5, detectors=("knn",), seed=1)
    prepared = prepare(ds, config)
    out, _, report = run_osd(prepared, config)
    report = evaluate(prepared, out, labels, config, report)
    assert rebuilt(report) == report
    assert json.loads(report.to_json())["schema_version"] == 3


def test_report_json_round_trip_with_numpy_settings():
    ds, _ = ring_dataset(8)
    config = RunConfig(k=np.int64(5), T=np.float32(0.5), threshold=np.float32(0.25),
                       seed=np.int64(1), normalize=np.bool_(True))
    _, _, report = run_osd(prepare(ds, config), config)
    assert rebuilt(report) == report
    assert [type(v) for v in (config.k, config.seed, config.T, config.threshold,
                              config.normalize)] == [int, int, float, float, bool]


def test_report_config_is_the_run_config_and_round_trips():
    ds, _ = ring_dataset(8)
    config = RunConfig(k=5, threshold=-np.inf, ablation="random-bomb", detectors=("lof",))
    _, _, report = run_osd(prepare(ds, config), config)
    assert report.config is config
    assert rebuilt(report) == report
    assert json.loads(report.to_json())["config"]["detectors"] == ["lof"]


@pytest.mark.parametrize("threshold", [-np.inf, np.inf])
def test_report_with_infinite_threshold_round_trips(threshold):
    ds, labels = ring_dataset(8)
    config = RunConfig(k=5, threshold=threshold, detectors=("knn",))
    prepared = prepare(ds, config)
    out, _, report = run_osd(prepared, config)
    report = evaluate(prepared, out, labels, config, report)
    assert report.threshold == threshold
    assert rebuilt(report) == report


# What schema 3 writes for each report field, for readers outside osd: None
# marks a stage that did not run, and JSON object keys are always strings.
def _is_real(value):
    return type(value) in (int, float) and value == value  # not a JSON bool, not NaN


def _is_map(value, ok):
    return type(value) is dict and all(map(ok, value.values()))


SCHEMA_3_FIELD_TYPES = {
    "schema_version": lambda v: type(v) is int and v == 3,
    "config": lambda v: type(v) is dict and v.keys() == RunConfig.__dataclass_fields__.keys(),
    **dict.fromkeys(("k", "n_edges", "knee_bin", "n_blocks", "n_invalid_pairs"),
                    lambda v: v is None or type(v) is int),
    **dict.fromkeys(("threshold", "g_const"), lambda v: v is None or _is_real(v)),
    "block_masses": lambda v: type(v) is list and all(type(m) is int for m in v),
    "warnings": lambda v: type(v) is list and all(type(w) is str for w in v),
    "timings": lambda v: _is_map(v, _is_real),
    "detector_results": lambda v: _is_map(v, lambda r: _is_map(r, _is_real)),
}
REPORT_KINDS = ("transform", "evaluated", "no-division", "evaluate-only")


@cache
def written_report(kind):
    """The JSON text of one kind of report, and the report it was written from."""
    ds, labels = ring_dataset(8)
    config = RunConfig(k=5, ablation="no-division" if kind == "no-division" else "none")
    prepared = prepare(ds, config)
    out, _, report = run_osd(prepared, config)
    if kind == "evaluated":
        report = evaluate(prepared, out, labels, config, report)
    elif kind == "evaluate-only":
        report = evaluate(prepared, out, labels, config)
    return report.to_json(), report


@pytest.mark.parametrize("kind", REPORT_KINDS)
def test_report_json_writes_every_schema_3_field(kind):
    text, report = written_report(kind)
    assert json.loads(text).keys() == SCHEMA_3_FIELD_TYPES.keys()
    assert rebuilt(report) == report


@pytest.mark.parametrize("kind", REPORT_KINDS)
@pytest.mark.parametrize("name", SCHEMA_3_FIELD_TYPES)
def test_report_json_writes_each_field_with_its_schema_3_type(name, kind):
    text, report = written_report(kind)
    value = json.loads(text)[name]
    assert SCHEMA_3_FIELD_TYPES[name](value), f"{name} = {value!r}"
    ran = {"transform": kind != "evaluate-only",
           "division": kind in ("transform", "evaluated"), "detectors": "evaluate" in kind}
    stage = {"threshold": "division", "knee_bin": "division",
             "detector_results": "detectors"}.get(name, "transform")
    if name not in ("schema_version", "config", "timings", "warnings"):
        assert (value not in (None, [], {})) == ran[stage], f"{name} = {value!r}"


@pytest.mark.parametrize(
    ("edit", "error"),
    [
        ({"sign_mode": "literal", "direction_mode": "corrected"}, TypeError),  # schema 2
        ({"law": "literal"}, ConfigError),
        ({"whatever": 1}, TypeError),
        ({"k": -5}, ConfigError),
        ({"k": 5.0}, ConfigError),
        ({"k": "5"}, ConfigError),
        ({"threshold": "-Infinity"}, ConfigError),
        ({"threshold": float("nan")}, ConfigError),
        ({"ablation": "bogus"}, ConfigError),
        ({"detectors": "lof"}, ConfigError),
        ({"detectors": ["lof", "lof"]}, ConfigError),
        ({"normalize": 1}, ConfigError),
    ],
    ids=lambda case: json.dumps(case) if isinstance(case, dict) else case.__name__,
)
def test_report_settings_are_checked_again_when_rerun(edit, error):
    text, _ = written_report("evaluated")
    raw = json.loads(text)
    edited = json.dumps({**raw, "config": {**raw["config"], **edit}})
    with pytest.raises(error):
        RunConfig(**json.loads(edited)["config"])  # the README's rerun line
