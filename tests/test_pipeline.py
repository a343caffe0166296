import inspect
import json

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from osd.dataset import Dataset, Labels
from osd.errors import ConfigError, DataError
from osd.pipeline import (
    EvalReport,
    RunConfig,
    evaluate,
    prepare,
    run_osd,
    scaling_probe,
)


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


def test_single_block_dataset_is_fixed_point():
    rng = np.random.default_rng(0)
    ds = Dataset(rng.normal(size=(20, 2)))
    config = RunConfig(k=3, threshold=-np.inf, normalize=False)
    out, partition, diag = run_osd(ds, config)
    assert partition.n_blocks == 1
    np.testing.assert_array_equal(out.points, ds.points)
    assert diag["n_invalid_pairs"] == 0


def test_no_repulsion_equals_none_when_no_invalid_pairs():
    rng = np.random.default_rng(1)
    ds = Dataset(rng.normal(size=(25, 2)))
    base = RunConfig(k=3, threshold=-np.inf, normalize=False)
    out_none, _, diag = run_osd(ds, base)
    assert diag["n_invalid_pairs"] == 0
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
    out1, _, diag1 = run_osd(prepared, config)
    out2, _, diag2 = run_osd(prepared, config)
    np.testing.assert_array_equal(out1.points, out2.points)
    assert diag1["threshold"] == diag2["threshold"]
    assert diag1["n_invalid_pairs"] == diag2["n_invalid_pairs"]


def test_transform_never_sees_labels():
    params = inspect.signature(run_osd).parameters
    assert "labels" not in params
    ds, _ = ring_dataset(0)
    config = RunConfig(k=5)
    run_osd(prepare(ds, config), config)  # callable with no labels at all


def test_degenerate_scale_warns_and_substitutes():
    ds = Dataset(np.zeros((6, 2)))
    config = RunConfig(k=2, threshold=1.0, normalize=False)  # singletons
    out, _, diag = run_osd(ds, config)
    assert any("G = 0" in w for w in diag["warnings"])
    np.testing.assert_array_equal(out.points, ds.points)  # eps guard holds


def test_no_division_ablation_gives_singletons():
    ds, _ = ring_dataset(2)
    config = RunConfig(k=5, ablation="no-division")
    _, partition, diag = run_osd(prepare(ds, config), config)
    assert partition.n_blocks == ds.count
    assert diag["threshold"] is None


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


def test_report_json_round_trip():
    ds, labels = ring_dataset(8)
    config = RunConfig(k=5, detectors=("knn",), seed=1)
    prepared = prepare(ds, config)
    out, _, diag = run_osd(prepared, config)
    report = evaluate(prepared, out, labels, config, diag)
    restored = EvalReport.from_json(report.to_json())
    assert restored == report
    assert json.loads(report.to_json())["schema_version"] == 1


def test_report_rejects_unknown_schema():
    with pytest.raises(DataError):
        EvalReport.from_json('{"schema_version": 99}')


def test_tidy_metrics_export(tmp_path):
    from osd.pipeline import write_tidy_metrics_csv

    config = RunConfig(k=5, detectors=("knn",), seed=2)
    tagged = []
    for level, seed in ((1.0, 2), (4.0, 3)):
        ds, labels = ring_dataset(seed)
        prepared = prepare(ds, config)
        out, _, diag = run_osd(prepared, config)
        tagged.append((level, evaluate(prepared, out, labels, config, diag)))
    path = tmp_path / "tidy.csv"
    write_tidy_metrics_csv(path, tagged)
    lines = path.read_text().splitlines()
    assert lines[0] == "level,metric,value"
    assert len(lines) == 1 + 2 * 4  # two levels x four knn metrics
    assert lines[1].startswith("1.0,knn_auc_before,")


def test_scaling_probe_rows_and_bookkeeping():
    rows = scaling_probe([200, 400], RunConfig(k=5, seed=0), dim=3)
    assert [r["n"] for r in rows] == [200, 400]
    assert all(r["seconds"] > 0 for r in rows)
    assert all(r["n_edges"] > 0 for r in rows)
    with pytest.raises(ConfigError):
        scaling_probe([400, 200], RunConfig(k=5))
