import hashlib

import numpy as np
import pytest

from osd.blocks import divide, find_inflection, weight_histogram
from osd.errors import ConfigError
from osd.knngraph import build
from osd.synth import gen_clusters_outliers, gen_imbalance_series


def test_no_outliers_all_labels_zero():
    ds, labels = gen_clusters_outliers(2, 20, 0, 2, 15.0, 0)
    assert ds.count == 40
    assert labels.n_outliers == 0


def test_two_separated_clusters_divide_into_two_big_blocks():
    # without outliers the weight histogram has no long tail, so the knee
    # trims a few Gaussian fringe points into singletons; the two cluster
    # cores must still come out as exactly two dominant blocks
    for seed in range(6):
        ds, labels = gen_clusters_outliers(2, 50, 0, 2, 20.0, seed)
        g = build(ds, 5)
        part = divide(g, find_inflection(*weight_histogram(g.edge_weights, g.n_objects))[0])
        masses = sorted(part.masses.tolist(), reverse=True)
        assert masses[0] + masses[1] >= 95
        assert all(m <= 2 for m in masses[2:])


def test_fixed_seed_bit_identical():
    a, la = gen_clusters_outliers(3, 30, 5, 3, 18.0, 42)
    b, lb = gen_clusters_outliers(3, 30, 5, 3, 18.0, 42)
    np.testing.assert_array_equal(a.points, b.points)
    np.testing.assert_array_equal(la.flags, lb.flags)


def test_labels_mark_trailing_outliers():
    ds, labels = gen_clusters_outliers(2, 25, 4, 2, 20.0, 7)
    assert labels.flags[:50].sum() == 0
    assert labels.flags[50:].sum() == 4


def test_centers_respect_separation():
    ds, labels = gen_clusters_outliers(4, 10, 0, 2, 25.0, 3)
    centers = [ds.points[i * 10 : (i + 1) * 10].mean(axis=0) for i in range(4)]
    for i in range(4):
        for j in range(i + 1, 4):
            # empirical centroids wobble around the true centers
            assert np.linalg.norm(centers[i] - centers[j]) > 25.0 - 3.0


def test_outliers_keep_out_of_cluster_cores():
    ds, labels = gen_clusters_outliers(2, 40, 10, 2, 28.0, 5)
    centers = [ds.points[:40].mean(axis=0), ds.points[40:80].mean(axis=0)]
    for row in ds.points[labels.flags == 1]:
        for c in centers:
            assert np.linalg.norm(row - c) > 28.0 / 4 - 1.0


def test_outliers_are_small_minority():
    ds, labels = gen_clusters_outliers(2, 50, 5, 2, 20.0, 11)
    assert labels.n_outliers / ds.count < 0.1


def test_parameter_validation():
    with pytest.raises(ConfigError):
        gen_clusters_outliers(0, 10, 0, 2, 10.0, 0)
    with pytest.raises(ConfigError):
        gen_clusters_outliers(2, 10, 0, 2, -1.0, 0)
    with pytest.raises(ConfigError):
        gen_imbalance_series([0.5], 0)
    for dim in (0, -2):
        with pytest.raises(ConfigError):
            gen_clusters_outliers(2, 10, 1, dim, 10.0, 0)
        with pytest.raises(ConfigError):
            gen_imbalance_series([2.0], 0, dim=dim)
    for bad in (np.nan, np.inf, -np.inf, 0.0):
        with pytest.raises(ConfigError):
            gen_clusters_outliers(2, 10, 1, 2, bad, 0)
        with pytest.raises(ConfigError):
            gen_imbalance_series([bad], 0)
    for size in (0, -1):
        with pytest.raises(ConfigError):
            gen_imbalance_series([2.0], 0, pts_per_cluster=size)
    with pytest.raises(ConfigError, match="seed must be an integer >= 0, got -1"):
        gen_clusters_outliers(2, 10, 1, 2, 10.0, -1)
    with pytest.raises(ConfigError, match="seed must be an integer >= 0, got -1"):
        gen_imbalance_series([2.0], -1)
    # the same checks as RunConfig's: no bool, float or string passes for an integer
    for seed in (None, [1, 2], 1.5, True):
        with pytest.raises(ConfigError, match="seed must be an integer >= 0"):
            gen_clusters_outliers(2, 10, 2, 2, 28.0, seed)
        with pytest.raises(ConfigError, match="seed must be an integer >= 0"):
            gen_imbalance_series([2.0], seed)
    for count in (10.5, 2.0, True, "2"):
        for at in range(4):  # n_clusters, pts_per_cluster, n_outliers, dim
            args = [2, 10, 2, 2, 28.0, 0]
            args[at] = count
            with pytest.raises(ConfigError, match="must be an integer"):
                gen_clusters_outliers(*args)
        with pytest.raises(ConfigError, match="must be an integer"):
            gen_imbalance_series([2.0], 0, dim=count)
        with pytest.raises(ConfigError, match="must be an integer"):
            gen_imbalance_series([2.0], 0, pts_per_cluster=count)
    for real in ("28", True, 10**400):
        with pytest.raises(ConfigError, match="separation"):
            gen_clusters_outliers(2, 10, 2, 2, real, 0)
        with pytest.raises(ConfigError, match="imbalance level"):
            gen_imbalance_series([2.0, real], 0)


def test_numpy_scalar_settings_give_the_same_bytes():
    plain = gen_clusters_outliers(3, 20, 4, 3, 28.0, 7)
    scalars = gen_clusters_outliers(np.int64(3), np.int64(20), np.int64(4), np.int64(3),
                                    np.float64(28.0), np.int64(7))
    assert _sha256([scalars]) == _sha256([plain])
    plain = gen_imbalance_series([1.0, 3.0], 5, dim=3, pts_per_cluster=40)
    scalars = gen_imbalance_series([np.float64(1.0), np.float64(3.0)], np.int64(5),
                                   dim=np.int64(3), pts_per_cluster=np.int64(40))
    assert _sha256(scalars) == _sha256(plain)


def test_centers_that_cannot_be_placed_are_config_error(monkeypatch):
    # one draw per try, so a budget of one try places one center at most
    monkeypatch.setattr("osd.synth._MAX_TRIES", 1)
    with pytest.raises(ConfigError, match="could not place 2 centers 10.0 apart in 1 tries"):
        gen_clusters_outliers(2, 10, 0, 2, 10.0, 0)
    gen_clusters_outliers(1, 10, 0, 2, 10.0, 0)


def test_imbalance_level_one_equal_spreads():
    (ds, labels), = gen_imbalance_series([1.0], seed=0, pts_per_cluster=200)
    a = ds.points[:200] - ds.points[:200].mean(axis=0)
    b = ds.points[200:400] - ds.points[200:400].mean(axis=0)
    assert a.std() == pytest.approx(b.std(), rel=0.15)


def test_imbalance_spread_ratio_follows_density_exponent():
    # density ~ spread^-dim, so L = 4 in 2-d means spread ratio 2
    (ds, labels), = gen_imbalance_series([4.0], seed=1, pts_per_cluster=300)
    a = ds.points[:300] - ds.points[:300].mean(axis=0)
    b = ds.points[300:600] - ds.points[300:600].mean(axis=0)
    ratio = b.std() / a.std()
    assert ratio == pytest.approx(2.0, rel=0.15)


def test_imbalance_measured_density_ratio_tracks_level():
    # k-distance density oracle: density ratio ~ (kdist_sparse/kdist_dense)^dim
    for level in (2.0, 4.0, 12.0):
        ratios = []
        for seed in range(10):
            (ds, _), = gen_imbalance_series([level], seed=seed)
            kd = build(ds, 10).neighbor_dist[:, -1]
            ratios.append((kd[150:300].mean() / kd[:150].mean()) ** 2)
        assert np.mean(ratios) == pytest.approx(level, rel=0.2)


def test_imbalance_series_deterministic_and_labeled():
    pairs1 = gen_imbalance_series([1.0, 8.0], seed=5)
    pairs2 = gen_imbalance_series([1.0, 8.0], seed=5)
    for (d1, l1), (d2, l2) in zip(pairs1, pairs2):
        np.testing.assert_array_equal(d1.points, d2.points)
        assert l1.n_outliers == l2.n_outliers > 0


def _sha256(pairs):
    h = hashlib.sha256()
    for ds, labels in pairs:
        h.update(ds.points.tobytes())
        h.update(labels.flags.tobytes())
    return h.hexdigest()


# The benchmark's inputs come from these calls; a changed random stream
# would change every benchmark digest, so the outputs are pinned here.
@pytest.mark.parametrize("make, digest", [
    (lambda: [gen_clusters_outliers(3, 158, 26, 3, 28.0, s) for s in range(10)],
     "4b0d4271f77fb277ea7e30ec9996289c3147cccc65c3cfa12a97d0f63492dbc1"),
    (lambda: gen_imbalance_series([1, 2, 4, 8, 12], seed=0),
     "a03e2c2d63c89a7a74acd9ee8a0f7b0d9ca6c8566add6f449030726c823c8c0c"),
    (lambda: [gen_clusters_outliers(3, 5066, 802, 5, 30.0, 0)],
     "e641157395447478694b7baa36302e41f33cd4ee575bb0a6cfa144353b6cd226"),
], ids=["sweep-clusters", "imbalance-series", "probe-16k"])
def test_generator_outputs_are_pinned(make, digest):
    assert _sha256(make()) == digest
