import numpy as np
import pytest

from osd.dataset import Dataset
from osd.detectors import (
    average_path_length,
    iforest_scores,
    knn_dist_scores,
    lof_scores,
)
from osd.errors import ConfigError

from oracles import _average_path_length, iforest_oracle, knn_oracle, lof_oracle


def _grid(side=8):
    xs, ys = np.meshgrid(np.arange(float(side)), np.arange(float(side)))
    return np.column_stack([xs.ravel(), ys.ravel()])


def test_lof_uniform_grid_interior_near_one():
    grid = _grid()
    scores = lof_scores(Dataset(grid), 5)
    interior = [i for i, (x, y) in enumerate(grid) if 1 <= x <= 6 and 1 <= y <= 6]
    assert np.all(scores[interior] >= 0.9)
    assert np.all(scores[interior] <= 1.1)


def test_lof_far_point_is_strict_maximum():
    pts = np.vstack([_grid(), [[100.0, 50.0]]])
    scores = lof_scores(Dataset(pts), 5)
    assert scores[-1] > np.max(scores[:-1])


def test_lof_matches_reference_implementation():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(60, 3))
    ours = lof_scores(Dataset(pts), 7)
    np.testing.assert_allclose(ours, lof_oracle(pts, 7), rtol=1e-9)


def test_lof_all_points_mutual_neighbors():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(6, 2))
    scores = lof_scores(Dataset(pts), 5)
    assert np.all(np.isfinite(scores))


def test_lof_duplicates_stay_finite():
    pts = np.vstack([np.zeros((4, 2)), [[1.0, 0.0]]])
    scores = lof_scores(Dataset(pts), 2)
    assert np.all(np.isfinite(scores))


def test_lof_parameter_validation():
    ds = Dataset(np.zeros((4, 2)))
    with pytest.raises(ConfigError):
        lof_scores(ds, 0)
    with pytest.raises(ConfigError):
        lof_scores(ds, 4)


def test_lof_permutation_equivariance():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(40, 3))
    perm = rng.permutation(40)
    base = lof_scores(Dataset(pts), 6)
    shuffled = lof_scores(Dataset(pts[perm]), 6)
    np.testing.assert_allclose(shuffled, base[perm], rtol=1e-12)


def test_knn_dist_collinear_scores():
    ds = Dataset(np.array([[1.0, 0, 0], [2, 0, 0], [3, 0, 0], [4, 0, 0]]))
    _, dist = knn_oracle(ds.points, 2)
    scores = knn_dist_scores(ds, 2)
    np.testing.assert_array_equal(scores, dist[:, -1])
    assert scores.tolist() == [2.0, 1.0, 1.0, 2.0]


def test_knn_dist_duplicates_score_zero():
    ds = Dataset(np.array([[0.0, 0], [0, 0], [3, 3], [3, 3]]))
    scores = knn_dist_scores(ds, 1)
    np.testing.assert_array_equal(scores, np.zeros(4))


def test_knn_dist_far_point_dominates():
    rng = np.random.default_rng(3)
    pts = np.vstack([rng.normal(size=(30, 2)), [[50.0, 50.0]]])
    scores = knn_dist_scores(Dataset(pts), 4)
    assert np.argmax(scores) == 30


def test_knn_dist_permutation_equivariance():
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(35, 2))
    perm = rng.permutation(35)
    base = knn_dist_scores(Dataset(pts), 5)
    shuffled = knn_dist_scores(Dataset(pts[perm]), 5)
    np.testing.assert_allclose(shuffled, base[perm], rtol=1e-12)


def test_average_path_length_base_cases():
    assert average_path_length(0) == 0.0
    assert average_path_length(1) == 0.0
    assert average_path_length(2) == 1.0  # 2*H(1) - 2*(1/2)
    # n = 5: 2*(1 + 1/2 + 1/3 + 1/4) - 2*4/5
    assert average_path_length(5) == pytest.approx(2 * (1 + 0.5 + 1 / 3 + 0.25) - 1.6)


def test_average_path_length_equals_term_by_term_sum_bitwise():
    for n in range(301):
        assert average_path_length(n) == _average_path_length(n), n


def test_iforest_score_formula_fixed_point():
    # if E[h(x)] equals c(n), the score is exactly 0.5
    c = average_path_length(256)
    assert 2.0 ** (-c / c) == 0.5


def test_iforest_scores_in_unit_interval_and_deterministic():
    rng = np.random.default_rng(5)
    ds = Dataset(rng.normal(size=(80, 3)))
    s1 = iforest_scores(ds, seed=123)
    s2 = iforest_scores(ds, seed=123)
    np.testing.assert_array_equal(s1, s2)
    assert np.all((s1 > 0) & (s1 < 1))
    s3 = iforest_scores(ds, seed=124)
    assert not np.array_equal(s1, s3)


def test_iforest_far_outlier_tops_scores_across_seeds():
    rng = np.random.default_rng(7)
    base = rng.standard_normal((60, 2)) * 0.5
    ds = Dataset(np.vstack([base, [[30.0, 30.0]]]))
    hits = sum(
        int(np.argmax(iforest_scores(ds, seed=seed))) == 60
        for seed in range(100)
    )
    assert hits >= 95


def test_iforest_constant_data():
    ds = Dataset(np.ones((10, 2)))
    scores = iforest_scores(ds, seed=0)
    assert np.all(np.isfinite(scores))
    assert np.allclose(scores, scores[0])


_SPREAD = np.random.default_rng(8).normal(size=(300, 3))  # more than one tree samples
_IFOREST_CASES = {
    "two_points_d1": np.array([[0.0], [1.0]]),
    "all_equal": np.full((20, 2), 3.5),
    "rounded_duplicates": np.round(np.random.default_rng(9).uniform(size=(400, 2)), 1),
    "fewer_than_subsample": _SPREAD[:90],
    "more_than_subsample": _SPREAD,
    "scaled_1e-12": _SPREAD * 1e-12,
    "scaled_1e12": _SPREAD * 1e12,
    # a split value often lands exactly on a coordinate only a few ulps away
    "ulps_apart": 1.0 + np.random.default_rng(10).integers(4, size=(300, 2)) * 2.0**-52,
}


@pytest.mark.parametrize("seed", [0, 31])
@pytest.mark.parametrize("case", sorted(_IFOREST_CASES))
def test_iforest_equals_tree_oracle_bitwise(case, seed):
    pts = _IFOREST_CASES[case]
    assert np.array_equal(iforest_scores(Dataset(pts), seed=seed), iforest_oracle(pts, seed))
