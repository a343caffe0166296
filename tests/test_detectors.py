import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

from osd.dataset import Dataset
from osd.detectors import (
    _draws,
    _grow_forest,
    _path_lengths,
    iforest_scores,
    knn_dist_scores,
    lof_scores,
)
from osd.errors import ConfigError
from osd.synth import gen_clusters_outliers

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


def test_lof_finite_where_the_diagonal_squares_past_the_float_range():
    t = np.linspace(0.0, 3e154, 400)  # a chain whose span squared is 9e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scores = lof_scores(Dataset(np.column_stack([t, 0.5 * t])))
    assert np.isfinite(scores).all()


@pytest.mark.parametrize("e", [1016, 1018])
def test_lof_near_the_top_of_the_float_range_equals_lof_unscaled(e):
    # a row's 20 reachabilities would sum past the float range long before any distance does
    ds = gen_clusters_outliers(2, 100, 10, 2, 20.0, 0)[0]
    scaled = Dataset(np.ldexp(ds.points, e))
    assert np.isfinite(scaled.diameter())
    np.testing.assert_array_equal(lof_scores(scaled), lof_scores(ds))


def test_lof_parameter_validation():
    ds = Dataset(np.zeros((4, 2)))
    with pytest.raises(ConfigError):
        lof_scores(ds, 0)
    with pytest.raises(ConfigError):
        lof_scores(ds, 4)


@pytest.mark.parametrize("score", [lof_scores, knn_dist_scores])
def test_neighbor_detectors_refuse_a_k_that_is_not_an_integer(score):
    ds = Dataset(_grid(4))
    for k in (2.5, 2.0, True, "3"):
        with pytest.raises(ConfigError, match="k must be an integer"):
            score(ds, k)
    assert np.array_equal(score(ds, np.int64(3)), score(Dataset(_grid(4)), 3))


@st.composite
def _permuted(draw, decimals=st.none()):
    """(points, k, permutation); rounding to a few decimals makes ties."""
    n = draw(st.integers(3, 80))
    d = draw(st.integers(1, 50))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.normal(size=(n, d))
    places = draw(decimals)
    if places is not None:
        pts = np.round(pts, places)
    return pts, draw(st.integers(1, n - 1)), rng.permutation(n)


@settings(max_examples=40, deadline=None)
@given(_permuted())
def test_lof_permutation_equivariance(case):
    pts, k, perm = case
    # the tie rule orders by row index, so only tie-free inputs must follow a permutation
    assume(len(np.unique(pdist(pts))) == len(pts) * (len(pts) - 1) // 2)
    base = lof_scores(Dataset(pts), k)
    shuffled = lof_scores(Dataset(pts[perm]), k)
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


@settings(max_examples=40, deadline=None)
@given(_permuted(decimals=st.sampled_from([None, 0, 1])))
def test_knn_dist_permutation_equivariance(case):
    # the k-th distance is the same whichever tied neighbor ranks k-th
    pts, k, perm = case
    base = knn_dist_scores(Dataset(pts), k)
    shuffled = knn_dist_scores(Dataset(pts[perm]), k)
    np.testing.assert_allclose(shuffled, base[perm], rtol=1e-12)


def test_average_path_length_base_cases():
    assert _path_lengths(0)[0] == 0.0
    assert _path_lengths(1)[1] == 0.0
    assert _path_lengths(2)[2] == 1.0  # 2*H(1) - 2*(1/2)
    # n = 5: 2*(1 + 1/2 + 1/3 + 1/4) - 2*4/5
    assert _path_lengths(5)[5] == pytest.approx(2 * (1 + 0.5 + 1 / 3 + 0.25) - 1.6)


def test_average_path_length_equals_term_by_term_sum_bitwise():
    for n in range(301):
        assert _path_lengths(n)[n] == _average_path_length(n), n


def test_iforest_score_formula_fixed_point():
    # if E[h(x)] equals c(n), the score is exactly 0.5
    c = _path_lengths(256)[256]
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
    # at the subsample size every tree takes every row; one row more and it samples
    "exactly_subsample": _SPREAD[:256],
    "one_over_subsample": _SPREAD[:257],
    "more_than_subsample": _SPREAD,
    "scaled_1e-12": _SPREAD * 1e-12,
    "scaled_1e12": _SPREAD * 1e12,
    # a split value often lands exactly on a coordinate only a few ulps away
    "ulps_apart": 1.0 + np.random.default_rng(10).integers(4, size=(300, 2)) * 2.0**-52,
    # trees that grow side by side stop splitting at different levels
    "three_points": np.array([[0.0, 1.0], [2.0, 0.5], [2.5, 3.0]]),
    # one feature, so u1 picks nothing, and ties stop splits early
    "d1_duplicates": np.round(np.random.default_rng(11).uniform(size=(200, 1)), 1),
    # more points than the trees descend through at once
    "many_points": np.random.default_rng(12).normal(size=(5000, 2)),
}


def _shifted(pts):
    """A copy with its first half moved by the span, as the transform moves blocks."""
    span = np.ptp(pts, axis=0)
    out = pts.copy()
    out[: len(pts) // 2] += np.where(span > 0, span, 1.0)
    return out


@pytest.mark.parametrize("seed", [0, 31])
@pytest.mark.parametrize("case", sorted(_IFOREST_CASES))
def test_iforest_equals_tree_oracle_bitwise(case, seed):
    pts = _IFOREST_CASES[case]
    assert np.array_equal(iforest_scores(Dataset(pts), seed=seed), iforest_oracle(pts, seed))


@pytest.mark.parametrize("seed", [0, 31])
@pytest.mark.parametrize("case", sorted(_IFOREST_CASES))
def test_iforest_on_shifted_copy_equals_tree_oracle_bitwise(case, seed):
    pts = _shifted(_IFOREST_CASES[case])
    assert np.array_equal(iforest_scores(Dataset(pts), seed=seed), iforest_oracle(pts, seed))


def test_iforest_scores_takes_one_dataset_and_a_keyword_seed():
    a = Dataset(np.zeros((10, 2)))
    with pytest.raises(TypeError):
        iforest_scores(a, a)
    with pytest.raises(TypeError):
        iforest_scores(a, 0)
    scores = iforest_scores(a)
    assert isinstance(scores, np.ndarray) and scores.shape == (10,)
    assert np.array_equal(scores, iforest_scores(a, seed=0))


def test_iforest_range_beyond_float_raises_like_oracle():
    # hi - lo overflows to inf, which Generator.uniform refuses
    pts = np.array([[-1e308], [1e308], [0.0], [5.0]])
    with pytest.raises(OverflowError):
        iforest_scores(Dataset(pts), seed=0)
    with pytest.raises(OverflowError):
        iforest_oracle(pts, 0)


def test_split_on_lo_leaves_an_empty_left_child_at_its_depth():
    # With every u2 at 0 each split lands on lo, so all points go right and
    # every left child is a heap node that no subsample point reaches.
    pts = np.random.default_rng(14).normal(size=(8, 2))
    order = np.stack([np.arange(8), np.arange(8)[::-1]])  # two trees
    u = np.zeros((2, 7, 2))
    u[..., 0] = 0.6
    feature, cut = _grow_forest(pts, order, u, _path_lengths(8))
    width = 15  # heap nodes per tree at height limit 3; nodes 7..14 are the bottom level
    assert len(feature) == len(cut) == 2 * width
    for root in (0, width):
        node, depth = 0, 0  # heap numbers within the tree
        while depth < 3:  # the path of all eight points runs down the right edge
            assert cut[root + node] == pts[:, feature[root + node]].min()
            left = 2 * node + 1  # a leaf, whose path length sits at its leftmost bottom node ...
            bottom = (left + 1) * 2 ** (2 - depth) - 1
            assert cut[root + bottom] == depth + 1  # ... and is its depth, c(0) = 0
            node, depth = left + 1, depth + 1
        assert cut[root + node] == 3 + _path_lengths(8)[8]
        # Above the bottom level only nodes 0, 2 and 6 split; the others pass points left.
        still = root + np.array([1, 3, 4, 5])
        assert np.all(cut[still] == np.inf) and np.all(feature[still] == 0)
        # A point below the root's lo goes left to the bottom under the root's empty left child.
        below = pts.min(axis=0) - 1.0
        at = root
        for _ in range(3):
            at = 2 * at + 1 - root + (below[feature[at]] >= cut[at])
        assert at == root + 7 and cut[at] == 1.0


@pytest.mark.parametrize("seed", [None, -1, 1.5, "1", [1, 2], True])
def test_iforest_refuses_a_seed_that_is_not_a_nonnegative_integer(seed):
    # A cached draw for seed=None would make a call's scores depend on the calls before it.
    with pytest.raises(ConfigError, match="seed must be an integer >= 0"):
        iforest_scores(Dataset(_SPREAD[:50]), seed=seed)


def test_iforest_takes_a_numpy_integer_seed():
    ds = Dataset(_SPREAD[:50])
    assert np.array_equal(iforest_scores(ds, seed=np.int64(3)), iforest_scores(ds, seed=3))


@st.composite
def _forest_rows(draw):
    d = draw(st.integers(1, 4))
    if draw(st.booleans()):  # above the subsample size, so trees sample different rows
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        return rng.uniform(-3, 3, size=(draw(st.integers(257, 400)), d))
    n = draw(st.integers(2, 60))
    return draw(st.lists(st.lists(st.floats(-3, 3), min_size=d, max_size=d), min_size=n, max_size=n))


@settings(max_examples=30, deadline=None)
@given(
    _forest_rows(),
    st.sampled_from([0, 1, 3]),  # decimals kept: fewer force more ties
    st.integers(0, 2**32 - 1),
)
def test_iforest_equals_tree_oracle_bitwise_property(rows, decimals, seed):
    pts = np.round(np.array(rows), decimals)
    assert np.array_equal(iforest_scores(Dataset(pts), seed=seed), iforest_oracle(pts, seed))


@settings(max_examples=20, deadline=None)
@given(_forest_rows(), st.sampled_from([0, 1, 3]), st.integers(0, 2**32 - 1))
def test_iforest_on_shifted_copy_equals_tree_oracle_bitwise_property(rows, decimals, seed):
    pts = _shifted(np.round(np.array(rows), decimals))
    assert np.array_equal(iforest_scores(Dataset(pts), seed=seed), iforest_oracle(pts, seed))


def test_iforest_memory_stays_small_at_large_n():
    # a (trees, N) float64 block alone would take 49 MiB here
    ds = Dataset(np.random.default_rng(13).normal(size=(64_000, 5)))
    tracemalloc.start()
    try:
        iforest_scores(ds, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_iforest_draws_are_shared_only_by_calls_of_one_n_and_seed():
    _draws.cache_clear()
    for n, seed in [(299, 4), (299, 4), (299, 5), (300, 4), (299, 4)]:
        pts = _SPREAD[:n]
        assert np.array_equal(iforest_scores(Dataset(pts), seed=seed), iforest_oracle(pts, seed))
    info = _draws.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 4, 1)  # one set is kept
    for drawn in _draws(299, 4):
        with pytest.raises(ValueError, match="read-only"):
            drawn[0] = 0


def test_iforest_shared_draws_add_nothing_to_the_peak():
    # The kept set must not raise a call's peak: a call on cached draws peaks
    # no higher than one that draws them, and the set itself is about 0.6 MiB.
    ds = Dataset(np.random.default_rng(15).normal(size=(500, 3)))
    peaks = []
    for primed in (False, True):
        _draws.cache_clear()
        if primed:
            tracemalloc.start()
            _draws(500, 0)
            kept = tracemalloc.get_traced_memory()[0]
            tracemalloc.stop()
        tracemalloc.start()
        try:
            iforest_scores(ds, seed=0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    cold, warm = peaks
    assert warm <= cold and kept < 0.7 * 2**20
    assert warm < 2.9 * 2**20  # the node table is two 8-byte columns of 100 x 511 nodes
