import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

from osd.dataset import Dataset
from osd.detectors import (
    _Draws,
    _path_lengths,
    _steps,
    iforest_scores,
    knn_dist_scores,
    lof_scores,
)
from osd.errors import ConfigError, DataError

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
    # choice() leaves half a raw word pending above 256 points, not at 256
    "exactly_subsample": _SPREAD[:256],
    "one_over_subsample": _SPREAD[:257],
    "more_than_subsample": _SPREAD,
    "scaled_1e-12": _SPREAD * 1e-12,
    "scaled_1e12": _SPREAD * 1e12,
    # a split value often lands exactly on a coordinate only a few ulps away
    "ulps_apart": 1.0 + np.random.default_rng(10).integers(4, size=(300, 2)) * 2.0**-52,
    # trees that grow side by side finish after different numbers of nodes
    "three_points": np.array([[0.0, 1.0], [2.0, 0.5], [2.5, 3.0]]),
    # one feature: integers(1) draws nothing, and ties stop splits early
    "d1_duplicates": np.round(np.random.default_rng(11).uniform(size=(200, 1)), 1),
    # more points than the trees descend through at once
    "many_points": np.random.default_rng(12).normal(size=(5000, 2)),
}


@pytest.mark.parametrize("seed", [0, 31])
@pytest.mark.parametrize("case", sorted(_IFOREST_CASES))
def test_iforest_equals_tree_oracle_bitwise(case, seed):
    pts = _IFOREST_CASES[case]
    assert np.array_equal(iforest_scores(Dataset(pts), seed=seed), iforest_oracle(pts, seed))


def _shifted(pts):
    """A copy with its first half moved by the span, as the transform moves blocks."""
    span = np.ptp(pts, axis=0)
    out = pts.copy()
    out[: len(pts) // 2] += np.where(span > 0, span, 1.0)
    return out


def _assert_pair_equals_single_calls_and_oracle(pts, seed):
    other = _shifted(pts)
    pair = iforest_scores(Dataset(pts), Dataset(other), seed=seed)
    assert isinstance(pair, tuple) and len(pair) == 2
    for scores, points in zip(pair, (pts, other)):
        assert np.array_equal(scores, iforest_scores(Dataset(points), seed=seed))
        assert np.array_equal(scores, iforest_oracle(points, seed))


@pytest.mark.parametrize("case", sorted(_IFOREST_CASES))
def test_iforest_pair_equals_single_calls_and_oracle_bitwise(case):
    _assert_pair_equals_single_calls_and_oracle(_IFOREST_CASES[case], 5)


def test_iforest_scores_refuses_no_dataset_or_mixed_shapes():
    a = Dataset(np.zeros((10, 2)))
    with pytest.raises(DataError, match="one shape"):
        iforest_scores(seed=0)
    for other in (Dataset(np.zeros((11, 2))), Dataset(np.zeros((10, 3)))):
        with pytest.raises(DataError, match="one shape"):
            iforest_scores(a, other, seed=0)


@pytest.mark.parametrize("pending", [False, True], ids=["no_pending_half", "pending_half"])
def test_raw_word_draws_equal_generator_draws(pending):
    # 2**31 + 1 rejects about half of its 32-bit draws, so some pairs draw again
    ms = [1, *range(2, 60), 2**31 + 1, 2**32 - 1]
    seeds = np.random.SeedSequence(77).spawn(len(ms))

    def generators():
        rngs = [np.random.default_rng(s) for s in seeds]
        for rng in rngs:
            if pending:
                rng.integers(5)  # takes the low half of a word and keeps the high half
            assert rng.bit_generator.state["has_uint32"] == pending
        return rngs

    pick = np.random.default_rng(78)
    for groups in (1, 2):  # tree g * len(ms) + t makes generator t's draws
        twins = [rng for _ in range(groups) for rng in generators()]
        draws = _Draws(generators(), 3, groups)  # 3 words per block, so blocks are added often
        for step in range(60):
            trees = np.flatnonzero(pick.random(len(twins)) < 0.7)  # not all trees draw each step
            m = np.array([ms[(t + t // len(ms) + step) % len(ms)] for t in trees])
            j, u = draws.pairs(trees, m)
            assert j.tolist() == [twins[t].integers(k) for t, k in zip(trees, m.tolist())]
            assert u.tolist() == [twins[t].random() for t in trees]


def test_iforest_range_beyond_float_raises_like_oracle():
    # hi - lo overflows to inf, which Generator.uniform refuses
    pts = np.array([[-1e308], [1e308], [0.0], [5.0]])
    with pytest.raises(OverflowError):
        iforest_scores(Dataset(pts), seed=0)
    with pytest.raises(OverflowError):
        iforest_oracle(pts, 0)


@st.composite
def _forest_rows(draw):
    d = draw(st.integers(1, 4))
    if draw(st.booleans()):  # above the subsample size, so a half word is pending after choice()
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
def test_iforest_pair_equals_single_calls_and_oracle_property(rows, decimals, seed):
    _assert_pair_equals_single_calls_and_oracle(np.round(np.array(rows), decimals), seed)


def test_forest_steps_take_trees_in_chunks_beyond_a_hundred_subsamples():
    # each of 250 trees holds a 2-point node on top of a 256-point node
    stack = np.zeros((250, 2, 4), dtype=np.intp)
    stack[:, 0, 2], stack[:, 1, 2] = 256, 2
    steps = _steps(stack, np.full(250, 2), 100 * 256)
    chunks = [(trees.size, nodes[2].sum()) for trees, nodes in steps]
    assert chunks == [(250, 500), (100, 25600), (100, 25600), (50, 12800)]


def test_iforest_memory_stays_small_at_large_n():
    # a (trees, N) float64 block alone would take 49 MiB here; a pair's root
    # step would gather 200 subsamples at once if it were not chunked
    ds = Dataset(np.random.default_rng(13).normal(size=(64_000, 5)))
    for datasets in ([ds], [ds, ds]):
        tracemalloc.start()
        try:
            iforest_scores(*datasets, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
