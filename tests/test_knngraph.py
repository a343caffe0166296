import concurrent.futures
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
import scipy.spatial
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from osd import knngraph
from osd.blocks import divide
from osd.dataset import Dataset
from osd.detectors import knn_dist_scores, lof_scores
from osd.errors import ConfigError
from osd.knngraph import KnnGraph, build
from osd.repulsion import find_invalid_neighbors

from oracles import knn_oracle, knn_rows_oracle

GRAPH_ARRAYS = ("neighbor_idx", "neighbor_dist", "edges", "edge_weights")

COLLINEAR = Dataset(np.array([[1.0, 0, 0], [2, 0, 0], [3, 0, 0], [4, 0, 0]]))


def test_collinear_neighbors_of_first_point():
    g = build(COLLINEAR, 2)
    assert g.neighbor_idx[0].tolist() == [1, 2]


def test_collinear_kth_distance():
    g = build(COLLINEAR, 2)
    assert g.neighbor_dist[0, -1] == 2.0


def test_collinear_tie_on_second_point_resolved_by_index():
    # object 1 has objects 0 and 2 both at distance 1
    g = build(COLLINEAR, 2)
    assert g.neighbor_idx[1].tolist() == [0, 2]
    assert g.neighbor_dist[1].tolist() == [1.0, 1.0]


def test_saturated_k_gives_complete_graph():
    rng = np.random.default_rng(1)
    ds = Dataset(rng.normal(size=(7, 3)))
    g = build(ds, 6)
    assert g.n_edges == 7 * 6 // 2


def test_neighbor_lists_match_brute_force():
    rng = np.random.default_rng(2)
    ds = Dataset(rng.normal(size=(50, 5)))
    g = build(ds, 4)
    idx, dist = knn_oracle(ds.points, 4)
    np.testing.assert_array_equal(g.neighbor_idx, idx)
    np.testing.assert_array_equal(g.neighbor_dist, dist)


def test_kth_distance_matches_brute_force():
    rng = np.random.default_rng(3)
    ds = Dataset(rng.normal(size=(40, 3)))
    g = build(ds, 6)
    _, dist = knn_oracle(ds.points, 6)
    for i in range(ds.count):
        assert g.neighbor_dist[i, -1] == dist[i, -1]


def test_coincident_points_zero_distance_and_index_ties():
    pts = np.zeros((6, 2))
    ds = Dataset(pts)
    g = build(ds, 2)
    assert np.all(g.neighbor_dist == 0.0)
    # smallest indices win among an all-zero tie group
    assert g.neighbor_idx[0].tolist() == [1, 2]
    assert g.neighbor_idx[3].tolist() == [0, 1]
    assert np.all(g.edge_weights == 0.0)


def test_duplicate_pair_among_distinct_points():
    ds = Dataset(np.array([[0.0, 0], [0, 0], [5, 0], [9, 0]]))
    g = build(ds, 1)
    assert g.neighbor_idx[0].tolist() == [1]
    assert g.neighbor_idx[1].tolist() == [0]
    assert g.neighbor_dist[1, -1] == 0.0


def test_edge_set_is_undirected_union():
    rng = np.random.default_rng(4)
    ds = Dataset(rng.normal(size=(30, 2)))
    g = build(ds, 3)
    stored = {tuple(e) for e in g.edges.tolist()}
    expected = set()
    for i in range(ds.count):
        for j in g.neighbor_idx[i]:
            expected.add((min(i, int(j)), max(i, int(j))))
    assert stored == expected
    assert all(i < j for i, j in stored)


def test_weights_are_negative_distances():
    rng = np.random.default_rng(5)
    ds = Dataset(rng.normal(size=(25, 3)))
    g = build(ds, 4)
    assert np.all(g.edge_weights <= 0)
    for (i, j), w in zip(g.edges.tolist(), g.edge_weights):
        assert w == -np.sqrt(np.sum((ds.points[i] - ds.points[j]) ** 2))


def test_weight_antimonotone_in_distance():
    rng = np.random.default_rng(6)
    ds = Dataset(rng.normal(size=(40, 2)))
    g = build(ds, 5)
    d = -g.edge_weights
    order = np.argsort(d)
    assert np.all(np.diff(g.edge_weights[order]) <= 0)


def test_deterministic_rebuild():
    rng = np.random.default_rng(7)
    ds = Dataset(rng.normal(size=(60, 4)))
    g1 = build(ds, 5)
    g2 = build(Dataset(ds.points), 5)
    np.testing.assert_array_equal(g1.neighbor_idx, g2.neighbor_idx)
    np.testing.assert_array_equal(g1.edge_weights, g2.edge_weights)


def test_k_out_of_range():
    with pytest.raises(ConfigError):
        build(COLLINEAR, 0)
    with pytest.raises(ConfigError):
        build(COLLINEAR, 4)


@st.composite
def scaled_sets(draw):
    """A seeded t(2) set, one in three rounded for ties and copies, a k and an e.

    Scaling by 2^e is exact for e in [-1000, 1000] wherever x * 2^e stays
    normal; the test assumes that.
    """
    n, d = draw(st.integers(3, 299)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_t(2, size=(n, d))
    if draw(st.integers(0, 2)) == 0:
        x = np.round(x, 1)
    return x, draw(st.integers(1, min(n - 1, 20))), draw(st.integers(-1000, 1000))


@pytest.mark.parametrize("workers", [1, 3])
@settings(max_examples=60, deadline=None)
@given(scaled_sets())
def test_build_ranks_every_power_of_two_scale_alike(workers, case):
    # build ranks at the scale that puts the largest |coordinate| in [0.5, 1),
    # so x and x * 2^e rank the same points, and LOF takes its floor there too.
    x, k, e = case
    with np.errstate(over="ignore"):
        y = np.ldexp(x, e)
        assume(np.array_equal(np.ldexp(y, -e), x))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(knngraph, "_WORKERS", workers)
        mp.setattr(knngraph, "_BLOCK_ROWS", 256)  # several blocks from about 90 rows on
        ds, scaled = Dataset(x), Dataset(y)
        g, gs = build(ds, k), build(scaled, k)
        np.testing.assert_array_equal(gs.neighbor_idx, g.neighbor_idx)
        assert gs.neighbor_dist.tobytes() == np.ldexp(g.neighbor_dist, e).tobytes()
        assert knn_dist_scores(scaled, k).tobytes() == np.ldexp(knn_dist_scores(ds, k), e).tobytes()
        assert lof_scores(scaled, k).tobytes() == lof_scores(ds, k).tobytes()


def test_error_on_a_pool_thread_reaches_the_caller_and_leaves_no_thread(monkeypatch):
    real_tree, caller, failed = scipy.spatial.cKDTree, threading.get_ident(), threading.Event()

    class Tree:
        def __init__(self, data):
            self._tree = real_tree(data)

        def query(self, *args, **kwargs):
            if threading.get_ident() != caller:
                failed.set()
                raise RuntimeError("query failed on a pool thread")
            assert failed.wait(timeout=60)  # the caller ranks only once a pool thread failed
            return self._tree.query(*args, **kwargs)

    monkeypatch.setattr(scipy.spatial, "cKDTree", Tree)
    monkeypatch.setattr(knngraph, "_WORKERS", 3)
    monkeypatch.setattr(knngraph, "_BLOCK_ROWS", 256)
    pts = np.random.default_rng(15).normal(size=(1000, 3))  # a dozen blocks
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="pool thread"):
        build(Dataset(pts), 10)
    assert threading.active_count() == before


def _rounded_grid():
    # A coarse grid gives heavy distance ties and many duplicate points.
    rng = np.random.default_rng(8)
    return rng, np.round(rng.normal(size=(10_500, 3)), 1)


def _heavy_duplicates():
    # H = (0, 0) has 3000 copies.  A = (3, 4) and B = (-4, 3) are each
    # exactly 5 from both H and P = (-1, 7), and P is 5 from both A and B.
    # Shuffling interleaves the tied points' copies by index.
    rng = np.random.default_rng(12)
    tied = [([0.0, 0.0], 3000), ([3.0, 4.0], 15), ([-4.0, 3.0], 15),
            ([-1.0, 7.0], 2)]
    pts = np.vstack([rng.normal(20.0, 3.0, size=(6000, 2))]
                    + [np.tile(p, (c, 1)) for p, c in tied])
    return rng, tied, pts[rng.permutation(len(pts))]


def _first_pass_task_edges(pts, k):
    # Both sides of every row block the first pass hands to a worker: the
    # rows-in-flight budget split across the workers, at k+2 candidates of
    # up to k+1 byte-identical copies each (the most a k-list can use).
    keys = pts.view(np.dtype((np.void, pts.itemsize * pts.shape[1]))).ravel()
    reps = min(k + 1, int(np.unique(keys, return_counts=True)[1].max()))
    step = max(1, knngraph._BLOCK_ROWS // knngraph._WORKERS * (k + 2) // ((k + 2) * reps))
    return [b + s for b in range(step, len(pts), step) for s in (-1, 0)]


@pytest.mark.parametrize("k", [1, 10, 20])
def test_exact_at_scale_with_ties_across_row_blocks(k):
    rng, pts = _rounded_grid()
    g = build(Dataset(pts), k)
    # Both sides of the 4096-row budget's multiples and of every block a
    # worker ranks, the ends, a random sample.
    boundary = [b + s for b in (4096, 8192) for s in (-2, -1, 0, 1)]
    boundary += _first_pass_task_edges(pts, k)
    rows = np.unique(np.r_[0, boundary, len(pts) - 1, rng.choice(len(pts), 60)])
    idx, dist = knn_rows_oracle(pts, rows, k)
    np.testing.assert_array_equal(g.neighbor_idx[rows], idx)
    np.testing.assert_array_equal(g.neighbor_dist[rows], dist)


def _assert_rows_exact(g, pts, rows):
    idx, dist = knn_rows_oracle(pts, rows, g.k)
    np.testing.assert_array_equal(g.neighbor_idx[rows], idx)
    np.testing.assert_array_equal(g.neighbor_dist[rows], dist)


def test_all_zero_rows_rank_by_index_even_when_self_is_a_late_copy():
    pts = np.zeros((20_000, 2))
    g = build(Dataset(pts), 10)
    # Self is among the first k+1 copies only for rows 0..10.
    _assert_rows_exact(g, pts, np.array([0, 9, 10, 11, 4095, 4096, 12_345, 19_999]))


def test_signed_zeros_are_equal_values_with_different_bytes():
    rng = np.random.default_rng(11)
    pts = rng.choice(np.array([0.0, -0.0, 1.0]), size=(40, 2))
    assert len(np.unique(pts.view(np.int64), axis=0)) > len(np.unique(pts, axis=0))
    for k in (1, 5, 20, 39):
        g = build(Dataset(pts), k)
        idx, dist = knn_oracle(pts, k)
        np.testing.assert_array_equal(g.neighbor_idx, idx)
        np.testing.assert_array_equal(g.neighbor_dist, dist)


@pytest.mark.parametrize("k", [1, 10, 20])
def test_heavy_point_and_interleaved_copies_of_equidistant_points(k):
    rng, tied, pts = _heavy_duplicates()
    g = build(Dataset(pts), k)
    rows_of = [np.flatnonzero(np.all(pts == p, axis=1)) for p, _ in tied]
    boundary = [b + s for b in (4096, 8192) for s in (-2, -1, 0, 1)]
    boundary += _first_pass_task_edges(pts, k)
    rows = np.r_[boundary, rows_of[0][: k + 2], rows_of[0][-1], *rows_of[1:],
                 rng.choice(len(pts), 40)]
    _assert_rows_exact(g, pts, np.unique(rows))


def _assert_same_graph(a, b):
    assert a.k == b.k
    for name in GRAPH_ARRAYS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes(), name


@pytest.mark.parametrize("k", [1, 10, 20])
def test_pooled_build_equals_serial_and_leaves_no_thread(monkeypatch, k):
    # Each block writes only its own rows and each row's list depends on
    # nothing else, so the worker count cannot change a byte.  Frequent
    # thread switches make a lost or misplaced row write likelier to show.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for pts in (_rounded_grid()[1], _heavy_duplicates()[2]):
            graphs = []
            for workers in (1, 2, 3):
                monkeypatch.setattr(knngraph, "_WORKERS", workers)
                before = threading.active_count()
                graphs.append(build(Dataset(pts), k))
                assert threading.active_count() == before
            for g in graphs[1:]:
                _assert_same_graph(g, graphs[0])
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("workers", [2, 3])
def test_pooled_build_starts_one_thread_fewer_and_ranks_on_the_caller(monkeypatch, workers):
    # One busy thread per CPU: the calling thread ranks blocks beside the pool.
    real_pool, real_tree = concurrent.futures.ThreadPoolExecutor, scipy.spatial.cKDTree
    pools, rankers = [], set()

    def pool(max_workers):
        pools.append(max_workers)
        return real_pool(max_workers)

    class Tree:
        def __init__(self, data):
            self._tree = real_tree(data)

        def query(self, *args, **kwargs):
            rankers.add(threading.get_ident())
            return self._tree.query(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", pool)
    monkeypatch.setattr(scipy.spatial, "cKDTree", Tree)
    monkeypatch.setattr(knngraph, "_WORKERS", workers)
    pts = np.random.default_rng(14).normal(size=(40_000, 3))  # 20+ blocks, no ties
    _assert_rows_exact(build(Dataset(pts), 10), pts, np.arange(0, 40_000, 997))
    assert pools == [workers - 1]
    assert threading.get_ident() in rankers and 1 < len(rankers) <= workers


def test_single_block_build_starts_no_thread(monkeypatch):
    # Small inputs are one block; a pool would only add start-up cost.
    def refuse(*args, **kwargs):
        raise AssertionError("thread pool started")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
    monkeypatch.setattr(knngraph, "_WORKERS", 4)
    pts = np.random.default_rng(13).normal(size=(500, 3))
    for k in (1, 10, 20):
        _assert_rows_exact(build(Dataset(pts), k), pts, np.arange(0, 500, 7))
    with pytest.raises(AssertionError, match="pool started"):
        build(Dataset(np.zeros((20_000, 2))), 10)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(2, 30).flatmap(
        lambda n: st.tuples(
            st.integers(1, 3).flatmap(
                lambda d: st.lists(
                    st.lists(st.integers(0, 3), min_size=d, max_size=d),
                    min_size=n,
                    max_size=n,
                )
            ),
            st.integers(1, n - 1),
            st.integers(1, n - 1),
        )
    ),
    st.sampled_from([1e-12, 1.0, 1e12]),
)
@example(([[0], [0]], 1, 1), 1.0)  # N=2, d=1, all equal
@example(([[1, 2]] * 6, 5, 2), 1e12)  # all equal, larger k first
def test_smaller_k_after_larger_equals_fresh_build(case, scale):
    rows, k_a, k_b = case
    pts = np.array(rows, dtype=float) * scale
    ds = Dataset(pts)
    build(ds, max(k_a, k_b))
    _assert_same_graph(build(ds, min(k_a, k_b)), build(Dataset(pts), min(k_a, k_b)))
    _assert_same_graph(build(ds, k_a), build(Dataset(pts), k_a))
    g, (idx, dist) = build(ds, k_a), knn_oracle(pts, k_a)
    np.testing.assert_array_equal(g.neighbor_idx, idx)
    np.testing.assert_array_equal(g.neighbor_dist, dist)


def test_graph_shared_per_instance_never_by_content():
    rng = np.random.default_rng(9)
    pts = rng.normal(size=(40, 2))
    a, b = Dataset(pts), Dataset(pts)
    ga, gb = build(a, 5), build(b, 5)
    assert build(a, 5) is ga
    assert ga is not gb
    for name in GRAPH_ARRAYS:
        assert not np.shares_memory(getattr(ga, name), getattr(gb, name))
    assert build(b, 3) is not build(a, 3)


def test_edges_are_derived_only_where_read(monkeypatch):
    # Deduplicating n*k directed pairs is the graph's one costly derivation;
    # building, slicing, dividing, repulsion and the detectors never need it.
    rng = np.random.default_rng(10)
    ds = Dataset(rng.normal(size=(60, 3)))
    g = build(ds, 5)
    part = divide(g, np.quantile(g.edge_weights, 0.3))

    def refuse(self):
        raise AssertionError("undirected edges derived")

    monkeypatch.setattr(KnnGraph, "_undirected", property(refuse))
    prefix = build(ds, 3)
    divide(prefix, -0.5)
    find_invalid_neighbors(g, Dataset(ds.points * 2.0), part)
    lof_scores(ds, 10)
    knn_dist_scores(ds, 3)
    with pytest.raises(AssertionError, match="derived"):
        prefix.edges


def test_workers_fall_back_to_cpu_count_without_affinity_masks():
    # a platform without os.sched_getaffinity; a fresh process, so no reload leaks here
    code = ("import os; del os.sched_getaffinity; from osd import knngraph; "
            "assert knngraph._WORKERS == (os.cpu_count() or 1), knngraph._WORKERS")
    env = {**os.environ, "PYTHONPATH": str(Path(knngraph.__file__).resolve().parents[1])}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
