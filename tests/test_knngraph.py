import numpy as np
import pytest

from osd.dataset import Dataset
from osd.errors import ConfigError
from osd.knngraph import build

from oracles import knn_oracle

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
    g2 = build(ds, 5)
    np.testing.assert_array_equal(g1.neighbor_idx, g2.neighbor_idx)
    np.testing.assert_array_equal(g1.edge_weights, g2.edge_weights)


def test_k_out_of_range():
    with pytest.raises(ConfigError):
        build(COLLINEAR, 0)
    with pytest.raises(ConfigError):
        build(COLLINEAR, 4)

