import numpy as np
import pytest

from osd.blocks import divide
from osd.dataset import Dataset
from osd.explosion import LAWS, constant_g, displacement, explode
from osd.knngraph import build
from osd.repulsion import find_invalid_neighbors, repel

from oracles import blocks_of, knn_oracle, repel_oracle

# Catch-up scenario: a singleton block between two others, k = 2.
# Before: objects 1-3 form one block, object 0 its own block, and 0's two
# nearest are 1 and 2.  The hand-made translation below moves 0 past the
# trio so that 3 (never a neighbor of 0 before) enters 0's k-NN set.
SCENARIO_X = np.array([[0.0, 0.0], [2.0, 0.0], [2.6, 0.5], [3.2, 0.0]])
SCENARIO_MOVED = np.array([[4.7, -2.3], [3.5, -1.0], [4.1, -0.5], [4.7, -1.0]])


def _scenario():
    ds = Dataset(SCENARIO_X)
    g = build(ds, 2)
    part = divide(g, -1.5)  # cuts 0's long edges, keeps the trio together
    return ds, g, part


def test_scenario_setup_is_as_described():
    ds, g, part = _scenario()
    assert g.neighbor_idx[0].tolist() == [1, 2]
    assert part.n_blocks == 2
    assert part.assignment.tolist() == [0, 1, 1, 1]
    moved_idx, _ = knn_oracle(SCENARIO_MOVED, 2)
    assert sorted(moved_idx[0].tolist()) == [1, 3]


def test_catch_up_creates_exactly_one_invalid_pair():
    _, g, part = _scenario()
    inv = find_invalid_neighbors(g, Dataset(SCENARIO_MOVED), part)
    assert set(map(tuple, inv.tolist())) == {(0, 3)}


def test_no_op_explosion_has_no_invalid_neighbors():
    rng = np.random.default_rng(0)
    ds = Dataset(rng.normal(size=(15, 2)))
    g = build(ds, 3)
    inv = find_invalid_neighbors(g, ds, divide(g, -np.inf))
    assert len(inv) == 0


def test_invalid_neighbors_match_definition_oracle():
    rng = np.random.default_rng(1)
    before = rng.normal(size=(30, 2))
    ds = Dataset(before)
    g = build(ds, 4)
    part = divide(g, np.quantile(g.edge_weights, 0.3))
    after = before + rng.normal(scale=0.6, size=before.shape)
    # rigid per block: use the block-mean shift so blocks stay rigid
    shifted = before.copy()
    for members in blocks_of(part):
        shifted[members] += after[members].mean(axis=0) - before[members].mean(axis=0)
    moved = Dataset(shifted)

    inv = find_invalid_neighbors(g, moved, part)

    old_idx, _ = knn_oracle(before, 4)
    new_idx, _ = knn_oracle(shifted, 4)
    expected = set()
    for i in range(30):
        old = set(old_idx[i].tolist())
        for p in new_idx[i]:
            if int(p) not in old and part.assignment[p] != part.assignment[i]:
                expected.add((i, int(p)))
    assert set(map(tuple, inv.tolist())) == expected


def test_invalid_neighbors_never_same_block():
    rng = np.random.default_rng(2)
    from osd.synth import gen_clusters_outliers

    ds, _ = gen_clusters_outliers(2, 30, 5, 2, 25.0, 9)
    g = build(ds, 4)
    part = divide(g, np.quantile(g.edge_weights, 0.2))
    moved, _ = explode(ds, part, g_const=constant_g(g))
    inv = find_invalid_neighbors(g, moved, part)
    for g_idx, p_idx in inv:
        assert part.assignment[g_idx] != part.assignment[p_idx]


def _repel_cases():
    """Seeded points at d = 1..8 in real blocks, random pairs and no pairs.

    Rows 0 and 1 coincide, rows 2 and 3 lie within the singularity guard
    (1e-12 of the diameter), and (0, 1) and (2, 3) are among the pairs.
    """
    rng = np.random.default_rng(5)
    for d in range(1, 9):
        pts = rng.standard_t(2, size=(60, d))
        pts[1], pts[3] = pts[0], pts[2]
        pts[3, 0] += 1e-13 * Dataset(pts).diameter()
        ds = Dataset(pts)
        graph = build(ds, 4)
        part = divide(graph, np.quantile(graph.edge_weights, 0.3))
        assert part.masses.max() > 1 and part.masses.min() == 1
        pairs = np.vstack([[0, 1], [2, 3], rng.integers(0, 60, size=(80, 2))])
        pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
        yield ds, part, pairs
        yield ds, part, pairs[:0]


@pytest.mark.parametrize("law", list(LAWS))
def test_repel_matches_oracle_under_each_law(law):
    for ds, part, pairs in _repel_cases():
        want = repel_oracle(ds.points, part.assignment, pairs, *LAWS[law])
        assert repel(ds, part, pairs, law).points.tobytes() == want.tobytes()


def test_resultant_force_empty_and_singleton():
    ds, g, part = _scenario()
    moved = Dataset(SCENARIO_MOVED)
    inv = find_invalid_neighbors(g, moved, part)
    out = repel(moved, part, inv)
    # the trio (block 1) has a zero resultant and stays put
    np.testing.assert_array_equal(out.points[1:], SCENARIO_MOVED[1:])
    diff = SCENARIO_MOVED[3] - SCENARIO_MOVED[0]
    single_force = -diff / np.dot(diff, diff)  # pushes object 0 away from 3
    np.testing.assert_allclose(
        out.points[0],
        SCENARIO_MOVED[0] + displacement(single_force, 1.0, 1),
        rtol=1e-15,
    )


def test_resultant_force_sums_pairs():
    pts = np.array([[0.0, 0], [1, 0], [0, 1], [5, 5]])
    ds = Dataset(pts)
    part = divide(build(ds, 1), 1.0)  # all singletons
    inv = np.array([[0, 1], [0, 2], [0, 3]])
    out = repel(ds, part, inv, "literal-direction")
    expected = np.zeros(2)
    for p in (1, 2, 3):
        diff = pts[p] - pts[0]
        expected += diff / np.dot(diff, diff)
    np.testing.assert_allclose(
        out.points[0], pts[0] + displacement(expected, 1.0, 1), rtol=1e-15
    )
    np.testing.assert_array_equal(out.points[1:], pts[1:])


def test_repel_identity_without_invalid_neighbors():
    ds, g, part = _scenario()
    empty = np.empty((0, 2), dtype=np.int64)
    out = repel(ds, part, empty)
    np.testing.assert_array_equal(out.points, ds.points)


def test_repel_applies_signed_squared_force():
    # singleton block with resultant (2, 0): corrected convention moves it
    # by the squared magnitude along the force direction, no T factor
    pts = np.array([[0.0, 0.0], [0.5, 0.0], [10.0, 0.0], [10.5, 0.0]])
    ds = Dataset(pts)
    part = divide(build(ds, 1), -0.9)
    assert part.n_blocks == 2
    inv = np.array([[0, 2]])
    # force on block {0, 1}: (g - p)/|g - p|^2 = (-0.1, 0); translation =
    # sign * force^2 / mass^2 with mass 2, the sign dropped by literal signs
    for law, expect in (("corrected", -0.0025), ("literal-sign", 0.0025)):
        out = repel(ds, part, inv, law)
        np.testing.assert_allclose(out.points[0], [0.0 + expect, 0.0], atol=1e-15)
        np.testing.assert_allclose(out.points[1], [0.5 + expect, 0.0], atol=1e-15)
        np.testing.assert_array_equal(out.points[2:], pts[2:])


def test_full_catch_up_run_separates_blocks():
    # end to end: heavy anchor drags the bomb close to a light singleton,
    # the singleton overshoots a trio, and repulsion pushes them apart
    rng = np.random.default_rng(3)
    anchor = rng.standard_normal((20, 2)) * 0.15 + [-1.75, 0.0]
    single = np.array([[0.6, 0.0]])
    trio = np.array([[2.0, 0.0], [2.6, 0.5], [3.2, 0.0]])
    ds = Dataset(np.vstack([anchor, single, trio]))
    g = build(ds, 2)
    part = divide(g, -1.3)
    assert sorted(part.masses.tolist()) == [1, 3, 20]
    exploded, _ = explode(ds, part, g_const=constant_g(g))
    inv = find_invalid_neighbors(g, exploded, part)
    assert len(inv) > 0
    repelled = repel(exploded, part, inv)
    b_single = part.assignment[20]
    b_trio = part.assignment[21]

    def block_gap(data):
        a = data.points[blocks_of(part)[b_single]].mean(axis=0)
        b = data.points[blocks_of(part)[b_trio]].mean(axis=0)
        return np.linalg.norm(a - b)

    assert block_gap(repelled) > block_gap(exploded)


def test_repulsion_never_shrinks_outlier_normal_distance():
    # over 50 seeded cluster+outlier sets, the post-repulsion mean
    # outlier-to-normal distance is at least the post-explosion one
    from osd.blocks import find_inflection, weight_histogram
    from osd.dataset import min_max_normalize
    from osd.synth import gen_clusters_outliers
    from scipy.spatial.distance import cdist

    acted = 0
    for seed in range(50):
        ds, labels = gen_clusters_outliers(2, 60, 8, 2, 26.0, seed)
        ds = min_max_normalize(ds)
        g = build(ds, 6)
        part = divide(g, find_inflection(*weight_histogram(g.edge_weights, g.n_objects))[0])
        exploded, _ = explode(ds, part, g_const=constant_g(g))
        inv = find_invalid_neighbors(g, exploded, part)
        repelled = repel(exploded, part, inv)
        acted += int(len(inv) > 0)
        o = labels.flags == 1
        n = labels.flags == 0
        after = cdist(repelled.points[o], repelled.points[n]).mean()
        during = cdist(exploded.points[o], exploded.points[n]).mean()
        assert after >= during
    assert acted > 40  # the property must be exercised, not vacuous


def test_repel_rigid_per_block():
    rng = np.random.default_rng(4)
    from osd.synth import gen_clusters_outliers

    ds, _ = gen_clusters_outliers(2, 40, 6, 2, 20.0, 3)
    g = build(ds, 5)
    part = divide(g, np.quantile(g.edge_weights, 0.15))
    exploded, _ = explode(ds, part, g_const=constant_g(g))
    inv = find_invalid_neighbors(g, exploded, part)
    repelled = repel(exploded, part, inv)
    for members in blocks_of(part):
        if len(members) < 2:
            continue
        before = np.linalg.norm(exploded.points[members[0]] - exploded.points[members[-1]])
        after = np.linalg.norm(repelled.points[members[0]] - repelled.points[members[-1]])
        assert after == pytest.approx(before, rel=1e-9)
