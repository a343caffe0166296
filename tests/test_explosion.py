import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from osd import explosion
from osd.blocks import divide, find_inflection, weight_histogram
from osd.dataset import Dataset
from osd.errors import ConfigError
from osd.explosion import (
    bomb_position,
    centroids,
    constant_g,
    displacement,
    explode,
    shock_force,
)
from osd.knngraph import build
from osd.pipeline import RunConfig, run_osd

from oracles import blocks_of, knn_oracle

COLLINEAR = Dataset(np.array([[1.0, 0, 0], [2, 0, 0], [3, 0, 0], [4, 0, 0]]))


def _singleton_partition(g):
    return divide(g, np.inf)


def test_particle_of_two_point_block():
    ds = Dataset(np.array([[1.0, 2.0], [1.0, 3.0]]))
    part = divide(build(ds, 1), -np.inf)
    (position,) = centroids(ds, part)
    np.testing.assert_array_equal(position, [1.0, 2.5])
    assert part.masses[0] == 2


def test_particle_of_singleton_is_the_object():
    ds = Dataset(np.array([[3.0, 4.0], [100.0, 100.0]]))
    part = divide(build(ds, 1), 0.5)  # prunes everything
    positions = centroids(ds, part)
    np.testing.assert_array_equal(positions[0], [3.0, 4.0])
    assert part.masses[0] == 1


def test_particle_centroid_matches_mean_oracle():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(7, 3))
    ds = Dataset(pts)
    part = divide(build(ds, 2), -np.inf)
    assert part.n_blocks == 1
    total = np.zeros(3)
    for row in pts:
        total += row
    np.testing.assert_allclose(centroids(ds, part)[0], total / 7,
                               rtol=1e-9)


def test_centroids_equal_member_means_exactly():
    rng = np.random.default_rng(7)
    ds = Dataset(rng.normal(size=(80, 3)))
    g = build(ds, 4)
    part = divide(g, np.quantile(g.edge_weights, 0.2))
    positions = centroids(ds, part)
    for b, members in enumerate(blocks_of(part)):
        np.testing.assert_array_equal(positions[b], ds.points[members].mean(axis=0))


def test_bomb_at_particle_mean():
    parts = np.array([[1.0, 1.0], [3.0, 0.5], [4.0, 2.0]])
    theta = bomb_position(parts)
    np.testing.assert_allclose(theta, [2.67, 1.17], atol=0.005)


def test_bomb_single_particle():
    np.testing.assert_array_equal(bomb_position(np.array([[2.0, -1.0]])), [2.0, -1.0])


def test_bomb_symmetric_configuration():
    parts = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    np.testing.assert_allclose(bomb_position(parts), [0.0, 0.0], atol=1e-15)


def test_bomb_ignores_mass():
    # a mass-1000 block at 0 and a mass-1 block at 1: positions only
    np.testing.assert_array_equal(bomb_position(np.array([[0.0], [1.0]])), [0.5])


def test_shock_force_golden_two_block_geometry():
    theta = bomb_position(np.array([[1.0, 1.0], [3.0, 0.5], [4.0, 2.0]]))
    f = shock_force(np.array([1.0, 1.0]), theta, 5.0, 1e-12)
    np.testing.assert_allclose(f, [-2.97, -0.30], atol=0.01)


def test_shock_force_zero_at_bomb():
    p = np.array([1.0, 1.0])
    np.testing.assert_array_equal(
        shock_force(p, np.array([1.0, 1.0]), 5.0, 1e-9), [0.0, 0.0]
    )


def test_shock_force_magnitude_and_direction():
    rng = np.random.default_rng(1)
    for _ in range(20):
        pos = rng.normal(size=3)
        theta = rng.normal(size=3)
        g_const = float(rng.uniform(0.1, 5.0))
        f = shock_force(pos, theta, g_const, 1e-15)
        r = np.linalg.norm(pos - theta)
        assert np.linalg.norm(f) == pytest.approx(g_const / r, rel=1e-12)
        cos = np.dot(f, pos - theta) / (np.linalg.norm(f) * r)
        assert cos == pytest.approx(1.0, abs=1e-12)


def test_far_blocks_get_force_where_the_squares_pass_the_float_range(monkeypatch):
    t = np.linspace(0.0, 3e154, 400)  # the ends sit 1.7e154 from the bomb
    ds = Dataset(np.column_stack([t, 0.5 * t]))
    real, forces = explosion.shock_force, []

    def spy(*args):
        forces.append(real(*args))
        return forces[-1]

    monkeypatch.setattr(explosion, "shock_force", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # every edge pruned: each point is a block of its own
        run_osd(ds, RunConfig(normalize=False, threshold=np.inf))
    (force,) = forces
    far = np.hypot(*(ds.points - ds.points.mean(axis=0)).T) > 1.3e154
    assert far.sum() > 50 and np.isfinite(force).all() and np.all(force[far] != 0)


# away from 0, a coordinate scaled by 2^-1000 stays normal
MODERATE = st.floats(-1e6, 1e6).filter(lambda v: v == 0 or abs(v) >= 1e-3)


def _normal(*arrays):
    """Whether every entry is 0 or a finite float no smaller than the smallest normal."""
    v = np.abs(np.concatenate([np.ravel(a) for a in arrays]))
    return bool(np.all((v == 0) | ((v >= np.finfo(float).tiny) & (v < np.inf))))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 4).flatmap(lambda d: st.tuples(
        st.lists(st.lists(MODERATE, min_size=d, max_size=d), min_size=1, max_size=12),
        st.lists(MODERATE, min_size=d, max_size=d),
    )),
    st.booleans(),
    st.floats(0.1, 10.0),
    st.floats(0.0, 1.0),
    st.integers(-1000, 1000),
)
def test_shock_force_scales_exactly_by_powers_of_two(case, on_first, g_const, eps, e):
    positions, theta = map(np.array, case)
    if on_first:  # a particle at the bomb gets no force
        theta = positions[0]
    force = shock_force(positions, theta, g_const, eps)
    expected = np.ldexp(force, -e)
    diff = positions - theta
    assume(_normal(diff, np.ldexp(diff, e), np.ldexp(eps, e), force, expected))
    scaled = shock_force(np.ldexp(positions, e), np.ldexp(theta, e), g_const, np.ldexp(eps, e))
    assert scaled.tobytes() == expected.tobytes()


def test_constant_g_on_collinear_points():
    # brute-force oracle: k-th neighbor distances are (2, 1, 1, 2) under
    # the index tie rule, so the mean is 1.5
    g = build(COLLINEAR, 2)
    _, dist = knn_oracle(COLLINEAR.points, 2)
    assert dist[:, -1].tolist() == [2.0, 1.0, 1.0, 2.0]
    assert constant_g(g) == pytest.approx(1.5)


def test_constant_g_zero_for_coincident_points():
    ds = Dataset(np.zeros((5, 2)))
    assert constant_g(build(ds, 2)) == 0.0


def test_constant_g_matches_oracle_on_random_data():
    rng = np.random.default_rng(2)
    ds = Dataset(rng.normal(size=(40, 4)))
    g = build(ds, 7)
    _, dist = knn_oracle(ds.points, 7)
    assert constant_g(g) == pytest.approx(dist[:, -1].mean(), rel=1e-12)


def test_displacement_golden_all_positive_force():
    s = displacement(np.array([3.0, 2.0, 1.0]), 1.0, 3, "corrected")
    np.testing.assert_allclose(s, [1.0, 4 / 9, 1 / 9], rtol=1e-15)
    s_lit = displacement(np.array([3.0, 2.0, 1.0]), 1.0, 3, "literal")
    np.testing.assert_array_equal(s, s_lit)


def test_displacement_zero_force():
    np.testing.assert_array_equal(
        displacement(np.zeros(3), 2.0, 4, "corrected"), np.zeros(3)
    )


def test_displacement_sign_conventions_differ_on_negative_components():
    f = np.array([-3.0, 2.0])
    np.testing.assert_array_equal(displacement(f, 1.0, 1, "literal"), [9.0, 4.0])
    np.testing.assert_array_equal(displacement(f, 1.0, 1, "corrected"), [-9.0, 4.0])


def test_displacement_inverse_mass_square():
    f = np.array([2.0, -1.0])
    s1 = displacement(f, 1.5, 3, "corrected")
    s2 = displacement(f, 1.5, 6, "corrected")
    np.testing.assert_allclose(np.linalg.norm(s1), 4 * np.linalg.norm(s2),
                               rtol=1e-12)


def test_params_validation():
    with pytest.raises(ConfigError):
        RunConfig(T=0.0)
    with pytest.raises(ConfigError, match="law"):
        RunConfig(law="bogus")
    with pytest.raises(ConfigError, match="sign_mode"):
        displacement(np.ones(2), 1.0, 1, "bogus")


@pytest.mark.parametrize("law", ["literal", "bogus", ["corrected"]])
def test_layers_refuse_unknown_law(law):
    # a sign_mode, a stray name and an unhashable value: each names the table's rows
    from osd.repulsion import repel

    partition = divide(build(COLLINEAR, 1), -np.inf)
    with pytest.raises(ConfigError, match="corrected.*literal-sign.*literal-direction"):
        explode(COLLINEAR, partition, 1.0, 1.0, law)
    with pytest.raises(ConfigError, match="corrected.*literal-sign.*literal-direction"):
        repel(COLLINEAR, partition, np.array([[0, 1]]), law)


def test_displacement_translation_golden_block():
    # force (3, 2, 1) on a mass-3 block, T = 1
    pts = np.array([[1.0, 4, 2], [0, 3, 5], [-1, 7, 2]])
    for mode in ("corrected", "literal"):
        s = displacement(np.array([3.0, 2.0, 1.0]), 1.0, 3, mode)
        moved = pts + s
        np.testing.assert_allclose(moved[0], [2.0, 40 / 9, 19 / 9], rtol=1e-13)
        np.testing.assert_allclose(moved.mean(axis=0), [1.0, 138 / 27, 84 / 27],
                                   rtol=1e-13)


def test_explode_single_block_is_fixed_point():
    rng = np.random.default_rng(3)
    ds = Dataset(rng.normal(size=(12, 2)))
    g = build(ds, 3)
    part = divide(g, -np.inf)
    assert part.n_blocks == 1
    moved, _ = explode(ds, part, g_const=constant_g(g))
    np.testing.assert_array_equal(moved.points, ds.points)
    assert part.masses[0] == 12


def test_explode_two_blocks_match_scalar_oracle():
    ds = Dataset(np.array([[0.0, 0], [1, 0], [10, 0], [11, 0]]))
    g = build(ds, 1)
    part = divide(g, -5.0)
    assert part.n_blocks == 2
    g_const = constant_g(g)  # mean 1st-neighbor distance = 1.0
    assert g_const == 1.0
    moved, _ = explode(ds, part, g_const=g_const)
    # theta = (5.5, 0); forces G/r toward each side; s = (G/r)^2 / M^2
    theta = np.array([5.5, 0.0])
    for block, members in ((0, [0, 1]), (1, [2, 3])):
        centroid = ds.points[members].mean(axis=0)
        diff = centroid - theta
        f = g_const * diff / np.dot(diff, diff)
        s = np.sign(f) * f * f / 4.0
        np.testing.assert_allclose(moved.points[members], ds.points[members] + s,
                                   rtol=1e-12)


def test_explode_rigid_translation_and_mass_conservation():
    rng = np.random.default_rng(4)
    from osd.synth import gen_clusters_outliers

    ds, _ = gen_clusters_outliers(2, 40, 4, 2, 25.0, 11)
    g = build(ds, 5)
    part = divide(g, find_inflection(*weight_histogram(g.edge_weights, g.n_objects))[0])
    moved, moved_centroids = explode(ds, part, g_const=constant_g(g))
    for b, members in enumerate(blocks_of(part)):
        before = ds.points[members]
        after = moved.points[members]
        if len(members) > 1:
            d_before = np.linalg.norm(before[0] - before[-1])
            d_after = np.linalg.norm(after[0] - after[-1])
            assert d_after == pytest.approx(d_before, rel=1e-9)
        assert len(members) == part.masses[b]
        np.testing.assert_allclose(moved_centroids[b], after.mean(axis=0),
                                   atol=1e-9)


def test_explode_random_bomb_override():
    ds = Dataset(np.array([[0.0, 0], [1, 0], [10, 0], [11, 0]]))
    g = build(ds, 1)
    part = divide(g, -5.0)
    theta = np.array([100.0, 0.0])
    moved, _ = explode(ds, part, g_const=1.0, theta=theta)
    assert np.all(moved.points[:, 0] < ds.points[:, 0])  # all pushed away


def test_centroid_minimizes_sum_of_squares():
    rng = np.random.default_rng(5)
    for _ in range(200):
        c = rng.integers(2, 51)
        d = rng.integers(1, 11)
        positions = rng.normal(size=(c, d)) * rng.uniform(0.5, 3.0)
        theta = bomb_position(positions)
        base = np.sum((positions - theta) ** 2)
        for _ in range(5):
            perturbed = theta + rng.normal(size=d) * rng.uniform(1e-4, 1.0)
            assert base <= np.sum((positions - perturbed) ** 2)


def test_light_block_ends_farther_than_heavy_block():
    # equal force magnitude, masses 1 vs 20: the light block must end
    # strictly farther from the bomb
    rng = np.random.default_rng(6)
    heavy_members = rng.normal(size=(20, 2)) * 0.05 + [-5.0, 0.0]
    light_member = np.array([[5.0, 0.0]])
    ds = Dataset(np.vstack([heavy_members, light_member]))
    g = build(ds, 2)
    part = divide(g, -1.0)
    assert sorted(part.masses.tolist()) == [1, 20]
    moved, _ = explode(ds, part, g_const=constant_g(g))
    theta = bomb_position(centroids(ds, part))
    d_light = np.linalg.norm(moved.points[20] - theta)
    d_heavy = np.linalg.norm(
        moved.points[:20].mean(axis=0) - theta
    )
    before_light = np.linalg.norm(ds.points[20] - theta)
    before_heavy = np.linalg.norm(ds.points[:20].mean(axis=0) - theta)
    assert abs(before_light - before_heavy) < 0.3  # started near-equidistant
    assert d_light > d_heavy


def test_nearby_small_blocks_separate():
    ds = Dataset(
        np.array([[10.0, 1.0], [10.0, -1.0], [-20.0, 0.0], [-20.5, 0.0]])
    )
    g = build(ds, 1)
    part = divide(g, -0.9)
    assert part.n_blocks == 3
    before = np.linalg.norm(ds.points[0] - ds.points[1])
    moved, _ = explode(ds, part, g_const=2.0)
    after = np.linalg.norm(moved.points[0] - moved.points[1])
    assert after > before
