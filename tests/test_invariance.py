"""The default pipeline (normalize, then transform) ignores row order and
per-axis units: relocated points agree within 1e-8 of the diameter and the
partitions are the same set partition.

Under every law, the layers scale as the paper's forces do: scaling the
positions, the bomb, G and the guard distance by c leaves the shock force
and the explosion's move unchanged, and for the same invalid pairs scales
repulsion's move by 1/c^2.  Bitwise for a power of two, else within 1e-12."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

from osd import explosion, repulsion
from osd.blocks import divide, find_inflection, weight_histogram
from osd.dataset import Dataset, min_max_normalize
from osd.explosion import (
    _epsilon,
    bomb_position,
    centroids,
    constant_g,
    displacement,
    explode,
    shock_force,
)
from osd.knngraph import build
from osd.pipeline import LAWS, RunConfig, prepare, run_osd
from osd.repulsion import find_invalid_neighbors, repel


@st.composite
def cases(draw):
    """Tie-free points with a permutation and a per-axis affine map of them.

    Heavy-tailed draws around up to three centers give clusters, stragglers
    and far outliers, so runs have heavy blocks, singletons and invalid pairs.
    """
    n = draw(st.integers(3, 200))
    d = draw(st.integers(1, 50))
    k = draw(st.integers(1, n - 1))
    case = _case(n, d, k, draw(st.integers(0, 2**32 - 1)))
    # the k-NN tie rule orders by row index, so tied distances may legally reorder
    assume(len(np.unique(pdist(case[0]))) == n * (n - 1) // 2)
    return case


def _case(n, d, k, seed):
    """The case that cases() builds from its draws of n, d, k and seed."""
    rng = np.random.default_rng(seed)
    pts = rng.standard_t(2, size=(n, d)) + 10.0 * rng.integers(0, 3, size=(n, 1))
    scale = rng.uniform(0.01, 100.0, size=d)
    shift = rng.uniform(-1e3, 1e3, size=d)
    return pts, k, rng.permutation(n), scale, shift


def _run(points, k):
    config = RunConfig(k=k)  # normalize is on by default
    out, partition, _ = run_osd(prepare(Dataset(points), config), config)
    return out.points, partition.assignment


def _assert_same_run(expected, got):
    (want_pts, want_blocks), (pts, blocks) = expected, got
    assert np.linalg.norm(pts - want_pts, axis=1).max() <= 1e-8 * Dataset(want_pts).diameter()
    # one set partition iff the block-id pairs form a bijection
    pairs = set(zip(want_blocks.tolist(), blocks.tolist()))
    assert len(pairs) == len(set(want_blocks.tolist())) == len(set(blocks.tolist()))


def _check_permutation(pts, k, perm):
    pts_out, blocks = _run(pts, k)
    _assert_same_run((pts_out[perm], blocks[perm]), _run(pts[perm], k))


def _check_affine_map(pts, k, scale, shift):
    _assert_same_run(_run(pts, k), _run(pts * scale + shift, k))


@settings(max_examples=60, deadline=None)
@given(cases())
def test_run_osd_follows_a_row_permutation(case):
    pts, k, perm, _, _ = case
    _check_permutation(pts, k, perm)


@settings(max_examples=60, deadline=None)
@given(cases())
def test_run_osd_ignores_a_per_axis_affine_map(case):
    pts, k, _, scale, shift = case
    _check_affine_map(pts, k, scale, shift)


# Falsifying examples of the two properties above, kept so that their failure
# shows on every run instead of on some Hypothesis draws.  A nearly coincident
# invalid pair's force turns last-bit differences into moves past the bound.
singular_force = pytest.mark.xfail(
    raises=AssertionError, strict=True, reason="ROADMAP item 17: singular repulsion force")


@singular_force
def test_run_osd_follows_a_row_permutation_falsified_at_n190_d1():
    pts, k, perm, _, _ = _case(n=190, d=1, k=1, seed=17)  # a row off by 468, bound 451
    _check_permutation(pts, k, perm)


@singular_force
def test_run_osd_ignores_a_per_axis_affine_map_falsified_at_n173_d1():
    pts, k, _, scale, shift = _case(n=173, d=1, k=1, seed=1)  # a row off by 3.0e5, bound 2.9e5
    _check_affine_map(pts, k, scale, shift)


@st.composite
def scaled_runs(draw):
    """A normalized point set, a k, a power of two, and a factor of 12 bits.

    The 12-bit factor, from about 2.4e-7 to 4095 (37.5 among them), scales
    a grid of 41-bit integers without rounding (see _on_grid).
    """
    n = draw(st.integers(3, 120))
    d = draw(st.integers(1, 8))
    k = draw(st.integers(1, n - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.standard_t(2, size=(n, d)) + 10.0 * rng.integers(0, 3, size=(n, 1))
    power = 2.0 ** draw(st.integers(-20, 20))
    factor = draw(st.integers(1, 2**12 - 1)) * 2.0 ** draw(st.integers(-22, 0))
    return min_max_normalize(Dataset(pts)), k, power, factor


def _layers(ds, k, sign_mode):
    """The graph, partition, G and exploded points of a run on ds."""
    graph = build(ds, k)
    partition = divide(graph, find_inflection(*weight_histogram(graph.edge_weights, ds.count))[0])
    g_const = constant_g(graph)
    exploded, _ = explode(ds, partition, g_const, 1.0, sign_mode)
    return graph, partition, g_const, exploded


def _on_grid(*arrays):
    """The arrays rounded to one grid 40 bits below their largest magnitude.

    A factor of 12 significant bits then scales them and their differences
    exactly.  Rounding c * x instead would test the forces' sensitivity to
    the last bit (large near a coincident pair), not how they scale.
    """
    step = 2.0 ** (np.frexp(max(np.abs(a).max() for a in arrays))[1] - 40)
    return [np.round(a / step) * step for a in arrays]


def _displacement_in(module, call):
    """The displacement that call() computed through module.displacement."""
    seen, inner = [], module.displacement

    def spy(*args):
        seen.append(inner(*args))
        return seen[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "displacement", spy)
        call()
    (shift,) = seen
    return shift


def _assert_rows_close(got, want):
    """Each row within 1e-12 of its length, so a cancelled component passes."""
    assert np.all(np.abs(got - want) <= 1e-12 * np.linalg.norm(want, axis=-1, keepdims=True))


@pytest.mark.parametrize("law", list(LAWS))
@settings(max_examples=60, deadline=None)
@given(scaled_runs())
def test_explosion_is_scale_free_under_each_law(law, case):
    ds, k, power, factor = case
    sign_mode = LAWS[law][0]
    _, partition, g_const, _ = _layers(ds, k, sign_mode)
    positions, eps = centroids(ds, partition), _epsilon(ds)
    theta = bomb_position(positions)
    force = shock_force(positions, theta, g_const, eps)
    scaled = shock_force(power * positions, power * theta, power * g_const, power * eps)
    assert scaled.tobytes() == force.tobytes()
    # explode finds the scaled centroids, bomb and guard distance itself
    move = _displacement_in(explosion, lambda: explode(ds, partition, g_const, 1.0, sign_mode))
    scaled = _displacement_in(explosion, lambda: explode(
        Dataset(power * ds.points), partition, power * g_const, 1.0, sign_mode))
    assert scaled.tobytes() == move.tobytes()

    positions, theta = _on_grid(positions, theta)
    force = shock_force(positions, theta, g_const, eps)
    scaled = shock_force(factor * positions, factor * theta, factor * g_const, factor * eps)
    _assert_rows_close(scaled, force)
    masses = partition.masses[:, None]
    _assert_rows_close(displacement(scaled, 1.0, masses, sign_mode),
                       displacement(force, 1.0, masses, sign_mode))


@pytest.mark.parametrize("law", list(LAWS))
@settings(max_examples=60, deadline=None)
@given(scaled_runs())
def test_repulsion_scales_as_inverse_square_under_each_law(law, case):
    ds, k, power, factor = case
    sign_mode, direction_mode = LAWS[law]
    graph, partition, _, exploded = _layers(ds, k, sign_mode)
    # held fixed: the pairs themselves change with c, as the explosion's move does not scale
    pairs = find_invalid_neighbors(graph, exploded, partition)

    def move(points, c):
        return c * c * _displacement_in(repulsion, lambda: repel(
            Dataset(c * points), partition, pairs, sign_mode, direction_mode))

    assert move(exploded.points, power).tobytes() == move(exploded.points, 1.0).tobytes()
    (points,) = _on_grid(exploded.points)
    _assert_rows_close(move(points, factor), move(points, 1.0))
