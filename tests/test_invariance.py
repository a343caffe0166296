"""The default pipeline (normalize, then transform) ignores row order and
per-axis units: relocated points agree within 1e-8 of the diameter and the
partitions are the same set partition."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

from osd.dataset import Dataset
from osd.pipeline import RunConfig, prepare, run_osd


@st.composite
def cases(draw):
    """Tie-free points with a permutation and a per-axis affine map of them.

    Heavy-tailed draws around up to three centers give clusters, stragglers
    and far outliers, so runs have heavy blocks, singletons and invalid pairs.
    """
    n = draw(st.integers(3, 200))
    d = draw(st.integers(1, 50))
    k = draw(st.integers(1, n - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.standard_t(2, size=(n, d)) + 10.0 * rng.integers(0, 3, size=(n, 1))
    # the k-NN tie rule orders by row index, so tied distances may legally reorder
    assume(len(np.unique(pdist(pts))) == n * (n - 1) // 2)
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


@settings(max_examples=60, deadline=None)
@given(cases())
def test_run_osd_follows_a_row_permutation(case):
    pts, k, perm, _, _ = case
    pts_out, blocks = _run(pts, k)
    _assert_same_run((pts_out[perm], blocks[perm]), _run(pts[perm], k))


@settings(max_examples=60, deadline=None)
@given(cases())
def test_run_osd_ignores_a_per_axis_affine_map(case):
    pts, k, _, scale, shift = case
    _assert_same_run(_run(pts, k), _run(pts * scale + shift, k))
