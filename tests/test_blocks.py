import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from osd.blocks import BlockPartition, divide, find_inflection, weight_histogram
from osd.dataset import Dataset
from osd.errors import DataError
from osd.knngraph import build

from oracles import blocks_of, flood_fill_components, histogram_recount


def test_histogram_uniform_weights_arithmetic():
    # 10 edges at -1..-10 among 100 objects: width 9*10/100, one per bin
    probs, bin_edges = weight_histogram(-np.arange(1.0, 11.0), 100)
    np.testing.assert_allclose(np.diff(bin_edges), 0.9)
    assert len(probs) == 10
    np.testing.assert_allclose(probs, 0.01)


def test_histogram_degenerate_all_equal():
    probs, bin_edges = weight_histogram(np.full(7, -2.0), 30)
    assert len(probs) == 2
    assert probs.tolist() == [0.0, 7 / 30]
    assert bin_edges[1] == -2.0  # the shared weight sits in the closed bin


@pytest.mark.parametrize("e", [-1000, 1000, 1023])
def test_histogram_at_any_power_of_two_scale_is_the_scaled_histogram(e):
    # at 2^1023 these weights span 1.3e308, so ten times the span is past the float range
    w = -np.random.default_rng(5).uniform(0.0, 1.5, size=200)
    probs, bin_edges = weight_histogram(w, 21)
    scaled_probs, scaled_edges = weight_histogram(np.ldexp(w, e), 21)
    assert scaled_probs.tobytes() == probs.tobytes()
    assert scaled_edges.tobytes() == np.ldexp(bin_edges, e).tobytes()


def test_histogram_counts_match_recount_oracle():
    rng = np.random.default_rng(0)
    ds = Dataset(rng.normal(size=(80, 3)))
    g = build(ds, 4)
    probs, bin_edges = weight_histogram(g.edge_weights, g.n_objects)
    counts = histogram_recount(g.edge_weights, bin_edges)
    np.testing.assert_allclose(probs, counts / 80)


def test_histogram_covers_extremes():
    rng = np.random.default_rng(1)
    ds = Dataset(rng.normal(size=(55, 2)))
    g = build(ds, 3)
    probs, bin_edges = weight_histogram(g.edge_weights, g.n_objects)
    assert bin_edges[0] <= g.edge_weights.min()
    assert bin_edges[-1] >= g.edge_weights.max()
    # every edge lands in some bin
    assert probs.sum() * 55 == pytest.approx(g.n_edges, abs=1e-9)


def test_histogram_requires_edges():
    with pytest.raises(DataError):
        weight_histogram(np.empty(0), 10)


def _hist_from_probs(probs: list[float]) -> tuple[np.ndarray, np.ndarray]:
    edges = -10.0 + np.arange(len(probs) + 1, dtype=float)
    return np.array(probs), edges


def test_inflection_flat_curve_falls_back_to_first_interior_bin():
    probs, bin_edges = _hist_from_probs([0.2] * 6)
    threshold, knee_bin = find_inflection(probs, bin_edges)
    assert knee_bin == 1
    assert threshold == bin_edges[1]


def test_inflection_curve_peaking_at_first_bin_prunes_least():
    # the scan ends before it starts, so the first interior bin is the knee
    probs, bin_edges = _hist_from_probs([0.5, 0.4, 0.2, 0.15, 0.1])
    assert find_inflection(probs, bin_edges) == (bin_edges[1], 1)


def test_inflection_two_regime_curve():
    p, bin_edges = _hist_from_probs([0.001, 0.001, 0.002, 0.05, 0.2, 0.4])
    # independent recomputation of the smoothed second difference
    sm = [(p[0] + p[1]) / 2] + [
        (p[i - 1] + p[i] + p[i + 1]) / 3 for i in range(1, 5)
    ] + [(p[4] + p[5]) / 2]
    d2 = [sm[g + 1] - 2 * sm[g] + sm[g - 1] for g in range(1, 5)]
    expect = 1 + int(np.argmax(d2))
    threshold, knee_bin = find_inflection(p, bin_edges)
    assert knee_bin == expect == 3  # the 0.002 -> 0.05 jump
    assert threshold == bin_edges[3]


def test_inflection_too_few_bins_prunes_nothing():
    threshold, knee_bin = find_inflection(np.array([0.1, 0.5]), np.array([-3.0, -2.0, -1.0]))
    assert threshold == -3.0
    assert knee_bin is None


def test_inflection_ignores_post_peak_curvature():
    # the decelerating downslope after the mode shows a curvature 0.7017
    # at bin 6, just above the rising flank's 0.7 at bin 2; the knee must
    # stay on the rising side
    _, knee_bin = find_inflection(*_hist_from_probs([0.01, 0.01, 0.02, 0.3, 2.4, 0.3, 0.05, 0.04]))
    assert knee_bin == 2


def test_divide_threshold_below_min_keeps_full_components():
    rng = np.random.default_rng(2)
    ds = Dataset(rng.normal(size=(40, 2)))
    g = build(ds, 3)
    part = divide(g, g.edge_weights.min() - 1.0)
    comps = flood_fill_components(40, g.edges)
    assert part.n_blocks == len(comps)
    assert sorted(map(len, comps)) == sorted(part.masses.tolist())


def test_divide_threshold_above_max_gives_singletons():
    rng = np.random.default_rng(3)
    ds = Dataset(rng.normal(size=(15, 2)))
    g = build(ds, 2)
    part = divide(g, 1.0)
    assert part.n_blocks == 15
    assert np.all(part.masses == 1)


def test_divide_two_clusters_three_isolated():
    rng = np.random.default_rng(42)
    c1 = rng.normal(0, 1.0, (30, 2))
    c2 = rng.normal(0, 1.0, (30, 2)) + [40.0, 0.0]
    iso = np.array([[20.0, 30.0], [-25.0, -20.0], [60.0, 25.0]])
    ds = Dataset(np.vstack([c1, c2, iso]))
    g = build(ds, 5)
    part = divide(g, find_inflection(*weight_histogram(g.edge_weights, g.n_objects))[0])
    assert part.n_blocks == 5
    assert sorted(part.masses.tolist()) == [1, 1, 1, 30, 30]
    for i in (60, 61, 62):
        assert part.masses[part.assignment[i]] == 1


@settings(max_examples=100, deadline=None)
@given(
    st.integers(2, 40).flatmap(
        lambda n: st.tuples(
            st.integers(1, 4).flatmap(
                lambda d: st.lists(
                    st.lists(st.integers(-2, 2) | st.floats(-3, 3), min_size=d, max_size=d),
                    min_size=n,
                    max_size=n,
                )
            ),
            st.integers(1, n - 1),
        )
    ),
    st.sampled_from([0.0, 1e-12, 0.1, 1.0, 1e12]),
)
@example(([[0.0]] * 5, 2), 1.0)  # d=1, all zero
@example(([[0.0], [1.0], [1.0], [3.0], [3.0], [4.0]], 2), 1.0)  # d=1, duplicates
def test_divide_matches_flood_fill_oracle(case, scale):
    rows, k = case
    pts = np.array(rows, dtype=float) * scale
    g = build(Dataset(pts), k)
    w = g.edge_weights
    quantiles = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0]
    thresholds = [
        *np.quantile(w, quantiles),
        *np.quantile(w, quantiles, method="lower"),  # exactly on an edge weight
        -math.inf, math.inf, 0.0, -0.0,
        find_inflection(*weight_histogram(w, g.n_objects))[0],
    ]
    for t in thresholds:
        comps = flood_fill_components(len(pts), g.edges[w >= t])
        ours = {frozenset(map(int, b)) for b in blocks_of(divide(g, t))}
        assert ours == {frozenset(c) for c in comps}, t


def test_partition_is_total_and_consistent():
    rng = np.random.default_rng(5)
    ds = Dataset(rng.normal(size=(50, 2)))
    g = build(ds, 4)
    part = divide(g, np.quantile(g.edge_weights, 0.2))
    seen = np.zeros(50, dtype=int)
    for b, members in enumerate(blocks_of(part)):
        assert len(members) == part.masses[b] >= 1
        for i in members:
            seen[i] += 1
            assert part.assignment[i] == b
    assert np.all(seen == 1)
    assert part.masses.sum() == 50


def test_block_ids_ordered_by_smallest_member():
    rng = np.random.default_rng(6)
    ds = Dataset(rng.normal(size=(30, 2)))
    g = build(ds, 3)
    part = divide(g, np.quantile(g.edge_weights, 0.3))
    firsts = [int(b.min()) for b in blocks_of(part)]
    assert firsts == sorted(firsts)


def test_raising_threshold_never_merges():
    rng = np.random.default_rng(7)
    ds = Dataset(rng.normal(size=(45, 2)))
    g = build(ds, 4)
    thresholds = np.quantile(g.edge_weights, [0.0, 0.25, 0.5, 0.75, 1.0])
    counts = [divide(g, t).n_blocks for t in thresholds]
    assert counts == sorted(counts)


def test_outlier_blocks_lighter_and_rarely_mixed():
    # generated cluster+outlier data: outlier blocks stay lighter than
    # normal blocks and mixed blocks stay rare
    mixed = 0
    total = 0
    for seed in range(30):
        from osd.synth import gen_clusters_outliers

        ds, labels = gen_clusters_outliers(2, 60, 6, 2, 30.0, seed)
        g = build(ds, 5)
        part = divide(g, find_inflection(*weight_histogram(g.edge_weights, g.n_objects))[0])
        fl = labels.flags
        pure_out, pure_norm = [], []
        for b, members in enumerate(blocks_of(part)):
            s = int(fl[members].sum())
            if s == len(members):
                pure_out.append(int(part.masses[b]))
            elif s == 0:
                pure_norm.append(int(part.masses[b]))
            else:
                mixed += 1
        total += part.n_blocks
        if pure_out and pure_norm:
            assert max(pure_out) < min(pure_norm)
    assert mixed / total <= 0.05
