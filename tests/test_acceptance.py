"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines.
Every tolerance is pinned here; nothing is deferred to later calibration.
"""

import time

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from osd.blocks import divide, find_inflection, weight_histogram
from osd.dataset import Dataset, Labels
from osd.explosion import (
    bomb_position,
    constant_g,
    displacement,
    explode,
    shock_force,
)
from osd.knngraph import build
from osd.metrics import average_precision, roc_auc
from osd.pipeline import RunConfig, evaluate, prepare, run_osd
from osd.repulsion import find_invalid_neighbors, repel
from osd.synth import gen_clusters_outliers, gen_imbalance_series

from oracles import ap_oracle, auc_pairs_oracle, blocks_of, knn_oracle


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_bomb_and_shock_force_goldens():
    particles = np.array([[1.0, 1.0], [3.0, 0.5], [4.0, 2.0]])
    theta = bomb_position(particles)
    f1 = shock_force(particles[0], theta, 5.0, 1e-12)
    ok = np.allclose(theta, [2.67, 1.17], atol=0.01) and np.allclose(
        f1, [-2.97, -0.30], atol=0.01
    )
    _report(1, ok, f"bomb {np.round(theta, 3)}, force {np.round(f1, 3)}")


def test_criterion_02_displacement_goldens_exact():
    pts = np.array([[1.0, 4, 2], [0, 3, 5], [-1, 7, 2]])
    force = np.array([3.0, 2.0, 1.0])
    ok = True
    for mode in ("corrected", "literal"):
        s = displacement(force, 1.0, 3, mode)
        ok &= np.allclose(s, [1.0, 4 / 9, 1 / 9], rtol=0, atol=1e-12)
        moved = pts + s
        ok &= np.allclose(moved[0], [2.0, 40 / 9, 19 / 9], rtol=0, atol=1e-12)
        ok &= np.allclose(
            moved.mean(axis=0), [1.0, 138 / 27, 84 / 27], rtol=0, atol=1e-12
        )
    _report(2, bool(ok), "displacement, moved object and particle exact in both modes")


def test_criterion_03_knn_and_invalid_neighbor_scenarios():
    collinear = Dataset(np.array([[1.0, 0, 0], [2, 0, 0], [3, 0, 0], [4, 0, 0]]))
    g = build(collinear, 2)
    ok = g.neighbor_idx[0].tolist() == [1, 2]

    # catch-up scenario: singleton object 0 vs block {1, 2, 3}, k = 2;
    # before the move 0's neighbors are {1, 2}; afterwards {1, 3}, so
    # (0, 3) is the one invalid-neighbor pair
    before = Dataset(np.array([[0.0, 0.0], [2.0, 0.0], [2.6, 0.5], [3.2, 0.0]]))
    after = Dataset(np.array([[4.7, -2.3], [3.5, -1.0], [4.1, -0.5], [4.7, -1.0]]))
    g0 = build(before, 2)
    part = divide(g0, -1.5)
    ok &= g0.neighbor_idx[0].tolist() == [1, 2]
    ok &= part.assignment.tolist() == [0, 1, 1, 1]
    moved_idx, _ = knn_oracle(after.points, 2)
    ok &= sorted(moved_idx[0].tolist()) == [1, 3]
    inv = find_invalid_neighbors(g0, after, part)
    ok &= set(map(tuple, inv.tolist())) == {(0, 3)}
    _report(3, bool(ok), "neighbor ranking and invalid-neighbor pair reproduce")


def test_criterion_04_bomb_position_minimizes_squared_distances():
    rng = np.random.default_rng(12345)
    ok = True
    for _ in range(200):
        c = int(rng.integers(2, 51))
        d = int(rng.integers(1, 11))
        positions = rng.normal(size=(c, d)) * rng.uniform(0.5, 4.0)
        theta = positions.mean(axis=0)
        base = np.sum((positions - theta) ** 2)
        direction = rng.normal(size=(50, d))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        radius = rng.uniform(1e-4, 2.0, size=(50, 1))
        perturbed = theta + direction * radius
        values = ((positions[None, :, :] - perturbed[:, None, :]) ** 2).sum(axis=(1, 2))
        ok &= bool(np.all(base < values))
    _report(4, ok, "centroid beat 50 perturbations in each of 200 configurations")


def test_criterion_05_block_statistics_over_100_seeds():
    mixed = 0
    total = 0
    dominance = True
    for seed in range(100):
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
            dominance &= max(pure_out) < min(pure_norm)
    frac = mixed / total
    _report(5, frac <= 0.05 and dominance,
            f"mixed fraction {frac:.4f}, outlier blocks always lighter")


def test_criterion_06_light_blocks_fly_farther_and_small_blocks_separate():
    # equal forces, masses 1 vs 20, both particles exactly 5 from the bomb
    heavy = np.tile([-5.0, 0.0], (20, 1))
    light = np.array([[5.0, 0.0]])
    ds = Dataset(np.vstack([heavy, light]))
    g = build(ds, 2)
    part = divide(g, -1.0)
    moved, _ = explode(ds, part, g_const=constant_g(g))
    theta = np.zeros(2)
    d_light = np.linalg.norm(moved.points[20] - theta)
    d_heavy = np.linalg.norm(moved.points[:20].mean(axis=0) - theta)
    ok = d_light > d_heavy

    # two nearby singletons plus a heavy anchor: their separation grows
    pts = np.vstack([np.tile([-20.0, 0.0], (20, 1)),
                     [[10.0, 1.0], [10.0, -1.0]]])
    ds2 = Dataset(pts)
    g2 = build(ds2, 1)
    part2 = divide(g2, -1.0)
    sep_before = np.linalg.norm(pts[20] - pts[21])
    moved2, _ = explode(ds2, part2, g_const=constant_g(g2))
    sep_after = np.linalg.norm(moved2.points[20] - moved2.points[21])
    ok &= sep_after > sep_before
    _report(6, bool(ok),
            f"light block {d_light:.4f} vs heavy {d_heavy:.4f} from bomb; "
            f"singleton separation grows by {sep_after - sep_before:.2e}")


def test_criterion_07_metrics_match_brute_force_oracles():
    rng = np.random.default_rng(777)
    checked = 0
    ok = True
    while checked < 100:
        scores = rng.choice([0.05, 0.2, 0.2, 0.5, 0.8, 0.95], size=30)
        flags = (rng.random(30) < 0.3).astype(int)
        if flags.sum() in (0, 30):
            continue
        labels = Labels(flags)
        ok &= abs(roc_auc(scores, labels) - auc_pairs_oracle(scores, flags)) <= 1e-12
        ok &= abs(average_precision(scores, labels) - ap_oracle(scores, flags)) <= 1e-12
        checked += 1
    _report(7, ok, "AUC and AP equal pair-count and definition oracles, 100 instances")


def _improvement_runs():
    """Shared 10-seed benchmark: 3 clusters + 26 outliers in R^3, N = 500."""
    for seed in range(10):
        ds, labels = gen_clusters_outliers(3, 158, 26, 3, 28.0, seed)
        yield seed, ds, labels


def test_criterion_08_detectors_improve_on_synthetic_benchmarks():
    wins = {"lof": 0, "iforest": 0, "knn": 0}
    dist_wins = 0
    for seed, ds, labels in _improvement_runs():
        config = RunConfig(k=10, T=1.0, seed=seed)
        prepared = prepare(ds, config)
        out, _, transform = run_osd(prepared, config)
        report = evaluate(prepared, out, labels, config, transform)
        o = labels.flags == 1
        n = labels.flags == 0
        before = cdist(prepared.points[o], prepared.points[n]).mean()
        after = cdist(out.points[o], out.points[n]).mean()
        dist_wins += int(after > before)
        for name, res in report.detector_results.items():
            wins[name] += int(res["auc_after"] >= res["auc_before"])
    ok = all(w >= 8 for w in wins.values()) and dist_wins == 10
    _report(8, ok, f"AUC wins {wins} (need >= 8 each), distance wins {dist_wins}/10")


def test_criterion_09_ablation_ordering():
    means = {}
    for ablation in ("none", "random-bomb", "no-repulsion"):
        aucs = []
        for seed, ds, labels in _improvement_runs():
            config = RunConfig(k=10, T=1.0, seed=seed, ablation=ablation,
                               detectors=("lof",))
            prepared = prepare(ds, config)
            out, _, transform = run_osd(prepared, config)
            report = evaluate(prepared, out, labels, config, transform)
            aucs.append(report.detector_results["lof"]["auc_after"])
        means[ablation] = float(np.mean(aucs))
    ok = (means["none"] >= means["random-bomb"]
          and means["none"] >= means["no-repulsion"])
    _report(9, ok, f"mean LOF AUC {means}")


def test_criterion_10_threshold_robustness():
    ds, labels = gen_clusters_outliers(2, 120, 12, 2, 30.0, 25)
    config = RunConfig(k=8, seed=25)
    prepared = prepare(ds, config)
    g = build(prepared, 8)
    probs, bin_edges = weight_histogram(g.edge_weights, g.n_objects)
    _, knee_bin = find_inflection(probs, bin_edges)
    lo = bin_edges[knee_bin]
    hi = bin_edges[knee_bin + 1]
    o = labels.flags == 1
    n = labels.flags == 0
    before = cdist(prepared.points[o], prepared.points[n]).min()
    ratios = []
    for threshold in (lo, (lo + hi) / 2, hi):
        part = divide(g, threshold)
        exploded, _ = explode(prepared, part, g_const=constant_g(g))
        inv = find_invalid_neighbors(g, exploded, part)
        out = repel(exploded, part, inv)
        ratios.append(cdist(out.points[o], out.points[n]).min() / before)
    ok = all(r > 1.0 for r in ratios)
    _report(10, ok, f"min-distance ratios across knee region {np.round(ratios, 3)}")


def test_criterion_11_imbalance_robustness():
    levels = [1.0, 2.0, 4.0, 8.0, 12.0]
    wins = 0
    pairs = gen_imbalance_series(levels, seed=11)
    for level, (ds, labels) in zip(levels, pairs):
        config = RunConfig(k=10, seed=11, detectors=("lof",))
        prepared = prepare(ds, config)
        out, _, transform = run_osd(prepared, config)
        res = evaluate(prepared, out, labels, config, transform).detector_results["lof"]
        wins += int(res["auc_after"] >= res["auc_before"])
    _report(11, wins >= 4, f"LOF non-degrading at {wins}/5 imbalance levels")


def _best_run_osd_seconds(points: np.ndarray, config: RunConfig) -> float:
    """Fastest of 3 run_osd calls, each on a fresh Dataset so no kept graph serves it."""
    seconds = []
    for _ in range(3):
        ds = Dataset(points)
        t0 = time.perf_counter()
        run_osd(ds, config)
        seconds.append(time.perf_counter() - t0)
    return min(seconds)


def test_criterion_12_near_linear_scaling():
    config = RunConfig(k=10, seed=0)
    prepared = []
    for n in (1000, 4000):
        per_cluster = (n - n // 20) // 3
        ds, _ = gen_clusters_outliers(3, per_cluster, n - 3 * per_cluster, 5, 30.0, 0)
        prepared.append(prepare(ds, config))
    run_osd(Dataset(prepared[0].points), config)  # untimed warm-up
    seconds = [_best_run_osd_seconds(p.points, config) for p in prepared]
    ratio = seconds[1] / seconds[0]
    _report(12, ratio <= 8.0, f"transform time ratio N=4000/N=1000 is {ratio:.2f}")
