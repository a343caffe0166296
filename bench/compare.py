"""Compare two sets of benchmark run records, workload by workload.

    python3 bench/compare.py PARENT CHANGE

PARENT and CHANGE are run-record files or directories of them, written by
run.py --record with identical --seconds.  Runs are paired by workload and
seed.  For each end-to-end metric, with its bound from BENCHMARK.json:

  better      the change wins at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              interquartile spread; needs at least 10 pairs
  worse       the change's median is worse than the parent's by more than
              the bound (a regression)
  unresolved  the parent's own spread is wider than the bound, and not
              every change run beats every parent run
  same        none of the above

Quality (metrics.auc_*/ap_*) is deterministic for a seed but varies widely
between seeds, so it is compared per seed instead: worse if the change
scores lower on any seed, better if it scores higher on some and lower on
none.  Per-layer metrics from --trace 1 records are listed with their
medians only.  Digests are compared per seed.  Exits 1 if any metric is
worse, any run failed an operation, or a digest differs between runs of
one side.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(arg: str) -> list[dict]:
    path = Path(arg)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    records = [json.loads(f.read_text()) for f in files]
    return [r for r in records if "workload" in r and "metrics" in r]


def by_workload(records: list[dict], trace: int) -> dict[str, dict[int, list[dict]]]:
    out: dict[str, dict[int, list[dict]]] = defaultdict(lambda: defaultdict(list))
    for r in records:
        if r["trace"] == trace:
            out[r["workload"]][r["seed"]].append(r)
    return out


def spread(values: list[float]) -> float:
    """Interquartile distance, as statistics.quantiles(n=4) gives it."""
    if len(values) < 2:
        return float("inf")
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            better: str, bound: float) -> tuple[str, float]:
    sign = 1.0 if better == "lower" else -1.0
    pm, cm = statistics.median(parent), statistics.median(change)
    worse_by = sign * (cm - pm) / abs(pm) if pm else 0.0
    iqr = spread(parent)
    if iqr > bound * abs(pm):
        beats_all = (max(change) < min(parent) if better == "lower"
                     else min(change) > max(parent))
        return ("better" if beats_all else "unresolved"), worse_by
    if worse_by > bound:
        return "worse", worse_by
    wins = sum(sign * (c - p) < 0 for p, c in pairs)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and abs(cm - pm) > iqr and sign * (cm - pm) < 0):
        return "better", worse_by
    return "same", worse_by


def quality_report(parent: list[dict], change: list[dict], workload: str) -> bool:
    """Per-seed quality comparison; returns True if any seed got worse."""
    def per_seed(records):
        return {r["seed"]: r["quality"] for r in records
                if r["workload"] == workload and r.get("quality")}
    p, c = per_seed(parent), per_seed(change)
    seeds = sorted(set(p) & set(c))
    if not seeds:
        print("  quality: no seed scored on both sides")
        return False
    worse = False
    for name in p[seeds[0]]:
        down = [s for s in seeds if c[s][name] < p[s][name]]
        up = [s for s in seeds if c[s][name] > p[s][name]]
        v = "worse" if down else "better" if up else "same"
        mean_delta = statistics.fmean(c[s][name] - p[s][name] for s in seeds)
        print(f"  {name:26s} {v:6s} lower on {len(down)}, higher on {len(up)} "
              f"of {len(seeds)} seeds, mean change {mean_delta:+.4f}")
        worse |= bool(down)
    return worse


def digest_report(side: str, runs: dict[int, list[dict]]) -> tuple[dict[int, dict], bool]:
    ok = True
    per_seed = {}
    for seed, rs in runs.items():
        digests = {json.dumps(r["digest"], sort_keys=True) for r in rs}
        if len(digests) > 1:
            print(f"  {side}: seed {seed} gave {len(digests)} different digests (nondeterminism)")
            ok = False
        per_seed[seed] = rs[0]["digest"]
    return per_seed, ok


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent_all, change_all = load(argv[0]), load(argv[1])
    bad = False

    parent, change = by_workload(parent_all, 0), by_workload(change_all, 0)
    for wl in sorted(set(parent) | set(change)):
        print(f"\n== {wl}")
        if wl not in parent or wl not in change:
            print("  only on one side; nothing to compare")
            continue
        for side, runs in (("parent", parent[wl]), ("change", change[wl])):
            rs = [r for seed_runs in runs.values() for r in seed_runs]
            failed = sum(r["failed"] for r in rs)
            print(f"  {side}: {len(rs)} runs, seeds {sorted(runs)}, "
                  f"{sum(r['attempted'] for r in rs)} operations, {failed} failed")
            bad |= failed > 0
        seeds = sorted(set(parent[wl]) & set(change[wl]))
        print(f"  {'metric':22s} {'parent':>12s} {'change':>12s} {'worse by':>9s} "
              f"{'bound':>6s} {'p.spread':>8s} {'wins':>6s}  verdict")
        for m in spec["end_to_end"]:
            name = m["name"]
            p_vals = [r["metrics"][name]["value"] for rs in parent[wl].values() for r in rs
                      if name in r["metrics"]]
            c_vals = [r["metrics"][name]["value"] for rs in change[wl].values() for r in rs
                      if name in r["metrics"]]
            if not p_vals or not c_vals:
                print(f"  {name:22s} missing")
                continue
            pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                     for s in seeds for p, c in zip(parent[wl][s], change[wl][s])]
            v, worse_by = verdict(p_vals, c_vals, pairs, m["better"], m["bound"])
            sign = 1.0 if m["better"] == "lower" else -1.0
            wins = sum(sign * (c - p) < 0 for p, c in pairs)
            pm = statistics.median(p_vals)
            print(f"  {name:22s} {pm:12.6g} {statistics.median(c_vals):12.6g} "
                  f"{worse_by:+9.2%} {m['bound']:6.2f} {spread(p_vals) / abs(pm):8.2%} "
                  f"{wins:>2d}/{len(pairs):<3d}  {v}")
            bad |= v == "worse"
        if len(seeds) < MIN_PAIRS:
            print(f"  ({len(seeds)} paired seeds: fewer than {MIN_PAIRS}, so no gain can be claimed)")
        bad |= quality_report(parent_all, change_all, wl)
        p_dig, p_ok = digest_report("parent", parent[wl])
        c_dig, c_ok = digest_report("change", change[wl])
        bad |= not (p_ok and c_ok)
        changed = [s for s in seeds if p_dig[s] != c_dig[s]]
        print(f"  digest: {'changed on seeds ' + str(changed) if changed else 'same'} "
              f"({len(seeds)} seeds compared)")

    parent_t, change_t = by_workload(parent_all, 1), by_workload(change_all, 1)
    for wl in sorted(set(parent_t) & set(change_t)):
        print(f"\n== {wl} per layer (medians of traced runs)")
        for m in spec["per_layer"]:
            name = m["name"]
            p_vals = [r["metrics"][name]["value"] for rs in parent_t[wl].values() for r in rs
                      if name in r["metrics"]]
            c_vals = [r["metrics"][name]["value"] for rs in change_t[wl].values() for r in rs
                      if name in r["metrics"]]
            if p_vals and c_vals:
                pm, cm = statistics.median(p_vals), statistics.median(c_vals)
                rel = f"{(cm - pm) / abs(pm):+8.1%}" if pm else "        "
                print(f"  {name:42s} {pm:12.6g} {cm:12.6g} {rel} {m['unit']}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
