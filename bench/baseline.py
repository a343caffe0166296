"""Record the behaviour digests of the checked-out code as the baseline.

    python3 bench/baseline.py --seeds 0-19 [--workload NAME ...]

Runs each workload once per seed, untimed, checks every operation and
writes bench/baseline_digests.json.  run.py compares its digest against
this file and reports digest_changed.  Regenerate it only in a change
that alters behaviour on purpose, and say so in that change.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile

from run import BENCH_DIR, WORKLOADS, bootstrap


def seed_list(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=seed_list, required=True, help="e.g. 0-9 or 0,3,5-7")
    p.add_argument("--workload", action="append", choices=WORKLOADS)
    args = p.parse_args()
    bootstrap()
    import harness  # noqa: E402  (needs bootstrap() first)

    path = BENCH_DIR / "baseline_digests.json"
    data = json.loads(path.read_text()) if path.is_file() else {"digests": {}}
    data["commit"] = harness.git_commit()
    data["src_sha256"] = harness.src_digest()
    for name in args.workload or WORKLOADS:
        workload = harness.make_workload(name)
        try:
            for seed in args.seeds:
                with tempfile.TemporaryDirectory(dir=BENCH_DIR) as tmp:
                    workload.setup(seed, harness.Path(tmp))
                    outcomes = workload.iterate()
                    for o in outcomes:
                        errs = [repr(o)] if isinstance(o, BaseException) else harness.check(o)
                        if errs:
                            sys.exit(f"{name} seed {seed}: " + "; ".join(errs))
                digest = harness.workload_digest([harness.op_digest(o) for o in outcomes])
                data["digests"].setdefault(name, {})[str(seed)] = digest
                print(f"{name} seed {seed}: {digest['points'][:16]} {digest['blocks'][:16]}",
                      flush=True)
        finally:
            workload.cleanup()
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
