"""Outside-in benchmark of the osd pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The inputs of a workload are generated from
--seed during set-up; osd then only receives those arrays (or the CSV
written from them).  Iterations repeat for --seconds.  Every operation (the
transform or evaluation of one dataset) is checked, and the last line of
standard output is one JSON object: correct, attempted, failed and the
metrics.  --trace 0 gives the end-to-end metrics with tracing off;
--trace 1 alternates untraced and traced iterations and gives the
per-layer metrics.  A full record (environment, per-iteration samples,
spans, digests) is written to --record.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("eval-16k-d5", "transform-64k-d5", "eval-sweep-small")
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", type=Path, default=None,
                   help="run record path (default bench/runs/<workload>.s<seed>.t<trace>.<pid>.json)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def bootstrap() -> dict[str, str]:
    """Cap library thread pools at nproc and put src/ on sys.path.

    Must run before numpy is first imported: the pools read these
    variables once, at import.  Returns the caps for the run record.
    """
    nproc = str(len(os.sched_getaffinity(0)))
    caps = {var: nproc for var in THREAD_VARS}
    os.environ.update(caps)
    if not (ROOT / "src" / "osd" / "__init__.py").is_file():
        sys.exit(f"bench: no osd sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    return caps


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    caps = bootstrap()
    import harness  # noqa: E402  (needs bootstrap() first)

    return harness.run(args, caps)


if __name__ == "__main__":
    sys.exit(main())
