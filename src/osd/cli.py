"""Command-line interface.

Subcommands:
    osd transform   relocate a dataset and dump the result
    osd eval        before/after detector comparison
    osd synth       emit a synthetic cluster+outlier benchmark as CSV

transform and eval write the same schema-versioned RunReport JSON with
--out-report; eval's adds the detector results.  Wall-clock timing is
measured by bench/run.py.

Exit codes: 0 success, 2 configuration error, 3 data error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .dataset import load_csv
from .errors import ConfigError, DataError
from .explosion import DIRECTION_MODES, SIGN_MODES
from .pipeline import (
    ABLATIONS,
    DETECTOR_NAMES,
    RunConfig,
    evaluate,
    prepare,
    run_osd,
    write_partition_csv,
    write_points_csv,
    write_tidy_metrics_csv,
)
from .synth import gen_clusters_outliers, gen_imbalance_series


def _add_transform_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="CSV file of points")
    p.add_argument("--label-col", default=None,
                   help="label column name (needs header) or 0-based index")
    p.add_argument("--k", type=int, default=None,
                   help="neighbor count (default min(10, N-1))")
    p.add_argument("--T", type=float, default=1.0, help="explosion duration")
    p.add_argument("--threshold", type=float, default=None,
                   help="pruning-weight override; skips knee detection")
    p.add_argument("--sign-mode", choices=SIGN_MODES, default="corrected")
    p.add_argument("--direction-mode", choices=DIRECTION_MODES, default="corrected")
    p.add_argument("--no-normalize", action="store_true",
                   help="skip per-feature min-max scaling")
    p.add_argument("--ablation", choices=ABLATIONS, default="none")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-report", default=None, help="JSON report path")
    p.add_argument("--out-data", default=None, help="output CSV path")


def _config_from(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        k=args.k,
        T=args.T,
        threshold=args.threshold,
        sign_mode=args.sign_mode,
        direction_mode=args.direction_mode,
        normalize=not args.no_normalize,
        ablation=args.ablation,
        detectors=tuple(getattr(args, "detector", None) or DETECTOR_NAMES),
        seed=args.seed,
    )


def _cmd_transform(args: argparse.Namespace) -> int:
    config = _config_from(args)
    ds, labels = load_csv(args.input, args.label_col)
    prepared = prepare(ds, config)
    result, partition, report = run_osd(prepared, config)
    if args.out_data:
        write_points_csv(args.out_data, result, labels)
    if args.dump_blocks:
        write_partition_csv(args.dump_blocks, partition)
    if args.out_report:
        with open(args.out_report, "w") as fh:
            fh.write(report.to_json())
    print(
        f"transformed {ds.count} objects: {report.n_blocks} blocks, "
        f"threshold {report.threshold}, {report.n_invalid_pairs} invalid pairs"
    )
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    config = _config_from(args)
    ds, labels = load_csv(args.input, args.label_col)
    if labels is None:
        raise DataError("eval requires --label-col")
    prepared = prepare(ds, config)
    result, _, report = run_osd(prepared, config)
    report = evaluate(prepared, result, labels, config, report)
    if args.out_data:
        write_points_csv(args.out_data, result, labels)
    if args.out_report:
        with open(args.out_report, "w") as fh:
            fh.write(report.to_json())
    if args.out_metrics:
        write_tidy_metrics_csv(args.out_metrics, [(float(config.seed), report)])
    for name, res in report.detector_results.items():
        print(
            f"{name}: AUC {res['auc_before']:.4f} -> {res['auc_after']:.4f}, "
            f"AP {res['ap_before']:.4f} -> {res['ap_after']:.4f}"
        )
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    if args.imbalance_level is not None:
        pairs = gen_imbalance_series([args.imbalance_level], args.seed, dim=args.dim)
        ds, labels = pairs[0]
    else:
        ds, labels = gen_clusters_outliers(
            args.clusters, args.pts_per_cluster, args.outliers,
            args.dim, args.separation, args.seed,
        )
    write_points_csv(args.out, ds, labels)
    print(f"wrote {ds.count} x {ds.dim} points to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="osd",
        description="Outlier-separating preprocessing and evaluation tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="relocate a dataset")
    _add_transform_flags(p)
    p.add_argument("--dump-blocks", default=None,
                   help="write object_id,block_id CSV")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("eval", help="before/after detector comparison")
    _add_transform_flags(p)
    p.add_argument("--detector", action="append", choices=DETECTOR_NAMES,
                   help="repeatable; default: all")
    p.add_argument("--out-metrics", default=None,
                   help="tidy level,metric,value CSV for plotting")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("synth", help="generate a benchmark CSV")
    p.add_argument("--clusters", type=int, default=2)
    p.add_argument("--pts-per-cluster", type=int, default=100)
    p.add_argument("--outliers", type=int, default=10)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--separation", type=float, default=20.0)
    p.add_argument("--imbalance-level", type=float, default=None,
                   help="generate a two-cluster density-imbalance dataset instead")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for flag in ("out_report", "out_data", "dump_blocks", "out_metrics", "out"):
            out = getattr(args, flag, None)
            if out and not Path(out).parent.is_dir():  # fail before any work is done
                raise ConfigError(f"no directory for --{flag.replace('_', '-')} {out}")
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
