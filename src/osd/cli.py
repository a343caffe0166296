"""Command-line interface.

Subcommands:
    osd transform   relocate a dataset and dump the result
    osd eval        before/after detector comparison
    osd synth       emit a synthetic cluster+outlier benchmark as CSV

The run-setting flags of transform and eval (listed under "run settings"
in --help) are named after RunConfig's fields, and a flag left unset takes
RunConfig's default.  Both commands write the same schema-versioned
RunReport JSON with --out-report; eval's adds the per-detector AUC/AP under
detector_results.  Wall-clock timing is measured by bench/run.py.

Exit codes: 0 success, 2 configuration error, 3 data error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from .dataset import load_csv
from .errors import ConfigError, DataError
from .metrics import _both_classes
from .pipeline import (
    ABLATIONS,
    DETECTOR_NAMES,
    LAWS,
    RunConfig,
    evaluate,
    prepare,
    run_osd,
    write_partition_csv,
    write_points_csv,
)
from .synth import gen_clusters_outliers, gen_imbalance_series


def _add_transform_flags(p: argparse.ArgumentParser) -> argparse._ArgumentGroup:
    p.add_argument("--input", required=True, help="CSV file of points")
    p.add_argument("--label-col", default=None,
                   help="label column name (needs header) or 0-based index")
    p.add_argument("--out-report", default=None, help="JSON report path")
    p.add_argument("--out-data", default=None, help="output CSV path")
    run = p.add_argument_group("run settings", "an unset flag takes RunConfig's default",
                               argument_default=argparse.SUPPRESS)  # dests are field names
    run.add_argument("--k", type=int, help="neighbor count (default min(10, N-1))")
    run.add_argument("--T", type=float, help="explosion duration")
    run.add_argument("--threshold", type=float,
                     help="pruning-weight override; skips knee detection")
    run.add_argument("--law", choices=LAWS, help="force law of explosion and repulsion")
    run.add_argument("--no-normalize", dest="normalize", action="store_false",
                     help="skip per-feature min-max scaling")
    run.add_argument("--ablation", choices=ABLATIONS)
    run.add_argument("--seed", type=int)
    return run


def _config_from(args: argparse.Namespace) -> RunConfig:
    given = vars(args)  # holds only the run flags the user set
    return RunConfig(**{f.name: given[f.name] for f in fields(RunConfig) if f.name in given})


def _cmd_run(args: argparse.Namespace) -> int:
    """transform and eval: one run of the plugin; eval adds the detectors."""
    config = _config_from(args)
    ds, labels = load_csv(args.input, args.label_col)
    evaluating = args.command == "eval"
    if evaluating:  # before the transform
        if labels is None:
            raise DataError("eval requires --label-col")
        _both_classes(labels)
    prepared = prepare(ds, config)
    result, partition, report = run_osd(prepared, config)
    if evaluating:
        report = evaluate(prepared, result, labels, config, report)
    if args.out_data:
        write_points_csv(args.out_data, result, labels)
    if getattr(args, "dump_blocks", None):  # a transform-only flag
        write_partition_csv(args.dump_blocks, partition)
    if args.out_report:
        Path(args.out_report).write_text(report.to_json())
    if not evaluating:
        pairs = report.n_invalid_pairs
        repulsion = "repulsion skipped" if pairs is None else f"{pairs} invalid pairs"
        print(f"transformed {ds.count} objects: {report.n_blocks} blocks, "
              f"threshold {report.threshold}, {repulsion}")
    for name, res in report.detector_results.items():
        print(
            f"{name}: AUC {res['auc_before']:.4f} -> {res['auc_after']:.4f}, "
            f"AP {res['ap_before']:.4f} -> {res['ap_after']:.4f}"
        )
    return 0


_SHAPE = {"n_clusters": 2, "pts_per_cluster": 100, "n_outliers": 10, "separation": 20.0}


def _cmd_synth(args: argparse.Namespace) -> int:
    given = {name: getattr(args, name) for name in _SHAPE if getattr(args, name) is not None}
    if args.imbalance_level is not None:
        if given.keys() - {"pts_per_cluster"}:  # the generator fixes the rest
            raise ConfigError("--imbalance-level takes no --clusters, --outliers or --separation")
        ds, labels = gen_imbalance_series([args.imbalance_level], args.seed, args.dim, **given)[0]
    else:
        ds, labels = gen_clusters_outliers(**(_SHAPE | given), dim=args.dim, seed=args.seed)
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
    p.add_argument("--dump-blocks", default=None, help="write object_id,block_id CSV")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("eval", help="before/after detector comparison")
    _add_transform_flags(p).add_argument(
        "--detector", dest="detectors", action="append", choices=DETECTOR_NAMES,
        help="repeatable; default: all")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("synth", help="generate a benchmark CSV")
    for name, default in _SHAPE.items():  # gen_clusters_outliers's arguments; unset reads None
        p.add_argument("--" + name.removeprefix("n_").replace("_", "-"), dest=name,
                       type=type(default), help=f"default {default}")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--imbalance-level", type=float, default=None,
                   help="two clusters of unequal density instead, 150 points each by default")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for flag in ("out_report", "out_data", "dump_blocks", "out"):
            out = getattr(args, flag, None)
            if out and (Path(out).is_dir() or not Path(out).parent.is_dir()):  # before any work
                raise ConfigError(f"cannot write --{flag.replace('_', '-')} {out}")
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
