import argparse
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from osd import cli
from osd.cli import _config_from, build_parser, main
from osd.dataset import load_csv
from osd.pipeline import RunConfig, prepare, run_osd
from osd.synth import gen_clusters_outliers


def _synth(tmp_path, name="data.csv", seed=0):
    out = tmp_path / name
    code = main([
        "synth", "--clusters", "2", "--pts-per-cluster", "40",
        "--outliers", "4", "--dim", "2", "--separation", "25",
        "--seed", str(seed), "--out", str(out),
    ])
    assert code == 0
    return out


def test_synth_writes_labeled_csv(tmp_path):
    path = _synth(tmp_path)
    header = path.read_text().splitlines()[0]
    assert header.split(",") == ["x0", "x1", "label"]
    assert len(path.read_text().splitlines()) == 85


def test_transform_round_trip(tmp_path):
    data = _synth(tmp_path)
    out = tmp_path / "moved.csv"
    report = tmp_path / "report.json"
    blocks = tmp_path / "blocks.csv"
    code = main([
        "transform", "--input", str(data), "--label-col", "label",
        "--k", "5", "--seed", "0", "--out-data", str(out),
        "--out-report", str(report), "--dump-blocks", str(blocks),
    ])
    assert code == 0
    rep = json.loads(report.read_text())
    assert rep["n_blocks"] >= 2
    assert len(out.read_text().splitlines()) == 85
    assert blocks.read_text().splitlines()[0] == "object_id,block_id"
    rows = np.loadtxt(blocks, delimiter=",", skiprows=1, dtype=np.int64)
    config = RunConfig(k=5, seed=0)
    _, partition, _ = run_osd(prepare(load_csv(data, "label")[0], config), config)
    np.testing.assert_array_equal(rows, np.column_stack(
        [np.arange(partition.n_objects), partition.assignment]))


def test_transform_threshold_override(tmp_path):
    data = _synth(tmp_path)
    report = tmp_path / "report.json"
    code = main([
        "transform", "--input", str(data), "--label-col", "label",
        "--k", "5", "--threshold", "-0.7", "--out-report", str(report),
    ])
    assert code == 0
    assert json.loads(report.read_text())["threshold"] == -0.7


def test_eval_writes_report(tmp_path):
    data = _synth(tmp_path)
    report = tmp_path / "report.json"
    code = main([
        "eval", "--input", str(data), "--label-col", "label",
        "--k", "5", "--seed", "0", "--detector", "knn",
        "--detector", "lof", "--out-report", str(report),
    ])
    assert code == 0
    rep = json.loads(report.read_text())
    assert set(rep["detector_results"]) == {"knn", "lof"}
    for res in rep["detector_results"].values():
        assert 0.0 <= res["auc_after"] <= 1.0


def test_transform_and_eval_write_one_report_schema(tmp_path):
    data = _synth(tmp_path)
    flags = ["--input", str(data), "--label-col", "label", "--k", "5",
             "--seed", "3", "--ablation", "random-bomb"]
    paths = {cmd: tmp_path / f"{cmd}.json" for cmd in ("transform", "eval")}
    for cmd, path in paths.items():
        assert main([cmd, *flags, "--out-report", str(path)]) == 0
    transform, evaluated = (json.loads(path.read_text()) for path in paths.values())
    assert transform.keys() == evaluated.keys()
    assert transform["n_blocks"] >= 2 and transform["timings"]
    assert transform["detector_results"] == {}
    assert set(evaluated["detector_results"]) == {"lof", "iforest", "knn"}
    strip = {"timings": {}, "detector_results": {}}
    assert {**transform, **strip} == {**evaluated, **strip}
    assert RunConfig(**transform["config"]) == RunConfig(k=5, ablation="random-bomb", seed=3)


NON_DEFAULT_RUN_FLAGS = {
    "k": (["--k", "7"], 7),
    "T": (["--T", "0.5"], 0.5),
    "threshold": (["--threshold", "-0.25"], -0.25),
    "law": (["--law", "literal-sign"], "literal-sign"),
    "normalize": (["--no-normalize"], False),
    "ablation": (["--ablation", "no-repulsion"], "no-repulsion"),
    "detectors": (["--detector", "knn", "--detector", "lof"], ("knn", "lof")),
    "seed": (["--seed", "3"], 3),
}


@pytest.mark.parametrize("command", ["transform", "eval"])
def test_run_flags_map_onto_run_config_by_name(command):
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    (group,) = [g for g in sub.choices[command]._action_groups if g.title == "run settings"]
    names = {f.name for f in fields(RunConfig)} - ({"detectors"} if command == "transform" else set())
    assert {a.dest for a in group._group_actions} == names
    # no run flag: every field keeps RunConfig's default
    assert _config_from(parser.parse_args([command, "--input", "x.csv"])) == RunConfig()
    # every run flag set to a value other than its default
    argv, expected = [command, "--input", "x.csv"], {}
    for name in names:
        flags, value = NON_DEFAULT_RUN_FLAGS[name]
        assert value != getattr(RunConfig(), name)
        argv += flags
        expected[name] = value
    assert _config_from(parser.parse_args(argv)) == RunConfig(**expected)


def test_transform_without_repulsion_says_it_was_skipped(tmp_path, capsys):
    data = _synth(tmp_path)
    capsys.readouterr()
    argv = ["transform", "--input", str(data), "--label-col", "label", "--k", "5"]
    assert main([*argv, "--ablation", "no-repulsion"]) == 0
    assert capsys.readouterr().out.endswith(", repulsion skipped\n")
    assert main(argv) == 0
    assert capsys.readouterr().out.endswith(" invalid pairs\n")


def test_no_division_ablation_exits_two_before_reading_input(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["transform", "--input", "/no/such.csv", "--ablation", "no-division"])
    assert exc.value.code == 2
    assert "invalid choice: 'no-division'" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [0, 1])
def test_eval_refuses_one_class_labels_before_the_transform(tmp_path, monkeypatch, capsys, flag):
    def spy(*args, **kwargs):
        raise AssertionError("the transform ran")

    monkeypatch.setattr(cli, "prepare", spy)
    monkeypatch.setattr(cli, "run_osd", spy)
    f = tmp_path / "one_class.csv"
    f.write_text("x,y,label\n" + "".join(f"{i},{i * i},{flag}\n" for i in range(30)))
    assert main(["eval", "--input", str(f), "--label-col", "label"]) == 3
    assert "both an outlier and a normal" in capsys.readouterr().err


def test_eval_requires_label_column(tmp_path):
    f = tmp_path / "plain.csv"
    f.write_text("1,2\n3,4\n5,6\n")
    assert main(["eval", "--input", str(f), "--k", "1"]) == 3


def test_cell_beyond_csv_field_limit_exits_three(tmp_path, capsys):
    f = tmp_path / "long.csv"
    f.write_text("x,label\n" + "1" * 140_000 + ",0\n2,1\n3,0\n")
    assert main(["eval", "--input", str(f), "--label-col", "label"]) == 3
    assert f"cannot read {f}:" in capsys.readouterr().err


def test_missing_file_is_data_error():
    assert main(["transform", "--input", "/no/such.csv"]) == 3


def test_bad_k_is_config_error(tmp_path):
    data = _synth(tmp_path)
    code = main(["transform", "--input", str(data), "--label-col", "label",
                 "--k", "500"])
    assert code == 2


def test_bad_flag_value_exits_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["transform", "--input", "x.csv", "--ablation", "bogus"])
    assert exc.value.code == 2


def test_bad_explosion_setting_exits_two_before_reading_input():
    for flag, value in (("--T", "0"), ("--T", "nan"), ("--T", "inf"), ("--T", "1e300"),
                        ("--k", "0"), ("--threshold", "nan"), ("--seed", "-1")):
        assert main(["transform", "--input", "/no/such.csv", flag, value]) == 2


def test_repeated_detector_exits_two_before_reading_input(capsys):
    argv = ["eval", "--input", "/no/such.csv", "--detector", "lof", "--detector", "lof"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "repeat" in err


@pytest.mark.parametrize("command, flag", [
    ("transform", "--out-report"), ("transform", "--out-data"),
    ("transform", "--dump-blocks"), ("eval", "--out-report"),
    ("eval", "--out-data"), ("synth", "--out"),
])
def test_output_in_missing_directory_exits_two_before_reading_input(
    tmp_path, capsys, command, flag
):
    # a path in no directory, and a path that is a directory itself
    for target in (tmp_path / "no" / "such" / "out.file", tmp_path):
        argv = [command, flag, str(target)]
        if command != "synth":
            argv += ["--input", "/no/such.csv", "--label-col", "label"]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("config error:")
    assert list(tmp_path.iterdir()) == []


def test_bad_synth_setting_exits_two(tmp_path):
    out = str(tmp_path / "never.csv")
    for flag, value in (("--dim", "0"), ("--dim", "-2"), ("--separation", "nan"),
                        ("--separation", "inf"), ("--imbalance-level", "nan"),
                        ("--imbalance-level", "inf")):
        assert main(["synth", flag, value, "--out", out]) == 2
    assert main(["synth", "--imbalance-level", "4", "--dim", "0", "--out", out]) == 2


def test_infeasible_synth_setting_exits_two_without_output(tmp_path, capsys):
    out = tmp_path / "X"
    assert main(["synth", "--clusters", "1", "--pts-per-cluster", "1", "--outliers", "2",
                 "--separation", "100", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("name, content", [
    ("wide_header.csv", b"x,y,label\n1,2\n3,4\n5,6\n"),
    ("narrow_header.csv", b"x,y\n1,0,0\n3,1,1\n5,0,0\n"),  # y would read column 1
    ("latin1.csv", b"\xff\xfe1,2\n"),
    ("a_directory", None),
    ("empty.csv", b""),
    ("header_only.csv", b"x,y,label\n"),
    ("no_header.csv", b"1,2,0\n3,4,1\n"),
    ("no_label_name.csv", b"x,y,z\n1,2,0\n3,4,1\n"),
    ("nan_cell.csv", b"x,y,label\n1,2,0\n3,nan,1\n"),
], ids=["wide-header", "narrow-header", "non-utf8", "directory", "empty", "header-only",
        "no-header", "label-not-in-header", "nan-cell"])
@pytest.mark.parametrize("command", ["transform", "eval"])
def test_bad_input_file_exits_three_without_traceback(tmp_path, capsys, name, content, command):
    path = tmp_path / name
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    label = "y" if name == "narrow_header.csv" else "label"
    assert main([command, "--input", str(path), "--label-col", label]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "Traceback" not in err


def test_label_only_csv_is_data_error(tmp_path, capsys):
    f = tmp_path / "lab.csv"
    f.write_text("label\n0\n1\n0\n")
    assert main(["transform", "--input", str(f), "--label-col", "label"]) == 3
    assert capsys.readouterr().err.startswith("data error:")


def test_fractional_label_column_is_data_error(tmp_path, capsys):
    data = _synth(tmp_path)
    capsys.readouterr()
    assert main(["transform", "--input", str(data), "--label-col", "1.5"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "Traceback" not in err


@pytest.mark.parametrize("e", [-1000, -560, 660, 1000])
def test_unnormalized_data_at_any_power_of_two_scale_gives_the_same_blocks(tmp_path, e):
    # squared distances near 1e-340 underflow and near 1e400 overflow float64;
    # the k-NN build ranks at a power-of-two scale where neither happens
    points = gen_clusters_outliers(3, 300, 50, 3, 20.0, 0)[0].points
    partitions = []
    for name, pts in (("raw", points), ("scaled", np.ldexp(points, e))):
        data, blocks = tmp_path / f"{name}.csv", tmp_path / f"{name}-blocks.csv"
        np.savetxt(data, pts, delimiter=",")
        argv = ["transform", "--input", str(data), "--no-normalize", "--dump-blocks", str(blocks)]
        assert main(argv) == 0
        partitions.append(blocks.read_bytes())
    assert partitions[0] == partitions[1]
    assert len({line.split(b",")[1] for line in partitions[0].splitlines()[1:]}) == 55


@pytest.mark.parametrize("extra", [[], ["--imbalance-level", "4"]], ids=["clusters", "imbalance"])
def test_synth_negative_seed_exits_two_and_writes_nothing(tmp_path, capsys, extra):
    out = tmp_path / "data.csv"
    assert main(["synth", *extra, "--seed", "-1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "seed" in err and "Traceback" not in err
    assert not out.exists()


def test_imbalance_synth(tmp_path):
    out = tmp_path / "imb.csv"
    code = main(["synth", "--imbalance-level", "4", "--seed", "1",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].split(",")[-1] == "label"
    labels = np.array([float(l.rsplit(",", 1)[1]) for l in lines[1:]])
    assert 0 < labels.sum() < len(labels)


def test_imbalance_synth_takes_pts_per_cluster(tmp_path):
    out = tmp_path / "imb.csv"
    for extra, rows in (([], 315), (["--pts-per-cluster", "20"], 42)):  # 2 clusters + 5% outliers
        assert main(["synth", "--imbalance-level", "4", *extra, "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + rows


@pytest.mark.parametrize("flag, value", [
    ("--clusters", "5"), ("--outliers", "1"), ("--separation", "30"),
])
def test_imbalance_synth_refuses_cluster_shape_flags(tmp_path, capsys, flag, value):
    out = tmp_path / "imb.csv"
    assert main(["synth", "--imbalance-level", "4", flag, value, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "--imbalance-level takes no" in err
    assert not out.exists()


def test_module_runs_as_a_script(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "osd.cli", *argv], env=env,
                              capture_output=True, text=True).returncode

    assert run("transform", "--input", str(tmp_path / "x.csv"), "--k", "0") == 2
    assert run("synth", "--out", str(tmp_path / "data.csv")) == 0
    assert (tmp_path / "data.csv").exists()
