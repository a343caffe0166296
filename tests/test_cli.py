import json
from dataclasses import replace

import numpy as np
import pytest

from osd.cli import main
from osd.pipeline import RunReport


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
    first_block_row = blocks.read_text().splitlines()[1]
    assert first_block_row.split(",") == ["0", "0"]


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
    metrics = tmp_path / "tidy.csv"
    code = main([
        "eval", "--input", str(data), "--label-col", "label",
        "--k", "5", "--seed", "0", "--detector", "knn",
        "--detector", "lof", "--out-report", str(report),
        "--out-metrics", str(metrics),
    ])
    assert code == 0
    rep = json.loads(report.read_text())
    assert set(rep["detector_results"]) == {"knn", "lof"}
    for res in rep["detector_results"].values():
        assert 0.0 <= res["auc_after"] <= 1.0
    lines = metrics.read_text().splitlines()
    assert lines[0] == "level,metric,value"
    assert len(lines) == 1 + 2 * 4


def test_transform_and_eval_write_one_report_schema(tmp_path):
    data = _synth(tmp_path)
    flags = ["--input", str(data), "--label-col", "label", "--k", "5",
             "--seed", "3", "--ablation", "random-bomb"]
    paths = {cmd: tmp_path / f"{cmd}.json" for cmd in ("transform", "eval")}
    for cmd, path in paths.items():
        assert main([cmd, *flags, "--out-report", str(path)]) == 0
    texts = {cmd: path.read_text() for cmd, path in paths.items()}
    reports = {cmd: RunReport.from_json(text) for cmd, text in texts.items()}
    assert json.loads(texts["transform"]).keys() == json.loads(texts["eval"]).keys()
    transform, evaluated = reports["transform"], reports["eval"]
    assert transform.n_blocks >= 2 and transform.timings
    assert transform.detector_results == {}
    assert set(evaluated.detector_results) == {"lof", "iforest", "knn"}
    strip = {"timings": {}, "detector_results": {}}
    assert replace(transform, **strip) == replace(evaluated, **strip)


def test_eval_requires_label_column(tmp_path):
    f = tmp_path / "plain.csv"
    f.write_text("1,2\n3,4\n5,6\n")
    assert main(["eval", "--input", str(f), "--k", "1"]) == 3


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
    for flag, value in (("--T", "0"), ("--T", "nan"), ("--T", "inf"),
                        ("--k", "0"), ("--threshold", "nan"), ("--seed", "-1")):
        assert main(["transform", "--input", "/no/such.csv", flag, value]) == 2


def test_bad_synth_setting_exits_two(tmp_path):
    out = str(tmp_path / "never.csv")
    for flag, value in (("--dim", "0"), ("--dim", "-2"), ("--separation", "nan"),
                        ("--separation", "inf"), ("--imbalance-level", "nan"),
                        ("--imbalance-level", "inf")):
        assert main(["synth", flag, value, "--out", out]) == 2
    assert main(["synth", "--imbalance-level", "4", "--dim", "0", "--out", out]) == 2


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


def test_imbalance_synth(tmp_path):
    out = tmp_path / "imb.csv"
    code = main(["synth", "--imbalance-level", "4", "--seed", "1",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].split(",")[-1] == "label"
    labels = np.array([float(l.rsplit(",", 1)[1]) for l in lines[1:]])
    assert 0 < labels.sum() < len(labels)
