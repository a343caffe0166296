import ast
import importlib.util
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np

import osd
from osd.knngraph import build


def test_import_stays_light():
    # scipy.stats alone takes over half a second to import, scipy.spatial
    # (imported where k-NN graphs are built) about as long, and
    # scipy.sparse.csgraph (imported where blocks are divided) about 25 ms
    # and concurrent.futures (where k-NN blocks are ranked) about 6 ms;
    # each would land in every command's start-up time.
    src = str(Path(osd.__file__).resolve().parents[1])
    heavy = {"scipy.stats", "scipy.spatial", "scipy.sparse.csgraph", "concurrent.futures"}
    code = f"import sys, osd; assert not {heavy!r} & set(sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_failing_property_test_does_not_hide_later_tests(tmp_path):
    # Under filterwarnings "error", a warning raised in hypothesis's report
    # hook stopped pytest with INTERNALERROR, so later tests never ran.  The
    # run must go on, and a bare DeprecationWarning must still fail its test.
    root = Path(__file__).resolve().parents[1]
    (tmp_path / "pyproject.toml").write_text((root / "pyproject.toml").read_text())
    (tmp_path / "test_three_cases.py").write_text(textwrap.dedent("""
        import warnings
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 0

        def test_passes():
            pass

        def test_warns():
            warnings.warn("bare", DeprecationWarning)
    """))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-rA", "-p", "no:cacheprovider",
         "test_three_cases.py"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "PASSED test_three_cases.py::test_passes" in result.stdout
    assert "FAILED test_three_cases.py::test_fails" in result.stdout
    assert "FAILED test_three_cases.py::test_warns - DeprecationWarning" in result.stdout


def test_bench_wrap_sites_resolve(monkeypatch):
    # bench/tracing.py wraps these module attributes from outside the
    # package; a rename here would break traced benchmark runs silently.
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", root / "bench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # for its dataclasses
    spec.loader.exec_module(tracing)
    for module_name, attrs in tracing.WRAP_SITES.items():
        module = importlib.import_module(module_name)
        for attr in attrs:
            assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_bench_graph_reads_resolve():
    # bench/harness.py:layer_metrics reads these attributes of the graphs
    # build returns (s.result.X) and of divide's graph argument (graph.X);
    # a rename would break only traced benchmark runs.
    harness = Path(__file__).resolve().parents[1] / "bench" / "harness.py"
    func = next(
        node for node in ast.walk(ast.parse(harness.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name == "layer_metrics"
    )
    names = {
        node.attr
        for node in ast.walk(func)
        if isinstance(node, ast.Attribute) and (
            isinstance(node.value, ast.Name) and node.value.id == "graph"
            or isinstance(node.value, ast.Attribute) and node.value.attr == "result"
        )
    }
    assert {"neighbor_idx", "edges", "n_edges", "n_objects"} <= names
    ds = osd.Dataset(np.random.default_rng(0).normal(size=(30, 2)))
    for graph in (build(ds, 5), build(ds, 3)):  # fresh, then a prefix slice
        for name in names:
            assert getattr(graph, name) is not None, name


def test_public_api_is_the_pipeline():
    # Settings, data, run/evaluate, partitions, detectors, metrics and
    # generators; each layer's functions stay in their own module.
    assert set(osd.__all__) == {
        "RunConfig", "ConfigError", "DataError",
        "Dataset", "Labels", "load_csv", "min_max_normalize",
        "prepare", "run_osd", "evaluate", "RunReport", "BlockPartition",
        "lof_scores", "iforest_scores", "knn_dist_scores",
        "roc_auc", "average_precision", "evaluate_scores",
        "gen_clusters_outliers", "gen_imbalance_series",
    }
    assert len(osd.__all__) == len(set(osd.__all__))
    for name in osd.__all__:
        assert getattr(osd, name, None) is not None, name
    harness = Path(__file__).resolve().parents[1] / "bench" / "harness.py"
    imported = {
        alias.name
        for node in ast.walk(ast.parse(harness.read_text()))
        if isinstance(node, ast.ImportFrom) and node.module == "osd"
        for alias in node.names
    }
    assert imported and imported <= set(osd.__all__)
