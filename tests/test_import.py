import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import osd


def test_import_stays_light():
    # scipy.stats alone takes over half a second to import, and
    # scipy.sparse.csgraph (imported where blocks are divided) about 25 ms;
    # either would land in every command's start-up time.
    src = str(Path(osd.__file__).resolve().parents[1])
    code = (
        "import sys, osd; "
        "assert not {'scipy.stats', 'scipy.sparse.csgraph'} & set(sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


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
