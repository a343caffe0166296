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
