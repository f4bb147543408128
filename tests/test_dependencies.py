import os
import subprocess
import sys
from pathlib import Path

import marketgraph


def test_package_and_cli_import_only_numpy():
    # the package promises numpy as its one runtime dependency; a fresh
    # interpreter shows what importing it really pulls in
    code = (
        "import sys, marketgraph, marketgraph.cli\n"
        "print(' '.join(sorted({m.split('.')[0] for m in sys.modules}"
        " & {'scipy', 'pandas', 'sklearn'})))\n"
    )
    src = str(Path(marketgraph.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == ""
