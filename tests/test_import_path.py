"""Importing the package and its command line does not import ``scipy.stats``.

``scipy.stats`` costs about a second to import, more than numpy and
``scipy.special`` together, so the package evaluates every distribution with
``scipy.special`` alone and every command starts without that second.
"""

import os
import subprocess
import sys
from pathlib import Path

import unigof


def test_cli_import_leaves_scipy_stats_unloaded():
    src = str(Path(unigof.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, unigof, unigof.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
