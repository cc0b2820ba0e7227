"""Importing the package, or running a CLI command, loads no scipy.optimize.

A fresh interpreter is needed: the rest of the suite may already have
imported it.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import io, sys, contextlib
import rabi_spectra
assert "scipy.optimize" not in sys.modules, "import rabi_spectra"
from rabi_spectra import bethe, cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["--mode", "crossing-count", "--omega", "1", "--g2", "0.01",
                     "--omega0-range", "0.05:3:60", "--n", "7", "-o", "-"])
assert code == 0, code
assert "scipy.optimize" not in sys.modules, "cli.main"
root = bethe.brentq(lambda x: x * x - 2.0, 0.0, 2.0)
assert abs(root - 2.0 ** 0.5) < 1e-10, root
"""


def test_import_and_cli_run_load_no_scipy_optimize():
    # only scipy.optimize is pinned: older scipy versions pull other
    # subpackages into scipy.linalg on their own
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
