"""Import cost: slnlab and its CLI leave scipy's optimize package unloaded.

That package takes about a quarter of a second to import on a 2-core x86-64 host, and
every process would pay it: each CLI command, demo and test subprocess.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

IMPORT = "import slnlab"
# the CLI's --help exits through SystemExit; the check runs after it
CLI_HELP = """
import runpy
sys.argv = ["slnlab", "--help"]
try:
    runpy.run_module("slnlab", run_name="__main__")
except SystemExit as exc:
    assert exc.code == 0, exc.code
"""


@pytest.mark.parametrize("body", [IMPORT, CLI_HELP], ids=["import", "cli-help"])
def test_scipy_optimize_stays_unloaded(body):
    path = os.pathsep.join(p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p)
    code = "import sys\n" + body + "\nprint(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip().splitlines()[-1] == "[]"
