"""Import cost: slnlab and its CLI leave scipy's linalg and optimize packages unloaded.

Every process pays what `import slnlab` loads: each CLI command, demo and test
subprocess. On a 2-core x86-64 host, `python3 -c "import slnlab"` takes 0.28-0.33 s
and leaves 312 entries in sys.modules; with scipy.linalg loaded it took 0.56-0.63 s
and left 610 (five runs each). scipy.optimize would cost about a quarter of a second
more.
"""

from functools import cache
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
BODIES = pytest.mark.parametrize("body", [IMPORT, CLI_HELP], ids=["import", "cli-help"])


@cache
def loaded_scipy_modules(body):
    """The scipy.linalg* and scipy.optimize* modules in sys.modules after body runs."""
    path = os.pathsep.join(p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p)
    code = (
        "import sys\n" + body + "\nprint(sorted(m for m in sys.modules"
        " if m.startswith(('scipy.linalg', 'scipy.optimize'))))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.strip().splitlines()[-1]


@BODIES
def test_scipy_optimize_stays_unloaded(body):
    assert "scipy.optimize" not in loaded_scipy_modules(body)


@BODIES
def test_scipy_linalg_stays_unloaded(body):
    assert "scipy.linalg" not in loaded_scipy_modules(body)
