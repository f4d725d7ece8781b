"""Smoke test: demos 01-06 run to completion, each in its own interpreter.

Demo 07 runs the full pipeline and takes about a minute, so it stays out.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = [
    "01_structure_theory.py",
    "02_flag_dynamics.py",
    "03_contraction_certificates.py",
    "04_pingpong_freeness.py",
    "05_growth_estimators.py",
    "06_symmetric_space_shadows.py",
]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_cleanly(demo, tmp_path):
    path = os.pathsep.join(p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", demo)],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
