"""Every narrative demo runs to completion against the source tree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ("01_claim_distributions.py", "02_ruin_probabilities.py",
         "03_deficit_at_ruin.py", "04_diffusion_fixed_point.py",
         "05_continuity_bounds.py", "06_reproduce_tables.py")


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_zero(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
