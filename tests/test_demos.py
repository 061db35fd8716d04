"""Every narrative demo, and the README's library tour, runs to completion
against the source tree."""

import math
import os
import re
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


# what the README's library tour shows: an expression, the text of its
# comment, and the value that text stands for
TOUR = [("psi(1.0)", "# 0.18394", 0.18394),
        ("g(1.0)", "# 0.06767", 0.06767),
        ("k_tail(pm)(1.0)", "# 0.33257", 0.33257),
        ("trace.last(1.0)", "# K_5(1) = 0.33257", 0.33257),
        ("adjustment_rate(model), adjustment_rate(pm)",
         "# 1.0, 2 - sqrt(2):", (1.0, 2.0 - math.sqrt(2.0))),
        ("est.estimate, est.standard_error", "# 0.33281, 0.00047",
         (0.33281, 0.00047))]


def test_readme_tour_runs_and_shows_its_values():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = text.split("## Library tour", 1)[1].split("```python\n", 1)[1]
    tour = tour.split("```", 1)[0]
    namespace = {}
    exec(compile(tour, "README.md", "exec"), namespace)
    for expr, comment, value in TOUR:
        assert re.search(rf"^{re.escape(expr)} +{re.escape(comment)}", tour,
                         re.M), expr
        assert eval(expr, namespace) == pytest.approx(value, abs=5e-6), expr
