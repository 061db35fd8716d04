"""Import cost: the package runs on numpy alone, with no scipy module loaded."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

MODEL = ("[model]\nlambda = 0.5\nc = 1.0\nclaims = exp\nrate = 2.0\n"
         "[model2]\nlambda = 0.5\nc = 1.0\nclaims = hyperexp\n"
         "weights = 0.5, 0.5\nrates = 1.5, 3.0\n"
         "[diffusion]\nD = 0.25\n[numeric]\nh = 0.015625\numax = 10\n")

# the commands reach every former scipy call: FFT sizes and the trapezoid
# mass check in the solver, quadrature and the Lundberg root in dk1, the
# matrix exponential in the K-bar tail, and the claim laws in Monte Carlo
COMMANDS = [["table", "4"],
            ["bound", "dk1", "{cfg}", "--gamma", "1"],
            ["eval", "ktail", "{cfg}", "--u", "0,1"],
            ["eval", "mc", "{cfg}", "--samples", "1000", "--u", "1"]]


def test_commands_load_no_scipy(tmp_path):
    # a fresh interpreter, because this test process has loaded scipy; an
    # import moved inside a function would show here too
    cfg = tmp_path / "m.cfg"
    cfg.write_text(MODEL)
    code = ("import io, sys, contextlib; sys.path.insert(0, sys.argv[1]); "
            "from ruinbounds import cli\n"
            f"for argv in {COMMANDS!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        code = cli.main([a.format(cfg=sys.argv[2]) for a in argv])\n"
            "    assert code == 0, (argv, code)\n"
            "print(*sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code, str(SRC), str(cfg)],
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == []
