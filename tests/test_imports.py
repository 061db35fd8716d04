"""Import cost: the command line loads only the scipy modules it uses."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_cli_import_loads_no_scipy_signal_or_stats():
    # a fresh interpreter, because this test process may have loaded them
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import ruinbounds.cli; "
            "print(*sorted(m for m in sys.modules "
            "if m.startswith(('scipy.signal', 'scipy.stats'))))")
    out = subprocess.run([sys.executable, "-c", code, str(SRC)],
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == []
