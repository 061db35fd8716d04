"""Import cost: the package runs on numpy alone, with no scipy module loaded,
and its value types are written out, so no ``dataclasses`` module is loaded
either; they stay immutable.  Every name a module exports resolves."""

import copy
import importlib
import pickle
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import ruinbounds
from ruinbounds import (BoundReport, Exponential, GridFunction, MCEstimate,
                        PerturbedModel, RenewalProblem, RiskModel, iterate,
                        oracle)
from ruinbounds.config import ModelConfig, NumericSpec
from ruinbounds.tables import TableResult, TableRow

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
    # a fresh interpreter, because this test process has loaded scipy and
    # dataclasses; an import moved inside a function would show here too
    cfg = tmp_path / "m.cfg"
    cfg.write_text(MODEL)
    code = ("import io, sys, contextlib; sys.path.insert(0, sys.argv[1]); "
            "from ruinbounds import cli\n"
            f"for argv in {COMMANDS!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        code = cli.main([a.format(cfg=sys.argv[2]) for a in argv])\n"
            "    assert code == 0, (argv, code)\n"
            "print(*sorted(m for m in sys.modules if m == 'dataclasses' "
            "or m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code, str(SRC), str(cfg)],
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == []


MODULES = [ruinbounds, *(importlib.import_module(f"ruinbounds.{m.name}")
                         for m in pkgutil.iter_modules(ruinbounds.__path__))]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    # a name left in __all__ after its function went fails here, and in
    # ``from module import *``
    names = getattr(module, "__all__", ())
    assert [n for n in names if not hasattr(module, n)] == []


def test_one_public_route_per_quantity():
    # G-bar, K and the Monte Carlo estimate have no second entry point
    assert ruinbounds.mc_estimates is oracle.estimates
    for name in ("deficit_tail", "kantorovich", "mc_estimate"):
        assert not hasattr(ruinbounds, name)
    assert not hasattr(oracle, "estimate")


CLASSICAL = RiskModel(0.5, 1.0, Exponential(2.0))
PROBLEM = RenewalProblem(0.5, [1.0, 0.5], [1.0, 0.5], 0.5)
FIELDS = [(Exponential(2.0), "rates"), (CLASSICAL, "lam"),
          (PerturbedModel(CLASSICAL, 0.25), "D"),
          (GridFunction(0.5, [1.0, 0.5]), "values"), (PROBLEM, "phi"),
          (iterate(PROBLEM, 0.0, 1), "last"),
          (BoundReport("dk1", 1.0, {}, 0.5), "value"),
          (MCEstimate(0.5, 0.1, 10, 1, "psi", 1, 0.01), "seconds"),
          (TableRow("x", "q", 1.0, 1.0, 0.0, "OK"), "flag"),
          (TableResult("4"), "rows"), (NumericSpec(), "seed"),
          (ModelConfig(CLASSICAL), "model")]


@pytest.mark.parametrize("value,name", FIELDS,
                         ids=[type(v).__name__ for v, _ in FIELDS])
def test_fields_cannot_be_assigned(value, name):
    with pytest.raises(AttributeError):
        setattr(value, name, getattr(value, name))


def test_copy_and_pickle_rebuild_an_equal_value():
    perturbed = PerturbedModel(CLASSICAL, 0.25)
    assert copy.deepcopy(perturbed) == perturbed
    assert pickle.loads(pickle.dumps(perturbed)) == perturbed
