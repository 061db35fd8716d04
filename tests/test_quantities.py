"""The table of quantities: every entry's grid route and Monte Carlo hit
rule, run through the command line, against its exact phase-type oracle."""

from pathlib import Path

import numpy as np
import pytest

from helpers import (g_bar_exact, k_bar_exact, k_iterate_exact, psi_exact,
                     psi_total_exact)
from ruinbounds import PerturbedModel, RiskModel, cli, config, oracle

DATA = Path(__file__).resolve().parent / "data"
# Erlang(3, 3) claims, phi = 0.8, D = 0.5 (b0 = 2), h = 2^-10, seed 131
CFG = DATA / "mc_erlang.cfg"
H = 2.0**-10

# each quantity's exact value at u on the model of its row's class, and the
# options the command passes
EXACT = {
    "ruin": (psi_exact, []),
    "deficit": (lambda m, u: g_bar_exact(m, u, 0.5), ["--y", "0.5"]),
    "ktail": (k_bar_exact, []),
    "psit": (psi_total_exact, []),
    "iterate": (lambda pm, u: k_iterate_exact(pm, 0.4, 5, u),
                ["--k0", "0.4", "--n", "5"]),
}


def run(capsys, *argv):
    """stdout of the command, and its rows as an array."""
    assert cli.main([str(a) for a in argv]) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if not line.startswith("#")]
    return out, np.loadtxt(lines[1:], delimiter=",", ndmin=2)


def model_of(name):
    cfg = config.load(CFG)
    if oracle._QUANTITIES[name].model is RiskModel:
        return cfg.model
    return PerturbedModel(cfg.model, cfg.D)


def test_every_entry_has_an_oracle():
    assert set(EXACT) == set(oracle._QUANTITIES)
    assert set(oracle._ALIASES.values()) <= set(oracle._SAMPLED)


@pytest.mark.parametrize("name", sorted(oracle._QUANTITIES))
def test_grid_route_against_oracle(capsys, name):
    # within C (r h)^2 / (1 - phi), r the fastest rate of a ladder step; the
    # largest ratio on this model is 0.0045, and 7 printed digits add up to
    # 5e-7 of the value
    exact, extra = EXACT[name]
    model = model_of(name)
    _, rows = run(capsys, "eval", name, CFG, "--u", "0,0.5,1,2,5", *extra)
    u, value = rows.T
    want = exact(model, u)
    rate = max(3.0, getattr(model, "b0", 0.0))
    bound = 0.01 * (rate * H)**2 / (1.0 - model.phi) + 5e-7 * np.abs(want)
    assert np.all(np.abs(value - want) <= bound)


@pytest.mark.parametrize("name", oracle._SAMPLED)
def test_monte_carlo_route_against_oracle(capsys, name):
    exact, extra = EXACT[name]
    _, rows = run(capsys, "eval", "mc", CFG, "--quantity", name, *extra,
                  "--u", "0,0.5,1,2", "--samples", "100000")
    u, value, se = rows.T
    # 4 standard errors, and 7 printed digits; psi_t(0) = 1 is hit by
    # every path, with se 0
    assert np.all(np.abs(value - exact(model_of(name), u))
                  <= 4.0 * se + 1e-6), rows


@pytest.mark.parametrize("alias, name", sorted(oracle._ALIASES.items()))
def test_grid_aliases_print_the_same_bytes(capsys, alias, name):
    # eval mc under both spellings: TestEvalCommand's pinned CSVs
    outs = [run(capsys, "eval", q, CFG, "--u", "0,1")[0] for q in (alias, name)]
    assert outs[0] == outs[1]
