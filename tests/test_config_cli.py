"""Config parsing, CLI behaviour, exit codes, output determinism."""

import importlib
import math
import os
import pkgutil
import platform
import statistics
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from helpers import k_bar_exact, k_iterate_exact, psi_total_exact
import ruinbounds
from ruinbounds import (Erlang, GridFunction, PerturbedModel, RiskModel,
                        _parallel, cli, config, deficit_tail, distributions,
                        k_iterates, k_tail, metrics, psi_total, renewal,
                        ruin_probability, tables)
from ruinbounds.config import ConfigError
from ruinbounds.errors import PreconditionError, TruncationError

GOLDEN = Path(__file__).resolve().parent.parent / "bench" / "golden"

GOOD_CONFIG = """\
# two-model configuration
[model]
lambda = 0.8333333333333334
c = 3.0
claims = hyperexp
weights = 0.5, 0.5
rates = 1.25, 0.8333333333333334

[model2]
lambda = 0.8333333333333334
c = 3.0
claims = exp
rate = 1.0

[numeric]
h = 0.0009765625
umax = 20.0
seed = 7
"""


class TestConfigParsing:
    def test_parses_models(self):
        cfg = config.loads(GOOD_CONFIG)
        assert cfg.model.c == 3.0
        assert cfg.model2.claims.rates[0] == 1.0
        assert cfg.numeric.seed == 7

    def test_syntax_error_carries_line(self):
        with pytest.raises(ConfigError) as err:
            config.loads("[model]\nlambda 0.5\n")
        assert err.value.line == 2

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            config.loads("[model]\nlambda = 0.5\nc = 1.0\nclaims = exp\n"
                         "rate = 2.0\nbogus = 1\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            config.loads("[nonsense]\nx = 1\n")

    def test_weights_must_sum_to_one(self):
        bad = GOOD_CONFIG.replace("weights = 0.5, 0.5", "weights = 0.5, 0.6")
        with pytest.raises(ConfigError, match="sum"):
            config.loads(bad)

    def test_erlang_claims(self):
        text = ("[model]\nlambda = 1.0\nc = 2.0\nclaims = erlang\n"
                "shape = 3\nrate = 3.0\n")
        cfg = config.loads(text)
        assert cfg.model.claims.shapes[0] == 3

    def test_default_step_is_library_step(self):
        # without an [numeric] h the config uses the solvers' own default step
        cfg = config.loads("[model]\nlambda = 0.5\nc = 1.0\nclaims = exp\n"
                           "rate = 2.0\n[numeric]\nseed = 3\n")
        assert cfg.numeric.h == renewal.DEFAULT_H
        assert config.NumericSpec().h == renewal.DEFAULT_H


def clear_package_caches():
    """Empty every memo of the package, each an ``lru_cache`` at module
    level; returns how many there are."""
    caches = set()
    for info in pkgutil.iter_modules(ruinbounds.__path__):
        module = importlib.import_module(f"ruinbounds.{info.name}")
        caches.update(f for f in vars(module).values()
                      if hasattr(f, "cache_clear"))
    for f in caches:
        f.cache_clear()
    return len(caches)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTableCommand:
    def test_table4_matches_and_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "table", "4")
        assert code == 0
        assert "0.3325717" in out
        assert "MISMATCH" not in out
        assert out.count("MATCH") >= 31

    @pytest.mark.parametrize("tid", tables.TABLE_IDS)
    def test_stdout_matches_golden_bytes(self, capsys, tid):
        # the CSVs captured when the reproduction was first graded (208
        # MATCH, 12 DISCREPANCY-DOCUMENTED); they pin the solver, the
        # quadrature constants and the number format together
        code, out, _ = run_cli(capsys, "table", tid)
        assert code == 0
        assert out.encode() == (GOLDEN / f"table_{tid}.csv").read_bytes()

    @pytest.mark.parametrize("tid", tables.TABLE_IDS)
    def test_golden_bytes_from_empty_caches(self, capsys, tid):
        # no table leans on a memo that an earlier one filled
        assert clear_package_caches() >= 6
        code, out, _ = run_cli(capsys, "table", tid)
        assert code == 0
        assert out.encode() == (GOLDEN / f"table_{tid}.csv").read_bytes()

    def test_golden_bytes_in_one_process_in_reverse_order(self, capsys):
        # every memo filled by a later table serves an earlier one unchanged
        clear_package_caches()
        for tid in reversed(tables.TABLE_IDS):
            code, out, _ = run_cli(capsys, "table", tid)
            assert code == 0
            assert out.encode() == (GOLDEN / f"table_{tid}.csv").read_bytes()

    def test_claim_metrics_once_per_pair_and_gamma(self, monkeypatch):
        # the bounds ask for one claim pair's metrics in every row: table 1a
        # computes nu_gamma(F, F~) once at each of gamma = 0 and 1, and the
        # moments M_0 and M~_1 once, over its three rows; table 3 computes
        # K(F, F~) once over its fourteen dk3 calls
        gammas = {"nu": [], "moment": []}

        def spy(module, key):
            quadrature = module._de_quadrature

            def counted(tails, points, rate, gamma):
                gammas[key].append(gamma)
                return quadrature(tails, points, rate, gamma)
            monkeypatch.setattr(module, "_de_quadrature", counted)

        spy(metrics, "nu")
        spy(distributions, "moment")
        clear_package_caches()
        tables.run_table("1a")
        assert sorted(gammas["nu"]) == [0.0, 1.0]
        assert sorted(gammas["moment"]) == [0.0, 1.0]
        gammas["nu"].clear()
        tables.run_table("3")
        assert gammas["nu"] == [0.0]

    @pytest.mark.parametrize("cpus", [1, 2, 5])
    @pytest.mark.parametrize("tid", ["1a", "3"])
    def test_golden_bytes_on_any_cpu_count(self, capsys, monkeypatch, cpus,
                                           tid):
        # tables 1a and 3 map their independent solves over the CPUs
        monkeypatch.setattr(_parallel, "cpu_count", lambda: cpus)
        tables._psi_cached.cache_clear()
        code, out, _ = run_cli(capsys, "table", tid)
        assert code == 0
        assert out.encode() == (GOLDEN / f"table_{tid}.csv").read_bytes()

    @pytest.mark.parametrize("cpus", [1, 2, 5, 8])
    def test_table_1a_solves_on_min_cpus_6_threads(self, capsys, monkeypatch,
                                                   cpus):
        monkeypatch.setattr(_parallel, "cpu_count", lambda: cpus)
        threads = []
        solve = tables.ruin_probability

        def spy(*args, **kwargs):
            threads.append(threading.current_thread())
            return solve(*args, **kwargs)

        monkeypatch.setattr(tables, "ruin_probability", spy)
        tables._psi_cached.cache_clear()
        run_cli(capsys, "table", "1a")
        tables._psi_cached.cache_clear()
        assert len(threads) == 6
        assert len(set(threads)) == min(cpus, 6)

    def test_output_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "table", "5")
        _, second, _ = run_cli(capsys, "table", "5")
        assert first == second

    def test_solve_count_per_table(self, monkeypatch):
        # a repeated solve changes no byte, only the time: table 1c/1d reuse
        # the psi grids of 1a/1b, 2c/2d the deficit values of 2b/2c (the
        # three laws at theta = 4, five y each), table 3 solves each
        # distinct D once, and tables 4 and 5 are closed forms
        solves = []
        system = renewal._system

        def counted(problem):
            solves.append(problem.h)
            return system(problem)

        monkeypatch.setattr(renewal, "_system", counted)
        clear_package_caches()
        counts = {}
        for tid in tables.TABLE_IDS:
            before = len(solves)
            tables.run_table(tid)
            counts[tid] = len(solves) - before
        assert counts == {"1a": 6, "1b": 6, "1c": 0, "1d": 0, "2a": 10,
                          "2b": 10, "2c": 5, "2d": 0, "3": 8, "4": 0,
                          "5": 0}
        assert len(solves) == 45

    def test_deficit_cells_read_only(self):
        # one array serves every panel that asks for its model
        clear_package_caches()
        m = RiskModel(1.0, 5.0, tables.EXP_1)
        cells = tables._deficit_cells(m)
        assert cells.shape == (5, 5) and not cells.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            cells[0, 0] = 0.0
        assert tables._deficit_cells(m) is cells
        g = deficit_tail(m, 0.5, h=tables.H, u_max=2.0)
        assert cells[2, 3] == g(1.0)

    def test_unknown_id_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["table", "99"])
        assert exc.value.code == 2

    def test_mismatch_exits_numerical(self, capsys, monkeypatch):
        bad_row = tables.TableRow(inputs="x", quantity="q", computed=1.0,
                                  paper=2.0, deviation=1.0, flag="MISMATCH")
        fake = tables.TableResult("4", [], [bad_row])
        monkeypatch.setattr(tables, "run_table", lambda *a, **k: fake)
        code, out, _ = run_cli(capsys, "table", "4")
        assert code == 4


class TestBoundCommand:
    def test_dk1(self, tmp_path, capsys):
        path = tmp_path / "pair.cfg"
        path.write_text(GOOD_CONFIG)
        code, out, _ = run_cli(capsys, "bound", "dk1", str(path))
        assert code == 0
        lines = out.strip().splitlines()
        data = dict(zip(*(l.split(",") for l in lines[-2:])))
        assert float(data["value"]) == pytest.approx(0.1211, abs=5e-4)

    def test_dk3_hypothesis_violation_exit_3(self, tmp_path, capsys):
        text = ("[model]\nlambda = 0.6\nc = 1.0\nclaims = exp\nrate = 3.0\n"
                "[model2]\nlambda = 0.6\nc = 1.0\nclaims = hyperexp\n"
                "weights = 0.5, 0.5\nrates = 2.0, 6.0\n"
                "[diffusion]\nD = 0.1\nD2 = 0.5\n")
        path = tmp_path / "swapped.cfg"
        path.write_text(text)
        code, _, err = run_cli(capsys, "bound", "dk3", str(path))
        assert code == 3
        assert "swap" in err

    def test_parse_error_exit_2(self, tmp_path, capsys):
        path = tmp_path / "broken.cfg"
        path.write_text("[model]\nwat\n")
        code, _, err = run_cli(capsys, "bound", "dk1", str(path))
        assert code == 2
        assert "line 2" in err

    def test_net_profit_violation_exit_3(self, tmp_path, capsys):
        path = tmp_path / "insolvent.cfg"
        path.write_text("[model]\nlambda = 3.0\nc = 1.0\nclaims = exp\n"
                        "rate = 1.0\n")
        code, _, err = run_cli(capsys, "bound", "dk1", str(path))
        assert code == 3
        assert "net profit" in err


DATA = Path(__file__).resolve().parent / "data"


class TestEvalCommand:
    def test_mc_smoke_matches_pinned_csv(self, capsys):
        # the command of tests/data/mc_smoke.cfg, which CI also runs under
        # `taskset -c 0`; the CSV was written by the serial block loop
        code, out, _ = run_cli(capsys, "eval", "mc", str(DATA / "mc_smoke.cfg"),
                               "--quantity", "deficit", "--y", "0.4",
                               "--u", "0,0.5,1,2", "--samples", "300000")
        assert code == 0
        assert out.encode() == (DATA / "mc_smoke.csv").read_bytes()

    @pytest.mark.parametrize("argv, pinned", [
        (["ruin"], "dk_pair_eval_ruin.csv"),
        (["deficit", "--y", "0.5"], "dk_pair_eval_deficit_y05.csv"),
        (["ktail"], "dk_pair_eval_ktail.csv"),
        (["psit"], "dk_pair_eval_psit.csv"),
        (["iterate", "--k0", "0.4", "--n", "5"], "dk_pair_eval_iterate.csv"),
    ])
    def test_grid_quantities_match_pinned_csv(self, capsys, argv, pinned):
        # the commands listed in tests/data/dk_pair.cfg, which CI also runs;
        # no table reaches these quantities
        code, out, _ = run_cli(capsys, "eval", argv[0], str(DATA / "dk_pair.cfg"),
                               *argv[1:], "--u", "0,0.5,1,2,5")
        assert code == 0
        assert out.encode() == (DATA / pinned).read_bytes()

    @pytest.mark.parametrize("quantity, exact", [("ktail", k_bar_exact),
                                                 ("psit", psi_total_exact)])
    def test_erlang_high_matches_pin_and_oracle(self, capsys, quantity, exact):
        # Erlang(150, 15) claims: the commands listed in erlang_high.cfg,
        # which CI also runs; the pins answer to the exact phase-type values
        pinned = DATA / f"erlang_high_eval_{quantity}.csv"
        code, out, _ = run_cli(capsys, "eval", quantity,
                               str(DATA / "erlang_high.cfg"), "--u", "0,5,10,20")
        assert code == 0
        assert out.encode() == pinned.read_bytes()
        pm = PerturbedModel(RiskModel(0.05, 1.0, Erlang(150, 15.0)), 0.5)
        rows = np.loadtxt(pinned, delimiter=",", skiprows=1)
        assert np.all(np.abs(rows[:, 1] - exact(pm, rows[:, 0])) <= 1e-6)

    def test_erlang_600_matches_pin_and_oracle(self, capsys):
        # Erlang(600, 1) claims: the command listed in erlang_600.cfg, which
        # CI also runs; its equilibrium law has 600 components at one rate
        pinned = DATA / "erlang_600_eval_ktail.csv"
        code, out, _ = run_cli(capsys, "eval", "ktail",
                               str(DATA / "erlang_600.cfg"), "--u", "0,1,5")
        assert code == 0
        assert out.encode() == pinned.read_bytes()
        pm = PerturbedModel(RiskModel(1.0, 700.0, Erlang(600, 1.0)), 1.0)
        rows = np.loadtxt(pinned, delimiter=",", skiprows=1)
        assert np.all(np.abs(rows[:, 1] - k_bar_exact(pm, rows[:, 0])) <= 1e-6)

    def test_ruin_at_origin(self, tmp_path, capsys):
        path = tmp_path / "m.cfg"
        path.write_text("[model]\nlambda = 0.5\nc = 0.5\nclaims = exp\n"
                        "rate = 2.0\n[numeric]\numax = 6.0\n")
        code, out, _ = run_cli(capsys, "eval", "ruin", str(path), "--u", "0")
        assert code == 0
        assert out.strip().splitlines()[-1] == "0,0.5"

    def test_iterate_published_cell(self, tmp_path, capsys):
        path = tmp_path / "t4.cfg"
        path.write_text("[model]\nlambda = 0.5\nc = 0.5\nclaims = exp\n"
                        "rate = 2.0\n[diffusion]\nD = 0.25\n"
                        "[numeric]\numax = 4.0\n")
        code, out, _ = run_cli(capsys, "eval", "iterate", str(path),
                               "--k0", "0.4", "--n", "5", "--u", "1")
        assert code == 0
        value = float(out.strip().splitlines()[-1].split(",")[1])
        assert value == pytest.approx(0.3325717, abs=1e-5)

    def test_deficit_rising_near_origin(self, tmp_path, capsys):
        # G-bar(., y) of this model rises near u = 0, so it is not a tail;
        # the value must match phi pi_e exp((T + phi t pi_e) u) exp(T y) 1
        lam, c = 1.2723332304070554, 0.9681632079074355
        w = np.array([0.29612722031470673, 0.7038727796852933])
        r = np.array([1.1125396042730307, 2.13182602388415])
        u, y = 1.0, 1.8426187690664193
        path = tmp_path / "m.cfg"
        path.write_text(f"[model]\nlambda = {lam!r}\nc = {c!r}\n"
                        "claims = hyperexp\n"
                        f"weights = {', '.join(map(repr, w.tolist()))}\n"
                        f"rates = {', '.join(map(repr, r.tolist()))}\n"
                        "[numeric]\nh = 0.0009765625\numax = 10.0\n")
        code, out, _ = run_cli(capsys, "eval", "deficit", str(path),
                               "--u", repr(u), "--y", repr(y))
        assert code == 0
        value = float(out.strip().splitlines()[-1].split(",")[1])
        mu = np.sum(w / r)
        phi = lam * mu / c
        pi_e = w / r / mu
        T = np.diag(-r)
        exact = phi * pi_e @ expm((T + phi * np.outer(r, pi_e)) * u) \
            @ expm(T * y) @ np.ones(2)
        assert value == pytest.approx(exact, abs=1e-6)

    def test_iterate_within_grid_accuracy(self, tmp_path, capsys):
        # the grid iterate here is 6e-6 from the exact K_5, an O(h^2) error
        # at h = 2^-8, and must be printed, not refused
        lam, c, rate, D = (1.1627594992517192, 1.0274064763125792,
                           4.502568538951676, 0.2851784107480418)
        k0, h = 0.6974534998820221, 2.0**-8
        path = tmp_path / "m.cfg"
        path.write_text(f"[model]\nlambda = {lam!r}\nc = {c!r}\n"
                        f"claims = erlang\nshape = 3\nrate = {rate!r}\n"
                        f"[diffusion]\nD = {D!r}\n"
                        f"[numeric]\nh = {h!r}\numax = 10.0\n")
        code, out, _ = run_cli(capsys, "eval", "iterate", str(path), "--u", "1",
                               "--k0", repr(k0), "--n", "5")
        assert code == 0
        value = float(out.strip().splitlines()[-1].split(",")[1])
        pm = PerturbedModel(RiskModel(lam, c, Erlang(3, rate)), D)
        fastest = max(rate, pm.b0)
        assert value == pytest.approx(k_iterate_exact(pm, k0, 5, 1.0),
                                      abs=0.5 * (fastest * h)**2)

    def test_mc_deterministic_bytes(self, tmp_path, capsys):
        path = tmp_path / "m.cfg"
        path.write_text("[model]\nlambda = 0.5\nc = 0.5\nclaims = exp\n"
                        "rate = 2.0\n")
        args = ("eval", "mc", str(path), "--quantity", "psi", "--u", "1",
                "--samples", "100000", "--seed", "42")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_u_range(self, tmp_path, capsys):
        path = tmp_path / "m.cfg"
        path.write_text("[model]\nlambda = 0.5\nc = 0.5\nclaims = exp\n"
                        "rate = 2.0\n[numeric]\numax = 6.0\n")
        code, out, _ = run_cli(capsys, "eval", "ruin", str(path),
                               "--u", "0:2:0.5")
        rows = out.strip().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["0", "0.5", "1", "1.5", "2"]


WINDOW_MODELS = {
    "exp": "claims = exp\nrate = 1.3\n",
    "hyperexp": "claims = hyperexp\nweights = 0.4, 0.6\nrates = 0.8, 3.5\n",
    "erlang": "claims = erlang\nshape = 3\nrate = 4.2\n",
}
WINDOW_ARGS = {"ruin": [], "deficit": ["--y", "0.6"], "ktail": [], "psit": [],
               "iterate": ["--k0", "0.3", "--n", "5"]}


def window_config(claims, h, umax):
    return config.loads(f"[model]\nlambda = 0.9\nc = 1.7\n{claims}"
                        f"[diffusion]\nD = 0.45\n"
                        f"[numeric]\nh = {h!r}\numax = {umax!r}\n")


def full_grid(quantity, cfg):
    """The library's solve of ``quantity`` on the config's whole grid."""
    model, num = cfg.model, cfg.numeric
    pm = PerturbedModel(model, cfg.D)
    grid = {"h": num.h, "u_max": num.umax}
    if quantity == "ruin":
        return ruin_probability(model, **grid)
    if quantity == "deficit":
        return deficit_tail(model, 0.6, **grid)
    if quantity == "ktail":
        return k_tail(pm, **grid)
    if quantity == "psit":
        return psi_total(pm, **grid)
    return k_iterates(pm, 0.3, 5, **grid).iterates[-1]


class TestEvalWindow:
    """``eval`` solves up to one node past the largest u; the equation is
    causal, so its values are the whole grid's."""

    @pytest.mark.parametrize("h", [2.0**-8, 2.0**-12])
    @pytest.mark.parametrize("family", sorted(WINDOW_MODELS))
    def test_values_of_the_full_grid(self, family, h):
        cfg = window_config(WINDOW_MODELS[family], h, 10.0)
        for quantity, extra in WINDOW_ARGS.items():
            args = cli.build_parser().parse_args(
                ["eval", quantity, "m.cfg", "--u", "0.3,2.7", *extra])
            model = cli._eval_model(cfg, quantity)
            end = cli._grid_end(args, cfg, model)
            assert end == (math.ceil(2.7 / h) + 1) * h
            window = cli._grid_function(args, model, h, end).values
            full = full_grid(quantity, cfg).values
            assert len(window) == math.ceil(2.7 / h) + 2
            # psi and G-bar keep the reciprocal's rounding; K-bar's kernel
            # is formed in blocks of sqrt(n) nodes, which the length sets
            ulps = 1 if quantity in ("ruin", "deficit") else 64
            assert np.max(np.abs(window - full[:len(window)])) <= \
                ulps * np.finfo(float).eps * np.max(np.abs(full)), quantity

    @pytest.mark.parametrize("h, umax, us", [
        (2.0**-8, 10.0, [0.0]),                     # two nodes
        (2.0**-8, 10.0, [1.5]),                     # on a node
        (2.0**-8, 10.0, [0.2, 1.5 + 2.0**-8 / 3]),  # between nodes
        (2.0**-8, 10.0, [10.0]),                    # the grid end, last node
        (0.001, 10.0, [0.0015, 1.2345]),            # a step that is not dyadic
        (2.0**-8, 3.3, [1.0, 3.30078125]),          # umax not a multiple of h
    ])
    @pytest.mark.parametrize("quantity", ["ruin", "deficit", "psit"])
    def test_prints_the_full_grid_values(self, tmp_path, capsys, quantity,
                                         h, umax, us):
        path = tmp_path / "m.cfg"
        path.write_text(f"[model]\nlambda = 0.9\nc = 1.7\n"
                        f"{WINDOW_MODELS['hyperexp']}[diffusion]\nD = 0.45\n"
                        f"[numeric]\nh = {h!r}\numax = {umax!r}\n")
        full = full_grid(quantity, config.load(path))
        code, out, _ = run_cli(capsys, "eval", quantity, str(path), "--u",
                               ",".join(map(repr, us)),
                               *WINDOW_ARGS[quantity])
        assert code == 0
        assert out.splitlines()[1:] == [f"{cli._fmt(u)},{cli._fmt(full(u))}"
                                        for u in us]

    @pytest.mark.parametrize("quantity", sorted(WINDOW_ARGS))
    def test_every_u_in_one_call(self, capsys, monkeypatch, quantity):
        # the grid function is evaluated once, at all the u asked
        calls, real = [], GridFunction.__call__

        def call(g, u):
            calls.append(u)
            return real(g, u)

        monkeypatch.setattr(GridFunction, "__call__", call)
        code, _, _ = run_cli(capsys, "eval", quantity, str(DATA / "dk_pair.cfg"),
                             "--u", "0,0.5,1,2,5", *WINDOW_ARGS[quantity])
        assert code == 0
        assert calls == [[0.0, 0.5, 1.0, 2.0, 5.0]]

    @pytest.mark.parametrize("quantity", sorted(WINDOW_ARGS))
    def test_refuses_before_building_a_problem(self, tmp_path, capsys,
                                               monkeypatch, quantity):
        def refuse(*_):
            raise AssertionError("a problem was built")
        monkeypatch.setattr(distributions._Ladder, "on_grid", refuse)
        monkeypatch.setattr(distributions._Ladder, "density", refuse)
        path = tmp_path / "m.cfg"
        path.write_text(EXP_MODEL + "[diffusion]\nD = 0.25\n")
        code, out, err = run_cli(capsys, "eval", quantity, str(path),
                                 "--u", "1,100", *WINDOW_ARGS[quantity])
        assert code == 2 and out == ""
        assert "lies past the grid end" in err and "umax" in err


EXP_MODEL = "[model]\nlambda = 0.5\nc = 0.5\nclaims = exp\nrate = 2.0\n"
PAIR = (EXP_MODEL + "[model2]\nlambda = 0.5\nc = 0.5\nclaims = exp\n"
        "rate = 2.0\n")
ERLANG26_PAIR = ("[model]\nlambda = 0.5\nc = 1\nclaims = erlang\nshape = 26\n"
                 "rate = 26\n[model2]\nlambda = 0.5\nc = 1\nclaims = exp\n"
                 "rate = 1\n")
# phi = 0.99 and kappa(0) = 10: steps 0.5 and 0.25 exceed 2/(phi kappa(0));
# down to 0.05 the discrete margin c(1) is still <= 0
COARSE = ("[model]\nlambda = 9.9\nc = 1\nclaims = exp\nrate = 10\n"
          "[numeric]\nh = {h}\numax = 5\n")


@pytest.mark.parametrize("text,argv,code", [
    (EXP_MODEL, ["eval", "ruin", "{cfg}", "--u", "1"], 0),
    (EXP_MODEL.replace("2.0", "abc"), ["eval", "ruin", "{cfg}"], 2),
    (EXP_MODEL.replace("0.5\nclaims", "-0.5\nclaims"), ["eval", "ruin", "{cfg}"], 2),
    (EXP_MODEL.replace("lambda = 0.5", "lambda = 0"), ["eval", "ruin", "{cfg}"], 2),
    (EXP_MODEL.replace("rate = 2.0", "rate = 0"), ["eval", "ruin", "{cfg}"], 2),
    (EXP_MODEL.replace("exp\nrate", "erlang\nshape = 2.5\nrate"),
     ["eval", "ruin", "{cfg}"], 2),
    (EXP_MODEL.replace("exp\nrate = 2.0", "hyperexp\nweights = 0.5, 0.5\n"
                                        "rates = 2.0"), ["eval", "ruin", "{cfg}"], 2),
    (EXP_MODEL + "[diffusion]\nD = -1\n", ["eval", "ktail", "{cfg}"], 2),
    (PAIR + "[diffusion]\nD = 0.5\nD2 = 0\n", ["bound", "dk3", "{cfg}"], 2),
    (EXP_MODEL + "[numeric]\nseed = x\n", ["eval", "ruin", "{cfg}"], 2),
    (EXP_MODEL, ["eval", "ruin", "{cfg}", "--u", "100"], 2),
    (EXP_MODEL, ["eval", "ruin", "{cfg}", "--u", "-1"], 2),
    (EXP_MODEL, ["eval", "ruin", "{cfg}", "--u=-1:2:0.5"], 2),
    (EXP_MODEL, ["eval", "ruin", "{cfg}", "--u", "one"], 2),
    # empty, overlong and u-past-grid-end ranges
    (EXP_MODEL, ["eval", "ruin", "{cfg}", "--u", "1:0:0.5"], 2),
    (EXP_MODEL, ["eval", "mc", "{cfg}", "--u", "1:0:0.5"], 2),
    (EXP_MODEL, ["eval", "ruin", "{cfg}", "--u", "0:1:1e-9"], 2),
    (EXP_MODEL, ["eval", "ruin", "{cfg}", "--u", "0:inf:1"], 2),
    (EXP_MODEL, ["eval", "ruin", "{cfg}", "--u", "1e17:1e17:1"], 2),
    # a missing section or key is a config error, not a precondition
    (EXP_MODEL, ["bound", "dk1", "{cfg}"], 2),
    (PAIR, ["bound", "dk3", "{cfg}"], 2),
    (PAIR + "[diffusion]\nD = 0.5\n", ["bound", "dk3", "{cfg}"], 2),
    *[(EXP_MODEL, ["eval", q, "{cfg}", "--u", "1"], 2)
      for q in ("ktail", "psit", "iterate")],
    # umax below half a step leaves a grid of one node
    *[(EXP_MODEL + "[diffusion]\nD = 0.25\n[numeric]\nh = 0.5\numax = 0.2\n",
       ["eval", q, "{cfg}", "--u", "0"], 2) for q in ("ruin", "ktail")],
    *[(EXP_MODEL, ["eval", "mc", "{cfg}", "--quantity", q, "--u", "1",
                   "--samples", "10"], 2) for q in ("k_tail", "psi_t")],
    (EXP_MODEL, ["eval", "deficit", "{cfg}", "--y", "-1"], 2),
    (PAIR, ["bound", "dk1", "{cfg}", "--gamma", "-1"], 2),
    (EXP_MODEL + "[diffusion]\nD = 0.25\n",
     ["eval", "iterate", "{cfg}", "--n", "0"], 2),
    (EXP_MODEL, ["eval", "mc", "{cfg}", "--samples", "0", "--u", "1"], 2),
    (EXP_MODEL, ["eval", "mc", "{cfg}", "--samples", "1.5", "--u", "1"], 2),
    (EXP_MODEL, ["eval", "mc", "{cfg}", "--seed", "-1", "--u", "1"], 2),
    (EXP_MODEL.replace("c = 0.5", "c = 0.2"), ["eval", "ruin", "{cfg}"], 3),
    *[(COARSE.format(h=h), ["eval", q, "{cfg}", "--u", "1,2", *extra], 3)
      for h in (0.5, 0.25, 0.2, 0.1, 0.05)
      for q, extra in (("ruin", []), ("deficit", ["--y", "1"]))],
    # psi on two nodes: refused by the margin c(1) at h >= 0.25, and for
    # leaving [0, 1] at the finer steps, where the margin is positive
    *[(COARSE.format(h=h), ["eval", "ruin", "{cfg}", "--u", "0"], 3)
      for h in (0.5, 0.25, 0.2, 0.1, 0.05)],
    # Erlang(26): (b/(b - r))^26 overflowed float's ** in the Lundberg rate
    (ERLANG26_PAIR, ["bound", "dk1", "{cfg}", "--gamma", "0.5"], 0),
    # (1+t)^gamma overflows float: the moment is inf, so the contraction fails
    *[(PAIR, ["bound", "dk1", "{cfg}", "--gamma", g], 3) for g in ("150", "400")],
    # b0 = 5e-301 puts the default grid end at 4.1e301, so u = 1e7 is on it,
    # but its 1.024e10 nodes are more than the solver's longest FFT
    (EXP_MODEL + "[diffusion]\nD = 1e300\n", ["eval", "psit", "{cfg}", "--u", "1e7"],
     3),
])
def test_exit_codes(tmp_path, capsys, text, argv, code):
    path = tmp_path / "m.cfg"
    path.write_text(text)
    try:
        got = cli.main([a.format(cfg=path) for a in argv])
    except SystemExit as exc:   # argparse rejects the argument itself
        got = exc.code
    assert got == code, capsys.readouterr().err


def test_u_range_points():
    # 3 * 0.1 lies just above 0.3; the point is kept, as it always was
    assert cli._parse_u_values("0:0.3:0.1") == [0.0, 0.1, 0.2, 0.3]
    # u += step would leave u at 1e17 for ever
    assert cli._parse_u_values("1e17:1e17:1") == [1e17]


def test_u_past_grid_end_names_grid_end_and_umax(tmp_path, capsys):
    path = tmp_path / "m.cfg"
    path.write_text(EXP_MODEL)
    code, out, err = run_cli(capsys, "eval", "ruin", str(path), "--u", "1,100")
    assert code == 2 and out == ""
    assert "grid end 11" in err and "umax" in err


class TestCsvShape:
    def test_rfc4180_line_endings_and_header(self, capsys):
        _, out, _ = run_cli(capsys, "table", "4")
        assert "\r\n" in out
        header = [l for l in out.split("\r\n") if not l.startswith("#")][0]
        assert header.split(",") == ["table", "inputs", "quantity",
                                     "computed", "paper", "abs_deviation",
                                     "flag", "note"]

    def test_seven_significant_digits(self, capsys):
        _, out, _ = run_cli(capsys, "table", "4")
        assert "0.2030029" in out


class _MallocRecorder:
    """Stands in for the C library: records the allocator calls in order."""

    def __init__(self, events):
        self.events = events

    def mallopt(self, param, value):
        self.events.append(("mallopt", param, value))
        return 1

    def malloc_trim(self, pad):
        self.events.append(("malloc_trim", pad))
        return 1


def _raises(exc):
    def command(args):
        raise exc
    return command


SRC = Path(__file__).resolve().parent.parent / "src"
# glibc's M_ARENA_MAX, M_TRIM_THRESHOLD and M_MMAP_THRESHOLD, in that order
MALLOC_OPTIONS = [("mallopt", -8, 1), ("mallopt", -1, 2**30),
                  ("mallopt", -3, 32 * 2**20)]


class TestAllocatorScope:
    @pytest.mark.parametrize("command, code", [
        (lambda args: cli.EXIT_OK, 0),
        (_raises(ConfigError("bad key")), 2),
        (_raises(PreconditionError("net profit")), 3),
        (_raises(TruncationError("tail")), 4),
        (lambda args: cli.EXIT_NUMERICAL, 4),
    ])
    def test_options_before_and_trim_after_command(self, monkeypatch, capsys,
                                                   command, code):
        events = []
        monkeypatch.setattr(cli, "_LIBC", _MallocRecorder(events))

        def recorded(args):
            events.append("command")
            return command(args)

        monkeypatch.setattr(cli, "cmd_table", recorded)
        assert cli.main(["table", "4"]) == code
        assert events == [*MALLOC_OPTIONS, "command", ("malloc_trim", 0)]

    def test_trim_after_argparse_exit(self, monkeypatch, capsys):
        events = []
        monkeypatch.setattr(cli, "_LIBC", _MallocRecorder(events))
        with pytest.raises(SystemExit) as stop:
            cli.main(["table", "no-such-table"])
        assert stop.value.code == 2
        assert events == [*MALLOC_OPTIONS, ("malloc_trim", 0)]

    def test_trim_after_command_raises(self, monkeypatch):
        events = []
        monkeypatch.setattr(cli, "_LIBC", _MallocRecorder(events))
        monkeypatch.setattr(cli, "cmd_table", _raises(RuntimeError("bug")))
        with pytest.raises(RuntimeError, match="bug"):
            cli.main(["table", "4"])
        assert events == [*MALLOC_OPTIONS, ("malloc_trim", 0)]

    @pytest.mark.parametrize("argv, pinned", [
        (["table", "1a"], GOLDEN / "table_1a.csv"),
        (["eval", "mc", str(DATA / "mc_smoke.cfg"), "--quantity", "deficit",
          "--y", "0.4", "--u", "0,0.5,1,2", "--samples", "300000"],
         DATA / "mc_smoke.csv"),
    ])
    def test_same_bytes_without_glibc(self, monkeypatch, capsys, argv, pinned):
        # the path of C libraries without mallopt/malloc_trim
        monkeypatch.setattr(cli, "_LIBC", None)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out.encode() == pinned.read_bytes()

    @pytest.mark.skipif(cli._LIBC is None or platform.libc_ver()[0] != "glibc",
                        reason="the allocator options are glibc's")
    def test_command_keeps_freed_pages_mapped(self):
        # minor page faults of one `table 1a` in a fresh interpreter, with the
        # options and with the handle patched out; the environment loses
        # glibc's own malloc variables, which would set the same options.
        # Each side is the median of five samples, taken in turn: one sample
        # moves with how the two solver threads overlap
        code = ("import contextlib, io, resource, sys\n"
                "sys.path.insert(0, sys.argv[1])\n"
                "from ruinbounds import cli\n"
                "if sys.argv[2] == 'off':\n"
                "    cli._LIBC = None\n"
                "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    assert cli.main(['table', '1a']) == 0\n"
                "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)")
        env = {k: v for k, v in os.environ.items()
               if not k.startswith(("MALLOC_", "GLIBC_TUNABLES"))}
        samples = {"on": [], "off": []}
        for _ in range(5):
            for mode, runs in samples.items():
                out = subprocess.run([sys.executable, "-c", code, str(SRC), mode],
                                     capture_output=True, text=True,
                                     check=True, env=env).stdout
                runs.append(int(out))
        faults = {mode: statistics.median(runs) for mode, runs in samples.items()}
        assert faults["on"] <= faults["off"] / 4, samples
