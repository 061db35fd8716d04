"""Config parsing, CLI behaviour, exit codes, output determinism."""

import gc
import importlib
import math
import os
import pkgutil
import platform
import statistics
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from helpers import k_bar_exact, k_iterate_exact, psi_total_exact
import ruinbounds
from ruinbounds import (Erlang, Exponential, GridFunction, HyperExponential,
                        PerturbedModel, RiskModel, _parallel, bounds, cli,
                        config, deficit_tail_family, distributions,
                        k_iterates, k_tail, metrics, oracle, psi_total,
                        renewal, ruin_probability, tables)
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

    @settings(max_examples=60, deadline=None)
    @given(rates=st.lists(st.floats(0.01, 100.0), min_size=1, max_size=4),
           raw=st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
           shape=st.integers(1, 40))
    def test_each_family_loads_its_public_law(self, rates, raw, shape):
        weights = [w / math.fsum(raw[:len(rates)]) for w in raw[:len(rates)]]
        laws = {"exp": (f"rate = {rates[0]!r}", Exponential(rates[0])),
                "hyperexp": (f"weights = {', '.join(map(repr, weights))}\n"
                             f"rates = {', '.join(map(repr, rates))}",
                             HyperExponential(weights, rates)),
                "erlang": (f"shape = {shape}\nrate = {rates[0]!r}",
                           Erlang(shape, rates[0]))}
        for family, (lines, law) in laws.items():
            cfg = config.loads(f"[model]\nlambda = 0.5\nc = 1e4\n"
                               f"claims = {family}\n{lines}\n")
            assert cfg.model.claims == law, family
            assert hash(cfg.model.claims) == hash(law), family

    @pytest.mark.parametrize("section, key", [
        (section, key) for section, keys in config._KEYS.items()
        for key in keys])
    def test_malformed_value_reported_at_its_line(self, section, key):
        # values are checked as they are read, before any section is built
        family = next((f for f, need in config._FAMILIES.items()
                       if key in need), "exp")
        lines = every_key_config(family).splitlines()
        config.loads("\n".join(lines))
        at = lines.index(f"[{section}]")
        at += next(i for i, l in enumerate(lines[at:]) if l.startswith(key + " ="))
        lines[at] = f"{key} = {MALFORMED[key]}"
        with pytest.raises(ConfigError) as err:
            config.loads("\n".join(lines))
        assert err.value.line == at + 1

    @pytest.mark.parametrize("section, family, stray, message", [
        ("model", "exp", "shape = 2", "exp claims take no 'shape'"),
        ("model2", "erlang", "weights = 0.5, 0.5",
         "erlang claims take no 'weights'"),
        ("model", "hyperexp", "rate = 1.0", "hyperexp claims take no 'rate'"),
        # a malformed value is reported first, at the same line
        ("model2", "exp", "rates = 1.5, x", "positive number, got 'x'"),
    ])
    def test_claim_key_of_another_family_refused_at_its_line(
            self, section, family, stray, message):
        lines = every_key_config(family).splitlines()
        at = lines.index(f"[{section}]") + 1
        lines.insert(at, stray)                  # before the claims key
        with pytest.raises(ConfigError, match=message) as err:
            config.loads("\n".join(lines))
        assert err.value.line == at + 1

    def test_bound_dk1_solves_psi_on_the_numeric_grid(self, capsys):
        path = DATA / "dk_pair_grid.cfg"
        cfg = config.load(path)
        h, umax = cfg.numeric.h, cfg.numeric.umax
        assert (h, umax) == (0.015625, 30.0)
        rep = bounds.dk1(cfg.model, cfg.model2, 0.5,
                         psi=ruin_probability(cfg.model, h, umax),
                         psi_tilde=ruin_probability(cfg.model2, h, umax))
        code, out, _ = run_cli(capsys, "bound", "dk1", str(path),
                               "--gamma", "0.5")
        assert code == 0
        values = [rep.value, rep.contraction_modulus,
                  *(rep.components[k] for k in sorted(rep.components))]
        row = out.splitlines()[-1]
        assert row == ",".join(["dk1", *map(cli._fmt, values)])
        assert out.encode() == (DATA / "dk_pair_grid_dk1_g05.csv").read_bytes()
        # on the default grid the bound reads 20.33485, not 20.33521
        default = (DATA / "dk_pair_dk1_g05.csv").read_text().splitlines()[-1]
        assert row != default and row.startswith("dk1,20.33521,")


def every_key_config(family):
    """A valid document whose two model sections hold ``family`` claims,
    with every key of [diffusion] and [numeric]."""
    claims = {"exp": "rate = 2.0\n",
              "hyperexp": "weights = 0.25, 0.75\nrates = 1.5, 3.0\n",
              "erlang": "shape = 3\nrate = 6.0\n"}[family]
    model = f"lambda = 0.5\nc = 1.0\nclaims = {family}\n{claims}"
    return (f"[model]\n{model}[model2]\n{model}[diffusion]\nd = 0.25\n"
            "d2 = 0.1\n[numeric]\nh = 0.01\numax = 20.0\nseed = 3\n")


# one malformed value for every key of config._KEYS
MALFORMED = {"lambda": "-0.5", "c": "0", "claims": "pareto", "rate": "nan",
             "rates": "1.5, x", "weights": "0.5, -0.5", "shape": "2.5",
             "d": "-1", "d2": "inf", "h": "0", "umax": "abc", "seed": "1.5"}


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
        # forms the DK1 of 1c too, computing nu_gamma(F, F~) once at each of
        # gamma = 0, 1 and 2, and the moments M_0, M_1, M~_1 and M~_2 once,
        # over its three rows, and 1c computes none; table 3 computes
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
        tables.run_table("1c")
        assert sorted(gammas["nu"]) == [0.0, 1.0, 2.0]
        assert sorted(gammas["moment"]) == [0.0, 1.0, 1.0, 2.0]
        gammas["nu"].clear()
        tables.run_table("3")
        assert gammas["nu"] == [0.0]

    @pytest.mark.parametrize("cpus", [1, 2, 5])
    @pytest.mark.parametrize("tid", ["1a", "1c", "3"])
    def test_golden_bytes_on_any_cpu_count(self, capsys, monkeypatch, cpus,
                                           tid):
        # tables 1a and 3 map their independent solves over the CPUs; 1c
        # run first solves 1a's models and keeps both gamma's values
        monkeypatch.setattr(_parallel, "cpu_count", lambda: cpus)
        tables._table_1_cells.cache_clear()
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
        tables._table_1_cells.cache_clear()
        run_cli(capsys, "table", "1a")
        tables._table_1_cells.cache_clear()
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
        g = deficit_tail_family(m, [0.5], h=tables.H, u_max=2.0)[0.5]
        assert cells[2, 3] == g(1.0)

    def test_table_1_cells_read_only(self):
        # one entry per lambda serves both of its panels: 1a and 1c read
        # the gamma = 0 and gamma = 1 columns of one tuple of floats
        clear_package_caches()
        rows = {tid: tables.run_table(tid).rows for tid in ("1a", "1c")}
        lam = tables.PAPER_TABLE_1["1a"][0]
        cells = tables._table_1_cells(lam)
        assert tables._table_1_cells.cache_info().misses == 1
        assert all(type(x) is float for by_gamma in cells
                   for pair in by_gamma for x in pair)
        with pytest.raises(TypeError):
            cells[0][0] = (0.0, 0.0)
        for g, tid in enumerate(("1a", "1c")):
            assert [r.computed for r in rows[tid]] == [
                x for by_gamma in cells for x in by_gamma[g]]

    def test_table_1_keeps_no_grid(self):
        # once tables 1a-1d have run and the solver's kept reciprocal is
        # dropped, the package holds their printed values alone: far less
        # than one 40 961-node grid (328 kB); it used to keep twelve
        clear_package_caches()
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for tid in ("1a", "1b", "1c", "1d"):
                tables.run_table(tid)
            renewal._reciprocal.cache_clear()
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < 0.3e6

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
        (["mc_smoke.cfg", "--quantity", "psi"], "mc_smoke_psi.csv"),
        (["mc_smoke.cfg", "--quantity", "ruin"], "mc_smoke_psi.csv"),
        (["mc_erlang.cfg", "--quantity", "psi_t"], "mc_erlang_psit.csv"),
        (["mc_erlang.cfg", "--quantity", "psit"], "mc_erlang_psit.csv"),
        (["mc_erlang.cfg", "--quantity", "k_tail"], "mc_erlang_ktail.csv"),
        (["mc_erlang.cfg", "--quantity", "ktail"], "mc_erlang_ktail.csv"),
    ])
    def test_mc_quantities_match_pinned_csv(self, capsys, argv, pinned):
        # the commands listed in mc_smoke.cfg and mc_erlang.cfg, under the
        # old spelling and the table's; psi_t(0) = 1 is an all-hit count
        code, out, _ = run_cli(capsys, "eval", "mc", str(DATA / argv[0]),
                               *argv[1:], "--u", "0,0.5,1,2",
                               "--samples", "300000")
        assert code == 0
        assert out.encode() == (DATA / pinned).read_bytes()

    def test_mc_zero_hits_print_an_upper_bound(self, capsys):
        # psi(60) > 0, but none of 1e5 paths is ruined: 1 - 0.05^(1/n)
        code, out, _ = run_cli(capsys, "eval", "mc", str(DATA / "mc_smoke.cfg"),
                               "--quantity", "psi", "--u", "60,80",
                               "--samples", "100000")
        assert code == 0
        assert out.splitlines() == [
            f"# u = {u}: no hit in 100000 paths; one-sided 95% upper bound "
            "2.995687e-05" for u in (60, 80)] + ["u,value,se", "60,0,0",
                                                  "80,0,0"]

    @pytest.mark.parametrize("argv, pinned", [
        (["ruin"], "dk_pair_eval_ruin.csv"),
        (["deficit", "--y", "0.5"], "dk_pair_eval_deficit_y05.csv"),
        (["ktail"], "dk_pair_eval_ktail.csv"),
        (["psit"], "dk_pair_eval_psit.csv"),
        (["iterate", "--k0", "0.4", "--n", "5"], "dk_pair_eval_iterate.csv"),
        (["iterate", "--k0", "0.4", "--n", "2000"],
         "dk_pair_eval_iterate_n2000.csv"),
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
        return deficit_tail_family(model, [0.6], **grid)[0.6]
    if quantity == "ktail":
        return k_tail(pm, **grid)
    if quantity == "psit":
        return psi_total(pm, **grid)
    return k_iterates(pm, 0.3, 5, **grid).last


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
            row = oracle._QUANTITIES[quantity]
            model = (cfg.model if row.model is RiskModel
                     else PerturbedModel(cfg.model, cfg.D))
            end = cli._grid_end(cfg, model, max(args.u))
            assert end == (math.ceil(2.7 / h) + 1) * h
            window = row.grid(model, args, h, end).values
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


@pytest.mark.parametrize("quantity", sorted(WINDOW_ARGS))
def test_erlang_past_shape_520_is_a_truncation_error(tmp_path, capsys,
                                                      quantity):
    # far out, Erlang(600) tails are 0 * inf; u <= 5 stays finite
    path = tmp_path / "m.cfg"
    path.write_text((DATA / "erlang_600.cfg").read_text()
                    + "[numeric]\nh = 0.25\numax = 800\n")
    code, out, err = run_cli(capsys, "eval", quantity, str(path),
                             "--u", "1,790", *WINDOW_ARGS[quantity])
    assert code == 4 and out == ""
    assert "Erlang shape above about 520" in err


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
    # above gamma = 0 dk1 solves psi on the [numeric] grid: one node is refused
    (PAIR + "[numeric]\nh = 0.5\numax = 0.2\n",
     ["bound", "dk1", "{cfg}", "--gamma", "0.5"], 2),
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
    # integers are checked without a float conversion: a seed of any size is
    # taken, as --seed takes it; a shape must fit numpy's int64
    (EXP_MODEL + "[numeric]\nseed = " + "9" * 400 + "\n",
     ["eval", "mc", "{cfg}", "--samples", "10", "--u", "1"], 0),
    (EXP_MODEL.replace("exp\n", "erlang\nshape = " + "9" * 400 + "\n"),
     ["eval", "ruin", "{cfg}"], 2),
    (EXP_MODEL.replace("exp\nrate = 2.0", "erlang\nshape = " + str(10**22)
                       + "\nrate = 1e22"), ["eval", "ruin", "{cfg}"], 2),
    # an infinite step would make the one point 0 * inf = nan
    *[(EXP_MODEL, ["eval", q, "{cfg}", "--u", "0:1:inf"], 2)
      for q in ("ruin", "mc")],
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
_GLIBC_ONLY = pytest.mark.skipif(
    cli._LIBC is None or platform.libc_ver()[0] != "glibc",
    reason="the allocator options are glibc's")


def _median_faults(code, modes, samples, *args):
    """The median over ``samples`` runs of the count ``code`` prints, run
    in a fresh interpreter with argv (src, mode, *args) for each mode in
    turn; the environment loses glibc's own malloc variables, which would
    set the options.  Returns the medians and the samples, by mode."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("MALLOC_", "GLIBC_TUNABLES"))}
    runs = {mode: [] for mode in modes}
    for _ in range(samples):
        for mode in modes:
            out = subprocess.run([sys.executable, "-c", code, str(SRC), mode,
                                  *map(str, args)], capture_output=True,
                                 text=True, check=True, env=env).stdout
            runs[mode].append(int(out))
    return {mode: statistics.median(r) for mode, r in runs.items()}, runs


class TestAllocatorScope:
    @pytest.mark.parametrize("command, code", [
        (lambda args: cli.EXIT_OK, 0),
        (_raises(ConfigError("bad key")), 2),
        (_raises(PreconditionError("net profit")), 3),
        (_raises(TruncationError("tail")), 4),
        (lambda args: cli.EXIT_NUMERICAL, 4),
    ])
    def test_options_before_and_no_trim_after_command(self, monkeypatch, capsys,
                                                      command, code):
        events = []
        monkeypatch.setattr(cli, "_LIBC", _MallocRecorder(events))

        def recorded(args):
            events.append("command")
            return command(args)

        monkeypatch.setattr(cli, "cmd_table", recorded)
        assert cli.main(["table", "4"]) == code
        assert events == [*MALLOC_OPTIONS, "command"]

    def test_no_trim_after_argparse_exit(self, monkeypatch, capsys):
        events = []
        monkeypatch.setattr(cli, "_LIBC", _MallocRecorder(events))
        with pytest.raises(SystemExit) as stop:
            cli.main(["table", "no-such-table"])
        assert stop.value.code == 2
        assert events == MALLOC_OPTIONS

    @pytest.mark.parametrize("items, fan_outs, code", [
        (range(-3, 3), 1, 0),
        ([-1], 1, 0),
        (range(4), 3, 0),
        (range(4), 1, 4),
    ], ids=["returns", "single_item", "three_fan_outs", "exit_4"])
    def test_one_trim_after_a_command_that_fans_out(self, monkeypatch, capsys,
                                                   items, fan_outs, code):
        events = []
        monkeypatch.setattr(cli, "_LIBC", _MallocRecorder(events))

        def command(args):
            for _ in range(fan_outs):
                _parallel.thread_map(abs, items)
            events.append("command")
            return code

        monkeypatch.setattr(cli, "cmd_table", command)
        assert cli.main(["table", "4"]) == code
        assert events == [*MALLOC_OPTIONS, "command", ("malloc_trim", 0)]

    def test_trim_after_an_item_raises(self, monkeypatch):
        events = []
        monkeypatch.setattr(cli, "_LIBC", _MallocRecorder(events))
        monkeypatch.setattr(cli, "cmd_table", lambda args: _parallel.thread_map(
            math.sqrt, [1.0, -1.0, 4.0]))
        with pytest.raises(ValueError, match="math domain error"):
            cli.main(["table", "4"])
        assert events == [*MALLOC_OPTIONS, ("malloc_trim", 0)]

    @pytest.mark.parametrize("argv, trims", [
        (["bound", "dk2", str(DATA / "dk_pair.cfg"), "--y", "20"], 0),
        (["eval", "ruin", str(DATA / "dk_pair.cfg"), "--u", "0,1"], 0),
        (["table", "4"], 0),
        (["table", "1a"], 1),
        (["eval", "mc", str(DATA / "mc_smoke.cfg"), "--samples", "1000"], 1),
        (["eval", "mc", str(DATA / "mc_erlang.cfg"), "--quantity", "psit",
          "--samples", "200000"], 1),
    ], ids=["bound", "eval", "table_4", "table_1a", "mc_one_block",
            "mc_four_blocks"])
    def test_only_a_fan_out_trims(self, monkeypatch, capsys, argv, trims):
        # from empty caches, as a fresh process runs it: table 1a fans out
        # only when it solves, not when an earlier 1a or 1c left its values
        events = []
        monkeypatch.setattr(cli, "_LIBC", _MallocRecorder(events))
        clear_package_caches()
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        assert events == [*MALLOC_OPTIONS, *[("malloc_trim", 0)] * trims]

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

    @_GLIBC_ONLY
    def test_command_keeps_freed_pages_mapped(self):
        # minor page faults of one `table 1a` in a fresh interpreter, with the
        # options and with the handle patched out.  Each side is the median
        # of five samples: one sample moves with how the two solver threads
        # overlap
        code = ("import contextlib, io, resource, sys\n"
                "sys.path.insert(0, sys.argv[1])\n"
                "from ruinbounds import cli\n"
                "if sys.argv[2] == 'off':\n"
                "    cli._LIBC = None\n"
                "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    assert cli.main(['table', '1a']) == 0\n"
                "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)")
        faults, samples = _median_faults(code, ("on", "off"), 5)
        assert faults["on"] <= faults["off"] / 4, samples

    @_GLIBC_ONLY
    def test_next_command_reuses_freed_pages(self, tmp_path):
        # minor page faults of 30 `bound dk2` commands, one y each, after a
        # first one, in a fresh interpreter, against the same commands with
        # malloc_trim(0) after each: freed pages stay mapped from one
        # command to the next.  Median of three samples a side
        path = tmp_path / "erlang_pair.cfg"
        path.write_text("[model]\nlambda = 0.8\nc = 1.2\nclaims = erlang\n"
                        "shape = 200\nrate = 200\n"
                        "[model2]\nlambda = 0.8\nc = 1.2\nclaims = erlang\n"
                        "shape = 150\nrate = 150\n")
        code = ("import contextlib, ctypes, io, resource, sys\n"
                "sys.path.insert(0, sys.argv[1])\n"
                "from ruinbounds import cli\n"
                "trim = ctypes.CDLL(None).malloc_trim\n"
                "def command(y):\n"
                "    with contextlib.redirect_stdout(io.StringIO()):\n"
                "        assert cli.main(['bound', 'dk2', sys.argv[3],\n"
                "                         '--y', str(y)]) == 0\n"
                "    if sys.argv[2] == 'trim':\n"
                "        trim(0)\n"
                "command(0)\n"
                "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
                "for y in range(1, 31):\n"
                "    command(y)\n"
                "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)")
        faults, samples = _median_faults(code, ("keep", "trim"), 3, path)
        assert faults["keep"] <= faults["trim"] / 4, samples
