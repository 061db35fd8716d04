"""Acceptance gate: the published-table reproductions and the property
suite, each criterion at its stated tolerance, one PASS/FAIL line per
criterion (run with ``pytest -s`` to see them on success).

Established misprints in the source tables are not graded as matches; they
must surface as DISCREPANCY-DOCUMENTED rows whose computed values are
verified here against oracles independent of the production code path
(closed forms, phase-type matrix exponentials, brute-force quadrature,
Monte Carlo).
"""

import time

import numpy as np
import pytest

from helpers import chain, k_bar_exact, sup_defect, within
from ruinbounds import (DEFAULT_H, Exponential, HyperExponential,
                        PerturbedModel, RiskModel, deficit_tail_family, dk2,
                        exact_ruin_exponential, k_exact_exponential,
                        k_iterates, k_tail, mc_estimates, pk_truncated_series,
                        psi_total, ruin_probability, sup_distance)
from ruinbounds import tables
from ruinbounds.classical import _problem

MIX26 = HyperExponential((0.5, 0.5), (2.0, 6.0))
MIX54 = HyperExponential((0.5, 0.5), (1.25, 5.0 / 6.0))
ERL33_TAIL = lambda t: np.exp(-3.0 * t) * (1.0 + 3.0 * t + 4.5 * t * t)


def _report(num, desc, failures, extra=""):
    status = "PASS" if not failures else "FAIL"
    tail = f" [{extra}]" if extra else ""
    print(f"ACCEPTANCE {num} ({desc}): {status}{tail}")
    assert not failures, f"criterion {num}: " + "; ".join(failures)


@pytest.fixture(scope="module")
def table_results():
    out = {}
    for tid in tables.TABLE_IDS:
        t0 = time.perf_counter()
        out[tid] = (tables.run_table(tid), time.perf_counter() - t0)
    return out


def _grade(result, expect_documented):
    """Collect failures: any MISMATCH, and any documented set difference."""
    failures = []
    documented = set()
    for r in result.rows:
        if r.flag == "MISMATCH":
            failures.append(f"{r.inputs} {r.quantity}: computed {r.computed:.7g}"
                            f" vs paper {r.paper:.7g} (dev {r.deviation:.2e})")
        elif r.flag == "DISCREPANCY-DOCUMENTED":
            documented.add((r.inputs, r.quantity))
    if documented != expect_documented:
        failures.append(f"documented set {documented} != expected "
                        f"{expect_documented}")
    return failures


class TestCriterion1:
    def test_table_4(self, table_results):
        result, elapsed = table_results["4"]
        failures = _grade(result, set())
        # every iterate cell graded at 5e-7, the exact value at 1e-7
        for r in result.rows:
            tol = 5e-7 if r.quantity == "iterate" else 1e-7
            if r.deviation > tol:
                failures.append(f"{r.inputs}: dev {r.deviation:.2e} > {tol}")
        if elapsed >= 1.0:
            failures.append(f"runtime {elapsed:.2f}s >= 1s")
        _report(1, "table 4: 30 closed-form iterates + exact value",
                failures, f"{elapsed:.2f}s")


class TestCriterion2:
    def test_table_5(self, table_results):
        result, elapsed = table_results["5"]
        failures = _grade(result, {("n=3 k=0.8 u=1", "iterate")})
        for r in result.rows:
            if r.flag == "DISCREPANCY-DOCUMENTED":
                continue
            tol = 5e-7 if r.quantity == "iterate" else 1e-7
            if r.deviation > tol:
                failures.append(f"{r.inputs}: dev {r.deviation:.2e} > {tol}")
        if elapsed >= 1.0:
            failures.append(f"runtime {elapsed:.2f}s >= 1s")
        _report(2, "table 5: closed-form iterates + exact value", failures,
                f"{elapsed:.2f}s; (n=3,k=0.8) documented misprint")

    def test_documented_cell_verified_independently(self, table_results):
        # the printed table is linear in k within each row; interpolating the
        # row's own k=0 and k=1 entries pins the true (n=3, k=0.8) value
        result, _ = table_results["5"]
        row = next(r for r in result.rows
                   if r.flag == "DISCREPANCY-DOCUMENTED")
        k0, k1 = 0.6559814, 0.6578613
        by_linearity = k0 + 0.8 * (k1 - k0)
        assert row.computed == pytest.approx(by_linearity, abs=5e-7)
        # and the printed eight-digit cell genuinely disagrees
        assert abs(row.computed - 0.6574585) > 5e-6


# frozen residue-calculus values of sup|K - K~| at theta = 4 (two
# independent evaluations agreed to 6e-9 during freezing)
T3_SUP_ORACLE = {
    (1.0, 0.1): 0.0834971, (0.5, 0.1): 0.0519266,
    (0.5, 1.0 / 3.0): 0.0121105, (2.0, 1.0): 0.0411390,
    (2.0, 0.1): 0.1145030, (3.0, 0.1): 0.1308770, (3.0, 0.05): 0.1343240,
}


class TestCriterion3:
    def test_table_3(self, table_results):
        result, elapsed = table_results["3"]
        expect_doc = {("D=0.5 Dt=0.1", "sup"), ("D=0.5 Dt=0.333333", "sup"),
                      ("D=2 Dt=1", "sup")}
        failures = _grade(result, expect_doc)
        for r in result.rows:
            if r.quantity == "dk3" and r.deviation > 1e-4:
                failures.append(f"dk3 {r.inputs}: dev {r.deviation:.2e}")
            if (r.quantity == "sup" and r.flag == "MATCH"
                    and r.deviation > 3e-3):
                failures.append(f"sup {r.inputs}: dev {r.deviation:.2e}")
            if r.quantity == "dk3" and "theta=1" not in r.note:
                failures.append(f"{r.inputs}: theta=1 reading not reported")
            if r.quantity == "sup" and "anchor gap" in r.note:
                gap = float(r.note.split("anchor gap ")[1].split(";")[0])
                if gap > 1e-5:
                    failures.append(f"{r.inputs}: exponential-side closed-form"
                                    f" gap {gap:.2e} > 1e-5")
        if elapsed >= 30.0:
            failures.append(f"runtime {elapsed:.1f}s >= 30s")
        _report(3, "table 3: DK3 bounds (theta=4) + sup distances", failures,
                f"{elapsed:.1f}s; 3 sup rows documented misprints")

    def test_sup_column_against_residue_oracle(self, table_results):
        # every sup value, including the documented rows, must match the
        # independent closed-form evaluation
        result, _ = table_results["3"]
        sups = {r.inputs: r.computed for r in result.rows
                if r.quantity == "sup"}
        for (d, dt), expect in T3_SUP_ORACLE.items():
            got = sups[f"D={d:g} Dt={dt:g}"]
            assert got == pytest.approx(expect, abs=2e-5), (d, dt)


class TestCriterion4:
    def test_table_1(self, table_results):
        failures = []
        elapsed = 0.0
        for tid in ("1a", "1b", "1c", "1d"):
            result, dt = table_results[tid]
            elapsed += dt
            expect_doc = ({("gamma=0 lambda=0.833333 c=7", "exact")}
                          if tid == "1a" else set())
            failures += _grade(result, expect_doc)
            for r in result.rows:
                if r.flag != "MATCH":
                    continue
                if r.deviation > 5e-4:
                    failures.append(f"{tid} {r.inputs} {r.quantity}: dev "
                                    f"{r.deviation:.2e} > 5e-4")
        if elapsed >= 60.0:
            failures.append(f"runtime {elapsed:.1f}s >= 60s")
        _report(4, "table 1: 12 DK1 bounds + exact nu_gamma distances",
                failures, f"{elapsed:.1f}s; 1 exact cell documented misprint")

    def test_documented_cell_is_rational_constant(self, table_results):
        # gamma=0 distances for this pair are exactly 0.04/theta; at
        # lambda=5/6, c=7 that is 1/185, not the printed 0.0060
        result, _ = table_results["1a"]
        row = next(r for r in result.rows
                   if r.flag == "DISCREPANCY-DOCUMENTED")
        assert row.computed == pytest.approx(1.0 / 185.0, abs=2e-6)
        assert abs(row.computed - 0.0060) > 5e-4


def _brute_force_q_y(tail1, tail2, y, upper=60.0, n=2**21):
    # dense trapezoid of |F1-bar - F2-bar|; no crossing isolation anywhere
    t = np.linspace(y, upper, n + 1)
    d = np.abs(tail1(t) - tail2(t))
    return float(np.trapezoid(d, t))


class TestCriterion5:
    def test_table_2(self, table_results):
        failures = []
        graded_y = {0.25, 0.50, 1.00}
        for tid in ("2a", "2b", "2c", "2d"):
            result, _ = table_results[tid]
            for r in result.rows:
                if r.quantity != "dk2":
                    continue
                y = float(r.inputs.split("y=")[1])
                must_match = y in graded_y or (y == 0.10 and tid != "2a")
                if must_match and (r.flag != "MATCH" or r.deviation > 1e-4):
                    failures.append(f"{tid} y={y}: {r.flag} dev "
                                    f"{r.deviation:.2e}")
                if not must_match and r.flag == "MISMATCH":
                    failures.append(f"{tid} y={y}: unexpected MISMATCH")
        # documented DK2 rows verified against brute-force quadrature
        checks = [("2a", 0.10, ERL33_TAIL, Exponential(1.0).tail, 1.0),
                  ("2a", 2.00, ERL33_TAIL, Exponential(1.0).tail, 1.0),
                  ("2b", 2.00, ERL33_TAIL, Exponential(1.0).tail, 4.0),
                  ("2c", 2.00, ERL33_TAIL, MIX54.tail, 4.0),
                  ("2d", 2.00, MIX54.tail, Exponential(1.0).tail, 4.0)]
        for tid, y, t1, t2, theta in checks:
            result, _ = table_results[tid]
            row = next(r for r in result.rows if r.quantity == "dk2"
                       and f"y={y:g}" in r.inputs)
            brute = _brute_force_q_y(t1, t2, y) / theta
            if abs(row.computed - brute) > 1e-5:
                failures.append(f"{tid} y={y}: definitional value "
                                f"{row.computed:.7g} vs brute-force "
                                f"{brute:.7g}")
        # at least 10 exact deficit cells spot-checked at 2e-3
        spot_checked = 0
        for tid in ("2a", "2b", "2c", "2d"):
            result, _ = table_results[tid]
            for r in result.rows:
                if r.quantity == "exact" and r.flag == "MATCH":
                    if r.deviation > 2e-3:
                        failures.append(f"{tid} {r.inputs}: exact dev "
                                        f"{r.deviation:.2e}")
                    spot_checked += 1
        if spot_checked < 10:
            failures.append(f"only {spot_checked} exact cells verified")
        _report(5, "table 2: DK2 bounds + exact deficit distances", failures,
                f"{spot_checked} exact cells at 2e-3; documented rows "
                f"brute-force verified")

    def test_documented_exact_cells_against_monte_carlo(self, table_results):
        # the two misprinted exact cells: our solver values vs ladder MC
        cases = [("2a", 0.50, 2.00), ("2b", 0.25, 0.25)]
        for tid, y, u in cases:
            result, _ = table_results[tid]
            row = next(r for r in result.rows if r.quantity == "exact"
                       and r.flag == "DISCREPANCY-DOCUMENTED")
            theta, (law1, law2), _ = tables.PAPER_TABLE_2[tid]
            c = 1.0 + theta
            m1, m2 = RiskModel(1.0, c, law1), RiskModel(1.0, c, law2)
            e1 = mc_estimates(m1, "deficit", [u], 2_000_000, seed=31, y=y)[0]
            e2 = mc_estimates(m2, "deficit", [u], 2_000_000, seed=31, y=y)[0]
            se = np.hypot(e1.standard_error, e2.standard_error)
            assert abs(abs(e1.estimate - e2.estimate) - row.computed) <= 3 * se


class TestCriterion6:
    def test_i_bound_dominance(self, table_results):
        failures = []
        # DK1 dominates the exact weighted distance (12 configurations)
        for tid in ("1a", "1b", "1c", "1d"):
            result, _ = table_results[tid]
            rows = result.rows
            for exact, bound in zip(rows[::2], rows[1::2]):
                if exact.computed > bound.computed:
                    failures.append(f"{tid} {exact.inputs}: nu > DK1")
        # DK3 dominates the sup distance (7 configurations)
        result, _ = table_results["3"]
        rows = result.rows
        for sup_row, dk3_row in zip(rows[::2], rows[1::2]):
            if sup_row.computed > dk3_row.computed:
                failures.append(f"table3 {sup_row.inputs}: sup > DK3")
        # DK2 dominates sup_u of the deficit gap (fresh longer grids)
        for theta, laws in ((1.0, (tables.ERLANG_33, tables.EXP_1)),
                            (4.0, (tables.ERLANG_33, tables.MIX_54_56))):
            c = 1.0 + theta
            m, mt = RiskModel(1.0, c, laws[0]), RiskModel(1.0, c, laws[1])
            f1 = deficit_tail_family(m, tables._T2_YS, u_max=8.0)
            f2 = deficit_tail_family(mt, tables._T2_YS, u_max=8.0)
            for y in tables._T2_YS:
                gap = sup_distance(f1[y], f2[y])
                if gap > dk2(m, mt, y).value:
                    failures.append(f"theta={theta} y={y}: sup > DK2")
        _report("6i", "exact distance <= bound on every configured pair",
                failures)

    def test_ii_solver_residuals(self):
        failures = []
        m = RiskModel(5.0 / 6.0, 3.0, MIX54)
        pm = PerturbedModel(RiskModel(0.5, 0.5, Exponential(2.0)), 0.25)
        for h in (2.0**-9, 2.0**-10):
            p = _problem(m, h, 12.0)
            r = sup_defect(p, ruin_probability(m, h=h, u_max=12.0))
            if r > 5.0 * h * h:
                failures.append(f"psi residual {r:.2e} > 5h^2 at h={h}")
            pk = _problem(pm, h, 6.0)
            r = sup_defect(pk, k_tail(pm, h=h, u_max=6.0))
            if r > 5.0 * h * h:
                failures.append(f"K residual {r:.2e} > 5h^2 at h={h}")
        _report("6ii", "fixed-point residuals bounded by C h^2", failures)

    def test_iii_a_priori_dominates(self):
        failures = []
        configs = [(PerturbedModel(RiskModel(0.5, 0.5, Exponential(2.0)),
                                   0.25), "table 4"),
                   (PerturbedModel(RiskModel(0.75, 2.0 / 3.0,
                                             Exponential(1.5)),
                                   4.0 / 9.0), "table 5"),
                   (PerturbedModel(RiskModel(0.6, 1.0, MIX26), 1.0 / 3.0),
                    "mixture, theta = 4")]
        for pm, label in configs:
            trace = k_iterates(pm, 0.3, 10, u_max=6.0)
            us = trace.last.grid[::16]
            exact = k_bar_exact(pm, us)
            steps = chain(_problem(pm, DEFAULT_H, 6.0), 0.3, 10)
            for j, x in enumerate(steps, start=1):
                true_err = np.max(np.abs(x(us) - exact))
                if true_err > trace.a_priori[j - 1]:
                    failures.append(f"{label} n={j}: error {true_err:.2e} > "
                                    f"a priori {trace.a_priori[j-1]:.2e}")
        _report("6iii", "a priori contraction bound dominates true error "
                        "for n <= 10", failures)

    def test_iv_origin_values(self):
        failures = []
        m = RiskModel(5.0 / 6.0, 3.0, MIX54)
        pm = PerturbedModel(RiskModel(0.5, 0.5, Exponential(2.0)), 0.25)
        psi0 = ruin_probability(m, u_max=6.0).values[0]
        if abs(psi0 - m.phi) > 1e-9:
            failures.append(f"psi(0) = {psi0!r} != phi")
        k0 = k_tail(pm, u_max=6.0).values[0]
        if abs(k0 - pm.phi) > 1e-9:
            failures.append(f"K(0) = {k0!r} != phi")
        from ruinbounds import decompose
        psi_d, _ = decompose(pm, u_max=6.0)
        if abs(psi_d.values[0] - 1.0) > 1e-9:
            failures.append(f"psi_d(0) = {psi_d.values[0]!r} != 1")
        _report("6iv", "origin values psi(0)=phi, K(0)=phi, psi_d(0)=1",
                failures)

    def test_v_monte_carlo_agreement(self):
        failures = []
        pm = PerturbedModel(RiskModel(0.5, 0.5, Exponential(2.0)), 0.25)
        m = pm.base
        n, seed, y = 1_000_000, 20240809, 0.5
        psit = psi_total(pm, u_max=12.0)
        for u in (0.0, 1.0, 2.0):
            cases = [
                ("psi", m, exact_ruin_exponential(m, u), {}),
                ("k_tail", pm, k_exact_exponential(pm, u), {}),
                ("psi_t", pm, psit(u), {}),
                ("deficit", m,
                 exact_ruin_exponential(m, u) * np.exp(-2.0 * y), {"y": y}),
            ]
            for quantity, model, true, kw in cases:
                est = mc_estimates(model, quantity, [u], n, seed, **kw)[0]
                if not within(est, true, 3.0):
                    failures.append(
                        f"{quantity} at u={u}: {est.estimate:.5f} vs {true:.5f}"
                        f" ({abs(est.estimate-true)/max(est.standard_error,1e-12):.1f} se)")
        _report("6v", "Monte Carlo agreement within 3 SE at n=10^6", failures)

    def test_vi_pk_series_consistency(self):
        failures = []
        n_terms = 30
        for claims in (MIX54, Exponential(1.0)):
            m = RiskModel(5.0 / 6.0, 3.0, claims)
            psi = ruin_probability(m, u_max=15.0)
            series = pk_truncated_series(m, n_terms, u_max=15.0)
            gap = np.max(np.abs(psi.values - series.values))
            if gap > m.phi ** (n_terms + 1) + 1e-4:
                failures.append(f"{type(claims).__name__}: gap {gap:.2e}")
        _report("6vi", "Pollaczeck-Khinchine truncated series matches the "
                       "solver", failures)

    def test_vii_refinement_order(self):
        failures = []
        m = RiskModel(0.5, 0.5, Exponential(2.0))
        errs = []
        for h in (2.0**-9, 2.0**-10):
            g = ruin_probability(m, h=h, u_max=10.0)
            errs.append(np.max(np.abs(g.values
                                      - exact_ruin_exponential(m, g.grid))))
        ratio = errs[0] / errs[1]
        if not 3.5 <= ratio <= 4.5:
            failures.append(f"refinement ratio {ratio:.2f} outside [3.5, 4.5]")
        _report("6vii", "grid refinement ratio ~ 4 when halving h", failures,
                f"ratio {ratio:.2f}")
