"""Reproduction of the published comparison tables.

The printed values are embedded as literal data and never recomputed, so
the program is graded against the publication rather than against itself.
Cells whose printed values are established misprints (verified against
independent closed-form or quadrature oracles) are flagged
DISCREPANCY-DOCUMENTED and carry both numbers; every other cell must match
within the per-table tolerance or the run fails.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

from . import bounds as bounds_mod
from ._parallel import thread_map
from .classical import RiskModel, deficit_tail_family, ruin_probability
from .diffusion import (PerturbedModel, k_exact_exponential, k_iterate_erlang,
                        k_tail)
from .distributions import Erlang, Exponential, HyperExponential
from .metrics import nu_gamma, sup_distance

__all__ = ["TableRow", "TableResult", "TABLE_IDS", "run_table"]

TABLE_IDS = ("1a", "1b", "1c", "1d", "2a", "2b", "2c", "2d", "3", "4", "5")

H = 2.0**-10    # grid step of every solved table

MIX_54_56 = HyperExponential((0.5, 0.5), (1.25, 5.0 / 6.0))   # mean 1
MIX_2_6 = HyperExponential((0.5, 0.5), (2.0, 6.0))            # mean 1/3
ERLANG_33 = Erlang(3, 3.0)                                    # mean 1
EXP_1 = Exponential(1.0)
EXP_3 = Exponential(3.0)

# ---------------------------------------------------------------------------
# printed values
# ---------------------------------------------------------------------------

_T1_CS = (3.0, 5.0, 7.0)
_T1_GAMMAS = (0.0, 1.0)

# per panel: lambda, gamma, then (c -> (exact nu_gamma, DK1))
PAPER_TABLE_1 = {
    "1a": (5.0 / 6.0, 0.0, {3.0: (0.0154, 0.1211), 5.0: (0.0080, 0.0999),
                            7.0: (0.0060, 0.0929)}),
    "1b": (10.0 / 11.0, 0.0, {3.0: (0.0174, 0.1271), 5.0: (0.0089, 0.1024),
                              7.0: (0.0059, 0.0944)}),
    "1c": (5.0 / 6.0, 1.0, {3.0: (0.0736, 0.6340), 5.0: (0.0353, 0.3548),
                            7.0: (0.0231, 0.2922)}),
    "1d": (10.0 / 11.0, 1.0, {3.0: (0.0850, 0.7512), 5.0: (0.0396, 0.3795),
                              7.0: (0.0257, 0.3047)}),
}

_T2_YS = (0.10, 0.25, 0.50, 1.00, 2.00)
_T2_US = (0.10, 0.25, 0.50, 1.00, 2.00)

# per panel: theta, claim pair, {y: (DK2, [exact cells over u])}
PAPER_TABLE_2 = {
    "2a": (1.0, (ERLANG_33, EXP_1), {
        0.10: (0.2900, [0.0080, 0.0184, 0.0367, 0.0640, 0.0754]),
        0.25: (0.2726, [0.0227, 0.0365, 0.0550, 0.0742, 0.0736]),
        0.50: (0.2220, [0.0495, 0.0625, 0.0758, 0.0821, 0.0098]),
        1.00: (0.1547, [0.0773, 0.0818, 0.0832, 0.0748, 0.0521]),
        2.00: (0.1905, [0.0521, 0.0506, 0.0463, 0.0372, 0.0233]),
    }),
    "2b": (4.0, (ERLANG_33, EXP_1), {
        0.10: (0.0735, [0.0034, 0.0084, 0.0176, 0.0290, 0.0241]),
        0.25: (0.0681, [0.0091, 0.0100, 0.0233, 0.0304, 0.0228]),
        0.50: (0.0555, [0.0194, 0.0243, 0.0294, 0.0303, 0.0194]),
        1.00: (0.0387, [0.0300, 0.0309, 0.0301, 0.0247, 0.0132]),
        2.00: (0.0476, [0.0205, 0.0189, 0.0161, 0.0114, 0.0054]),
    }),
    "2c": (4.0, (ERLANG_33, MIX_54_56), {
        0.10: (0.0779, [0.0035, 0.0087, 0.0183, 0.0306, 0.0272]),
        0.25: (0.0723, [0.0094, 0.0156, 0.0244, 0.0322, 0.0252]),
        0.50: (0.0592, [0.0202, 0.0254, 0.0309, 0.0324, 0.0217]),
        1.00: (0.0413, [0.0317, 0.0328, 0.0322, 0.0270, 0.0152]),
        2.00: (0.0494, [0.0227, 0.0211, 0.0183, 0.0134, 0.0068]),
    }),
    "2d": (4.0, (MIX_54_56, EXP_1), {
        0.10: (0.0054, [0.0001, 0.0003, 0.0007, 0.0016, 0.0023]),
        0.25: (0.0052, [0.0003, 0.0006, 0.0011, 0.0018, 0.0024]),
        0.50: (0.0046, [0.0008, 0.0011, 0.0015, 0.0021, 0.0023]),
        1.00: (0.0035, [0.0017, 0.0019, 0.0021, 0.0023, 0.0020]),
        2.00: (0.0027, [0.0022, 0.0022, 0.0022, 0.0020, 0.0014]),
    }),
}

# rows: (D, D~, printed sup|K - K~|, printed DK3)
PAPER_TABLE_3 = [
    (1.0, 0.1, 0.0854, 0.4837),
    (0.5, 0.1, 0.0559, 0.4337),
    (0.5, 1.0 / 3.0, 0.0271, 0.2004),
    (2.0, 1.0, 0.0496, 0.2837),
    (2.0, 0.1, 0.1148, 0.5087),
    (3.0, 0.1, 0.1305, 0.5171),
    (3.0, 0.05, 0.1334, 0.5254),
]

_T45_KS = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)

PAPER_TABLE_4 = {
    "model": PerturbedModel(RiskModel(0.5, 0.5, Exponential(2.0)), 0.25),
    "cells": [
        [0.2030029, 0.2624023, 0.3218018, 0.3812012, 0.4406006, 0.5000000],
        [0.3157823, 0.3229262, 0.3300700, 0.3372138, 0.3443576, 0.3515015],
        [0.3315714, 0.3319855, 0.3323996, 0.3328137, 0.3332278, 0.3336419],
        [0.3325381, 0.3325518, 0.3325655, 0.3325793, 0.3325930, 0.3326067],
        [0.3325709, 0.3325712, 0.3325717, 0.3325720, 0.3325721, 0.3325724],
    ],
    "exact": 0.3325717,
}

PAPER_TABLE_5 = {
    "model": PerturbedModel(RiskModel(0.75, 2.0 / 3.0, Exponential(1.5)),
                            4.0 / 9.0),
    "cells": [
        [0.4183691, 0.4846952, 0.5510214, 0.6173476, 0.6836738, 0.7500000],
        [0.6301684, 0.6375532, 0.6449379, 0.6523227, 0.6597075, 0.6670923],
        # the (n=3, k=0.8) entry is printed with eight digits in the source
        [0.6559814, 0.6563574, 0.6567334, 0.6571093, 0.6574585, 0.6578613],
        [0.6573377, 0.6573484, 0.6573591, 0.6573699, 0.6573806, 0.6573913],
        [0.6573769, 0.6573771, 0.6573773, 0.6573775, 0.6573777, 0.6573779],
    ],
    "exact": 0.6573777,
}

# ---------------------------------------------------------------------------
# documented publication misprints (verified against independent oracles in
# the test suite; see each runner for the verification route)
# ---------------------------------------------------------------------------

DOCUMENTED = {
    # gamma=0, lambda=5/6, c=7: exact distance is 0.04/theta = 1/185 =
    # 0.0054054 (the five sibling cells confirm the 0.04/theta pattern)
    ("1a", "exact", 7.0):
        "printed 0.0060; the exact distance equals 0.04/theta = 0.0054054",
    # definitional Q_{0.1} = 0.29382 vs printed 0.2900; panel (b) prints the
    # consistent 0.0735 for the same integral / 4
    ("2a", "dk2", 0.10):
        "printed 0.2900; definitional Q_y gives 0.29382 (= 4 x panel-b cell)",
    # all y=2.0 bounds: the source evaluates the crossing-split antiderivative
    # formula past the tail crossing, where it no longer equals the
    # definitional integral
    ("2a", "dk2", 2.00):
        "printed 0.1905 is the pre-crossing formula evaluated at y=2.0; "
        "definitional Q_y/theta = 0.10807",
    ("2b", "dk2", 2.00):
        "printed 0.0476 is the pre-crossing formula at y=2.0; definitional "
        "Q_y/theta = 0.02702",
    ("2c", "dk2", 2.00):
        "printed 0.0494 is the pre-crossing formula at y=2.0; definitional "
        "Q_y/theta = 0.02972",
    ("2d", "dk2", 2.00):
        "printed 0.0027; for this pair the crossing sits left of y=2.0, so "
        "the definitional value 0.00271 happens to agree",
    ("2a", "exact", (0.50, 2.00)):
        "printed 0.0098; the solver (Monte-Carlo checked) gives 0.0681",
    ("2b", "exact", (0.25, 0.25)):
        "printed 0.0100; the solver (Monte-Carlo checked) gives 0.0151",
    # sup distances at the reconciled theta=4; closed-form residue oracle
    # confirms the computed column, rows below do not match any consistent
    # parameterization of the source
    ("3", "sup", (0.5, 0.1)):
        "printed 0.0559; closed forms give 0.05193",
    ("3", "sup", (0.5, 1.0 / 3.0)):
        "printed 0.0271; closed forms give 0.01211",
    ("3", "sup", (2.0, 1.0)):
        "printed 0.0496; closed forms give 0.04114",
    # row linearity in k of the printed table fixes the true value at
    # 0.6574853; the printed 0.65745853 is a digit transposition
    ("5", "iterate", (3, 0.8)):
        "printed 0.65745853 (eight digits); the closed form and the row's "
        "own linearity in k give 0.6574853",
}

TOLERANCES = {
    "1": {"exact": 5e-4, "dk1": 5e-4},
    "2": {"dk2": 1e-4, "exact": 2e-3},
    "3": {"sup": 3e-3, "dk3": 1e-4},
    "4": {"iterate": 5e-7, "exact": 1e-7},
    "5": {"iterate": 5e-7, "exact": 1e-7},
}


class TableRow(NamedTuple):
    inputs: str
    quantity: str
    computed: float
    paper: float
    deviation: float
    flag: str
    note: str = ""


class TableResult(NamedTuple):
    table_id: str
    comments: list = ()
    rows: list = ()

    @property
    def all_match(self) -> bool:
        return all(r.flag != "MISMATCH" for r in self.rows)


def _row(table_id, inputs, quantity, computed, paper, tol, doc_key, note=""):
    dev = abs(computed - paper)
    doc = DOCUMENTED.get((table_id, quantity, doc_key))
    if doc is not None:
        flag = "DISCREPANCY-DOCUMENTED"
        note = (note + "; " if note else "") + doc
    elif dev <= tol:
        flag = "MATCH"
    else:
        flag = "MISMATCH"
    return TableRow(inputs=inputs, quantity=quantity, computed=computed,
                    paper=paper, deviation=dev, flag=flag, note=note)


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------

@lru_cache(maxsize=2)
def _table_1_cells(lam):
    """(nu_gamma(psi, psi~), DK1) at table 1's two gamma (columns) for each
    of its three c (rows), read-only: panels 1c/1d revisit the (lambda, c)
    pairs of 1a/1b, so each lambda's six psi are solved once, on every CPU.
    Only the printed values are kept, not the grids."""
    models = [RiskModel(lam, c, law) for c in _T1_CS
              for law in (MIX_54_56, EXP_1)]
    psi = thread_map(partial(ruin_probability, h=H, u_max=40.0), models)
    return tuple(
        tuple((nu_gamma(psi_m, psi_t, gamma),
               bounds_mod.dk1(m, mt, gamma, psi=psi_m, psi_tilde=psi_t).value)
              for gamma in _T1_GAMMAS)
        for m, mt, psi_m, psi_t in zip(models[::2], models[1::2],
                                       psi[::2], psi[1::2]))


def _run_table_1(table_id):
    lam, gamma, cells = PAPER_TABLE_1[table_id]
    tol = TOLERANCES["1"]
    rows = []
    for c, by_gamma in zip(_T1_CS, _table_1_cells(lam)):
        paper_exact, paper_dk1 = cells[c]
        exact, dk1 = by_gamma[_T1_GAMMAS.index(gamma)]
        inputs = f"gamma={gamma:g} lambda={lam:.6g} c={c:g}"
        rows.append(_row(table_id, inputs, "exact", exact, paper_exact,
                         tol["exact"], doc_key=c))
        rows.append(_row(table_id, inputs, "dk1", dk1, paper_dk1,
                         tol["dk1"], doc_key=c))
    comments = [f"table {table_id}: claims mixture(1/2,1/2; 5/4, 5/6) vs "
                f"Exp(1); gamma={gamma:g}, lambda={lam:.6g}; "
                f"first-model ML convention"]
    return TableResult(table_id, comments, rows)


@lru_cache(maxsize=64)
def _deficit_cells(model):
    """G-bar(u, y) at table 2's five y (rows) and five u (columns),
    read-only: panels 2b-2d share three claim laws at theta = 4, so each
    model's deficit family is solved once.  Only the printed values are
    kept, not the grids."""
    family = deficit_tail_family(model, _T2_YS, h=H, u_max=2.0)
    cells = np.array([[family[y](u) for u in _T2_US] for y in _T2_YS])
    cells.flags.writeable = False
    return cells


def _run_table_2(table_id):
    theta, (law1, law2), data = PAPER_TABLE_2[table_id]
    tol = TOLERANCES["2"]
    # lambda = 1 and mu = 1, so c = 1 + theta
    m = RiskModel(1.0, 1.0 + theta, law1)
    mt = RiskModel(1.0, 1.0 + theta, law2)
    gaps = np.abs(_deficit_cells(m) - _deficit_cells(mt))
    rows = []
    for y, gaps_y in zip(_T2_YS, gaps):
        paper_dk2, paper_cells = data[y]
        rep = bounds_mod.dk2(m, mt, y)
        rows.append(_row(table_id, f"theta={theta:g} y={y:g}", "dk2",
                         rep.value, paper_dk2, tol["dk2"], doc_key=y))
        for u, d, pv in zip(_T2_US, gaps_y.tolist(), paper_cells):
            rows.append(_row(table_id, f"theta={theta:g} y={y:g} u={u:g}",
                             "exact", d, pv, tol["exact"], doc_key=(y, u)))
    comments = [f"table {table_id}: theta={theta:g}; deficit tails from the "
                f"renewal solver at h={H:g}"]
    return TableResult(table_id, comments, rows)


def _run_table_3():
    tol = TOLERANCES["3"]
    # reconciled loading: lambda*mu/c = 1/5, i.e. theta = 4
    m = RiskModel(0.6, 1.0, EXP_3)
    mt = RiskModel(0.6, 1.0, MIX_2_6)
    # theta=1 reading of the source text: lam*mu/c = 1/2, i.e. lam = c/(2 mu)
    m1 = RiskModel(m.c / (2.0 * m.mu), m.c, m.claims)
    mt1 = RiskModel(mt.c / (2.0 * mt.mu), mt.c, mt.claims)
    pairs = [(PerturbedModel(m, D), PerturbedModel(mt, Dt))
             for D, Dt, _, _ in PAPER_TABLE_3]
    # rows share their D values: one solve per distinct perturbed model,
    # all of them on every CPU
    distinct = list(dict.fromkeys(p for pair in pairs for p in pair))
    k = dict(zip(distinct, thread_map(partial(k_tail, h=H, u_max=15.0),
                                      distinct)))
    rows = []
    for (pm, pmt), (D, Dt, paper_sup, paper_dk3) in zip(pairs, PAPER_TABLE_3):
        inputs = f"D={D:g} Dt={Dt:g}"
        g_left = k[pm]
        # analytic anchor for the exponential side
        exact_left = k_exact_exponential(pm, g_left.grid)
        anchor_gap = float(np.max(np.abs(exact_left - g_left.values)))
        sup = sup_distance(g_left, k[pmt])
        rows.append(_row("3", inputs, "sup", sup, paper_sup, tol["sup"],
                         doc_key=(D, Dt),
                         note=f"closed-form anchor gap {anchor_gap:.1e}"))
        rep = bounds_mod.dk3(pm, pmt)
        rep1 = bounds_mod.dk3(PerturbedModel(m1, D), PerturbedModel(mt1, Dt))
        rows.append(_row("3", inputs, "dk3", rep.value, paper_dk3,
                         tol["dk3"], doc_key=(D, Dt),
                         note=f"theta=1 reading gives {rep1.value:.7g}"))
    comments = [
        "table 3: theta reconciled to 4 (lambda*mu/c = 1/5); the source text "
        "says theta=1, which reproduces neither column",
        "theta=1 DK3 values are reported in the row notes",
    ]
    return TableResult("3", comments, rows)


def _run_table_45(table_id):
    data = PAPER_TABLE_4 if table_id == "4" else PAPER_TABLE_5
    tol = TOLERANCES[table_id]
    pm = data["model"]
    u = 1.0
    rows = []
    for n in range(1, 6):
        for k0, paper in zip(_T45_KS, data["cells"][n - 1]):
            val = k_iterate_erlang(pm, k0, n, u)
            rows.append(_row(table_id, f"n={n} k={k0:g} u={u:g}", "iterate",
                             val, paper, tol["iterate"], doc_key=(n, k0)))
    exact = k_exact_exponential(pm, u)
    rows.append(_row(table_id, f"u={u:g}", "exact", exact, data["exact"],
                     tol["exact"], doc_key="exact"))
    beta = pm.base.claims.rates[0]
    comments = [f"table {table_id}: matched-rate case beta = c/D = {beta:g}; "
                f"iterates from the partial-exponential-sum closed form"]
    return TableResult(table_id, comments, rows)


def run_table(table_id: str) -> TableResult:
    """Recompute one published table and grade it cell by cell."""
    if table_id not in TABLE_IDS:
        raise KeyError(f"unknown table id {table_id!r}")
    if table_id.startswith("1"):
        return _run_table_1(table_id)
    if table_id.startswith("2"):
        return _run_table_2(table_id)
    if table_id == "3":
        return _run_table_3()
    return _run_table_45(table_id)
