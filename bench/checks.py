"""Output checks, run in the parent process after the timed passes.

- ``table``: stdout must equal the golden CSV bytes captured at the seed
  commit, and a full pass must grade 208 cells MATCH and 12
  DISCREPANCY-DOCUMENTED.
- ``eval``: every printed value must lie within C (r h)^2 of the exact
  phase-type value (``oracles``), r the fastest rate in the model, plus the
  rounding of the 7-digit output.  Exponential psi and K-bar are also held
  to the package's own closed forms, and psi of the other families to its
  truncated compound-geometric series.
- ``mc``: the estimate must lie within MC_Z standard errors of the exact
  value.
- ``bound``: each DK bound must be no smaller than the realised distance
  between the two models, computed from the exact curves.
"""

from __future__ import annotations

import csv
import io
import math
import os

import numpy as np

import oracles
import workloads

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
FULL_TABLE_COUNTS = {"MATCH": 208, "DISCREPANCY-DOCUMENTED": 12}

# discretization constant of the trapezoid renewal scheme: |x_h - x| <= C (r h)^2;
# the largest ratio seen over 300 seeded models was 0.076
EVAL_C = 0.5
PRINT_REL = 1e-6          # 7 significant digits
# 4 SE leaves a 6e-5 false-alarm chance per estimate; over the hundreds of
# estimates of a full set of runs that would fail a correct program, so 5 SE
MC_Z = 5.0
BOUND_REL = 1e-6          # rounding of the printed bound
BOUND_ABS = 1e-9          # accuracy of the exact curves' quadrature


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    rows = list(csv.reader(io.StringIO("\n".join(lines))))
    if not rows:
        raise ValueError("no CSV header in output")
    return rows[0], rows[1:]


def golden(table_id):
    with open(os.path.join(GOLDEN_DIR, f"table_{table_id}.csv"), "rb") as fh:
        return fh.read()


def flag_counts(stdout):
    header, rows = parse_csv(stdout)
    col = header.index("flag")
    counts = {}
    for r in rows:
        counts[r[col]] = counts.get(r[col], 0) + 1
    return counts


def expected_table_counts(table_ids):
    total = {}
    for tid in table_ids:
        for k, v in flag_counts(golden(tid).decode()).items():
            total[k] = total.get(k, 0) + v
    if tuple(table_ids) == workloads.TABLE_IDS:
        graded = {k: total.get(k, 0) for k in FULL_TABLE_COUNTS}
        if graded != FULL_TABLE_COUNTS or set(total) != set(FULL_TABLE_COUNTS):
            raise ValueError(f"golden tables grade {total}, expected {FULL_TABLE_COUNTS}")
    return total


def _oracle(spec):
    return oracles.Model(spec["lam"], spec["c"], spec["family"], spec["params"], spec["D"])


def _package_refs(chk, us):
    """Reference values the package itself provides, where the family has one."""
    from ruinbounds import (Erlang, Exponential, HyperExponential, PerturbedModel,
                            RiskModel, exact_ruin_exponential, k_exact_exponential,
                            pk_truncated_series)
    spec, q = chk["model"], chk["quantity"]
    p = spec["params"]
    if spec["family"] == "exp":
        claims = Exponential(p["rate"])
    elif spec["family"] == "hyperexp":
        claims = HyperExponential(p["weights"], p["rates"])
    else:
        claims = Erlang(p["shape"], p["rate"])
    model = RiskModel(spec["lam"], spec["c"], claims)
    if spec["family"] == "exp":
        if q == "ruin":
            return [exact_ruin_exponential(model, u) for u in us]
        if q == "ktail":
            return [k_exact_exponential(PerturbedModel(model, spec["D"]), u) for u in us]
        return None
    if q == "ruin":
        n_terms = int(math.ceil(math.log(1e-12) / math.log(model.phi)))
        umax = max(us) + chk["h"]
        series = pk_truncated_series(model, n_terms, h=chk["h"], u_max=umax)
        return [series(u) for u in us]
    return None


def _rate_scale(spec):
    return max(workloads.claim_rates(spec["family"], spec["params"]) + [spec["c"] / spec["D"]])


def check_eval(chk, stdout):
    header, rows = parse_csv(stdout)
    if header != ["u", "value"] or len(rows) != len(chk["us"]):
        return f"unexpected eval output shape {header} x {len(rows)}"
    vals = [float(r[1]) for r in rows]
    o, q = _oracle(chk["model"]), chk["quantity"]
    exact = {"ruin": lambda u: o.psi(u),
             "deficit": lambda u: o.deficit(u, chk["y"]),
             "ktail": lambda u: o.k_tail(u),
             "psit": lambda u: o.psi_total(u),
             "iterate": lambda u: o.k_iterate(chk["k0"], chk["n"], u)}[q]
    disc = EVAL_C * (_rate_scale(chk["model"]) * chk["h"]) ** 2
    refs = [("phase-type", [exact(u) for u in chk["us"]], disc)]
    pkg = _package_refs(chk, chk["us"])
    if pkg is not None:
        # a grid-based reference carries its own O(h^2) error
        refs.append(("package", pkg, disc if chk["model"]["family"] == "exp" else 2 * disc))
    for label, ref, tol in refs:
        for u, v, r in zip(chk["us"], vals, ref):
            if abs(v - r) > tol + PRINT_REL * abs(r):
                return f"{q} at u={u:g}: {v!r} vs {label} {r!r} (tol {tol:.2e})"
    return None


def check_mc(chk, stdout):
    header, rows = parse_csv(stdout)
    if header != ["u", "value", "se"] or len(rows) != 1:
        return f"unexpected mc output shape {header} x {len(rows)}"
    est, se = float(rows[0][1]), float(rows[0][2])
    o, q, u = _oracle(chk["model"]), chk["quantity"], chk["u"]
    ref = {"psi": lambda: o.psi(u), "deficit": lambda: o.deficit(u, chk["y"]),
           "k_tail": lambda: o.k_tail(u), "psi_t": lambda: o.psi_total(u)}[q]()
    if not se > 0:
        return f"mc {q}: zero standard error (estimate {est!r})"
    if abs(est - ref) > MC_Z * se:
        return f"mc {q} at u={u:g}: {est!r} is {abs(est - ref) / se:.1f} SE from {ref!r}"
    return None


def realised_distance(chk):
    """The distance each DK bound caps, from the exact curves of both models."""
    kind = chk["bound"]
    a, b = _oracle(chk["model"]), _oracle(chk["model2"])
    which = {"dk1": "psi", "dk2": "deficit", "dk3": "k_tail"}[kind]
    end = max(a.curve_end(which), b.curve_end(which))
    y = chk.get("y", 0.0)
    us, va = a.curve(which, y, end)
    _, vb = b.curve(which, y, end)
    d = np.abs(va - vb)
    if kind == "dk1":
        return float(np.sum(0.5 * (d[1:] + d[:-1])) * (us[1] - us[0]))
    return float(d.max())


def check_bound(chk, stdout):
    header, rows = parse_csv(stdout)
    if header[:2] != ["kind", "value"] or len(rows) != 1 or rows[0][0] != chk["bound"]:
        return f"unexpected bound output {header} x {len(rows)}"
    value = float(rows[0][1])
    dist = realised_distance(chk)
    chk["margin"] = value / dist if dist > 0 else math.inf
    if value * (1.0 + BOUND_REL) + BOUND_ABS < dist:
        return f"{chk['bound']} = {value!r} is below the realised distance {dist!r}"
    return None


def check(request, stdout):
    """None if the output of one request is right, else what is wrong."""
    chk = request["check"]
    try:
        if chk["kind"] == "table":
            if stdout.encode() != golden(chk["id"]):
                return f"table {chk['id']}: CSV differs from the golden bytes"
            return None
        return {"eval": check_eval, "mc": check_mc, "bound": check_bound}[chk["kind"]](chk, stdout)
    except (ValueError, IndexError, KeyError) as exc:
        return f"unreadable output: {exc!r}"
