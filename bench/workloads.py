"""Request lists of the three workloads, generated from the workload seed.

A request is one ``ruinbounds`` argv plus what the output check needs to
know about it.  The program sees only the argv and the config files written
here; everything else in a request stays with the benchmark.

Why these workloads:

- ``tables``: the paper's deliverable, every published table in
  ``TABLE_IDS`` order.  Dominated by ``renewal.solve`` on n = 40961 grids;
  1c/1d reuse the psi grids that 1a/1b solved, through
  ``tables._psi_cached``, so the order is fixed.
- ``fine_grid``: every ``eval`` quantity on three claim families at three
  grid steps, so solver cost shows its scaling in n, and the O(n) Python
  loops (Erlang ladder density, ``psi_total``) get a real share.
- ``mc_bounds``: Monte Carlo estimates and DK bounds only; no grid solve at
  all, so a renewal-solver change must leave it unchanged while a change to
  the distributions, metrics or oracle layers shows here.
"""

from __future__ import annotations

import math
import os

import numpy as np

import oracles

WORKLOADS = ("tables", "fine_grid", "mc_bounds")

TABLE_IDS = ("1a", "1b", "1c", "1d", "2a", "2b", "2c", "2d", "3", "4", "5")
TABLE_H = 2.0**-10          # the step every built-in table config uses

FAMILIES = ("exp", "hyperexp", "erlang")
FINE_STEPS = (2.0**-8, 2.0**-10, 2.0**-12)
FINE_UMAX = 10.0
FINE_QUANTITIES = ("ruin", "deficit", "ktail", "psit", "iterate")
# k_iterates holds its two routes to a fixed 1e-6 and exits 4 past it; their
# O(h^2) gap exceeds that at h = 2^-8 for about a third of these models and
# reaches 6e-7 at h = 2^-10, so the iterate quantity is asked on the finest grid
ITERATE_MAX_H = 2.0**-12
ITERATE_N = 5

MC_QUANTITIES = ("psi", "deficit", "k_tail", "psi_t")
# MC cost grows like 1/theta (mean ladder count), so theta is fixed per
# request rather than drawn: the pass then costs the same for every seed
MC_THETAS = (0.5, 1.0, 2.0, 4.0)
MC_SAMPLES = 10**6
BOUND_PAIRS = 30
# exp/exp and Erlang(3)/Erlang(3) pairs would be one law twice at equal means
PAIR_FAMILIES = (("erlang", "exp"), ("hyperexp", "exp"), ("erlang", "hyperexp"),
                 ("hyperexp", "hyperexp"))
DK2_YS_PER_PAIR = 3

# toy sizes, for the self-test only
TOY = {"tables": ("2a", "3", "4", "5"), "fine_steps": (2.0**-8, 2.0**-9, 2.0**-10),
       "fine_umax": 2.0, "iterate_max_h": 2.0**-10, "mc_samples": 20_000,
       "bound_pairs": 6}


# -- models -----------------------------------------------------------------

def _claims(rng, family):
    if family == "exp":
        return {"rate": float(rng.uniform(0.5, 2.0))}
    if family == "hyperexp":
        w = float(rng.uniform(0.2, 0.8))
        return {"weights": [w, 1.0 - w],
                "rates": [float(rng.uniform(0.5, 1.5)), float(rng.uniform(2.0, 5.0))]}
    return {"shape": 3, "rate": float(rng.uniform(1.5, 6.0))}


def claim_mean(family, params):
    if family == "exp":
        return 1.0 / params["rate"]
    if family == "hyperexp":
        return sum(w / r for w, r in zip(params["weights"], params["rates"]))
    return params["shape"] / params["rate"]


def claim_rates(family, params):
    return list(params["rates"]) if family == "hyperexp" else [params["rate"]]


def _scale_rates(family, params, factor):
    out = dict(params)
    if family == "hyperexp":
        out["rates"] = [r * factor for r in params["rates"]]
    else:
        out["rate"] = params["rate"] * factor
    return out


def _model(rng, family, theta=None, lam=None):
    """lam, c, claims and D; D is set through b0 = c/D in [0.5, 4]."""
    params = _claims(rng, family)
    if theta is None:
        theta = math.exp(rng.uniform(math.log(0.25), math.log(4.0)))
    if lam is None:
        lam = float(rng.uniform(0.5, 2.0))
    c = (1.0 + theta) * lam * claim_mean(family, params)
    b0 = float(rng.uniform(0.5, 4.0))
    return {"family": family, "params": params, "lam": lam, "c": c, "D": c / b0}


def _model_lines(section, spec):
    p = spec["params"]
    out = [f"[{section}]", f"lambda = {spec['lam']!r}", f"c = {spec['c']!r}"]
    if spec["family"] == "exp":
        out += ["claims = exp", f"rate = {p['rate']!r}"]
    elif spec["family"] == "hyperexp":
        out += ["claims = hyperexp",
                "weights = " + ", ".join(repr(w) for w in p["weights"]),
                "rates = " + ", ".join(repr(r) for r in p["rates"])]
    else:
        out += ["claims = erlang", f"shape = {p['shape']}", f"rate = {p['rate']!r}"]
    return out


def config_text(spec, spec2=None, h=None, umax=None):
    lines = _model_lines("model", spec)
    if spec2 is not None:
        lines += [""] + _model_lines("model2", spec2)
    lines += ["", "[diffusion]", f"D = {spec['D']!r}"]
    if spec2 is not None:
        lines.append(f"D2 = {spec2['D']!r}")
    if h is not None:
        lines += ["", "[numeric]", f"h = {h!r}"]
        if umax is not None:
            lines.append(f"umax = {umax!r}")
    return "\n".join(lines) + "\n"


def _fmt_list(xs):
    return ",".join(repr(float(x)) for x in xs)


# -- workloads --------------------------------------------------------------

class _Writer:
    """Writes config files into the run directory and collects requests."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.requests = []
        self._n = 0

    def config(self, text):
        self._n += 1
        path = os.path.join(self.workdir, f"cfg{self._n:03d}.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def add(self, argv, check, h=None):
        self.requests.append({"argv": argv, "check": check, "h": h})


def _tables(w, rng, toy):
    for tid in (TOY["tables"] if toy else TABLE_IDS):
        w.add(["table", tid], {"kind": "table", "id": tid}, h=TABLE_H)


def _monotone_deficit_y(spec, y, umax):
    """Halve y until the exact G-bar(., y) falls on [0, umax] at a relative
    rate of at least 0.02 everywhere.

    ``deficit_tail`` returns G-bar(., y) as a tail-type grid function, which
    must be nonincreasing, but for some hyperexponential laws G-bar(u, y)
    rises near u = 0 (or is flat enough there for the O(h^2) solver error to
    rise), and ``eval deficit`` then fails with a ValueError.  Until that is
    fixed, the workload asks only for deficits the program can return.
    """
    o = oracles.Model(spec["lam"], spec["c"], spec["family"], spec["params"], spec["D"])
    while True:
        us, v = o.curve("deficit", y, umax, 2001)
        if np.all(np.diff(v) <= -0.02 * v[:-1] * us[1]):
            return y
        y /= 2.0


def _fine_grid(w, rng, toy):
    steps = TOY["fine_steps"] if toy else FINE_STEPS
    umax = TOY["fine_umax"] if toy else FINE_UMAX
    it_max_h = TOY["iterate_max_h"] if toy else ITERATE_MAX_H
    models = {}
    for fam in FAMILIES:
        spec = _model(rng, fam)
        models[fam] = (spec, {
            "us": sorted(float(x) for x in rng.uniform(0.1, umax / 2.0, 4)),
            "y": _monotone_deficit_y(spec, float(rng.uniform(0.1, 2.0)), umax),
            "k0": float(rng.uniform(0.0, 1.0))})
    for h in steps:
        for fam in FAMILIES:
            spec, pts = models[fam]
            cfg = w.config(config_text(spec, h=h, umax=umax))
            u_arg = _fmt_list(pts["us"])
            for q in FINE_QUANTITIES:
                if q == "iterate" and h > it_max_h:
                    continue
                argv = ["eval", q, cfg, "--u", u_arg]
                if q == "deficit":
                    argv += ["--y", repr(pts["y"])]
                if q == "iterate":
                    argv += ["--k0", repr(pts["k0"]), "--n", str(ITERATE_N)]
                w.add(argv, {"kind": "eval", "quantity": q, "model": spec,
                             "h": h, "us": pts["us"], "y": pts["y"],
                             "k0": pts["k0"], "n": ITERATE_N}, h=h)


def _pair(rng, fams):
    """Two models with one intensity, one premium rate and (to 1e-12) one
    claim mean, as in every published table; the claim-law shapes and the
    diffusion coefficients differ.

    Outside that setting the DK1 bound (first-model ML convention) and the
    DK2 bound (unequal means) come out below the realised distance for some
    pairs, which the output check rejects; until that is fixed the workload
    keeps to the setting in which the bounds hold.
    """
    m = _model(rng, fams[0])
    m2 = _model(rng, fams[1], lam=m["lam"])
    mu = claim_mean(m["family"], m["params"])
    mu2 = claim_mean(m2["family"], m2["params"])
    # the second mean sits just below the first, so dk3's mu >= mu~ holds
    # whatever the rounding of each family's mean
    m2["params"] = _scale_rates(m2["family"], m2["params"], mu2 / (mu * (1.0 - 1e-12)))
    m2["c"] = m["c"]
    m["D"], m2["D"] = max(m["D"], m2["D"]), min(m["D"], m2["D"])   # dk3: D >= D~
    return m, m2


def _mc_bounds(w, rng, toy):
    samples = TOY["mc_samples"] if toy else MC_SAMPLES
    for fi, fam in enumerate(FAMILIES):
        for qi, q in enumerate(MC_QUANTITIES):
            spec = _model(rng, fam, theta=MC_THETAS[(fi + qi) % len(MC_THETAS)])
            mu = claim_mean(fam, spec["params"])
            u = float(rng.uniform(0.5, 2.0)) * mu
            y = float(rng.uniform(0.1, 1.0)) * mu
            seed = int(rng.integers(1, 2**31))
            cfg = w.config(config_text(spec))
            argv = ["eval", "mc", cfg, "--quantity", q, "--u", repr(u),
                    "--samples", str(samples), "--seed", str(seed)]
            if q == "deficit":
                argv += ["--y", repr(y)]
            w.add(argv, {"kind": "mc", "quantity": q, "model": spec, "u": u,
                         "y": y, "samples": samples})
    for i in range(TOY["bound_pairs"] if toy else BOUND_PAIRS):
        m, m2 = _pair(rng, PAIR_FAMILIES[i % len(PAIR_FAMILIES)])
        cfg = w.config(config_text(m, m2))
        pair = {"model": m, "model2": m2}
        w.add(["bound", "dk1", cfg, "--gamma", "0"], {"kind": "bound", "bound": "dk1", **pair})
        for y in sorted(rng.uniform(0.0, 2.0, DK2_YS_PER_PAIR)):
            w.add(["bound", "dk2", cfg, "--y", repr(float(y))],
                  {"kind": "bound", "bound": "dk2", "y": float(y), **pair})
        w.add(["bound", "dk3", cfg], {"kind": "bound", "bound": "dk3", **pair})


_BUILDERS = {"tables": _tables, "fine_grid": _fine_grid, "mc_bounds": _mc_bounds}


def build(workload: str, seed: int, workdir: str, toy: bool = False) -> list:
    """Write the workload's configs into ``workdir`` and return its requests."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, WORKLOADS.index(workload))))
    w = _Writer(workdir)
    _BUILDERS[workload](w, rng, toy)
    return w.requests
