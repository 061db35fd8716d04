"""Span recorder for the traced run, and the per-layer numbers derived from it.

``Recorder.install`` replaces every public function of the package's
modules at each name a caller looks it up by: ``classical.solve`` and
``diffusion.solve`` are separate bindings of ``renewal.solve`` and each gets
its own wrapper, both recording spans named ``renewal.solve``.  Public
methods of the claim-distribution classes are wrapped on their class as
``distributions.<method>``.  Spans are kept in flat in-memory arrays (index,
parent index, start, end, one numeric attribute, raised-or-not) and written
out once at the end of the pass; the parent process derives self time
(span minus its child spans), counts and ratios from them.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from array import array

import numpy as np

MODULES = ("renewal", "classical", "diffusion", "distributions", "metrics",
           "bounds", "oracle", "tables", "cli", "config")


def _solve_nodes(args, kwargs):
    p = args[0] if args else kwargs["problem"]
    return int(round(p.u_max / p.h)) + 1


def _samples(args, kwargs):
    return args[3] if len(args) > 3 else kwargs["n_samples"]


def _table_index(args, kwargs):
    from ruinbounds.tables import TABLE_IDS
    return TABLE_IDS.index(args[0] if args else kwargs["table_id"])


# one number recorded per span, where the layer metrics need one
ATTRS = {"renewal.solve": _solve_nodes, "oracle.estimate": _samples,
         "tables.run_table": _table_index}


class Recorder:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.attr = array("d")
        self.raised = array("b")
        self._stack = [-1]

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name):
        nid = self._name_id(name)
        attr_fn = ATTRS.get(name)
        stack, clock = self._stack, time.perf_counter
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        attrs, raised = self.attr, self.raised

        @functools.wraps(fn)
        def span(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            attrs.append(attr_fn(args, kwargs) if attr_fn is not None else 0.0)
            raised.append(0)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[i] = 1
                raise
            finally:
                ends[i] = clock()
                stack.pop()

        return span

    def install(self):
        """Wrap every public function binding in the package's modules."""
        for modname in MODULES:
            mod = importlib.import_module(f"ruinbounds.{modname}")
            for key, val in list(vars(mod).items()):
                if key.startswith("_"):
                    continue
                if isinstance(val, types.FunctionType) and val.__module__.startswith("ruinbounds."):
                    origin = val.__module__.split(".", 1)[1]
                    setattr(mod, key, self.wrap(val, f"{origin}.{val.__name__}"))
        from ruinbounds import distributions
        for cls in vars(distributions).values():
            if isinstance(cls, type) and issubclass(cls, distributions.ClaimDistribution):
                for key, val in list(vars(cls).items()):
                    if not key.startswith("_") and isinstance(val, types.FunctionType):
                        setattr(cls, key, self.wrap(val, f"distributions.{key}"))

    def write(self, prefix):
        """Write the span arrays to PREFIX.bin; return the file's layout."""
        fields = []
        with open(prefix + ".bin", "wb") as fh:
            for field in ("name", "parent", "start", "end", "attr", "raised"):
                arr = getattr(self, field)
                arr.tofile(fh)
                fields.append([field, arr.typecode, arr.itemsize])
        return {"file": prefix + ".bin", "count": len(self.start),
                "names": self.names, "fields": fields}


# -- analysis, in the parent process ------------------------------------------

def load(layout):
    n = layout["count"]
    out = {"names": layout["names"]}
    dtypes = {"i": np.int32, "d": np.float64, "b": np.int8}
    with open(layout["file"], "rb") as fh:
        for field, code, size in layout["fields"]:
            dt = np.dtype(dtypes[code])
            if dt.itemsize != size:
                raise ValueError(f"span field {field}: item size {size} != {dt.itemsize}")
            out[field] = np.fromfile(fh, dtype=dt, count=n)
    return out


def _under(parent, mask):
    """For each span: does any ancestor satisfy mask?"""
    result = np.zeros(len(parent), dtype=bool)
    anc = parent.astype(np.int64)
    while True:
        live = anc >= 0
        if not live.any():
            return result
        result[live] |= mask[anc[live]]
        anc[live] = parent[anc[live]]


def layer_metrics(sp, request_h):
    """Per-layer numbers of one traced pass, keyed by metric name, and the
    functions with the most self time."""
    from ruinbounds.tables import TABLE_IDS
    names = np.array(sp["names"], dtype=object)
    nid = {n: i for i, n in enumerate(sp["names"])}
    name, parent = sp["name"], sp["parent"].astype(np.int64)
    dur = sp["end"] - sp["start"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_t = dur - child
    module = np.array([n.split(".", 1)[0] for n in names], dtype=object)[name]

    def is_(fn):
        return name == nid.get(fn, -1)

    def total(values, mask):
        return float(values[mask].sum())

    m = {}
    solve = is_("renewal.solve")
    nodes = sp["attr"][solve]
    m["renewal.solve.calls"] = int(solve.sum())
    m["renewal.solve.nodes"] = int(nodes.sum())
    m["renewal.solve.self_s"] = total(self_t, solve)
    m["renewal.solve.nodes_per_s"] = (float(nodes.sum()) / m["renewal.solve.self_s"]
                                      if m["renewal.solve.self_s"] > 0 else 0.0)
    m["renewal.solve.scaling_exp"] = _scaling_exponent(nodes, self_t[solve])
    m["renewal.iterate.self_s"] = total(self_t, is_("renewal.iterate"))
    conv = is_("renewal.trapezoid_convolution")
    m["renewal.trapezoid_convolution.calls"] = int(conv.sum())
    m["renewal.trapezoid_convolution.self_s"] = total(self_t, conv)

    m["classical.ruin_probability.calls"] = int(is_("classical.ruin_probability").sum())
    m["classical.deficit_tail_family.calls"] = int(is_("classical.deficit_tail_family").sum())
    m["classical.self_s"] = total(self_t, module == "classical")
    m["bounds.dk1.solves"] = int((solve & _under(parent, is_("bounds.dk1"))).sum())

    for fn in ("k_tail", "psi_total", "k_iterates"):
        m[f"diffusion.{fn}.self_s"] = total(self_t, is_(f"diffusion.{fn}"))

    m["distributions.self_s"] = total(self_t, module == "distributions")
    tail = is_("distributions.tail")
    m["distributions.tail.calls"] = int(tail.sum())
    m["distributions.sample.s"] = total(dur, is_("distributions.sample"))

    for fn in ("nu_gamma", "q_y", "kantorovich", "sup_distance", "tail_crossings"):
        m[f"metrics.{fn}.self_s"] = total(self_t, is_(f"metrics.{fn}"))
    m["metrics.tail_evals"] = int((tail & _under(parent, module == "metrics")).sum())

    for fn in ("dk1", "dk2", "dk3"):
        m[f"bounds.{fn}.calls"] = int(is_(f"bounds.{fn}").sum())
        m[f"bounds.{fn}.self_s"] = total(self_t, is_(f"bounds.{fn}"))

    est = is_("oracle.estimate")
    m["oracle.estimate.self_s"] = total(self_t, est)
    est_s = total(dur, est)
    m["oracle.samples_per_s"] = float(sp["attr"][est].sum()) / est_s if est_s > 0 else 0.0

    run_table = is_("tables.run_table")
    for i, tid in enumerate(TABLE_IDS):
        m[f"tables.run_table.{tid}.s"] = total(dur, run_table & (sp["attr"] == i))

    m["cli.self_s"] = total(self_t, module == "cli")
    m["config.load.s"] = total(dur, is_("config.load"))
    for mod in MODULES:
        m[f"{mod}.errors"] = int((sp["raised"].astype(bool) & (module == mod)).sum())

    # shares of request time: the solver's, overall and on the workload's
    # finest grid, and the bounds'; each request is one root cli.main span
    roots = np.nonzero(is_("cli.main") & ~has_parent)[0]
    req = np.searchsorted(roots, np.arange(len(dur)), side="right") - 1
    req_h = np.array([np.nan if h is None else h for h in request_h])
    req_time = dur[roots]
    busy = req_time.sum()
    m["renewal.solve.share"] = m["renewal.solve.self_s"] / busy if busy > 0 else 0.0
    dk = is_("bounds.dk1") | is_("bounds.dk2") | is_("bounds.dk3")
    m["bounds.share"] = total(dur, dk) / busy if busy > 0 else 0.0
    finest = np.zeros(len(roots), dtype=bool)
    if len(roots) == len(req_h) and np.isfinite(req_h).any():
        finest = req_h == np.nanmin(req_h)
    in_finest = (req >= 0) & finest[np.clip(req, 0, None)]
    fin_time = req_time[finest].sum()
    m["renewal.solve.share_finest"] = (total(self_t, solve & in_finest) / fin_time
                                       if fin_time > 0 else 0.0)
    return m, _top_self(names[name], self_t, in_finest)


def _scaling_exponent(nodes, self_t):
    """Log-log slope of self time per solve between the two largest grids."""
    sizes = np.unique(nodes)
    if len(sizes) < 2:
        return 0.0
    n1, n2 = sizes[-2], sizes[-1]
    t1 = float(np.median(self_t[nodes == n1]))
    t2 = float(np.median(self_t[nodes == n2]))
    if t1 <= 0 or t2 <= 0:
        return 0.0
    return float(np.log(t2 / t1) / np.log(n2 / n1))


def _top_self(span_names, self_t, in_finest, k=8):
    """The k functions with most self time, overall and on the finest grid."""
    out = {}
    for label, mask in (("all", np.ones(len(self_t), dtype=bool)), ("finest_h", in_finest)):
        uniq, inv = np.unique(span_names[mask], return_inverse=True)
        sums = np.bincount(inv, weights=self_t[mask], minlength=len(uniq))
        order = np.argsort(-sums)[:k]
        out[label] = [[str(uniq[i]), float(sums[i])] for i in order]
    return out

