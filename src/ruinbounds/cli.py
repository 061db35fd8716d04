"""Command line interface.

    ruinbounds table ID                   reproduce a published table as CSV
    ruinbounds bound KIND CONFIG [...]    evaluate one continuity bound
    ruinbounds eval QUANTITY CONFIG [...] evaluate model quantities as CSV

QUANTITY is a name of ``oracle._QUANTITIES`` (ruin, deficit, ktail, psit,
iterate), or mc with ``--quantity`` one of the first four; psi, k_tail and
psi_t are aliases of ruin, ktail and psit.

Exit codes: 0 success, 2 usage or config parse error, 3 mathematical
precondition violated, 4 a table cell graded MISMATCH or a tail that has not
decayed enough (TruncationError).
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import io
import math
import sys

from . import bounds as bounds_mod
from . import config as config_mod
from . import _parallel, oracle, tables
from .classical import ruin_probability
from .diffusion import PerturbedModel
from .errors import PreconditionError, TruncationError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_NUMERICAL = 4

# glibc's mallopt parameters (malloc.h) and the values a command runs under:
# one arena, so that malloc_trim reaches the worker threads' memory too, and
# thresholds that keep freed pages mapped instead of handing them back to
# the kernel and faulting them in again on the next solve, or in the next
# command of the same process.  32 MiB is the mmap threshold's documented
# ceiling on 64-bit hosts, the most glibc's own dynamic threshold reaches.
_MALLOC_OPTIONS = ((-8, 1),            # M_ARENA_MAX
                   (-1, 2**30),        # M_TRIM_THRESHOLD
                   (-3, 32 * 2**20))   # M_MMAP_THRESHOLD


def _glibc_malloc():
    """The C library's handle if it has ``mallopt`` and ``malloc_trim``.

    None on other C libraries (macOS, Windows, musl), where a command runs
    under the allocator's defaults.
    """
    try:
        libc = ctypes.CDLL(None)
        mallopt, malloc_trim = libc.mallopt, libc.malloc_trim
    except (OSError, TypeError, AttributeError):
        return None
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    malloc_trim.argtypes, malloc_trim.restype = (ctypes.c_size_t,), ctypes.c_int
    return libc


_LIBC = _glibc_malloc()


def _fmt(v) -> str:
    return f"{v:.7g}"


def _write_csv(rows, header, comments=()):
    buf = io.StringIO()
    for c in comments:
        buf.write(f"# {c}\r\n")
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _at_least(cast, low):
    """argparse type: ``cast(text)``, refused below ``low``."""
    def parse(text):
        value = cast(text)
        if not value >= low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {text!r}")
        return value
    parse.__name__ = cast.__name__      # argparse names the type in errors
    return parse


_nonnegative = _at_least(float, 0.0)
_positive_int = _at_least(int, 1)
_MAX_U_POINTS = 10**6


def _parse_u_values(spec: str):
    """Accept '1.5', '0,1,2' or 'start:stop:step'; every u must be >= 0.

    A range holds the points start + i*step up to stop, at least one and at
    most ``_MAX_U_POINTS`` of them.
    """
    if ":" in spec:
        parts = [_nonnegative(x) for x in spec.split(":")]
        if len(parts) != 3 or not 0 < parts[2] < math.inf:
            raise argparse.ArgumentTypeError("u range must be start:stop:step")
        start, stop, step = parts
        count = (stop - start + 1e-12) // step + 1
        if not 1 <= count <= _MAX_U_POINTS:
            raise argparse.ArgumentTypeError(
                f"u range {spec!r} must hold 1 to {_MAX_U_POINTS} points")
        return [round(start + i * step, 12) for i in range(int(count))]
    return [_nonnegative(x) for x in spec.split(",")]


def cmd_table(args) -> int:
    result = tables.run_table(args.id)
    rows = [(result.table_id, r.inputs, r.quantity, _fmt(r.computed),
             _fmt(r.paper), _fmt(r.deviation), r.flag, r.note)
            for r in result.rows]
    sys.stdout.write(_write_csv(
        rows, ("table", "inputs", "quantity", "computed", "paper",
               "abs_deviation", "flag", "note"),
        comments=result.comments))
    return EXIT_OK if result.all_match else EXIT_NUMERICAL


def cmd_bound(args) -> int:
    cfg = config_mod.load(args.config)
    if cfg.model2 is None:
        raise config_mod.ConfigError("bound evaluation needs a [model2] section")
    if args.kind == "dk1":
        psi = psi_tilde = None      # ML_0 is closed form: nothing to solve
        if args.gamma > 0:      # on the config's grid, refused if one node
            psi, psi_tilde = (
                ruin_probability(m, cfg.numeric.h, _grid_end(cfg, m))
                for m in (cfg.model, cfg.model2))
        rep = bounds_mod.dk1(cfg.model, cfg.model2, args.gamma, psi, psi_tilde)
    elif args.kind == "dk2":
        rep = bounds_mod.dk2(cfg.model, cfg.model2, y=args.y)
    else:
        if cfg.D is None or cfg.D2 is None:
            raise config_mod.ConfigError("dk3 needs D and D2 in [diffusion]")
        rep = bounds_mod.dk3(PerturbedModel(cfg.model, cfg.D),
                             PerturbedModel(cfg.model2, cfg.D2))
    names = sorted(rep.components)
    header = ["kind", "value", "contraction_modulus"] + names
    row = [rep.kind, _fmt(rep.value), _fmt(rep.contraction_modulus)] + \
        [_fmt(rep.components[k]) for k in names]
    sys.stdout.write(_write_csv([row], header,
                                comments=rep.convention_notes))
    return EXIT_OK


def _grid_end(cfg, model, u=None) -> float:
    """End of the config's grid (``umax``, or the default end of the
    model's ladder), after refusing a grid of fewer than two nodes.

    Given the largest ``u`` that ``eval`` asks for, a u past that end is
    refused too, and the grid stops one node past the first node at or past
    u.  The renewal equation is causal, its value at u depending only on
    the kernel and forcing on [0, u], so the values up to there are those
    of the full grid.
    """
    h, end = cfg.numeric.h, cfg.numeric.umax
    if end is None:
        end = model.ladder.default_end()
    n = int(round(end / h))
    if n < 1:
        raise config_mod.ConfigError(f"umax = {end:g} at h = {h:g} gives a "
                                     f"grid of one node, not two; raise "
                                     f"umax or lower h in [numeric]")
    if u is None:
        return n * h
    if u > n * h + 1e-12:
        raise config_mod.ConfigError(f"u = {u:g} lies past the grid end "
                                     f"{n * h:g}; raise umax in [numeric]")
    return min(n, math.ceil(u / h) + 1) * h


def cmd_eval(args) -> int:
    cfg = config_mod.load(args.config)
    mc = args.quantity == "mc"
    name = args.mc_quantity if mc else args.quantity
    quantity, model = oracle._QUANTITIES[name], cfg.model
    if quantity.model is PerturbedModel:
        if cfg.D is None:
            raise config_mod.ConfigError(f"{name} needs D in [diffusion]")
        model = PerturbedModel(model, cfg.D)
    if not mc:
        g = quantity.grid(model, args, cfg.numeric.h,
                          _grid_end(cfg, model, max(args.u)))
        rows = zip(map(_fmt, args.u), map(_fmt, g(args.u)))
        sys.stdout.write(_write_csv(rows, ("u", "value")))
        return EXIT_OK
    seed = args.seed if args.seed is not None else cfg.numeric.seed
    out = oracle.estimates(model, name, args.u, args.samples, seed, y=args.y)
    rows = [(_fmt(u), _fmt(e.estimate), _fmt(e.standard_error))
            for u, e in zip(args.u, out)]
    # no hit in n paths: p <= 1 - 0.05^(1/n), about 3/n, at 95% confidence
    # (Hanley & Lippman-Hand, JAMA 249(13), 1983)
    top = _fmt(-math.expm1(math.log(0.05) / args.samples))
    sys.stdout.write(_write_csv(rows, ("u", "value", "se"), [
        f"u = {_fmt(u)}: no hit in {args.samples} paths; one-sided 95% "
        f"upper bound {top}" for u, e in zip(args.u, out) if e.estimate == 0]))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ruinbounds",
        description="Ruin probabilities and continuity bounds for the "
                    "classical risk model, with published-table reproduction.")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("table", help="reproduce a published table as CSV")
    t.add_argument("id", choices=tables.TABLE_IDS)
    t.set_defaults(func=cmd_table)

    b = sub.add_parser("bound", help="evaluate a continuity bound")
    b.add_argument("kind", choices=("dk1", "dk2", "dk3"))
    b.add_argument("config", help="path to a config file with two models")
    b.add_argument("--gamma", type=_nonnegative, default=0.0)
    b.add_argument("--y", type=_nonnegative, default=0.0)
    b.set_defaults(func=cmd_bound)

    aliases = "aliases: " + ", ".join(f"{a} for {q}"
                                      for a, q in oracle._ALIASES.items())
    e = sub.add_parser("eval", help="evaluate model quantities")
    e.add_argument("quantity", type=oracle._canonical,
                   choices=(*oracle._QUANTITIES, "mc"), help=aliases)
    e.add_argument("config")
    e.add_argument("--u", type=_parse_u_values, default="0",
                   help="point, comma list or start:stop:step")
    e.add_argument("--y", type=_nonnegative, default=0.0)
    e.add_argument("--n", type=_positive_int, default=5, help="iteration count")
    e.add_argument("--k0", type=float, default=0.0, help="starting constant")
    e.add_argument("--samples", type=_positive_int, default=100_000)
    e.add_argument("--seed", type=_at_least(int, 0), default=None)
    e.add_argument("--quantity", dest="mc_quantity", default="ruin",
                   type=oracle._canonical, choices=oracle._SAMPLED,
                   help=f"quantity for mc estimation; {aliases}")
    e.set_defaults(func=cmd_eval)
    return p


def main(argv=None) -> int:
    """Run one command.  The heap it freed stays mapped for the next command
    in the same process, unless it fanned out over the CPUs: then the heap
    goes back to the system on return, however the command returns."""
    libc, fan_outs = _LIBC, _parallel.fan_outs
    if libc is not None:
        for param, value in _MALLOC_OPTIONS:
            libc.mallopt(param, value)
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except config_mod.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except TruncationError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    finally:
        if libc is not None and _parallel.fan_outs != fan_outs:
            libc.malloc_trim(0)


if __name__ == "__main__":
    sys.exit(main())
