"""Flat config-file format for the command line tool.

Sections ``[model]``, ``[model2]``, ``[diffusion]``, ``[numeric]``; one
``key = value`` per line; ``#`` starts a comment.  ``_KEYS`` lists the keys
of each section with the reader that parses and checks a value on the line
it is read from, so a malformed value is reported at its own line.  Claim
laws are selected by ``claims = exp | hyperexp | erlang``; each family
needs exactly its keys of ``_FAMILIES`` (``rate``; comma separated
``weights`` and ``rates``; ``shape`` and ``rate``) and refuses the others.
"""

from __future__ import annotations

import math
import warnings
from functools import partial
from typing import NamedTuple

from .classical import RiskModel
from .distributions import ClaimDistribution
from .renewal import DEFAULT_H

__all__ = ["NumericSpec", "ModelConfig", "ConfigError", "loads", "load"]

# the claim keys each family reads: it needs all of them and takes no other
_FAMILIES = {"exp": ("rate",), "hyperexp": ("weights", "rates"),
             "erlang": ("shape", "rate")}


class ConfigError(ValueError):
    """Malformed config file; carries the offending line number."""

    def __init__(self, message, line=None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


class NumericSpec(NamedTuple):
    h: float = DEFAULT_H
    umax: float | None = None
    seed: int = 1


class ModelConfig(NamedTuple):
    model: RiskModel
    model2: RiskModel | None = None
    D: float | None = None
    D2: float | None = None
    numeric: NumericSpec = NumericSpec()


def _number(text, line, cast=float, positive=True, below=math.inf):
    """``text`` as a positive (or, if not ``positive``, nonnegative) number
    less than ``below``; a ConfigError at ``line`` if it is not.  An int is
    compared as it is, never converted to float, so it may have any size."""
    try:
        value = cast(text)
    except ValueError:
        value = math.nan
    if not (value < below and (value > 0 or (not positive and value == 0))):
        sign = "positive" if positive else "nonnegative"
        bound = f" below {below:.4g}" if below < math.inf else ""
        raise ConfigError(f"expected a {sign} number{bound}, got {text.strip()!r}",
                          line)
    return value


def _family(text, line):
    if text not in _FAMILIES:
        raise ConfigError(f"unknown claims kind {text!r} ({'|'.join(_FAMILIES)})",
                          line)
    return text


def _rates(text, line):
    return [_number(x, line) for x in text.split(",")]


def _weights(text, line):
    weights = [_number(x, line, positive=False) for x in text.split(",")]
    s = sum(weights)
    if abs(s - 1.0) > 1e-9:
        raise ConfigError(f"weights sum to {s!r}, not 1", line)
    if abs(s - 1.0) > 1e-12:
        warnings.warn(f"hyperexp weights sum to {s!r}; renormalizing")
    return weights


_KEYS = {section: {"lambda": _number, "c": _number, "claims": _family,
                   "rate": _number, "rates": _rates, "weights": _weights,
                   "shape": partial(_number, cast=int, below=2**63)}
         for section in ("model", "model2")} | {
    "diffusion": {"d": _number, "d2": _number},
    "numeric": {"h": _number, "umax": _number,
                "seed": partial(_number, cast=int, positive=False)}}


def _build_model(keys, line_of):
    for need in ("lambda", "c", "claims"):
        if need not in keys:
            raise ConfigError(f"model section needs '{need}'",
                              min(line_of.values(), default=None))
    kind = keys["claims"]
    for key in keys:
        if key not in ("lambda", "c", "claims", *_FAMILIES[kind]):
            raise ConfigError(f"{kind} claims take no '{key}'", line_of[key])
    for need in _FAMILIES[kind]:
        if need not in keys:
            raise ConfigError(f"{kind} claims need '{need}'", line_of["claims"])
    weights, rates = keys.get("weights"), keys.get("rates") or [keys["rate"]]
    if weights is not None and len(weights) != len(rates):
        raise ConfigError(f"{len(weights)} weights for {len(rates)} rates",
                          line_of["weights"])
    claims = ClaimDistribution(weights or [1.0],
                               [keys.get("shape", 1)] * len(rates), rates)
    return RiskModel(lam=keys["lambda"], c=keys["c"], claims=claims)


def loads(text: str) -> ModelConfig:
    """Parse a config document; raises ConfigError with a line number on
    syntax problems and malformed values, PreconditionError on model-level
    violations."""
    sections, lines_of, current = {}, {}, None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if current not in _KEYS:
                raise ConfigError(f"unknown section [{current}]", lineno)
            if current in sections:
                raise ConfigError(f"duplicate section [{current}]", lineno)
            sections[current], lines_of[current] = {}, {}
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", lineno)
        if current is None:
            raise ConfigError("key outside any section", lineno)
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if key not in _KEYS[current]:
            raise ConfigError(f"unknown key {key!r} in [{current}]", lineno)
        if key in sections[current]:
            raise ConfigError(f"duplicate key {key!r}", lineno)
        sections[current][key] = _KEYS[current][key](value.strip(), lineno)
        lines_of[current][key] = lineno

    if "model" not in sections:
        raise ConfigError("missing required section [model]")
    model, model2 = (_build_model(sections[s], lines_of[s]) if s in sections
                     else None for s in ("model", "model2"))
    diffusion = sections.get("diffusion", {})
    return ModelConfig(model=model, model2=model2, D=diffusion.get("d"),
                       D2=diffusion.get("d2"),
                       numeric=NumericSpec(**sections.get("numeric", {})))


def load(path) -> ModelConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())
