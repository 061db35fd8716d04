"""Flat config-file format for the command line tool.

Sections ``[model]``, ``[model2]``, ``[diffusion]``, ``[numeric]``; one
``key = value`` per line; ``#`` starts a comment.  Claim laws are selected
by ``claims = exp | hyperexp | erlang`` with ``rate``, ``rates`` +
``weights`` (comma separated) or ``shape`` + ``rate``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

from .classical import RiskModel
from .distributions import Erlang, Exponential, HyperExponential
from .renewal import DEFAULT_H

__all__ = ["NumericSpec", "ModelConfig", "ConfigError", "loads", "load"]

_SECTIONS = ("model", "model2", "diffusion", "numeric")
_MODEL_KEYS = {"lambda", "c", "claims", "rate", "rates", "weights", "shape"}
_DIFFUSION_KEYS = {"d", "d2"}
_NUMERIC_KEYS = {"h", "umax", "seed"}


class ConfigError(ValueError):
    """Malformed config file; carries the offending line number."""

    def __init__(self, message, line=None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


@dataclass(frozen=True)
class NumericSpec:
    h: float = DEFAULT_H
    umax: float | None = None
    seed: int = 1


@dataclass(frozen=True)
class ModelConfig:
    model: RiskModel
    model2: RiskModel | None = None
    D: float | None = None
    D2: float | None = None
    numeric: NumericSpec = field(default_factory=NumericSpec)


def _number(text, line, cast=float, positive=True):
    """``text`` as a finite positive (or, if not ``positive``, nonnegative)
    number; a ConfigError at ``line`` if it is not."""
    try:
        value = cast(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and (value > 0 or (not positive and value == 0))):
        sign = "positive" if positive else "nonnegative"
        raise ConfigError(f"expected a {sign} number, got {text.strip()!r}", line)
    return value


def _build_claims(keys, line_of):
    kind = keys.get("claims")
    if kind is None:
        raise ConfigError("missing 'claims' key", line_of.get("claims"))
    if kind == "exp":
        if "rate" not in keys:
            raise ConfigError("exp claims need 'rate'", line_of.get("claims"))
        return Exponential(_number(keys["rate"], line_of["rate"]))
    if kind == "hyperexp":
        for need in ("weights", "rates"):
            if need not in keys:
                raise ConfigError(f"hyperexp claims need '{need}'",
                                  line_of.get("claims"))
        weights = [_number(x, line_of["weights"], positive=False)
                   for x in keys["weights"].split(",")]
        rates = [_number(x, line_of["rates"]) for x in keys["rates"].split(",")]
        if len(weights) != len(rates):
            raise ConfigError(f"{len(weights)} weights for {len(rates)} rates",
                              line_of["weights"])
        s = sum(weights)
        if abs(s - 1.0) > 1e-9:
            raise ConfigError(f"weights sum to {s!r}, not 1",
                              line_of["weights"])
        if abs(s - 1.0) > 1e-12:
            warnings.warn(f"hyperexp weights sum to {s!r}; renormalizing")
        return HyperExponential(weights, rates)
    if kind == "erlang":
        for need in ("shape", "rate"):
            if need not in keys:
                raise ConfigError(f"erlang claims need '{need}'",
                                  line_of.get("claims"))
        return Erlang(_number(keys["shape"], line_of["shape"], int),
                      _number(keys["rate"], line_of["rate"]))
    raise ConfigError(f"unknown claims kind {kind!r} (exp|hyperexp|erlang)",
                      line_of.get("claims"))


def _build_model(keys, line_of):
    for need in ("lambda", "c"):
        if need not in keys:
            raise ConfigError(f"model section needs '{need}'",
                              min(line_of.values()) if line_of else None)
    return RiskModel(lam=_number(keys["lambda"], line_of["lambda"]),
                     c=_number(keys["c"], line_of["c"]),
                     claims=_build_claims(keys, line_of))


def loads(text: str) -> ModelConfig:
    """Parse a config document; raises ConfigError with a line number on
    syntax problems, PreconditionError on model-level violations."""
    sections = {}
    lines_of = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in _SECTIONS:
                raise ConfigError(f"unknown section [{name}]", lineno)
            if name in sections:
                raise ConfigError(f"duplicate section [{name}]", lineno)
            current = name
            sections[name] = {}
            lines_of[name] = {}
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", lineno)
        if current is None:
            raise ConfigError("key outside any section", lineno)
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        allowed = (_MODEL_KEYS if current in ("model", "model2")
                   else _DIFFUSION_KEYS if current == "diffusion"
                   else _NUMERIC_KEYS)
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in [{current}]", lineno)
        if key in sections[current]:
            raise ConfigError(f"duplicate key {key!r}", lineno)
        sections[current][key] = value
        lines_of[current][key] = lineno

    if "model" not in sections:
        raise ConfigError("missing required section [model]")
    model = _build_model(sections["model"], lines_of["model"])
    model2 = None
    if "model2" in sections:
        model2 = _build_model(sections["model2"], lines_of["model2"])

    D = D2 = None
    if "diffusion" in sections:
        diff, line_of = sections["diffusion"], lines_of["diffusion"]
        if "d" in diff:
            D = _number(diff["d"], line_of["d"])
        if "d2" in diff:
            D2 = _number(diff["d2"], line_of["d2"])

    numeric = NumericSpec()
    if "numeric" in sections:
        num, line_of = sections["numeric"], lines_of["numeric"]
        kwargs = {}
        if "h" in num:
            kwargs["h"] = _number(num["h"], line_of["h"])
        if "umax" in num:
            kwargs["umax"] = _number(num["umax"], line_of["umax"])
        if "seed" in num:
            kwargs["seed"] = _number(num["seed"], line_of["seed"], int,
                                     positive=False)
        numeric = NumericSpec(**kwargs)

    return ModelConfig(model=model, model2=model2, D=D, D2=D2, numeric=numeric)


def load(path) -> ModelConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())
