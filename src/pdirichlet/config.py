"""Run configuration: flat key=value files, defaults, validation.

One format serves config files, artifact sidecars, and manifests: one
`key=value` per line, `#` starts a comment, blank lines are ignored, no
nesting or sections. Parsing validates every field against the consuming
module's preconditions immediately, names the offending key in the error,
and rejects unknown keys. Serializing a config writes every field back out
(defaults included, so no value is ever applied silently), and re-parsing
the result reproduces the config exactly.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields

from .density import _DENSITIES
from .errors import ConfigError
from .graph import default_epsilon

SUBCOMMANDS = (
    "sample",
    "density",
    "solve-discrete",
    "solve-continuum",
    "study-density",
    "study-minimizers",
)
# subcommands whose pipeline runs the continuum solver, where p > d = 2 applies
_CONTINUUM = ("solve-continuum", "study-minimizers")
# subcommands whose pipeline builds a graph on the cloud
_GRAPH = ("solve-discrete", "study-minimizers")
# memory bounds, from measured peaks (2-core VM, Python 3.11, numpy 2.4,
# scipy 1.17): a cloud costs up to about 240 bytes per point (`density`
# at n = 2^20 peaks at 0.25 GB); the spline fit's normal-matrix LU peaks at
# 0.22 / 0.71 GB for T = 16384 / 65536 and grows about 3.2x per 4x in T; a
# graph solve peaks at up to 80 bytes per edge over a 100 MB base, so 12M
# edges fit in about 1.06 GB (`solve-discrete --density rho2 --p 3` at
# n = 134116, the largest n accepted there, has 11.6M edges and peaks at
# 0.84 GB)
_MAX_POINTS = 2**20
_MAX_KNOTS = 2**16
_MAX_EDGES = 12.0e6
# the expected edge count of an epsilon-graph on n points of density rho is
# about n^2 / 2 * pi eps^2 * (integral of rho^2), which is at most this for
# the reference densities (1 for rho1, 1.24 for rho2, 1.21 for rho3)
_RHO_SQUARED = 1.25


@dataclass(frozen=True)
class RunConfig:
    """Validated settings for one CLI run.

    Defaults follow the reference parameter set: p = 3, h = 0.01, T = 2^12
    spline knots, lambda = 1e-6, tol = 1e-5, and 100 collocation
    points per patch (10 per dimension). `epsilon` and `k` are the two
    mutually exclusive graph-scale choices; leaving both unset picks the
    sample-count-based scale at run time.
    """

    subcommand: str
    density: str = "rho1"
    n: int = 4096
    h: float = 0.01
    T: int = 4096
    lam: float = 1.0e-6
    p: float = 3.0
    epsilon: float | None = None
    k: int | None = None
    tol: float = 1.0e-5
    seed: int = 1
    out: str = "."
    mesh: int = 512
    points_per_patch: int = 10
    svg: bool = False


# config-file key -> (dataclass field, parser, description of accepted values)
_KEYS = {
    "subcommand": ("subcommand", str, "one of " + ", ".join(SUBCOMMANDS)),
    "density": ("density", str, "one of " + ", ".join(_DENSITIES)),
    "n": ("n", int, f"integer >= 1 with at most {_MAX_POINTS} points per cloud "
          "(studies draw 4n)"),
    "h": ("h", float, "real > 0"),
    "T": ("T", int, f"perfect square in [16, {_MAX_KNOTS}]"),
    "lambda": ("lam", float, "real > 0"),
    "p": ("p", float, "real >= 1 (> 2 for the continuum solver)"),
    "epsilon": ("epsilon", float, "real > 0"),
    "k": ("k", int, "integer >= 1"),
    "tol": ("tol", float, "real > 0"),
    "seed": ("seed", int, "integer >= 0"),
    "out": ("out", str, "output directory"),
    "mesh": ("mesh", int, "integer in [4, 1536]"),
    "points_per_patch": ("points_per_patch", int, "integer in [4, 40]"),
    "svg": ("svg", None, "true or false"),
}
_FIELD_TO_KEY = {field: key for key, (field, _, _) in _KEYS.items()}


def _parse_bool(key: str, raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ConfigError(f"config key '{key}' expects true or false, got {raw!r}")


def _convert(key: str, raw) -> object:
    field, caster, expected = _KEYS[key]
    if caster is None:
        return raw if isinstance(raw, bool) else _parse_bool(key, str(raw))
    if caster is not str and isinstance(raw, str) and raw.strip().lower() == "none":
        return None
    try:
        value = caster(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"config key '{key}' expects {expected}, got {raw!r}") from None
    if caster is int and isinstance(raw, str) and not raw.strip().lstrip("+-").isdigit():
        raise ConfigError(f"config key '{key}' expects {expected}, got {raw!r}")
    return value


def _fail(key: str, value) -> ConfigError:
    return ConfigError(f"config key '{key}' = {value!r} out of range; expected {_KEYS[key][2]}")


def validate(config: RunConfig) -> RunConfig:
    """Check every field against the consuming modules' preconditions."""
    c = config
    if c.subcommand not in SUBCOMMANDS:
        raise _fail("subcommand", c.subcommand)
    if c.density not in _DENSITIES:
        raise _fail("density", c.density)
    # studies sweep n/4, n, 4n
    points = 4 * c.n if c.subcommand.startswith("study-") else c.n
    if not 1 <= points <= _MAX_POINTS:
        raise _fail("n", c.n)
    # nan fails every comparison and inf passes every lower bound, so the
    # range checks below cannot catch them
    for key in ("h", "lambda", "p", "epsilon", "tol"):
        value = getattr(c, _KEYS[key][0])
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"config key '{key}' = {value!r} rejected; expected a finite real")
    if not (c.h > 0.0):
        raise _fail("h", c.h)
    g = int(round(math.sqrt(c.T)))
    if g * g != c.T or not 16 <= c.T <= _MAX_KNOTS:
        raise _fail("T", c.T)
    if not (c.lam > 0.0):
        raise ConfigError(f"config key 'lambda' = {c.lam!r} rejected; the penalty weight is > 0")
    if c.p < 1.0:
        raise _fail("p", c.p)
    # both continuum pipelines pin isolated points, which have zero capacity
    # (and the energy no minimizer taking their values) unless p > d = 2
    if c.subcommand in _CONTINUUM and c.p <= 2.0:
        raise ConfigError(
            f"config key 'p' = {c.p!r} rejected for {c.subcommand}: p > d = 2 required"
        )
    if c.epsilon is not None and not (c.epsilon > 0.0):
        raise _fail("epsilon", c.epsilon)
    if c.k is not None and c.k < 1:
        raise _fail("k", c.k)
    if c.epsilon is not None and c.k is not None:
        raise ConfigError("config keys 'epsilon' and 'k' are mutually exclusive; set one")
    if c.subcommand in _GRAPH:
        _check_graph_size(c, points)
    if not (c.tol > 0.0):
        raise _fail("tol", c.tol)
    if c.seed < 0:
        raise _fail("seed", c.seed)
    # a mesh dump holds several D x D fields at once; study-density --n 4096
    # peaks at 0.42 GB for D = 1536 and 0.67 GB for D = 2048 (max RSS)
    if not 4 <= c.mesh <= 1536:
        raise _fail("mesh", c.mesh)
    # the LU fill of the Newton preconditioner grows like 9 x
    # points_per_patch^4; at 40 the 16-pin p = 3 solve peaks at 330 MB
    if not 4 <= c.points_per_patch <= 40:
        raise _fail("points_per_patch", c.points_per_patch)
    return c


def _check_graph_size(c: RunConfig, points: int) -> None:
    """Reject a graph whose expected edge count exceeds _MAX_EDGES. A kNN
    graph has at most n k edges; the studies always use the default scale."""
    single = c.subcommand == "solve-discrete"
    if single and c.k is not None:
        key, edges = f"'k' = {c.k}", float(points) * c.k
    else:
        if single and c.epsilon is not None:
            key, epsilon = f"'epsilon' = {c.epsilon!r}", c.epsilon
        else:
            key, epsilon = f"'p' = {c.p!r}", default_epsilon(max(points, 2), c.p)
        edges = points**2 / 2.0 * min(1.0, math.pi * epsilon**2 * _RHO_SQUARED)
    if edges > _MAX_EDGES:
        raise ConfigError(
            f"config keys 'n' = {c.n}, {key} rejected for {c.subcommand}: the graph on "
            f"{points} points would have about {edges:.3g} edges; at most {_MAX_EDGES:.3g} "
            "fit in memory"
        )


def parse_config_text(text: str, subcommand: str | None = None, overrides: dict | None = None) -> RunConfig:
    """Parse key=value text, apply overrides, validate.

    `subcommand` and `overrides` (a mapping of config keys to raw values,
    e.g. parsed command-line flags) take precedence over the text.
    """
    values: dict = {}
    for lineno, raw_line in enumerate(text.split("\n"), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw_line.strip()!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown config key '{key}'")
        values[_KEYS[key][0]] = _convert(key, raw)
    for key, raw in (overrides or {}).items():
        if key not in _KEYS:
            raise ConfigError(f"unknown config key '{key}'")
        if raw is not None:
            values[_KEYS[key][0]] = _convert(key, raw)
    if subcommand is not None:
        values["subcommand"] = subcommand
    if "subcommand" not in values:
        raise ConfigError("no subcommand given")
    return validate(RunConfig(**values))


def parse_config(path=None, subcommand: str | None = None, overrides: dict | None = None) -> RunConfig:
    """Parse a config file (optional) plus overriding flag values."""
    text = ""
    if path is not None:
        with open(path) as fh:
            text = fh.read()
    return parse_config_text(text, subcommand=subcommand, overrides=overrides)


def config_text(config: RunConfig) -> str:
    """Serialize every field (defaults included) as key=value lines."""
    lines = []
    for f in fields(config):
        value = getattr(config, f.name)
        if value is None:
            continue
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = format(value, ".17g")
        lines.append(f"{_FIELD_TO_KEY[f.name]}={value}")
    return "\n".join(lines) + "\n"


def config_hash(config: RunConfig) -> str:
    """Hex digest identifying the full validated configuration."""
    return hashlib.sha256(config_text(config).encode()).hexdigest()
