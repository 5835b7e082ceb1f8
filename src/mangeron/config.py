"""Config files: key-value sections describing one problem and solver run.

Sections: [domain] h1, h2; [grid] n1, n2, optional x_breakpoints /
y_breakpoints (comma-separated); [coefficients] any of the eight coefficient
keys as expressions in x and y (missing ones are zero); [forcing] z;
exactly one of [data.nonclassical] (seven scalars, plus `uxx_bottom`,
`uxx_top` in x and `uyy_left`, `uyy_right` in y) or [data.classical]
(`left`, `right` in y and `bottom`, `top` in x); optional [solver] method,
tol, max_iter, p; optional [reference] u for error reporting against a
known solution.  `SECTIONS` states this format once: every key with the
reader of its text and its default.  Any other section or key, and any
[DEFAULT] key, is refused.  Values use the expression mini-language; the
sides, breakpoints, `tol`, data scalars and piecewise bounds are constants,
and `n1`, `n2` (at least `grids.MIN_NODES`, as distinct floats on their
side) and `max_iter` (at least 1) are integers, and `p` is a number >= 1 or
inf.  Every refusal names its place, as in `[grid] n1 = '2.5': not an
integer`, and an expression that fails to evaluate names its key, as in
`[forcing] z: value inf is not finite at (x = 0.0, y = 0.0)`.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import exprlang
from .fields import Field1D, Field2D, validate_tiling
from .grids import MIN_NODES, Domain, Grid2D, build_grid, check_breakpoint, uniform_nodes
from .norms import NormSpec
from .problem import (BoundaryTrace, ClassicalData, Coefficients, NonclassicalData,
                      PdeProblem, classical_to_nonclassical, trace_axis)
from .solver import METHODS


class ConfigError(ValueError):
    """Missing, malformed or inconsistent configuration input."""


NONCLASSICAL_TRACES = {key: "xy"[trace_axis(key)] for key in NonclassicalData.TRACE_KEYS}
CLASSICAL_TRACES = {"left": "y", "right": "y", "bottom": "x", "top": "x"}

#: the [domain] key of the side that each variable runs along
SIDES = {"x": "h1", "y": "h2"}


def key_lead(section: str, key: str) -> str:
    """How a refusal names a config key: ``[section] key``."""
    return f"[{section}] {key}"


# Readers: each takes a key's text and the domain (None for [domain]'s own
# keys) and returns the value, or raises a ValueError that says why not.

def _constant(text: str, domain: Domain | None = None) -> float:
    return exprlang.constant(exprlang.parse(text, ()))


def _positive(text: str, domain: Domain | None = None) -> float:
    value = _constant(text)
    if not value > 0.0:
        raise ValueError("must be positive")
    return value


def _integer(text: str, domain: Domain | None = None, minimum: int = 1) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ValueError("not an integer") from None
    if value < minimum:
        raise ValueError(f"must be at least {minimum}")
    return value


def node_count(var: str):
    """Reader of the node count along `var`'s axis: an integer of at least
    `grids.MIN_NODES` whose uniform nodes are distinct floats on the side."""
    def read(text: str, domain: Domain) -> int:
        n = _integer(text, minimum=MIN_NODES)
        uniform_nodes(getattr(domain, SIDES[var]), n)
        return n
    return read


def _breakpoints(var: str):
    """Reader of comma-separated constants inside the side of `var` (none for
    an empty text), by the range rule of `grids.check_breakpoint`."""
    def read(text: str, domain: Domain) -> tuple[float, ...]:
        values = tuple(_constant(t) for t in text.split(",")) if text.strip() else ()
        side = getattr(domain, SIDES[var])
        for b in values:
            check_breakpoint(b, side)
        return values
    return read


def _expression(variables: str):
    """Reader of an expression in `variables` ("xy", "x" or "y"); the pieces
    of every piecewise node in it must tile the domain along them."""
    def read(text: str, domain: Domain):
        node = exprlang.parse(text, tuple(variables))
        extents = tuple(getattr(domain, SIDES[v]) for v in variables)
        for sub in exprlang.walk(node):
            if isinstance(sub, exprlang.Piecewise):
                validate_tiling([bounds for bounds, _ in sub.pieces], extents)
        return node
    return read


def solve_method(text: str, domain: Domain | None = None) -> str:
    """Solve route: one of `METHODS`."""
    if text not in METHODS:
        raise ValueError(f"not one of {', '.join(METHODS)}")
    return text


def norm_exponent(text: str, domain: Domain | None = None) -> float:
    """Norm exponent p: a number >= 1, or inf (the rule of `NormSpec`)."""
    return NormSpec(float(text)).p


#: section -> (what one of its keys is called, {key: (reader, default)}); the
#: default is the text read when the config does not give the key: None marks
#: a key the config must give, and "" one that is then left out
SECTIONS = {
    "domain": ("key", {"h1": (_positive, None), "h2": (_positive, None)}),
    "grid": ("key", {"n1": (node_count("x"), None), "n2": (node_count("y"), None),
                     "x_breakpoints": (_breakpoints("x"), ""),
                     "y_breakpoints": (_breakpoints("y"), "")}),
    "coefficients": ("coefficient", {key: (_expression("xy"), "") for key in Coefficients.KEYS}),
    "forcing": ("key", {"z": (_expression("xy"), None)}),
    "data.nonclassical": ("data component", {
        key: (_expression(NONCLASSICAL_TRACES[key]), "zero") if key in NONCLASSICAL_TRACES
        else (_constant, "0") for key in NonclassicalData.PLACES}),
    "data.classical": ("data component", {key: (_expression(var), None)
                                          for key, var in CLASSICAL_TRACES.items()}),
    "solver": ("key", {"method": (solve_method, "auto"), "tol": (_positive, "1e-10"),
                       "max_iter": (_integer, "200"), "p": (norm_exponent, "2")}),
    "reference": ("key", {"u": (_expression("xy"), "")}),
}


@dataclass
class SolverOptions:
    method: str
    tol: float
    max_iter: int
    p: float


@dataclass
class RunConfig:
    domain: Domain
    n1: int
    n2: int
    coeff_exprs: dict
    forcing_expr: object
    data_kind: str                    # "nonclassical" | "classical"
    data_exprs: dict
    solver: SolverOptions
    reference_expr: object | None
    x_breakpoints: tuple[float, ...] = ()
    y_breakpoints: tuple[float, ...] = ()


def read_value(lead: str, text: str, read, domain: Domain | None = None):
    """`text` read by `read` with `domain`; a value `read` refuses raises a
    `ConfigError` that names where the text came from: `lead = 'text': reason`."""
    try:
        return read(text, domain)
    except ValueError as exc:
        raise ConfigError(f"{lead} = {text!r}: {exc}") from exc


def _read_section(cp: configparser.ConfigParser, name: str, domain: Domain | None = None):
    """The keys of section `name` by `SECTIONS`, each the config's text or its
    default, read with `domain`; a missing required key is refused."""
    given = cp[name] if cp.has_section(name) else {}
    values = {}
    for key, (read, default) in SECTIONS[name][1].items():
        text = given.get(key, default)
        if text is None:
            raise ConfigError(f"[{name}] must define {key}")
        if key in given or default:
            values[key] = read_value(key_lead(name, key), text, read, domain)
    return values


def _check_keys(cp: configparser.ConfigParser):
    """Refuse a section or a key that `SECTIONS` does not list.  [DEFAULT]
    may hold no key, since configparser would copy it into every section."""
    listed = {cp.default_section: ("key", ()), **SECTIONS}
    for name, section in cp.items():
        if name not in listed:
            raise ConfigError(f"unknown section [{name}] "
                              f"(a config holds {', '.join(f'[{s}]' for s in SECTIONS)})")
        noun, keys = listed[name]
        for key in section:
            if key not in keys:
                raise ConfigError(f"unknown {noun} {key!r} in [{name}] "
                                  f"([{name}] holds {', '.join(keys) or 'no key'})")


def load_config(path: str) -> RunConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    cp.optionxform = str
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc

    _check_keys(cp)
    kinds = [kind for kind in ("nonclassical", "classical") if cp.has_section(f"data.{kind}")]
    if len(kinds) != 1:
        raise ConfigError("exactly one of [data.nonclassical] or [data.classical] "
                          "must be present")
    domain = Domain(**_read_section(cp, "domain"))
    read = partial(_read_section, cp, domain=domain)
    return RunConfig(domain=domain, **read("grid"), coeff_exprs=read("coefficients"),
                     forcing_expr=read("forcing")["z"], data_kind=kinds[0],
                     data_exprs=read(f"data.{kinds[0]}"), solver=SolverOptions(**read("solver")),
                     reference_expr=read("reference").get("u"))


def evaluate_expr(node, env: dict, where: str):
    """Evaluate a config expression; an evaluation error, or a value that is
    not finite at some point, names its config key `where`, such as
    ``[coefficients] c_u`` (`key_lead`), and the point."""
    try:
        with np.errstate(all="ignore"):
            values = np.asarray(exprlang.evaluate(node, env), dtype=float)
        if not np.all(np.isfinite(values)):
            names = sorted(env)
            values, *coords = np.broadcast_arrays(values, *(env[n] for n in names))
            first = np.unravel_index(np.argmin(np.isfinite(values)), values.shape)
            point = ", ".join(f"{n} = {float(c[first])!r}" for n, c in zip(names, coords))
            raise exprlang.ExprError(f"value {float(values[first])} is not finite at ({point})")
    except exprlang.ExprError as exc:
        raise exprlang.ExprError(f"{where}: {exc}") from exc
    return values


def _field(node, variables: str, where: str):
    """A `Field2D` of an expression in "xy", or a `Field1D` of one in "x" or "y"."""
    def fn(*coords):
        return evaluate_expr(node, {v: np.asarray(c, dtype=float)
                                    for v, c in zip(variables, coords)}, where)

    return (Field2D if len(variables) == 2 else Field1D)(fn)


def build_grid_from(cfg: RunConfig) -> Grid2D:
    return build_grid(cfg.domain, cfg.n1, cfg.n2,
                      x_breakpoints=cfg.x_breakpoints, y_breakpoints=cfg.y_breakpoints)


def build_coefficients(cfg: RunConfig) -> Coefficients:
    return Coefficients(**{key: _field(node, "xy", key_lead("coefficients", key))
                           for key, node in cfg.coeff_exprs.items()})


def build_nonclassical(cfg: RunConfig) -> NonclassicalData:
    e = cfg.data_exprs
    traces = {key: _field(e[key], var, key_lead("data.nonclassical", key))
              for key, var in NONCLASSICAL_TRACES.items()}
    return NonclassicalData(**{key: e[key] for key in NonclassicalData.SCALAR_KEYS},
                            **traces)


def build_classical(cfg: RunConfig) -> ClassicalData:
    traces = {}
    for key, var in CLASSICAL_TRACES.items():
        node, where = cfg.data_exprs[key], key_lead("data.classical", key)
        try:
            d1_node = exprlang.diff(node, var)
            d1, d2 = (_field(n, var, where) for n in (d1_node, exprlang.diff(d1_node, var)))
        except exprlang.ExprError:
            d1 = d2 = None  # fall back to grid differencing downstream
        traces[key] = BoundaryTrace(_field(node, var, where), d1, d2)
    return ClassicalData(**traces)


def build_problem(cfg: RunConfig, grid: Grid2D):
    """Problem from a config; classical data is converted on the given grid.

    Returns (problem, classical_data_or_None).  Corner mismatches in
    classical data propagate as CornerMismatchError.
    """
    coeffs = build_coefficients(cfg)
    forcing = _field(cfg.forcing_expr, "xy", key_lead("forcing", "z"))
    classical = None
    if cfg.data_kind == "classical":
        classical = build_classical(cfg)
        data = classical_to_nonclassical(classical, grid)
    else:
        data = build_nonclassical(cfg)
    return PdeProblem(cfg.domain, coeffs, forcing, data), classical
