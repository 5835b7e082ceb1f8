"""Config files: key-value sections describing one problem and solver run.

Sections: [domain] h1, h2; [grid] n1, n2, optional x_breakpoints /
y_breakpoints (comma-separated); [coefficients] any of the eight coefficient
keys as expressions in x and y (missing ones are zero); [forcing] z;
exactly one of [data.nonclassical] (seven scalars, plus `uxx_bottom`,
`uxx_top` in x and `uyy_left`, `uyy_right` in y) or [data.classical]
(`left`, `right` in y and `bottom`, `top` in x); optional [solver] method,
tol, max_iter, p; optional [reference] u for error reporting against a
known solution.  `SECTIONS` lists these keys and refuses any other, and
any [DEFAULT] key.  Values use the expression mini-language; the sides,
breakpoints, `tol`, data scalars and piecewise bounds are constants, and
`n1`, `n2` (at least `grids.MIN_NODES`) and `max_iter` (at least 1) are
integers, and `p` is a number >= 1 or inf.  A refused scalar names its place, as in
`[grid] n1 = '2.5': not an integer`.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, fields

import numpy as np

from . import exprlang
from .fields import Field1D, Field2D, validate_tiling
from .grids import MIN_NODES, Domain, Grid2D, build_grid
from .norms import NormSpec
from .problem import (BoundaryTrace, ClassicalData, Coefficients, NonclassicalData,
                      PdeProblem, classical_to_nonclassical, trace_axis)
from .solver import METHODS


class ConfigError(ValueError):
    """Missing, malformed or inconsistent configuration input."""


NONCLASSICAL_TRACES = {key: "xy"[trace_axis(key)] for key in NonclassicalData.TRACE_KEYS}
CLASSICAL_TRACES = {"left": "y", "right": "y", "bottom": "x", "top": "x"}


@dataclass
class SolverOptions:
    method: str = "auto"
    tol: float = 1e-10
    max_iter: int = 200
    p: float = 2.0


#: section -> (what one of its keys is called, the keys it may hold)
SECTIONS = {
    "domain": ("key", ("h1", "h2")),
    "grid": ("key", ("n1", "n2", "x_breakpoints", "y_breakpoints")),
    "coefficients": ("coefficient", Coefficients.KEYS),
    "forcing": ("key", ("z",)),
    "data.nonclassical": ("data component", NonclassicalData.PLACES),
    "data.classical": ("data component", CLASSICAL_TRACES),
    "solver": ("key", tuple(f.name for f in fields(SolverOptions))),
    "reference": ("key", ("u",)),
}


@dataclass
class RunConfig:
    domain: Domain
    n1: int
    n2: int
    x_breakpoints: tuple[float, ...]
    y_breakpoints: tuple[float, ...]
    coeff_exprs: dict
    forcing_expr: object
    data_kind: str                    # "nonclassical" | "classical"
    data_exprs: dict
    solver: SolverOptions
    reference_expr: object | None


def _parse_expr(text: str, extents: dict[str, float], where: str):
    """Parse an expression in the variables of `extents`; the pieces of every
    piecewise node in it must tile [0, extent] along each variable."""
    try:
        node = exprlang.parse(text, tuple(extents))
        for sub in exprlang.walk(node):
            if isinstance(sub, exprlang.Piecewise):
                validate_tiling([bounds for bounds, _ in sub.pieces], tuple(extents.values()))
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    return node


def _constant(text: str) -> float:
    return exprlang.constant(exprlang.parse(text, ()))


def _positive(text: str) -> float:
    value = _constant(text)
    if not value > 0.0:
        raise ValueError("must be positive")
    return value


def _integer(text: str, minimum: int = 1) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ValueError("not an integer") from None
    if value < minimum:
        raise ValueError(f"must be at least {minimum}")
    return value


def node_count(text: str) -> int:
    """Nodes along one grid axis: an integer of at least `grids.MIN_NODES`."""
    return _integer(text, MIN_NODES)


def norm_exponent(text: str) -> float:
    """Norm exponent p: a number >= 1, or inf (the rule of `NormSpec`)."""
    return NormSpec(float(text)).p


def _constant_list(text: str) -> tuple[float, ...]:
    """Comma-separated constants; none for an empty text."""
    return tuple(_constant(t) for t in text.split(",")) if text.strip() else ()


def read_value(lead: str, text: str, read):
    """`text` read by `read`; a value `read` refuses raises a `ConfigError`
    that names where the text came from: `lead = 'text': reason`."""
    try:
        return read(text)
    except ValueError as exc:
        raise ConfigError(f"{lead} = {text!r}: {exc}") from exc


def _setting(section, key: str, default: str | None = None, read=_constant):
    """`key` of `section`, or `default`, read by `read`; a missing key with
    no default, or a value `read` refuses, raises a `ConfigError` that
    names the section and the key: `[section] key = 'text': reason`."""
    text = section.get(key, default)
    if text is None:
        raise ConfigError(f"[{section.name}] must define {key}")
    return read_value(f"[{section.name}] {key}", text, read)


def solve_method(text: str) -> str:
    """Solve route from config or command-line text: one of `METHODS`."""
    if text not in METHODS:
        raise ConfigError(f"unknown solver method {text!r} (available: {', '.join(METHODS)})")
    return text


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
    for section in ("domain", "grid", "forcing"):
        if not cp.has_section(section):
            raise ConfigError(f"missing required section [{section}]")
    domain = Domain(*(_setting(cp["domain"], key, read=_positive) for key in ("h1", "h2")))
    n1, n2 = (_setting(cp["grid"], key, read=node_count) for key in ("n1", "n2"))
    xy = {"x": domain.h1, "y": domain.h2}
    xb, yb = (_setting(cp["grid"], key, "", read=_constant_list)
              for key in ("x_breakpoints", "y_breakpoints"))

    coeff_exprs = ({key: _parse_expr(text, xy, f"coefficients.{key}")
                    for key, text in cp["coefficients"].items()}
                   if cp.has_section("coefficients") else {})

    if "z" not in cp["forcing"]:
        raise ConfigError("section [forcing] must define z")
    forcing_expr = _parse_expr(cp["forcing"]["z"], xy, "forcing.z")

    has_nc = cp.has_section("data.nonclassical")
    has_cl = cp.has_section("data.classical")
    if has_nc == has_cl:
        raise ConfigError("exactly one of [data.nonclassical] or [data.classical] "
                          "must be present")
    data_exprs: dict[str, object] = {}
    if has_nc:
        data_kind = "nonclassical"
        sec = cp["data.nonclassical"]
        for key in NonclassicalData.SCALAR_KEYS:
            data_exprs[key] = _setting(sec, key, "0")
        for key, var in NONCLASSICAL_TRACES.items():
            text = sec.get(key, "zero")
            data_exprs[key] = _parse_expr(text, {var: xy[var]}, f"data.nonclassical.{key}")
    else:
        data_kind = "classical"
        sec = cp["data.classical"]
        for key, var in CLASSICAL_TRACES.items():
            if key not in sec:
                raise ConfigError(f"data.classical must define {key!r}")
            data_exprs[key] = _parse_expr(sec[key], {var: xy[var]},
                                         f"data.classical.{key}")

    solver = SolverOptions()
    if cp.has_section("solver"):
        sec = cp["solver"]
        solver.method = solve_method(sec.get("method", solver.method))
        solver.tol = _setting(sec, "tol", repr(solver.tol), read=_positive)
        solver.max_iter = _setting(sec, "max_iter", str(solver.max_iter), read=_integer)
        solver.p = _setting(sec, "p", repr(solver.p), read=norm_exponent)

    reference_expr = None
    if cp.has_section("reference") and "u" in cp["reference"]:
        reference_expr = _parse_expr(cp["reference"]["u"], xy, "reference.u")

    return RunConfig(domain=domain, n1=n1, n2=n2, x_breakpoints=xb, y_breakpoints=yb,
                     coeff_exprs=coeff_exprs, forcing_expr=forcing_expr,
                     data_kind=data_kind, data_exprs=data_exprs, solver=solver,
                     reference_expr=reference_expr)


def evaluate_expr(node, env: dict, where: str):
    """Evaluate a config expression; an evaluation error, or a value that is
    not finite at some point, names its config key `where`, such as
    ``coefficients.c_u``, and the point."""
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
    try:
        return build_grid(cfg.domain, cfg.n1, cfg.n2,
                          x_breakpoints=cfg.x_breakpoints,
                          y_breakpoints=cfg.y_breakpoints)
    except ValueError as exc:
        raise ConfigError(f"bad grid: {exc}") from exc


def build_coefficients(cfg: RunConfig) -> Coefficients:
    return Coefficients(**{key: _field(node, "xy", f"coefficients.{key}")
                           for key, node in cfg.coeff_exprs.items()})


def build_nonclassical(cfg: RunConfig) -> NonclassicalData:
    e = cfg.data_exprs
    traces = {key: _field(e[key], var, f"data.nonclassical.{key}")
              for key, var in NONCLASSICAL_TRACES.items()}
    return NonclassicalData(**{key: e[key] for key in NonclassicalData.SCALAR_KEYS},
                            **traces)


def build_classical(cfg: RunConfig) -> ClassicalData:
    traces = {}
    for key, var in CLASSICAL_TRACES.items():
        node, where = cfg.data_exprs[key], f"data.classical.{key}"
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
    forcing = _field(cfg.forcing_expr, "xy", "forcing.z")
    classical = None
    if cfg.data_kind == "classical":
        classical = build_classical(cfg)
        data = classical_to_nonclassical(classical, cfg.domain, grid)
    else:
        data = build_nonclassical(cfg)
    return PdeProblem(cfg.domain, coeffs, forcing, data), classical
