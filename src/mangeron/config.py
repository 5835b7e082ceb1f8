"""Config files: key-value sections describing one problem and solver run.

Sections: [domain] h1, h2; [grid] n1, n2, optional x_breakpoints /
y_breakpoints (comma-separated); [coefficients] any of the eight coefficient
keys as expressions in x and y (missing ones are zero); [forcing] z;
exactly one of [data.nonclassical] (eight scalars, plus `uxx_bottom`,
`uxx_top` in x and `uyy_left`, `uyy_right` in y) or [data.classical]
(`left`, `right` in y and `bottom`, `top` in x); optional [solver] method,
tol, max_iter, p; optional [reference] u for error reporting against a
known solution.  All function values use the expression mini-language.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field

import numpy as np

from . import exprlang
from .fields import ANALYTIC, PIECEWISE, Field1D, Field2D, LINF_X_LP_Y, LP, LP_X_LINF_Y
from .grids import Domain, Grid2D, build_grid
from .norms import NormSpec
from .problem import (BoundaryTrace, ClassicalData, Coefficients, NonclassicalData,
                      PdeProblem)


class ConfigError(ValueError):
    """Missing, malformed or inconsistent configuration input."""


COEFF_KEYS = Coefficients.KEYS
_COEFF_TAGS = {"c_xxy": LINF_X_LP_Y, "c_xx": LINF_X_LP_Y,
               "c_xyy": LP_X_LINF_Y, "c_yy": LP_X_LINF_Y,
               "c_xy": LP, "c_x": LP, "c_y": LP, "c_u": LP}

NONCLASSICAL_SCALARS = ("u00", "ux00", "uy00", "u10", "uy10", "u01", "ux01")
NONCLASSICAL_TRACES = {"uxx_bottom": "x", "uxx_top": "x",
                       "uyy_left": "y", "uyy_right": "y"}
CLASSICAL_TRACES = {"left": "y", "right": "y", "bottom": "x", "top": "x"}


@dataclass
class SolverOptions:
    method: str = "auto"
    tol: float = 1e-10
    max_iter: int = 200
    p: float = 2.0


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
    raw_expressions: dict = field(default_factory=dict)


def _parse_expr(text: str, variables, where: str):
    try:
        return exprlang.parse(text, variables)
    except exprlang.ExprError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _scalar(text: str, where: str) -> float:
    node = _parse_expr(text, (), where)
    try:
        return float(exprlang.evaluate(node, {}))
    except Exception as exc:
        raise ConfigError(f"{where}: not a constant expression") from exc


def norm_exponent(text) -> float:
    """Norm exponent p from config or command-line text: a number >= 1, or inf."""
    try:
        return NormSpec(float(str(text).strip())).p
    except ValueError as exc:
        raise ConfigError(f"bad norm exponent p = {text!r}: {exc}") from exc


def _breakpoints(text: str) -> tuple[float, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(float(t) for t in text.split(","))


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

    for section in ("domain", "grid", "forcing"):
        if not cp.has_section(section):
            raise ConfigError(f"missing required section [{section}]")
    try:
        domain = Domain(float(cp["domain"]["h1"]), float(cp["domain"]["h2"]))
        n1 = int(cp["grid"]["n1"])
        n2 = int(cp["grid"]["n2"])
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad [domain]/[grid] values: {exc}") from exc
    xb = _breakpoints(cp["grid"].get("x_breakpoints", ""))
    yb = _breakpoints(cp["grid"].get("y_breakpoints", ""))

    raw: dict[str, str] = {}
    coeff_exprs = {}
    if cp.has_section("coefficients"):
        for key, text in cp["coefficients"].items():
            if key not in COEFF_KEYS:
                raise ConfigError(f"unknown coefficient {key!r} "
                                  f"(expected one of {COEFF_KEYS})")
            coeff_exprs[key] = _parse_expr(text, ("x", "y"), f"coefficients.{key}")
            raw[f"coefficients.{key}"] = text

    if "z" not in cp["forcing"]:
        raise ConfigError("section [forcing] must define z")
    forcing_expr = _parse_expr(cp["forcing"]["z"], ("x", "y"), "forcing.z")
    raw["forcing.z"] = cp["forcing"]["z"]

    has_nc = cp.has_section("data.nonclassical")
    has_cl = cp.has_section("data.classical")
    if has_nc == has_cl:
        raise ConfigError("exactly one of [data.nonclassical] or [data.classical] "
                          "must be present")
    data_exprs: dict[str, object] = {}
    if has_nc:
        data_kind = "nonclassical"
        sec = cp["data.nonclassical"]
        for key in NONCLASSICAL_SCALARS:
            data_exprs[key] = _scalar(sec.get(key, "0"), f"data.nonclassical.{key}")
        for key, var in NONCLASSICAL_TRACES.items():
            text = sec.get(key, "zero")
            data_exprs[key] = _parse_expr(text, (var,), f"data.nonclassical.{key}")
            raw[f"data.{key}"] = text
        for key in sec:
            if key not in NONCLASSICAL_SCALARS and key not in NONCLASSICAL_TRACES:
                raise ConfigError(f"unknown data component {key!r}")
    else:
        data_kind = "classical"
        sec = cp["data.classical"]
        for key, var in CLASSICAL_TRACES.items():
            if key not in sec:
                raise ConfigError(f"data.classical must define {key!r}")
            data_exprs[key] = _parse_expr(sec[key], (var,), f"data.classical.{key}")
            raw[f"data.{key}"] = sec[key]
        for key in sec:
            if key not in CLASSICAL_TRACES:
                raise ConfigError(f"unknown data component {key!r}")

    solver = SolverOptions()
    if cp.has_section("solver"):
        sec = cp["solver"]
        solver.method = sec.get("method", solver.method)
        if solver.method not in ("auto", "neumann", "dense", "coupled"):
            raise ConfigError(f"unknown solver method {solver.method!r}")
        try:
            solver.tol = float(sec.get("tol", solver.tol))
            solver.max_iter = int(sec.get("max_iter", solver.max_iter))
        except ValueError as exc:
            raise ConfigError(f"bad [solver] values: {exc}") from exc
        solver.p = norm_exponent(sec.get("p", solver.p))

    reference_expr = None
    if cp.has_section("reference") and "u" in cp["reference"]:
        reference_expr = _parse_expr(cp["reference"]["u"], ("x", "y"), "reference.u")
        raw["reference.u"] = cp["reference"]["u"]

    return RunConfig(domain=domain, n1=n1, n2=n2, x_breakpoints=xb, y_breakpoints=yb,
                     coeff_exprs=coeff_exprs, forcing_expr=forcing_expr,
                     data_kind=data_kind, data_exprs=data_exprs, solver=solver,
                     reference_expr=reference_expr, raw_expressions=raw)


def _field2d(node, tag: str) -> Field2D:
    kind = PIECEWISE if exprlang.is_piecewise(node) else ANALYTIC

    def fn(x, y, _n=node):
        return exprlang.evaluate(_n, {"x": np.asarray(x, dtype=float),
                                      "y": np.asarray(y, dtype=float)})

    return Field2D(fn, kind, tag)


def _field1d(node, var: str) -> Field1D:
    kind = PIECEWISE if exprlang.is_piecewise(node) else ANALYTIC

    def fn(t, _n=node, _v=var):
        return exprlang.evaluate(_n, {_v: np.asarray(t, dtype=float)})

    return Field1D(fn, kind)


def build_grid_from(cfg: RunConfig) -> Grid2D:
    try:
        return build_grid(cfg.domain, cfg.n1, cfg.n2,
                          x_breakpoints=cfg.x_breakpoints,
                          y_breakpoints=cfg.y_breakpoints)
    except ValueError as exc:
        raise ConfigError(f"bad grid: {exc}") from exc


def build_coefficients(cfg: RunConfig) -> Coefficients:
    fields = {}
    for key, node in cfg.coeff_exprs.items():
        fields[key] = _field2d(node, _COEFF_TAGS[key])
    return Coefficients(**fields)


def build_nonclassical(cfg: RunConfig) -> NonclassicalData:
    e = cfg.data_exprs
    return NonclassicalData(
        u00=e["u00"], ux00=e["ux00"], uy00=e["uy00"],
        uxx_bottom=_field1d(e["uxx_bottom"], "x"),
        uyy_left=_field1d(e["uyy_left"], "y"),
        u10=e["u10"], uy10=e["uy10"],
        uyy_right=_field1d(e["uyy_right"], "y"),
        u01=e["u01"], ux01=e["ux01"],
        uxx_top=_field1d(e["uxx_top"], "x"))


def build_classical(cfg: RunConfig) -> ClassicalData:
    traces = {}
    for key, var in CLASSICAL_TRACES.items():
        node = cfg.data_exprs[key]
        value = _field1d(node, var)
        try:
            d1_node = exprlang.diff(node, var)
            d2_node = exprlang.diff(d1_node, var)
            d1, d2 = _field1d(d1_node, var), _field1d(d2_node, var)
        except exprlang.ExprError:
            d1 = d2 = None  # fall back to grid differencing downstream
        traces[key] = BoundaryTrace(value, d1, d2)
    return ClassicalData(**traces)


def build_problem(cfg: RunConfig, grid: Grid2D):
    """Problem from a config; classical data is converted on the given grid.

    Returns (problem, classical_data_or_None).  Corner mismatches in
    classical data propagate as CornerMismatchError.
    """
    from .problem import classical_to_nonclassical

    coeffs = build_coefficients(cfg)
    forcing = _field2d(cfg.forcing_expr, LP)
    classical = None
    if cfg.data_kind == "classical":
        classical = build_classical(cfg)
        data = classical_to_nonclassical(classical, cfg.domain, grid)
    else:
        data = build_nonclassical(cfg)
    return PdeProblem(cfg.domain, coeffs, forcing, data), classical
