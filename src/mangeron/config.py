"""Config files: key-value sections describing one problem and solver run.

Sections: [domain] h1, h2; [grid] n1, n2, optional x_breakpoints /
y_breakpoints (comma-separated); [coefficients] any of the eight coefficient
keys as expressions in x and y (missing ones are zero); [forcing] z;
exactly one of [data.nonclassical] (seven scalars, plus `uxx_bottom`,
`uxx_top` in x and `uyy_left`, `uyy_right` in y) or [data.classical]
(`left`, `right` in y and `bottom`, `top` in x); optional [solver] method,
tol, max_iter, p; optional [reference] u for error reporting against a
known solution.  All function values use the expression mini-language.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass

import numpy as np

from . import exprlang
from .fields import ANALYTIC, PIECEWISE, Field1D, Field2D
from .grids import Domain, Grid2D, build_grid
from .norms import NormSpec
from .problem import (BoundaryTrace, ClassicalData, Coefficients, NonclassicalData,
                      PdeProblem)
from .solver import METHODS


class ConfigError(ValueError):
    """Missing, malformed or inconsistent configuration input."""


COEFF_KEYS = Coefficients.KEYS

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

    coeff_exprs = {}
    if cp.has_section("coefficients"):
        for key, text in cp["coefficients"].items():
            if key not in COEFF_KEYS:
                raise ConfigError(f"unknown coefficient {key!r} "
                                  f"(expected one of {COEFF_KEYS})")
            coeff_exprs[key] = _parse_expr(text, ("x", "y"), f"coefficients.{key}")

    if "z" not in cp["forcing"]:
        raise ConfigError("section [forcing] must define z")
    forcing_expr = _parse_expr(cp["forcing"]["z"], ("x", "y"), "forcing.z")

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
            data_exprs[key] = _scalar(sec.get(key, "0"), f"data.nonclassical.{key}")
        for key, var in NONCLASSICAL_TRACES.items():
            text = sec.get(key, "zero")
            data_exprs[key] = _parse_expr(text, (var,), f"data.nonclassical.{key}")
        for key in sec:
            if key not in NonclassicalData.SCALAR_KEYS and key not in NONCLASSICAL_TRACES:
                raise ConfigError(f"unknown data component {key!r}")
    else:
        data_kind = "classical"
        sec = cp["data.classical"]
        for key, var in CLASSICAL_TRACES.items():
            if key not in sec:
                raise ConfigError(f"data.classical must define {key!r}")
            data_exprs[key] = _parse_expr(sec[key], (var,), f"data.classical.{key}")
        for key in sec:
            if key not in CLASSICAL_TRACES:
                raise ConfigError(f"unknown data component {key!r}")

    solver = SolverOptions()
    if cp.has_section("solver"):
        sec = cp["solver"]
        solver.method = sec.get("method", solver.method)
        if solver.method not in METHODS:
            raise ConfigError(f"unknown solver method {solver.method!r}")
        try:
            solver.tol = float(sec.get("tol", solver.tol))
            solver.max_iter = int(sec.get("max_iter", solver.max_iter))
        except ValueError as exc:
            raise ConfigError(f"bad [solver] values: {exc}") from exc
        if solver.max_iter < 1:
            raise ConfigError(f"[solver] max_iter must be at least 1, got {solver.max_iter}")
        if not (math.isfinite(solver.tol) and solver.tol > 0.0):
            raise ConfigError(f"[solver] tol must be finite and positive, got {solver.tol}")
        solver.p = norm_exponent(sec.get("p", solver.p))

    reference_expr = None
    if cp.has_section("reference") and "u" in cp["reference"]:
        reference_expr = _parse_expr(cp["reference"]["u"], ("x", "y"), "reference.u")

    return RunConfig(domain=domain, n1=n1, n2=n2, x_breakpoints=xb, y_breakpoints=yb,
                     coeff_exprs=coeff_exprs, forcing_expr=forcing_expr,
                     data_kind=data_kind, data_exprs=data_exprs, solver=solver,
                     reference_expr=reference_expr)


def evaluate_expr(node, env: dict, where: str):
    """Evaluate a config expression; an evaluation error names its config
    key `where`, such as ``coefficients.c_u``."""
    try:
        return exprlang.evaluate(node, env)
    except exprlang.ExprError as exc:
        raise exprlang.ExprError(f"{where}: {exc}") from exc


def _field2d(node, where: str) -> Field2D:
    kind = PIECEWISE if exprlang.is_piecewise(node) else ANALYTIC

    def fn(x, y, _n=node):
        return evaluate_expr(_n, {"x": np.asarray(x, dtype=float),
                                  "y": np.asarray(y, dtype=float)}, where)

    return Field2D(fn, kind)


def _field1d(node, var: str, where: str) -> Field1D:
    kind = PIECEWISE if exprlang.is_piecewise(node) else ANALYTIC

    def fn(t, _n=node, _v=var):
        return evaluate_expr(_n, {_v: np.asarray(t, dtype=float)}, where)

    return Field1D(fn, kind)


def build_grid_from(cfg: RunConfig) -> Grid2D:
    try:
        return build_grid(cfg.domain, cfg.n1, cfg.n2,
                          x_breakpoints=cfg.x_breakpoints,
                          y_breakpoints=cfg.y_breakpoints)
    except ValueError as exc:
        raise ConfigError(f"bad grid: {exc}") from exc


def build_coefficients(cfg: RunConfig) -> Coefficients:
    return Coefficients(**{key: _field2d(node, f"coefficients.{key}")
                           for key, node in cfg.coeff_exprs.items()})


def build_nonclassical(cfg: RunConfig) -> NonclassicalData:
    e = cfg.data_exprs
    traces = {key: _field1d(e[key], var, f"data.nonclassical.{key}")
              for key, var in NONCLASSICAL_TRACES.items()}
    return NonclassicalData(**{key: e[key] for key in NonclassicalData.SCALAR_KEYS},
                            **traces)


def build_classical(cfg: RunConfig) -> ClassicalData:
    traces = {}
    for key, var in CLASSICAL_TRACES.items():
        node = cfg.data_exprs[key]
        where = f"data.classical.{key}"
        value = _field1d(node, var, where)
        try:
            d1_node = exprlang.diff(node, var)
            d2_node = exprlang.diff(d1_node, var)
            d1, d2 = _field1d(d1_node, var, where), _field1d(d2_node, var, where)
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
    forcing = _field2d(cfg.forcing_expr, "forcing.z")
    classical = None
    if cfg.data_kind == "classical":
        classical = build_classical(cfg)
        data = classical_to_nonclassical(classical, cfg.domain, grid)
    else:
        data = build_nonclassical(cfg)
    return PdeProblem(cfg.domain, coeffs, forcing, data), classical
