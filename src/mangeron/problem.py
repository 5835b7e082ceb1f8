"""Problem data: coefficients, boundary data in both forms, and conversions.

Boundary data comes in two equivalent forms.  The classical form gives the
solution value along the four edges (four functions that must match at the
corners).  The nonclassical form gives 11 components: the value and both
first derivatives at the origin corner, values and one first derivative at
the corners (h1, 0) and (0, h2), and second-derivative traces along four
edges.  The nonclassical components are free of matching conditions except
for two scalar relations that tie the corner values together; those are
surfaced by `check_data_constraints` and gated before a solve.  A solve
samples its problem on the grid once (`sample_problem`).

Naming: scalar components carry corner coordinates in units of the side
lengths (`u10` is u(h1, 0), `ux01` is u_x(0, h2)); edge traces are named by
the edge they live on (`uxx_bottom` is u_xx(x, 0)).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fields import (ANALYTIC, LINF_X_LP_Y, LP, LP_X_LINF_Y, SAMPLES,
                     Field1D, Field2D, ZERO_1D, ZERO_2D, const2d, samples1d)
from .grids import Axis, Domain, Grid2D, fd_derivatives, trapezoid_error_bound


class DataConsistencyError(ValueError):
    """Boundary data violates a compatibility relation beyond tolerance."""


class CornerMismatchError(DataConsistencyError):
    """Classical edge functions disagree at a shared corner."""


class ConstraintError(DataConsistencyError):
    """Nonclassical data violates one of the two scalar corner constraints."""


@dataclass(frozen=True)
class Coefficients:
    """The eight coefficient fields of the fourth-order operator.

    Each field is named by the derivative of u it multiplies; the leading
    mixed fourth derivative has unit coefficient and is not stored.  Default
    smoothness tags follow the admissible mixed-norm classes: coefficients of
    x-second-derivative terms are bounded in x / integrable in y, those of
    y-second-derivative terms the transpose, and the low-order ones merely
    integrable.
    """

    c_xxy: Field2D = field(default_factory=lambda: const2d(0.0, LINF_X_LP_Y))
    c_xyy: Field2D = field(default_factory=lambda: const2d(0.0, LP_X_LINF_Y))
    c_xx: Field2D = field(default_factory=lambda: const2d(0.0, LINF_X_LP_Y))
    c_yy: Field2D = field(default_factory=lambda: const2d(0.0, LP_X_LINF_Y))
    c_xy: Field2D = field(default_factory=lambda: const2d(0.0, LP))
    c_x: Field2D = field(default_factory=lambda: const2d(0.0, LP))
    c_y: Field2D = field(default_factory=lambda: const2d(0.0, LP))
    c_u: Field2D = field(default_factory=lambda: const2d(0.0, LP))

    KEYS = ("c_xxy", "c_xyy", "c_xx", "c_yy", "c_xy", "c_x", "c_y", "c_u")

    def sample_all(self, grid: Grid2D) -> dict[str, np.ndarray]:
        return {k: getattr(self, k).sample(grid) for k in self.KEYS}


@dataclass(frozen=True)
class NonclassicalData:
    """The 11-component boundary data element."""

    u00: float = 0.0           # u(0, 0)
    ux00: float = 0.0          # u_x(0, 0)
    uy00: float = 0.0          # u_y(0, 0)
    uxx_bottom: Field1D = ZERO_1D   # u_xx(x, 0) on [0, h1]
    uyy_left: Field1D = ZERO_1D     # u_yy(0, y) on [0, h2]
    u10: float = 0.0           # u(h1, 0)
    uy10: float = 0.0          # u_y(h1, 0)
    uyy_right: Field1D = ZERO_1D    # u_yy(h1, y) on [0, h2]
    u01: float = 0.0           # u(0, h2)
    ux01: float = 0.0          # u_x(0, h2)
    uxx_top: Field1D = ZERO_1D      # u_xx(x, h2) on [0, h1]

    SCALAR_KEYS = ("u00", "ux00", "uy00", "u10", "uy10", "u01", "ux01")
    TRACE_KEYS = ("uxx_bottom", "uyy_left", "uyy_right", "uxx_top")

    def scaled(self, factor: float) -> "NonclassicalData":
        """Data multiplied by a scalar (the whole element is a vector)."""
        def s1(f: Field1D) -> Field1D:
            return Field1D(lambda t, _f=f.fn, _c=factor: _c * np.asarray(_f(t)),
                           f.kind, f.smoothness)
        return NonclassicalData(
            factor * self.u00, factor * self.ux00, factor * self.uy00,
            s1(self.uxx_bottom), s1(self.uyy_left),
            factor * self.u10, factor * self.uy10, s1(self.uyy_right),
            factor * self.u01, factor * self.ux01, s1(self.uxx_top))

    def plus(self, other: "NonclassicalData") -> "NonclassicalData":
        def a1(f: Field1D, g: Field1D) -> Field1D:
            return Field1D(lambda t, _f=f.fn, _g=g.fn: np.asarray(_f(t)) + np.asarray(_g(t)),
                           f.kind if f.kind == g.kind else ANALYTIC, f.smoothness)
        return NonclassicalData(
            self.u00 + other.u00, self.ux00 + other.ux00, self.uy00 + other.uy00,
            a1(self.uxx_bottom, other.uxx_bottom), a1(self.uyy_left, other.uyy_left),
            self.u10 + other.u10, self.uy10 + other.uy10,
            a1(self.uyy_right, other.uyy_right),
            self.u01 + other.u01, self.ux01 + other.ux01,
            a1(self.uxx_top, other.uxx_top))


@dataclass(frozen=True)
class SampledData:
    """Nonclassical data sampled on one grid, plus derived route quantities."""

    u00: float
    ux00: float
    uy00: float
    u10: float
    uy10: float
    u01: float
    ux01: float
    uxx_bottom: np.ndarray   # (n1,)
    uxx_top: np.ndarray      # (n1,)
    uyy_left: np.ndarray     # (n2,)
    uyy_right: np.ndarray    # (n2,)
    d_uxx: np.ndarray        # (uxx_top - uxx_bottom) / h2, per x node
    d_uyy: np.ndarray        # (uyy_right - uyy_left) / h1, per y node
    d_uy: float              # (uy10 - uy00) / h1
    d_ux: float              # (ux01 - ux00) / h2


def sample_data(data: NonclassicalData, grid: Grid2D) -> SampledData:
    h1, h2 = grid.domain.h1, grid.domain.h2
    uxx_b = data.uxx_bottom.sample(grid.ax)
    uxx_t = data.uxx_top.sample(grid.ax)
    uyy_l = data.uyy_left.sample(grid.ay)
    uyy_r = data.uyy_right.sample(grid.ay)
    return SampledData(
        data.u00, data.ux00, data.uy00, data.u10, data.uy10, data.u01, data.ux01,
        uxx_b, uxx_t, uyy_l, uyy_r,
        (uxx_t - uxx_b) / h2, (uyy_r - uyy_l) / h1,
        (data.uy10 - data.uy00) / h1, (data.ux01 - data.ux00) / h2)


@dataclass(frozen=True)
class BoundaryTrace:
    """One edge function, optionally with analytic first/second derivatives."""

    value: Field1D
    d1: Field1D | None = None
    d2: Field1D | None = None


@dataclass(frozen=True)
class ClassicalData:
    """Solution values along the four edges of the rectangle."""

    left: BoundaryTrace     # u(0, y),  y in [0, h2]
    right: BoundaryTrace    # u(h1, y), y in [0, h2]
    bottom: BoundaryTrace   # u(x, 0),  x in [0, h1]
    top: BoundaryTrace      # u(x, h2), x in [0, h1]

    def any_sampled(self) -> bool:
        return any(t.value.kind == SAMPLES
                   for t in (self.left, self.right, self.bottom, self.top))


@dataclass(frozen=True)
class CheckReport:
    """Named residuals of a compatibility check, passed iff all within tol."""

    residuals: tuple[tuple[str, float], ...]
    tolerance: float

    @property
    def passed(self) -> bool:
        return bool(self.max_residual <= self.tolerance)

    @property
    def max_residual(self) -> float:
        return float(max(r for _, r in self.residuals))

    def as_dict(self) -> dict[str, float]:
        return dict(self.residuals)


# default corner tolerances by data representation
CORNER_TOL_ANALYTIC = 1e-10
CORNER_TOL_SAMPLED = 1e-6


def _default_corner_tol(cd: ClassicalData) -> float:
    return CORNER_TOL_SAMPLED if cd.any_sampled() else CORNER_TOL_ANALYTIC


def _trace_derivatives(trace: BoundaryTrace, axis: Axis | None):
    """Derivative evaluators of an edge function, differencing if absent.

    Returns (d1_at_0, d2_field).  Analytic evaluators are used verbatim;
    otherwise samples on the supplied axis are differenced (second order,
    one-sided at the endpoints) and the second derivative is returned as a
    sampled field.
    """
    if trace.d1 is not None and trace.d2 is not None:
        return float(trace.d1.eval(0.0)), trace.d2
    if axis is None:
        raise ValueError("trace lacks derivative evaluators; a grid is required "
                         "to difference it")
    vals = trace.value.sample(axis)
    d1, d2 = fd_derivatives(axis.nodes, vals)
    d1_at_0 = float(trace.d1.eval(0.0)) if trace.d1 is not None else float(d1[0])
    d2_field = trace.d2 if trace.d2 is not None else samples1d(axis.nodes, d2)
    return d1_at_0, d2_field


def classical_to_nonclassical(cd: ClassicalData, domain: Domain,
                              grid: Grid2D | None = None,
                              corner_tol: float | None = None) -> NonclassicalData:
    """Extract the 11 nonclassical components from classical edge data.

    Corner values given by two edges each must agree within `corner_tol`
    (defaults depend on whether any trace is grid-sampled); disagreement
    raises CornerMismatchError.
    """
    tol = _default_corner_tol(cd) if corner_tol is None else corner_tol

    u00_a = float(cd.left.value.eval(0.0))
    u00_b = float(cd.bottom.value.eval(0.0))
    if abs(u00_a - u00_b) > tol:
        raise CornerMismatchError(
            f"edge values disagree at (0,0): {u00_a} vs {u00_b}")
    u10_a = float(cd.right.value.eval(0.0))
    u10_b = float(cd.bottom.value.eval(domain.h1))
    if abs(u10_a - u10_b) > tol:
        raise CornerMismatchError(
            f"edge values disagree at (h1,0): {u10_a} vs {u10_b}")
    u01_a = float(cd.top.value.eval(0.0))
    u01_b = float(cd.left.value.eval(domain.h2))
    if abs(u01_a - u01_b) > tol:
        raise CornerMismatchError(
            f"edge values disagree at (0,h2): {u01_a} vs {u01_b}")

    x_axis = grid.ax if grid is not None else None
    y_axis = grid.ay if grid is not None else None
    ux00, uxx_bottom = _trace_derivatives(cd.bottom, x_axis)
    uy00, uyy_left = _trace_derivatives(cd.left, y_axis)
    uy10, uyy_right = _trace_derivatives(cd.right, y_axis)
    ux01, uxx_top = _trace_derivatives(cd.top, x_axis)

    return NonclassicalData(
        u00=u00_a, ux00=ux00, uy00=uy00,
        uxx_bottom=uxx_bottom, uyy_left=uyy_left,
        u10=u10_a, uy10=uy10, uyy_right=uyy_right,
        u01=u01_a, ux01=ux01, uxx_top=uxx_top)


def nonclassical_to_classical(data: NonclassicalData, domain: Domain,
                              grid: Grid2D) -> ClassicalData:
    """Rebuild the four edge functions from nonclassical data.

    Each edge function is the second antiderivative of its edge trace,
    anchored by the corner value and first derivative; the integrals are
    realized by first-moment trapezoid quadrature on the grid axes, so the
    result is a grid-sampled trace (derivatives, if needed later, come from
    differencing).
    """
    ax, ay = grid.ax, grid.ay
    sd = sample_data(data, grid)

    left_vals = sd.u00 + ay.nodes * sd.uy00 + ay.cum1 @ sd.uyy_left
    right_vals = sd.u10 + ay.nodes * sd.uy10 + ay.cum1 @ sd.uyy_right
    bottom_vals = sd.u00 + ax.nodes * sd.ux00 + ax.cum1 @ sd.uxx_bottom
    top_vals = sd.u01 + ax.nodes * sd.ux01 + ax.cum1 @ sd.uxx_top

    return ClassicalData(
        left=BoundaryTrace(samples1d(ay.nodes, left_vals)),
        right=BoundaryTrace(samples1d(ay.nodes, right_vals)),
        bottom=BoundaryTrace(samples1d(ax.nodes, bottom_vals)),
        top=BoundaryTrace(samples1d(ax.nodes, top_vals)))


def check_matching(cd: ClassicalData, domain: Domain,
                   tol: float | None = None) -> CheckReport:
    """Residuals of the four corner matching relations of classical data."""
    tol = _default_corner_tol(cd) if tol is None else tol
    h1, h2 = domain.h1, domain.h2
    res = (
        ("corner(0,0)", abs(float(cd.left.value.eval(0.0)) - float(cd.bottom.value.eval(0.0)))),
        ("corner(h1,h2)", abs(float(cd.right.value.eval(h2)) - float(cd.top.value.eval(h1)))),
        ("corner(0,h2)", abs(float(cd.left.value.eval(h2)) - float(cd.top.value.eval(0.0)))),
        ("corner(h1,0)", abs(float(cd.right.value.eval(0.0)) - float(cd.bottom.value.eval(h1)))),
    )
    return CheckReport(res, tol)


def constraint_tolerance(sd: SampledData, grid: Grid2D) -> float:
    """Grid-aware tolerance for the two scalar data constraints.

    Ten times the composite-trapezoid error bound of the two moment
    integrals involved, plus a small floor proportional to the data scale.
    """
    ax, ay = grid.ax, grid.ay
    h1, h2 = grid.domain.h1, grid.domain.h2
    b1 = trapezoid_error_bound(ax.nodes, (h1 - ax.nodes) * sd.uxx_bottom)
    b2 = trapezoid_error_bound(ay.nodes, (h2 - ay.nodes) * sd.uyy_left)
    scale = max(1.0, abs(sd.u00), abs(sd.ux00), abs(sd.uy00), abs(sd.u10), abs(sd.u01),
                float(np.max(np.abs(sd.uxx_bottom), initial=0.0)),
                float(np.max(np.abs(sd.uyy_left), initial=0.0)))
    return 10.0 * max(b1, b2) + 1e-9 * scale


def check_data_constraints(sd: SampledData, grid: Grid2D,
                           tol: float | None = None) -> CheckReport:
    """The two unknown-free relations nonclassical data must satisfy.

    The corner values u(h1,0) and u(0,h2) are already determined by the
    origin data integrated along the bottom and left edges; these residuals
    are necessary conditions on admissible data and are checked before any
    solve (a force flag can bypass the gate, never the report).
    """
    ax, ay = grid.ax, grid.ay
    h1, h2 = grid.domain.h1, grid.domain.h2
    r1 = float(abs(sd.u00 + h1 * sd.ux00 + float(ax.cum1[-1] @ sd.uxx_bottom) - sd.u10))
    r2 = float(abs(sd.u00 + h2 * sd.uy00 + float(ay.cum1[-1] @ sd.uyy_left) - sd.u01))
    if tol is None:
        tol = constraint_tolerance(sd, grid)
    return CheckReport((("bottom-edge route to u(h1,0)", r1),
                        ("left-edge route to u(0,h2)", r2)), tol)


@dataclass(frozen=True)
class PdeProblem:
    """A complete problem: domain, coefficients, forcing and boundary data."""

    domain: Domain
    coeffs: Coefficients
    forcing: Field2D = ZERO_2D
    data: NonclassicalData = field(default_factory=NonclassicalData)


@dataclass(frozen=True)
class SampledProblem:
    """A problem sampled on one grid, once: coefficient grids by key, the
    forcing grid and the boundary data, read by every stage of a solve."""

    grid: Grid2D
    coeffs: dict[str, np.ndarray]
    forcing: np.ndarray
    data: SampledData


def sample_problem(problem: PdeProblem, grid: Grid2D) -> SampledProblem:
    """Sample the coefficients, the forcing and the boundary data on `grid`."""
    return SampledProblem(grid, problem.coeffs.sample_all(grid),
                          problem.forcing.sample(grid), sample_data(problem.data, grid))
