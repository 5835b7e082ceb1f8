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
the edge they live on (`uxx_bottom` is u_xx(x, 0)).  `NonclassicalData.PLACES`
states both once, as a solution grid and a node or edge; a solution bundle
(`boundary_values`), the manufactured data, the data norm, the config and
the CLI read it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fields import Field1D, Field2D, ZERO_1D, ZERO_2D, samples1d
from .grids import Axis, Domain, Grid2D, fd_derivatives


class DataConsistencyError(ValueError):
    """Boundary data violates a compatibility relation beyond tolerance."""


class CornerMismatchError(DataConsistencyError):
    """Classical edge functions disagree at a shared corner."""


class ConstraintError(DataConsistencyError):
    """Nonclassical data violates one of the two scalar corner constraints."""


#: the nine derivative grids of a solution, each by its orders (i, j) in x and y
DERIVATIVES = {"u": (0, 0), "ux": (1, 0), "uy": (0, 1), "uxx": (2, 0), "uyy": (0, 2),
               "uxy": (1, 1), "uxxy": (2, 1), "uxyy": (1, 2), "uxxyy": (2, 2)}


@dataclass(frozen=True)
class Coefficients:
    """The eight coefficient fields of the fourth-order operator.

    Each field is named by the derivative of u it multiplies (`MULTIPLIES`,
    the equation's one statement: u_xxyy plus each coefficient times its
    grid, in this order); the leading mixed fourth derivative has unit
    coefficient and is not stored.  The
    admissible mixed-norm classes: coefficients of x-second-derivative terms
    (c_xxy, c_xx) are bounded in x and integrable in y, those of
    y-second-derivative terms (c_xyy, c_yy) the transpose, and the low-order
    ones merely integrable.  Missing coefficients are zero.
    """

    c_xxy: Field2D = ZERO_2D
    c_xyy: Field2D = ZERO_2D
    c_xx: Field2D = ZERO_2D
    c_yy: Field2D = ZERO_2D
    c_xy: Field2D = ZERO_2D
    c_x: Field2D = ZERO_2D
    c_y: Field2D = ZERO_2D
    c_u: Field2D = ZERO_2D

    MULTIPLIES = {"c_xxy": "uxxy", "c_xyy": "uxyy", "c_xx": "uxx", "c_yy": "uyy",
                  "c_xy": "uxy", "c_x": "ux", "c_y": "uy", "c_u": "u"}
    KEYS = tuple(MULTIPLIES)

    def sample_all(self, grid: Grid2D) -> dict[str, np.ndarray]:
        return {k: getattr(self, k).sample(grid) for k in self.KEYS}


@dataclass(frozen=True)
class NonclassicalData:
    """The 11-component boundary data element.

    `PLACES` states where each component lives: the `DERIVATIVES` grid it
    traces and its node on each axis, 0 or 1 for the side at 0 or at h, or
    None along the edge a trace runs on.
    """

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

    PLACES = {"u00": ("u", 0, 0), "ux00": ("ux", 0, 0), "uy00": ("uy", 0, 0),
              "uxx_bottom": ("uxx", None, 0), "uyy_left": ("uyy", 0, None),
              "u10": ("u", 1, 0), "uy10": ("uy", 1, 0), "uyy_right": ("uyy", 1, None),
              "u01": ("u", 0, 1), "ux01": ("ux", 0, 1), "uxx_top": ("uxx", None, 1)}
    SCALAR_KEYS = tuple(k for k, (_, px, py) in PLACES.items() if None not in (px, py))
    TRACE_KEYS = tuple(k for k, (_, px, py) in PLACES.items() if None in (px, py))


def trace_axis(key: str) -> int:
    """The axis a trace of `NonclassicalData` runs along: 0 for x, 1 for y."""
    return NonclassicalData.PLACES[key][1:].index(None)


def solution_data(d, domain: Domain) -> NonclassicalData:
    """The 11 components of a known solution, read at their `PLACES`.

    `d(i, j, x, y)` evaluates the solution's derivative of orders (i, j) at
    broadcastable points.
    """
    sides = ((0.0, domain.h1), (0.0, domain.h2))
    parts = {}
    for key, (name, px, py) in NonclassicalData.PLACES.items():
        i, j = DERIVATIVES[name]
        if px is None:
            parts[key] = Field1D(lambda t, _i=i, _j=j, _y=sides[1][py]: d(_i, _j, t, _y))
        elif py is None:
            parts[key] = Field1D(lambda t, _i=i, _j=j, _x=sides[0][px]: d(_i, _j, _x, t))
        else:
            parts[key] = float(d(i, j, sides[0][px], sides[1][py]))
    return NonclassicalData(**parts)


@dataclass(frozen=True)
class SampledData:
    """Nonclassical data sampled on one grid, plus the 1-D factors of the
    separable base part of the solution (`reduction.REPRESENTATION`), the
    only form it is held in."""

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
    base_x: np.ndarray       # u00 + x ux00 + cum1(uxx_bottom), (n1,)
    base_y: np.ndarray       # y uy00 + cum1(uyy_left), (n2,)
    base_ux: np.ndarray      # ux00 + cum0(uxx_bottom), (n1,)
    base_uy: np.ndarray      # uy00 + cum0(uyy_left), (n2,)


def sample_data(data: NonclassicalData, grid: Grid2D) -> SampledData:
    ax, ay = grid.ax, grid.ay
    uxx_b = data.uxx_bottom.sample(ax)
    uxx_t = data.uxx_top.sample(ax)
    uyy_l = data.uyy_left.sample(ay)
    uyy_r = data.uyy_right.sample(ay)
    run_x, mom_x = ax.cumulative(uxx_b)
    run_y, mom_y = ay.cumulative(uyy_l)
    return SampledData(
        data.u00, data.ux00, data.uy00, data.u10, data.uy10, data.u01, data.ux01,
        uxx_b, uxx_t, uyy_l, uyy_r,
        data.u00 + ax.nodes * data.ux00 + mom_x, ay.nodes * data.uy00 + mom_y,
        data.ux00 + run_x, data.uy00 + run_y)


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


@dataclass(frozen=True)
class CheckReport:
    """Named residuals of a compatibility check, passed iff all within tol (NaN fails)."""

    residuals: tuple[tuple[str, float], ...]
    tolerance: float

    @property
    def passed(self) -> bool:
        return bool(self.max_residual <= self.tolerance)

    @property
    def max_residual(self) -> float:
        return float(np.max([r for _, r in self.residuals]))

    def as_dict(self) -> dict[str, float]:
        return dict(self.residuals)


# corner tolerances: the default, for edges given as expressions, and the one
# for edges built by quadrature on a grid (`nonclassical_to_classical`)
CORNER_TOL_ANALYTIC = 1e-10
CORNER_TOL_SAMPLED = 1e-6


def check_matching(cd: ClassicalData, domain: Domain,
                   tol: float = CORNER_TOL_ANALYTIC) -> CheckReport:
    """Residuals of the four corner matching relations of classical data.

    Edges built by quadrature agree at the corners only to quadrature
    error; pass `tol=CORNER_TOL_SAMPLED` for them.
    """
    h1, h2 = domain.h1, domain.h2
    res = (
        ("corner(0,0)", abs(float(cd.left.value.eval(0.0)) - float(cd.bottom.value.eval(0.0)))),
        ("corner(h1,h2)", abs(float(cd.right.value.eval(h2)) - float(cd.top.value.eval(h1)))),
        ("corner(0,h2)", abs(float(cd.left.value.eval(h2)) - float(cd.top.value.eval(0.0)))),
        ("corner(h1,0)", abs(float(cd.right.value.eval(0.0)) - float(cd.bottom.value.eval(h1)))),
    )
    return CheckReport(res, tol)


def _trace_derivatives(trace: BoundaryTrace, axis: Axis):
    """Derivative evaluators of an edge function, differencing if absent.

    Returns (d1_at_0, d2_field).  Analytic evaluators are used verbatim;
    otherwise samples on `axis` are differenced (second order, one-sided at
    the endpoints) and the second derivative is returned as a sampled field.
    """
    if trace.d1 is not None and trace.d2 is not None:
        return float(trace.d1.eval(0.0)), trace.d2
    vals = trace.value.sample(axis)
    d1, d2 = fd_derivatives(axis.nodes, vals)
    d1_at_0 = float(trace.d1.eval(0.0)) if trace.d1 is not None else float(d1[0])
    d2_field = trace.d2 if trace.d2 is not None else samples1d(axis.nodes, d2)
    return d1_at_0, d2_field


def classical_to_nonclassical(cd: ClassicalData, grid: Grid2D,
                              corner_tol: float = CORNER_TOL_ANALYTIC) -> NonclassicalData:
    """Extract the 11 nonclassical components from classical edge data; an
    edge without derivative evaluators is differenced on `grid`.

    The edge values must agree at all four corners within `corner_tol`, as
    measured by `check_matching` (see there for edges built by quadrature);
    the first corner that disagrees, a NaN residual included, raises
    CornerMismatchError naming it.
    """
    matching = check_matching(cd, grid.domain, corner_tol)
    for name, r in matching.residuals:
        if not r <= matching.tolerance:
            raise CornerMismatchError(f"edge values disagree at {name}: "
                                      f"|difference| {r} > {matching.tolerance}")

    ux00, uxx_bottom = _trace_derivatives(cd.bottom, grid.ax)
    uy00, uyy_left = _trace_derivatives(cd.left, grid.ay)
    uy10, uyy_right = _trace_derivatives(cd.right, grid.ay)
    ux01, uxx_top = _trace_derivatives(cd.top, grid.ax)

    return NonclassicalData(
        u00=float(cd.left.value.eval(0.0)), ux00=ux00, uy00=uy00,
        uxx_bottom=uxx_bottom, uyy_left=uyy_left,
        u10=float(cd.right.value.eval(0.0)), uy10=uy10, uyy_right=uyy_right,
        u01=float(cd.top.value.eval(0.0)), ux01=ux01, uxx_top=uxx_top)


def nonclassical_to_classical(data: NonclassicalData, grid: Grid2D) -> ClassicalData:
    """Rebuild the four edge functions from nonclassical data.

    Each edge function is the second antiderivative of its edge trace,
    anchored by the corner value and first derivative; the integrals are
    the grid axes' first-moment running sums (`Axis.cumulative`), so the
    result is a grid-sampled trace (derivatives, if needed later, come from
    differencing).
    """
    ax, ay = grid.ax, grid.ay
    sd = sample_data(data, grid)

    # the bottom and left edges are traces of the base part
    left_vals = sd.u00 + sd.base_y
    right_vals = sd.u10 + ay.nodes * sd.uy10 + ay.cumulative(sd.uyy_right)[1]
    bottom_vals = sd.base_x
    top_vals = sd.u01 + ax.nodes * sd.ux01 + ax.cumulative(sd.uxx_top)[1]

    return ClassicalData(
        left=BoundaryTrace(samples1d(ay.nodes, left_vals)),
        right=BoundaryTrace(samples1d(ay.nodes, right_vals)),
        bottom=BoundaryTrace(samples1d(ax.nodes, bottom_vals)),
        top=BoundaryTrace(samples1d(ax.nodes, top_vals)))


def constraint_tolerance(sd: SampledData, grid: Grid2D) -> float:
    """Grid-aware tolerance for the two scalar data constraints.

    Ten times the quadrature error bound (`Axis.error_bound`) of the two
    moment integrals, plus a small floor proportional to the data scale.
    """
    ax, ay = grid.ax, grid.ay
    h1, h2 = grid.domain.h1, grid.domain.h2
    b1 = ax.error_bound((h1 - ax.nodes) * sd.uxx_bottom)
    b2 = ay.error_bound((h2 - ay.nodes) * sd.uyy_left)
    scale = max(1.0, abs(sd.u00), abs(sd.ux00), abs(sd.uy00), abs(sd.u10), abs(sd.u01),
                float(np.max(np.abs(sd.uxx_bottom), initial=0.0)),
                float(np.max(np.abs(sd.uyy_left), initial=0.0)))
    return 10.0 * max(b1, b2) + 1e-9 * scale


def check_data_constraints(sd: SampledData, grid: Grid2D) -> CheckReport:
    """The two unknown-free relations nonclassical data must satisfy.

    The corner values u(h1,0) and u(0,h2) are already determined by the
    origin data integrated along the bottom and left edges, as the base part
    there (`base_x[-1] + base_y[0]`, `base_x[0] + base_y[-1]`); these residuals
    are necessary conditions on admissible data and are checked before any
    solve (a force flag can bypass the gate, never the report).
    """
    r1 = float(abs(sd.base_x[-1] + sd.base_y[0] - sd.u10))
    r2 = float(abs(sd.base_x[0] + sd.base_y[-1] - sd.u01))
    return CheckReport((("bottom-edge route to u(h1,0)", r1),
                        ("left-edge route to u(0,h2)", r2)), constraint_tolerance(sd, grid))


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
    """Sample the coefficients, the forcing and the boundary data on `grid`,
    which must lie on the problem's domain.  A coefficient or forcing sample
    that is not finite is refused, naming its field and node.  The forcing
    grid is read-only, because every stage of a solve reads this one sample."""
    if grid.domain != problem.domain:
        raise ValueError(f"grid on {grid.domain}, but the problem is posed on {problem.domain}")
    coeffs = problem.coeffs.sample_all(grid)
    forcing = problem.forcing.sample(grid)
    for name, values in (*coeffs.items(), ("forcing", forcing)):
        if not np.isfinite(values).all():
            i, j = np.unravel_index(np.argmin(np.isfinite(values)), values.shape)
            raise ValueError(f"{name} is {values[i, j]} at node ({i}, {j}), "
                             f"(x, y) = ({float(grid.x[i])!r}, {float(grid.y[j])!r}): not finite")
    forcing.flags.writeable = False
    return SampledProblem(grid, coeffs, forcing, sample_data(problem.data, grid))
