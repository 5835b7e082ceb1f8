"""Manufactured solutions and independent cross-checking oracles.

Two verification routes live here.  `make_mms` derives a complete problem
from a chosen solution with analytic derivatives, so the solver's output
can be compared against truth.  `fd_oracle` solves the same problem by a
plain finite-difference discretization fed with classical edge data (built
through the nonclassical-to-classical conversion), sharing nothing with the
integral-equation pipeline except the grid.  `forward_problem` goes the
other way: it picks the unknown quadruple first and manufactures data that
is consistent with the discrete quadrature itself, which any correct solve
must reproduce to roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np
from numpy.polynomial import polynomial as npoly

from .fields import Field1D, Field2D, Piece2D, piecewise2d, samples1d, samples2d
from .grids import Domain, Grid2D, GridFn1D, GridFn2D, build_grid
from .problem import (Coefficients, NonclassicalData, PdeProblem, nonclassical_to_classical,
                      sample_data)
from .reduction import apply_pde_operator
from .solver import ReducedUnknowns, SolutionBundle, assemble_solution, solve_problem

if TYPE_CHECKING:
    from scipy import sparse

#: sup errors below this are reported as exact-at-nodes in convergence tables
EXACT_TOL = 1e-11


@dataclass(frozen=True)
class Sep1D:
    """One separable factor with its first two derivatives."""

    f: Callable
    d1: Callable
    d2: Callable

    def order(self, k: int) -> Callable:
        return (self.f, self.d1, self.d2)[k]


def sep_poly(*coeffs) -> Sep1D:
    """Polynomial factor; coefficients from constant term upward."""
    c0 = np.array(coeffs, dtype=float)
    c1 = npoly.polyder(c0)
    c2 = npoly.polyder(c1)

    def ev(c):
        return lambda t, _c=c: npoly.polyval(np.asarray(t, dtype=float), _c) \
            if len(_c) else np.zeros(np.shape(t))

    return Sep1D(ev(c0), ev(c1), ev(c2))


def sep_sin(a: float = 1.0) -> Sep1D:
    return Sep1D(lambda t: np.sin(a * np.asarray(t)),
                 lambda t: a * np.cos(a * np.asarray(t)),
                 lambda t: -a * a * np.sin(a * np.asarray(t)))


def sep_cos(a: float = 1.0) -> Sep1D:
    return Sep1D(lambda t: np.cos(a * np.asarray(t)),
                 lambda t: -a * np.sin(a * np.asarray(t)),
                 lambda t: -a * a * np.cos(a * np.asarray(t)))


def sep_exp(a: float = 1.0) -> Sep1D:
    return Sep1D(lambda t: np.exp(a * np.asarray(t)),
                 lambda t: a * np.exp(a * np.asarray(t)),
                 lambda t: a * a * np.exp(a * np.asarray(t)))


def sep_scale(s: Sep1D, c: float) -> Sep1D:
    return Sep1D(lambda t: c * np.asarray(s.f(t)),
                 lambda t: c * np.asarray(s.d1(t)),
                 lambda t: c * np.asarray(s.d2(t)))


@dataclass(frozen=True)
class SeparableSolution:
    """Sum of separable terms f(x) g(y), differentiable twice in each variable."""

    terms: tuple[tuple[Sep1D, Sep1D], ...]

    def eval_deriv(self, i: int, j: int, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = np.zeros(np.broadcast_shapes(x.shape, y.shape))
        for fx, gy in self.terms:
            out = out + np.asarray(fx.order(i)(x)) * np.asarray(gy.order(j)(y))
        return out

    def deriv_field(self, i: int, j: int) -> Field2D:
        return Field2D(lambda x, y, _i=i, _j=j: self.eval_deriv(_i, _j, x, y))


def bilinear_solution() -> SeparableSolution:
    return SeparableSolution(((sep_poly(0.0, 1.0), sep_poly(0.0, 1.0)),))


def biquadratic_solution() -> SeparableSolution:
    return SeparableSolution(((sep_poly(0.0, 0.0, 1.0), sep_poly(0.0, 0.0, 1.0)),))


def bicubic_solution() -> SeparableSolution:
    return SeparableSolution(((sep_poly(0.0, 0.0, 0.0, 1.0), sep_poly(0.0, 0.0, 0.0, 1.0)),))


def trig_solution() -> SeparableSolution:
    return SeparableSolution(((sep_sin(), sep_sin()),))


def random_solution(rng: np.random.Generator) -> SeparableSolution:
    """Random smooth solution: cubic x cubic plus a scaled trig term."""
    t1 = (sep_poly(*rng.uniform(-1.0, 1.0, 4)), sep_poly(*rng.uniform(-1.0, 1.0, 4)))
    a = rng.uniform(0.5, 2.0)
    b = rng.uniform(0.5, 2.0)
    t2 = (sep_scale(sep_sin(a), rng.uniform(-1.0, 1.0)), sep_cos(b))
    return SeparableSolution((t1, t2))


def random_coefficients(rng: np.random.Generator, magnitude: float = 0.3) -> Coefficients:
    """Smooth random coefficient fields of bounded size."""
    def one() -> Field2D:
        c = rng.uniform(-magnitude, magnitude, 4)
        return Field2D(lambda x, y, _c=c: _c[0] + _c[1] * np.asarray(x)
                       + _c[2] * np.asarray(y) + _c[3] * np.asarray(x) * np.asarray(y))
    return Coefficients(**{k: one() for k in Coefficients.KEYS})


@dataclass(frozen=True)
class MmsCase:
    """A manufactured problem together with its known solution."""

    name: str
    u_star: SeparableSolution
    coeffs: Coefficients
    domain: Domain
    problem: PdeProblem
    x_breakpoints: tuple[float, ...] = ()


def make_mms(u_star: SeparableSolution, coeffs: Coefficients, domain: Domain,
             name: str = "mms", x_breakpoints: Sequence[float] = ()) -> MmsCase:
    """Derive forcing and all 11 data components from a known solution."""
    d = u_star.eval_deriv
    h1, h2 = domain.h1, domain.h2

    def forcing_fn(x, y):
        out = d(2, 2, x, y)
        out = out + coeffs.c_xxy.eval(x, y) * d(2, 1, x, y)
        out = out + coeffs.c_xyy.eval(x, y) * d(1, 2, x, y)
        out = out + coeffs.c_xx.eval(x, y) * d(2, 0, x, y)
        out = out + coeffs.c_yy.eval(x, y) * d(0, 2, x, y)
        out = out + coeffs.c_xy.eval(x, y) * d(1, 1, x, y)
        out = out + coeffs.c_x.eval(x, y) * d(1, 0, x, y)
        out = out + coeffs.c_y.eval(x, y) * d(0, 1, x, y)
        out = out + coeffs.c_u.eval(x, y) * d(0, 0, x, y)
        return out

    data = NonclassicalData(
        u00=float(d(0, 0, 0.0, 0.0)),
        ux00=float(d(1, 0, 0.0, 0.0)),
        uy00=float(d(0, 1, 0.0, 0.0)),
        uxx_bottom=Field1D(lambda t: d(2, 0, t, 0.0)),
        uyy_left=Field1D(lambda t: d(0, 2, 0.0, t)),
        u10=float(d(0, 0, h1, 0.0)),
        uy10=float(d(0, 1, h1, 0.0)),
        uyy_right=Field1D(lambda t: d(0, 2, h1, t)),
        u01=float(d(0, 0, 0.0, h2)),
        ux01=float(d(1, 0, 0.0, h2)),
        uxx_top=Field1D(lambda t: d(2, 0, t, h2)))
    problem = PdeProblem(domain, coeffs, Field2D(forcing_fn), data)
    return MmsCase(name, u_star, coeffs, domain, problem,
                   x_breakpoints=tuple(x_breakpoints))


def exact_bundle(u_star: SeparableSolution, grid: Grid2D) -> SolutionBundle:
    """All nine derivative grids of a known solution, sampled at the nodes."""
    xx, yy = grid.meshgrid()
    g = {key: GridFn2D(grid, u_star.eval_deriv(i, j, xx, yy))
         for key, (i, j) in (("u", (0, 0)), ("ux", (1, 0)), ("uy", (0, 1)),
                             ("uxx", (2, 0)), ("uyy", (0, 2)), ("uxy", (1, 1)),
                             ("uxxy", (2, 1)), ("uxyy", (1, 2)), ("uxxyy", (2, 2)))}
    return SolutionBundle(**g)


def forward_problem(domain: Domain, grid: Grid2D, coeffs: Coefficients,
                    u00: float, ux00: float, uy00: float,
                    uxx_bottom: np.ndarray, uyy_left: np.ndarray,
                    corner: float, edge_x: np.ndarray, edge_y: np.ndarray,
                    core: np.ndarray):
    """Manufacture a problem from prescribed near-edge data and unknowns.

    The far-edge components are produced by the same quadrature the solver
    uses, so the data is discretely consistent: solving the returned problem
    on the same grid must reproduce the quadruple to linear-solver roundoff.
    Returns (problem, bundle, unknowns).
    """
    ax, ay = grid.ax, grid.ay
    h1, h2 = domain.h1, domain.h2
    mom_x = ax.cum1[-1]     # full first-moment weights on the x axis
    mom_y = ay.cum1[-1]

    u10 = u00 + h1 * ux00 + float(mom_x @ uxx_bottom)
    u01 = u00 + h2 * uy00 + float(mom_y @ uyy_left)
    uy10 = uy00 + h1 * corner + float(mom_x @ edge_x)
    ux01 = ux00 + h2 * corner + float(mom_y @ edge_y)
    uyy_right = uyy_left + h1 * edge_y + mom_x @ core
    uxx_top = uxx_bottom + h2 * edge_x + core @ mom_y

    data = NonclassicalData(
        u00=u00, ux00=ux00, uy00=uy00,
        uxx_bottom=samples1d(ax.nodes, uxx_bottom),
        uyy_left=samples1d(ay.nodes, uyy_left),
        u10=u10, uy10=uy10,
        uyy_right=samples1d(ay.nodes, uyy_right),
        u01=u01, ux01=ux01,
        uxx_top=samples1d(ax.nodes, uxx_top))
    unknowns = ReducedUnknowns(
        uxy00=corner,
        uxxy_bottom=GridFn1D(ax, edge_x),
        uxyy_left=GridFn1D(ay, edge_y),
        uxxyy=GridFn2D(grid, core),
        uxy00_alt=corner)
    bundle = assemble_solution(sample_data(data, grid), unknowns, grid)
    forcing = samples2d(grid, apply_pde_operator(coeffs.sample_all(grid), bundle).values)
    return PdeProblem(domain, coeffs, forcing, data), bundle, unknowns


def random_forward_problem(rng: np.random.Generator, domain: Domain, grid: Grid2D,
                           coeffs: Coefficients):
    """Random admissible problem via the forward construction."""
    x, y = grid.x, grid.y

    def smooth1(t):
        c = rng.uniform(-1.0, 1.0, 3)
        return c[0] + c[1] * t + c[2] * np.sin(t)

    xx, yy = grid.meshgrid()
    c = rng.uniform(-1.0, 1.0, 4)
    core = c[0] + c[1] * xx + c[2] * yy + c[3] * np.sin(xx) * np.cos(yy)
    return forward_problem(
        domain, grid, coeffs,
        u00=float(rng.uniform(-1, 1)), ux00=float(rng.uniform(-1, 1)),
        uy00=float(rng.uniform(-1, 1)),
        uxx_bottom=smooth1(x), uyy_left=smooth1(y),
        corner=float(rng.uniform(-1, 1)),
        edge_x=smooth1(x), edge_y=smooth1(y), core=core)


def difference_matrices(nodes: np.ndarray) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
    """Sparse first/second central-difference matrices, interior rows only.

    Boundary rows are zero; the oracle replaces them with identity rows
    carrying the Dirichlet values, so one-sided stencils are never needed.
    """
    # scipy is imported here, not at module level, so the solve path never loads it
    from scipy import sparse

    n = len(nodes)
    hm = nodes[1:-1] - nodes[:-2]
    hp = nodes[2:] - nodes[1:-1]
    rows = np.repeat(np.arange(1, n - 1), 3)
    cols = np.concatenate([[i - 1, i, i + 1] for i in range(1, n - 1)])
    d1_data = np.column_stack([
        -hp / (hm * (hm + hp)), (hp - hm) / (hm * hp), hm / (hp * (hm + hp))]).ravel()
    d2_data = np.column_stack([
        2.0 / (hm * (hm + hp)), -2.0 / (hm * hp), 2.0 / (hp * (hm + hp))]).ravel()
    d1 = sparse.csr_matrix((d1_data, (rows, cols)), shape=(n, n))
    d2 = sparse.csr_matrix((d2_data, (rows, cols)), shape=(n, n))
    return d1, d2


def fd_oracle(problem: PdeProblem, grid: Grid2D) -> GridFn2D:
    """Independent finite-difference solve with classical Dirichlet rows.

    The nonclassical data is first converted to classical edge functions
    (exercising the conversion on a second path); the operator is
    discretized by central differences on the tensor grid, and boundary
    nodes carry identity rows with the edge values.
    """
    from scipy import sparse
    from scipy.sparse.linalg import spsolve

    cd = nonclassical_to_classical(problem.data, problem.domain, grid)
    n1, n2 = grid.shape
    d1x, d2x = difference_matrices(grid.x)
    d1y, d2y = difference_matrices(grid.y)
    ix = sparse.identity(n1, format="csr")
    iy = sparse.identity(n2, format="csr")
    c = problem.coeffs.sample_all(grid)

    def dia(vals):
        return sparse.diags(vals.ravel())

    op = sparse.kron(d2x, d2y)
    op = op + dia(c["c_xxy"]) @ sparse.kron(d2x, d1y)
    op = op + dia(c["c_xyy"]) @ sparse.kron(d1x, d2y)
    op = op + dia(c["c_xx"]) @ sparse.kron(d2x, iy)
    op = op + dia(c["c_yy"]) @ sparse.kron(ix, d2y)
    op = op + dia(c["c_xy"]) @ sparse.kron(d1x, d1y)
    op = op + dia(c["c_x"]) @ sparse.kron(d1x, iy)
    op = op + dia(c["c_y"]) @ sparse.kron(ix, d1y)
    op = op + dia(c["c_u"])

    rhs = problem.forcing.sample(grid).astype(float)
    boundary = np.zeros((n1, n2), dtype=bool)
    boundary[0, :] = boundary[-1, :] = True
    boundary[:, 0] = boundary[:, -1] = True
    vals = np.zeros((n1, n2))
    vals[:, 0] = cd.bottom.value.sample(grid.ax)
    vals[:, -1] = cd.top.value.sample(grid.ax)
    vals[0, :] = cd.left.value.sample(grid.ay)
    vals[-1, :] = cd.right.value.sample(grid.ay)
    rhs[boundary] = vals[boundary]

    interior = dia((~boundary).astype(float))
    op = interior @ op + dia(boundary.astype(float))
    sol = spsolve(op.tocsc(), rhs.ravel())
    if not np.all(np.isfinite(sol)):
        raise RuntimeError("finite-difference system produced non-finite solution")
    return GridFn2D(grid, sol.reshape(n1, n2))


@dataclass
class ConvergenceRow:
    n: int
    sup_error: float
    order: float | None
    exact: bool


@dataclass
class ConvergenceTable:
    case: str
    solver: str
    rows: list[ConvergenceRow]
    monotone: bool

    @property
    def observed_orders(self) -> list[float]:
        return [r.order for r in self.rows if r.order is not None]

    @property
    def all_exact(self) -> bool:
        return all(r.exact for r in self.rows)


def convergence_study(case: MmsCase, sizes: Sequence[int], solver: str = "integral",
                      method: str = "auto") -> ConvergenceTable:
    """Sup errors against the known solution over a sweep of grid sizes.

    Orders come from consecutive error ratios; errors at roundoff level are
    flagged exact and excluded from order estimates.  A non-monotone error
    sequence is flagged through `monotone`, not fatal.
    """
    if len(sizes) < 3:
        raise ValueError("need at least 3 grid sizes for a convergence study")
    errors = []
    hs = []
    for n in sizes:
        grid = build_grid(case.domain, n, n, x_breakpoints=case.x_breakpoints)
        if solver == "integral":
            result = solve_problem(case.problem, grid, method=method)
            u_num = result.bundle.u.values
        elif solver == "fd":
            u_num = fd_oracle(case.problem, grid).values
        else:
            raise ValueError(f"unknown solver {solver!r}")
        xx, yy = grid.meshgrid()
        u_true = case.u_star.eval_deriv(0, 0, xx, yy)
        errors.append(float(np.max(np.abs(u_num - u_true))))
        hs.append(float(np.max(np.diff(grid.x))))
    rows = []
    for k, n in enumerate(sizes):
        order = None
        if k > 0 and errors[k - 1] > EXACT_TOL and errors[k] > EXACT_TOL:
            order = math.log(errors[k - 1] / errors[k]) / math.log(hs[k - 1] / hs[k])
        rows.append(ConvergenceRow(n=n, sup_error=errors[k], order=order,
                                   exact=errors[k] <= EXACT_TOL))
    monotone = all(errors[k + 1] <= errors[k] * (1 + 1e-9) or errors[k + 1] <= EXACT_TOL
                   for k in range(len(errors) - 1))
    return ConvergenceTable(case=case.name, solver=solver, rows=rows, monotone=monotone)


def named_cases(domain: Domain | None = None) -> dict[str, MmsCase]:
    """Fixed reproducible verification cases."""
    dom = domain or Domain(1.0, 1.0)
    one = Field2D(lambda x, y: np.ones(np.broadcast_shapes(np.shape(x), np.shape(y))))
    mid = dom.h1 / 2.0
    jump = piecewise2d(
        [Piece2D(0.0, mid, 0.0, dom.h2, lambda x, y: np.ones(np.shape(x))),
         Piece2D(mid, dom.h1, 0.0, dom.h2, lambda x, y: 2.0 * np.ones(np.shape(x)))],
        dom.h1, dom.h2)
    return {
        "bilinear": make_mms(bilinear_solution(), Coefficients(), dom, name="bilinear"),
        "biquadratic": make_mms(biquadratic_solution(), Coefficients(c_u=one), dom,
                                name="biquadratic"),
        "bicubic": make_mms(bicubic_solution(), Coefficients(c_u=one), dom, name="bicubic"),
        "trig": make_mms(trig_solution(), Coefficients(), dom, name="trig"),
        "piecewise": make_mms(trig_solution(), Coefficients(c_u=jump), dom,
                              name="piecewise", x_breakpoints=(mid,)),
    }
