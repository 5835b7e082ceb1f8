"""Manufactured solutions and convergence studies.

`make_mms` derives a complete problem from a chosen solution with analytic
derivatives, so the solver's output can be compared against truth, and
`convergence_study` sweeps it over grid sizes; `named_cases` are the fixed
cases that `mangeron verify` runs.

A manufactured solution is a sum of separable terms f(x) g(y), each factor
an (f, f', f'') triple.  Import these names from `mangeron.mms`: the
package does not import this module, so a solve loads neither it nor
numpy.polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import polynomial as npoly

from .fields import Field2D, piecewise2d
from .grids import Domain, build_grid
from .problem import DERIVATIVES, Coefficients, PdeProblem, solution_data
from .solver import solve_problem

#: sup errors below this are reported as exact-at-nodes in convergence tables
EXACT_TOL = 1e-12


#: one separable factor as (f, f', f''), each elementwise in t
Factor = tuple[Callable, Callable, Callable]


def sep_poly(*coeffs) -> Factor:
    """Polynomial factor; coefficients from constant term upward."""
    c0 = np.array(coeffs, dtype=float)
    c1 = npoly.polyder(c0)
    c2 = npoly.polyder(c1)

    def ev(c):
        return lambda t, _c=c: npoly.polyval(np.asarray(t, dtype=float), _c) \
            if len(_c) else np.zeros(np.shape(t))

    return ev(c0), ev(c1), ev(c2)


def sep_sin(a: float = 1.0) -> Factor:
    return (lambda t: np.sin(a * np.asarray(t)),
            lambda t: a * np.cos(a * np.asarray(t)),
            lambda t: -a * a * np.sin(a * np.asarray(t)))


@dataclass(frozen=True)
class SeparableSolution:
    """Sum of separable terms f(x) g(y), differentiable twice in each variable."""

    terms: tuple[tuple[Factor, Factor], ...]

    def eval_deriv(self, i: int, j: int, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = np.zeros(np.broadcast_shapes(x.shape, y.shape))
        for fx, gy in self.terms:
            out = out + np.asarray(fx[i](x)) * np.asarray(gy[j](y))
        return out


def bilinear_solution() -> SeparableSolution:
    return SeparableSolution(((sep_poly(0.0, 1.0), sep_poly(0.0, 1.0)),))


def biquadratic_solution() -> SeparableSolution:
    return SeparableSolution(((sep_poly(0.0, 0.0, 1.0), sep_poly(0.0, 0.0, 1.0)),))


def bicubic_solution() -> SeparableSolution:
    return SeparableSolution(((sep_poly(0.0, 0.0, 0.0, 1.0), sep_poly(0.0, 0.0, 0.0, 1.0)),))


def trig_solution() -> SeparableSolution:
    return SeparableSolution(((sep_sin(), sep_sin()),))


@dataclass(frozen=True)
class MmsCase:
    """A manufactured problem together with its known solution."""

    u_star: SeparableSolution
    problem: PdeProblem
    x_breakpoints: tuple[float, ...] = ()


def make_mms(u_star: SeparableSolution, coeffs: Coefficients, domain: Domain,
             x_breakpoints: Sequence[float] = ()) -> MmsCase:
    """Derive forcing and all 11 data components from a known solution."""
    d = u_star.eval_deriv

    def forcing_fn(x, y):
        out = d(2, 2, x, y)
        for key, name in Coefficients.MULTIPLIES.items():
            out = out + getattr(coeffs, key).eval(x, y) * d(*DERIVATIVES[name], x, y)
        return out

    problem = PdeProblem(domain, coeffs, Field2D(forcing_fn), solution_data(d, domain))
    return MmsCase(u_star, problem, x_breakpoints=tuple(x_breakpoints))


@dataclass
class ConvergenceRow:
    n: int
    sup_error: float
    order: float | None
    exact: bool


@dataclass
class ConvergenceTable:
    rows: list[ConvergenceRow]
    monotone: bool

    @property
    def observed_orders(self) -> list[float]:
        return [r.order for r in self.rows if r.order is not None]

    @property
    def all_exact(self) -> bool:
        return all(r.exact for r in self.rows)


def convergence_study(case: MmsCase, sizes: Sequence[int]) -> ConvergenceTable:
    """Sup errors of `solve_problem` on its default route against the known
    solution over a sweep of grid sizes.

    Orders come from consecutive error ratios; errors at roundoff level are
    flagged exact and excluded from order estimates.  A non-monotone error
    sequence is flagged through `monotone`, not fatal.
    """
    if len(sizes) < 3:
        raise ValueError("need at least 3 grid sizes for a convergence study")
    errors = []
    hs = []
    for n in sizes:
        grid = build_grid(case.problem.domain, n, n, x_breakpoints=case.x_breakpoints)
        u_num = solve_problem(case.problem, grid).bundle.u.values
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
    return ConvergenceTable(rows=rows, monotone=monotone)


def named_cases(domain: Domain | None = None) -> dict[str, MmsCase]:
    """Fixed reproducible verification cases."""
    dom = domain or Domain(1.0, 1.0)
    one = Field2D(lambda x, y: np.ones(np.broadcast_shapes(np.shape(x), np.shape(y))))
    mid = dom.h1 / 2.0
    jump = piecewise2d(
        [((0.0, mid, 0.0, dom.h2), lambda x, y: np.ones(np.shape(x))),
         ((mid, dom.h1, 0.0, dom.h2), lambda x, y: 2.0 * np.ones(np.shape(x)))],
        dom.h1, dom.h2)
    return {
        "bilinear": make_mms(bilinear_solution(), Coefficients(), dom),
        "biquadratic": make_mms(biquadratic_solution(), Coefficients(c_u=one), dom),
        "bicubic": make_mms(bicubic_solution(), Coefficients(c_u=one), dom),
        "trig": make_mms(trig_solution(), Coefficients(), dom),
        "piecewise": make_mms(trig_solution(), Coefficients(c_u=jump), dom,
                              x_breakpoints=(mid,)),
    }
