"""Test-only helpers over the package: random manufactured solutions and
coefficients, the forward construction of a problem from a chosen
quadruple, a known solution's exact bundle, the linear combination of data
elements, an empirical stability ratio over a family of problems, and row
tiles of a set size for the tests of the row-tiled passes."""

from dataclasses import dataclass

import numpy as np

from mangeron import (DERIVATIVES, Coefficients, ConstraintError, Field1D, Field2D, GridFn2D,
                      NonclassicalData, PdeProblem, SolutionBundle, SolverError,
                      apply_pde_operator, assemble_solution, sample_data, samples1d,
                      solve_problem, trace_axis)
from mangeron import grids
from mangeron.mms import Factor, SeparableSolution, sep_poly, sep_sin

#: rows of the row tiles that `set_tile_rows` sets, a power of two
TILE_ROWS = 32


def set_tile_rows(monkeypatch, n2: int, rows: int = TILE_ROWS):
    """Make the row tiles (`grids.row_tiles`) of grids of n2 nodes a line
    `rows` rows, a power of two, so that a small grid spans several tiles."""
    monkeypatch.setattr(grids, "TILE_NODES", rows * n2)
    assert grids.tile_rows((rows + 1, n2)) == rows


def sep_cos(a: float = 1.0) -> Factor:
    return (lambda t: np.cos(a * np.asarray(t)),
            lambda t: -a * np.sin(a * np.asarray(t)),
            lambda t: -a * a * np.cos(a * np.asarray(t)))


def sep_exp(a: float = 1.0) -> Factor:
    return (lambda t: np.exp(a * np.asarray(t)),
            lambda t: a * np.exp(a * np.asarray(t)),
            lambda t: a * a * np.exp(a * np.asarray(t)))


def sep_scale(s: Factor, c: float) -> Factor:
    return tuple(lambda t, _d=d: c * np.asarray(_d(t)) for d in s)


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


def node_field(grid, values) -> Field2D:
    """A field known only at the nodes of `grid`: it evaluates there, as
    `Field2D.sample(grid)` asks, and refuses any other points."""
    def fn(x, y):
        if not (np.array_equal(np.ravel(x), grid.x) and np.array_equal(np.ravel(y), grid.y)):
            raise ValueError(f"a field known only at the nodes of {grid!r}")
        return values
    return Field2D(fn)


def forward_problem(grid, coeffs, u00, ux00, uy00, uxx_bottom, uyy_left,
                    corner, edge_x, edge_y, core):
    """Manufacture a problem on `grid.domain` from near data and unknowns.

    The near data (origin corner, bottom and left traces) and the quadruple
    are assembled into a bundle by the solver's reconstruction; the 11 data
    components are that bundle's `boundary_values`, and the forcing is the
    operator applied to it, known at the grid's nodes only.  So the bundle's
    boundary and constraint residuals are exactly zero, and a solve on the
    same grid must reproduce the quadruple to linear-solver roundoff.
    Returns (problem, bundle); the bundle holds the quadruple
    (`SolutionBundle`).
    """
    ax, ay = grid.ax, grid.ay
    near = NonclassicalData(u00=u00, ux00=ux00, uy00=uy00,
                            uxx_bottom=samples1d(ax.nodes, uxx_bottom),
                            uyy_left=samples1d(ay.nodes, uyy_left))
    bundle = assemble_solution(sample_data(near, grid), grid, (corner, edge_x, edge_y, core))
    data = NonclassicalData(**{
        key: samples1d((ax, ay)[trace_axis(key)].nodes, value)
        if key in NonclassicalData.TRACE_KEYS else float(value)
        for key, value in bundle.boundary_values().items()})
    forcing = node_field(grid, apply_pde_operator(coeffs.sample_all(grid), bundle))
    return PdeProblem(grid.domain, coeffs, forcing, data), bundle


def random_forward_problem(rng: np.random.Generator, grid, coeffs):
    """Random admissible problem on `grid.domain` via the forward construction."""
    x, y = grid.x, grid.y

    def smooth1(t):
        c = rng.uniform(-1.0, 1.0, 3)
        return c[0] + c[1] * t + c[2] * np.sin(t)

    xx, yy = grid.meshgrid()
    c = rng.uniform(-1.0, 1.0, 4)
    core = c[0] + c[1] * xx + c[2] * yy + c[3] * np.sin(xx) * np.cos(yy)
    return forward_problem(
        grid, coeffs,
        u00=float(rng.uniform(-1, 1)), ux00=float(rng.uniform(-1, 1)),
        uy00=float(rng.uniform(-1, 1)),
        uxx_bottom=smooth1(x), uyy_left=smooth1(y),
        corner=float(rng.uniform(-1, 1)),
        edge_x=smooth1(x), edge_y=smooth1(y), core=core)


def exact_bundle(u_star, grid) -> SolutionBundle:
    """All nine derivative grids of a known solution, sampled at the nodes."""
    xx, yy = grid.meshgrid()
    return SolutionBundle(**{key: GridFn2D(grid, u_star.eval_deriv(i, j, xx, yy))
                             for key, (i, j) in DERIVATIVES.items()})


def combine(*terms) -> NonclassicalData:
    """The data element sum of c * d over the (c, d) pairs `terms`: each
    scalar component is combined as a number, each trace pointwise."""
    parts = {}
    for key in NonclassicalData.PLACES:
        if key in NonclassicalData.SCALAR_KEYS:
            parts[key] = sum(c * getattr(d, key) for c, d in terms)
        else:
            fns = [(c, getattr(d, key).fn) for c, d in terms]
            parts[key] = Field1D(lambda t, _fns=fns: sum(c * np.asarray(f(t)) for c, f in _fns))
    return NonclassicalData(**parts)


@dataclass
class StabilityEstimate:
    max_ratio: float
    ratios: list[float]
    excluded: int


def estimate_stability_ratio(make_problem, grid, trials: int) -> StabilityEstimate:
    """Empirical bound sup ||u|| / (||data|| + ||forcing||) over a family.

    `make_problem(k)` supplies the k-th trial problem, solved on the default
    route ("auto") with the 2-norm.  Trials whose solve fails, diverges or
    fails the residual gate are excluded from the maximum and counted.
    """
    ratios = []
    excluded = 0
    for k in range(trials):
        prob = make_problem(k)
        try:
            result = solve_problem(prob, grid)
        except (SolverError, ConstraintError):
            excluded += 1
            continue
        if not result.report.residual_pass:    # a pass implies convergence
            excluded += 1
            continue
        ratios.append(result.report.stability_ratio)
    if not ratios:
        raise SolverError("no trial produced a usable solve")
    return StabilityEstimate(max_ratio=max(ratios), ratios=ratios, excluded=excluded)
