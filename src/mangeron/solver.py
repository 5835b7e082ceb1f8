"""Solving the discrete systems and rebuilding the full solution bundle.

The core unknown u_xxyy is obtained either by successive approximations on
the second-kind system (Neumann iteration, matrix-free) or by a dense LU
solve; the coupled square system is available as a cross-checking route.
The three lower unknowns are then reconstructed from the far-edge data, and
all nine derivative grids of the solution are rebuilt through the explicit
integral formulas - never by differencing u - so the core grid of the
bundle is the solved unknown verbatim.

Solves are single-threaded at the API level and deterministic for a fixed
BLAS thread count; identical inputs produce identical reports.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .fields import Field1D, Field2D
from .grids import Domain, Grid2D, GridFn1D, GridFn2D
from .norms import NormSpec, data_norm, lp_norm, sobolev_norm
from .problem import (Coefficients, ConstraintError, NonclassicalData, PdeProblem,
                      SampledData, SampledProblem, check_data_constraints, sample_problem)
from .reduction import (DenseLimitError, DiscreteOperator, apply_pde_operator,
                        assemble_coupled, assemble_eliminated)

#: consecutive growing updates before the iteration is declared divergent
DIVERGENCE_PATIENCE = 5

#: solve routes accepted by `solve_problem`, the config and the command line
METHODS = ("auto", "neumann", "dense", "coupled")


class SolverError(RuntimeError):
    """A solve failed: singular system, dense limit or memory exceeded, or a
    residual-gate calibration that did not converge."""


@dataclass(frozen=True)
class ReducedUnknowns:
    """The unknown quadruple of the reduced problem.

    uxy00 is reconstructed through the bottom-edge data route; uxy00_alt
    through the left-edge route.  The two agree (up to quadrature error)
    exactly when the data is admissible, so their gap doubles as a data
    diagnostic and is reported on every solve.
    """

    uxy00: float                # u_xy(0, 0)
    uxxy_bottom: GridFn1D       # u_xxy(x, 0)
    uxyy_left: GridFn1D         # u_xyy(0, y)
    uxxyy: GridFn2D             # core unknown on the full grid
    uxy00_alt: float = 0.0

    @property
    def route_gap(self) -> float:
        return abs(self.uxy00 - self.uxy00_alt)


@dataclass(frozen=True)
class SolutionBundle:
    """u and its eight derivative grids, all built by quadrature."""

    u: GridFn2D
    ux: GridFn2D
    uy: GridFn2D
    uxx: GridFn2D
    uyy: GridFn2D
    uxy: GridFn2D
    uxxy: GridFn2D
    uxyy: GridFn2D
    uxxyy: GridFn2D

    @property
    def grid(self) -> Grid2D:
        return self.u.grid


@dataclass
class NeumannInfo:
    iterations: int
    final_update_norm: float
    converged: bool
    diverged: bool
    update_norms: list[float] = field(default_factory=list)

    @property
    def update_ratio(self) -> float | None:
        """Last observed geometric ratio of the update norms."""
        u = [v for v in self.update_norms if v > 0]
        if len(u) < 2:
            return None
        return u[-1] / u[-2]


def solve_neumann(op: DiscreteOperator, tol: float = 1e-10,
                  max_iter: int = 200) -> tuple[np.ndarray, NeumannInfo]:
    """Successive approximations b <- g - K b started from b = g.

    Stops when the sup-norm update drops below `tol`.  Divergence (five
    consecutive growing updates, a non-finite iterate, or exhaustion of
    `max_iter`) is a reported state, not an exception; the last finite
    iterate is returned so a dense fallback can be compared against it.
    """
    g = op.g
    b = g.copy()
    info = NeumannInfo(iterations=0, final_update_norm=0.0, converged=False, diverged=False)
    if not np.any(g):
        # zero data: fixed point is zero regardless of K
        info.converged = True
        return b, info
    grows = 0
    prev_update = None
    for it in range(1, max_iter + 1):
        nxt = g - op.matvec(b)
        upd = float(np.max(np.abs(nxt - b)))
        info.iterations = it
        info.final_update_norm = upd
        info.update_norms.append(upd)
        if not math.isfinite(upd):
            info.diverged = True
            return b, info
        b = nxt
        if upd <= tol:
            info.converged = True
            return b, info
        if prev_update is not None and upd > prev_update:
            grows += 1
            if grows >= DIVERGENCE_PATIENCE:
                info.diverged = True
                return b, info
        else:
            grows = 0
        prev_update = upd
    info.diverged = True
    return b, info


def solve_dense(op: DiscreteOperator) -> tuple[np.ndarray, float]:
    """Direct LU solve of (I + K) b = g; returns the core and a condition estimate.

    A grid over the dense limit, or one whose matrices do not fit in memory,
    is a SolverError.
    """
    try:
        a = op.dense()                      # I + K, built in place
        a[np.diag_indices_from(a)] += 1.0
        cond = float(np.linalg.cond(a, 1))
    except (DenseLimitError, MemoryError) as exc:
        raise SolverError(f"dense solve refused: {exc}") from exc
    if not math.isfinite(cond) or cond > 1e15:
        raise SolverError(f"second-kind system numerically singular (cond ~ {cond:.3e})")
    try:
        sol = np.linalg.solve(a, op.g.ravel())
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"dense solve failed (cond ~ {cond:.3e})") from exc
    return sol.reshape(op.grid.shape), cond


def reconstruct_lower(sd: SampledData, core: np.ndarray,
                      grid: Grid2D) -> ReducedUnknowns:
    """Recover the edge and corner unknowns from the solved core.

    The bottom-edge unknown comes from the top-edge condition, the
    left-edge unknown from the right-edge condition, and the corner unknown
    from the bottom-edge route; the alternative left-edge route is computed
    as well and retained for the route-gap diagnostic.
    """
    m1x, m2y = grid.ax.moment_avg, grid.ay.moment_avg
    edge_x = sd.d_uxx - core @ m2y
    edge_y = sd.d_uyy - m1x @ core
    corner = float(sd.d_uy - m1x @ edge_x)
    corner_alt = float(sd.d_ux - m2y @ edge_y)
    return ReducedUnknowns(
        uxy00=corner,
        uxxy_bottom=GridFn1D(grid.ax, edge_x),
        uxyy_left=GridFn1D(grid.ay, edge_y),
        uxxyy=GridFn2D(grid, core),
        uxy00_alt=corner_alt)


def assemble_solution(sd: SampledData, unknowns: ReducedUnknowns,
                      grid: Grid2D) -> SolutionBundle:
    """Rebuild all nine derivative grids from the representation formulas.

    Every grid is a direct quadrature of the corresponding explicit
    formula; in particular the core grid of the bundle is the solved
    unknown itself, identically.
    """
    ax, ay = grid.ax, grid.ay
    x = grid.x[:, None]
    y = grid.y[None, :]
    corner = unknowns.uxy00
    ex = unknowns.uxxy_bottom.values
    ey = unknowns.uxyy_left.values
    b = unknowns.uxxyy.values

    i_ex0, i_ex1 = ax.cumulative(ex)     # integrals of u_xxy(s, 0), kernel 1 and (x - s)
    i_ey0, i_ey1 = ay.cumulative(ey)
    bx0, bx1 = ax.cumulative(b, 0)
    dbl10, dbl11 = ay.cumulative(bx1, 1)   # moment kernel in x; and in x and y
    dbl00, dbl01 = ay.cumulative(bx0, 1)   # plain double integral; moment kernel in y
    ry0, ry1 = ay.cumulative(b, 1)         # y-partial integrals along each grid row

    u = (sd.base_x[:, None] + sd.base_y[None, :] + x * y * corner
         + y * i_ex1[:, None] + x * i_ey1[None, :] + dbl11)
    ux = sd.base_ux[:, None] + y * corner + y * i_ex0[:, None] + i_ey1[None, :] + dbl01
    uy = sd.base_uy[None, :] + x * corner + i_ex1[:, None] + x * i_ey0[None, :] + dbl10
    uxx = sd.uxx_bottom[:, None] + y * ex[:, None] + ry1
    uyy = sd.uyy_left[None, :] + x * ey[None, :] + bx1
    uxy = corner + i_ex0[:, None] + i_ey0[None, :] + dbl00
    uxxy = ex[:, None] + ry0
    uxyy = ey[None, :] + bx0

    return SolutionBundle(
        u=GridFn2D(grid, u), ux=GridFn2D(grid, ux), uy=GridFn2D(grid, uy),
        uxx=GridFn2D(grid, uxx), uyy=GridFn2D(grid, uyy), uxy=GridFn2D(grid, uxy),
        uxxy=GridFn2D(grid, uxxy), uxyy=GridFn2D(grid, uxyy),
        uxxyy=unknowns.uxxyy)


@dataclass(frozen=True)
class ResidualReport:
    pde: float
    bc: dict[str, float]

    @property
    def max_bc(self) -> float:
        return max(self.bc.values())


def residual_report(sp: SampledProblem, bundle: SolutionBundle,
                    spec: NormSpec = NormSpec()) -> ResidualReport:
    """Residual of the equation and of all 11 boundary conditions.

    The equation residual is the L_p norm of (operator applied to the
    bundle) minus the forcing; trace residuals are node maxima along their
    edge.
    """
    grid = bundle.grid
    v = apply_pde_operator(sp.coeffs, bundle)
    v -= sp.forcing
    pde = lp_norm(GridFn2D(grid, v), spec)
    sd = sp.data
    u, ux, uy = bundle.u.values, bundle.ux.values, bundle.uy.values
    uxx, uyy = bundle.uxx.values, bundle.uyy.values
    bc = {
        "u00": abs(u[0, 0] - sd.u00),
        "ux00": abs(ux[0, 0] - sd.ux00),
        "uy00": abs(uy[0, 0] - sd.uy00),
        "uxx_bottom": float(np.max(np.abs(uxx[:, 0] - sd.uxx_bottom))),
        "uyy_left": float(np.max(np.abs(uyy[0, :] - sd.uyy_left))),
        "u10": abs(u[-1, 0] - sd.u10),
        "uy10": abs(uy[-1, 0] - sd.uy10),
        "uyy_right": float(np.max(np.abs(uyy[-1, :] - sd.uyy_right))),
        "u01": abs(u[0, -1] - sd.u01),
        "ux01": abs(ux[0, -1] - sd.ux01),
        "uxx_top": float(np.max(np.abs(uxx[:, -1] - sd.uxx_top))),
    }
    return ResidualReport(pde=float(pde), bc=bc)


def _reference_problems(domain: Domain) -> list[PdeProblem]:
    """Smooth manufactured problems used to calibrate the residual gate.

    Two zero-coefficient cases with known solutions: sin(x) sin(y), and the
    asymmetric sin(x) exp(y) whose corner-route and constraint residuals do
    not cancel by symmetry, so they expose the genuine quadrature error of
    the grid in use.
    """
    h1, h2 = domain.h1, domain.h2
    zero = Field1D(lambda t: 0.0 * np.asarray(t))
    trig = PdeProblem(
        domain, Coefficients(),
        Field2D(lambda x, y: np.sin(x) * np.sin(y)),
        NonclassicalData(
            u00=0.0, ux00=0.0, uy00=0.0, uxx_bottom=zero, uyy_left=zero,
            u10=0.0, uy10=math.sin(h1),
            uyy_right=Field1D(lambda t, _h=h1: -math.sin(_h) * np.sin(t)),
            u01=0.0, ux01=math.sin(h2),
            uxx_top=Field1D(lambda t, _h=h2: -np.sin(t) * math.sin(_h))))
    trig_exp = PdeProblem(
        domain, Coefficients(),
        Field2D(lambda x, y: -np.sin(x) * np.exp(y)),
        NonclassicalData(
            u00=0.0, ux00=1.0, uy00=0.0,
            uxx_bottom=Field1D(lambda t: -np.sin(t)),
            uyy_left=zero,
            u10=math.sin(h1), uy10=math.sin(h1),
            uyy_right=Field1D(lambda t, _h=h1: math.sin(_h) * np.exp(t)),
            u01=0.0, ux01=math.exp(h2),
            uxx_top=Field1D(lambda t, _h=h2: -np.sin(t) * math.exp(_h))))
    return [trig, trig_exp]


_THRESHOLD_CACHE: dict[tuple, float] = {}


def calibrate_residual_threshold(grid: Grid2D) -> float:
    """Ten times the worst residual of smooth reference solves on this grid.

    The reference problems have zero coefficients, so K is identically zero
    and the second-kind system is the identity: the first Neumann update is
    exactly 0 and the solved core is g bit for bit, as an LU solve of the
    identity would give.  The matrix-free route therefore reproduces the
    dense-route threshold exactly, at any grid size and without any dense
    assembly.  The equation residual is then exactly 0 in every L_p norm and
    the boundary residuals are node maxima, so one threshold per grid serves
    every norm exponent.  A reference solve that does not converge is a
    solver failure; no threshold is ever built from a partial iterate.
    """
    key = (grid.x.tobytes(), grid.y.tobytes())
    if key not in _THRESHOLD_CACHE:
        worst = 0.0
        for prob in _reference_problems(grid.domain):
            report = solve_problem(prob, grid, method="neumann",
                                   residual_gate=False, force=True).report
            if not report.converged:
                raise SolverError("residual-gate calibration did not converge "
                                  f"after {report.iterations} iterations")
            worst = max(worst, report.residual_pde, max(report.residual_bc.values()))
        _THRESHOLD_CACHE[key] = 10.0 * max(worst, 1e-12)
    return _THRESHOLD_CACHE[key]


@dataclass
class SolveReport:
    """Everything a solve is accountable for, JSON-serializable."""

    method: str
    iterations: int
    final_update_norm: float
    converged: bool
    neumann_diverged: bool
    residual_pde: float
    residual_bc: dict[str, float]
    residual_threshold: float
    residual_pass: bool
    uxy00_route_gap: float
    stability_ratio: float
    condition_estimate: float | None
    constraint_residuals: dict[str, float]
    constraint_pass: bool
    update_ratio: float | None
    warning: str | None
    p: float
    solution_norm: float
    data_norm_value: float
    forcing_norm: float

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class SolveResult:
    problem: PdeProblem
    grid: Grid2D
    unknowns: ReducedUnknowns
    bundle: SolutionBundle
    report: SolveReport


def solve_problem(problem: PdeProblem, grid: Grid2D, method: str = "auto",
                  tol: float = 1e-10, max_iter: int = 200, p: float = 2.0,
                  force: bool = False, constraint_tol: float | None = None,
                  residual_gate: bool = True) -> SolveResult:
    """End-to-end solve: gate, assemble, solve, reconstruct, verify.

    method: "auto" tries successive approximations and falls back to the
    dense solve on divergence; "neumann", "dense" and "coupled" select one
    route explicitly.  Data failing the two scalar constraints is refused
    unless `force` is set; the residuals are reported either way.  The
    problem is sampled on the grid once, and every stage reads that sample.
    The residual gate is calibrated first, so that the reference solves are
    done before any array of this solve is made.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    spec = NormSpec(p)
    gate = calibrate_residual_threshold(grid) if residual_gate else math.inf
    sp = sample_problem(problem, grid)
    constraints = check_data_constraints(sp.data, grid, constraint_tol)
    if not constraints.passed and not force:
        raise ConstraintError(
            "data violates the corner constraints "
            f"(max residual {constraints.max_residual:.3e} > tol {constraints.tolerance:.3e}); "
            "pass force=True to proceed anyway")

    warning = None
    cond: float | None = None
    iterations = 0
    final_update = 0.0
    converged = True
    neumann_diverged = False
    update_ratio = None

    if method == "coupled":
        try:
            _, _, _, core, cond = assemble_coupled(sp).solve()
        except (DenseLimitError, MemoryError) as exc:
            raise SolverError(f"coupled solve refused: {exc}") from exc
        except np.linalg.LinAlgError as exc:
            raise SolverError(str(exc)) from exc
        method_used = "coupled-dense"
    else:
        op = assemble_eliminated(sp)
        if method == "dense":
            core, cond = solve_dense(op)
            method_used = "dense"
        else:
            core, info = solve_neumann(op, tol=tol, max_iter=max_iter)
            iterations = info.iterations
            final_update = info.final_update_norm
            converged = info.converged
            neumann_diverged = info.diverged
            update_ratio = info.update_ratio
            method_used = "neumann"
            if info.diverged:
                if method == "auto":
                    try:
                        core, cond = solve_dense(op)
                    except SolverError as exc:
                        raise SolverError("successive approximations diverged after "
                                          f"{info.iterations} iterations and the dense "
                                          f"fallback failed: {exc}") from exc
                    method_used = "dense"
                    converged = True
                    warning = ("successive approximations diverged "
                               f"after {info.iterations} iterations; dense fallback used")
                else:
                    warning = ("successive approximations diverged "
                               f"after {info.iterations} iterations; partial iterate "
                               "returned, consider method='dense'")

    unknowns = reconstruct_lower(sp.data, core, grid)
    bundle = assemble_solution(sp.data, unknowns, grid)
    resid = residual_report(sp, bundle, spec)

    solution_norm = sobolev_norm(bundle, spec)
    dnorm = data_norm(sp.data, grid, spec)
    fnorm = lp_norm(GridFn2D(grid, sp.forcing), spec)
    denom = dnorm + fnorm
    if denom > 0.0:
        ratio = solution_norm / denom
    else:
        ratio = 0.0 if solution_norm == 0.0 else math.inf

    threshold = gate * max(1.0, denom)
    residual_pass = bool(converged
                         and resid.pde <= threshold
                         and resid.max_bc <= threshold)

    report = SolveReport(
        method=method_used,
        iterations=iterations,
        final_update_norm=final_update,
        converged=converged,
        neumann_diverged=neumann_diverged,
        residual_pde=resid.pde,
        residual_bc=resid.bc,
        residual_threshold=threshold,
        residual_pass=residual_pass,
        uxy00_route_gap=unknowns.route_gap,
        stability_ratio=ratio,
        condition_estimate=cond,
        constraint_residuals=constraints.as_dict(),
        constraint_pass=constraints.passed,
        update_ratio=update_ratio,
        warning=warning,
        p=p,
        solution_norm=solution_norm,
        data_norm_value=dnorm,
        forcing_norm=fnorm)
    return SolveResult(problem, grid, unknowns, bundle, report)


@dataclass
class StabilityEstimate:
    max_ratio: float
    ratios: list[float]
    excluded: int


def estimate_stability_ratio(make_problem, grid: Grid2D, trials: int,
                             p: float = 2.0, method: str = "auto") -> StabilityEstimate:
    """Empirical bound sup ||u|| / (||data|| + ||forcing||) over a family.

    `make_problem(k)` supplies the k-th trial problem.  Divergent or
    singular solves are excluded from the maximum and counted.
    """
    ratios = []
    excluded = 0
    for k in range(trials):
        prob = make_problem(k)
        try:
            result = solve_problem(prob, grid, method=method, p=p)
        except (SolverError, ConstraintError):
            excluded += 1
            continue
        if not result.report.converged:
            excluded += 1
            continue
        ratios.append(result.report.stability_ratio)
    if not ratios:
        raise SolverError("no trial produced a usable solve")
    return StabilityEstimate(max_ratio=max(ratios), ratios=ratios, excluded=excluded)
