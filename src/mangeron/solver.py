"""Solving the discrete systems and rebuilding the full solution bundle.

The core unknown u_xxyy is obtained either by successive approximations on
the second-kind system (Neumann iteration, matrix-free) or by a direct
solve of that system (`solve_dense`): block forward substitution over the
block lower triangular part of I + K plus an n2 x n2 capacitance system for
its rank-n2 moment part (the Woodbury formula), with a condition estimate
from the same pieces, or, where that structured route is not stable, LU
on the dense matrix.  The three lower unknowns then follow by the far-edge
conditions (`reduction.far_edge`), and the nine derivative grids are read
off the integral representation (`reduction.representation`), never by
differencing u; the bundle is the whole solution, the quadruple included
(`SolutionBundle`).

Solves are single-threaded at the API level and deterministic for a fixed
BLAS thread count; identical inputs produce identical reports.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .fields import Field2D
from .grids import Domain, Grid2D, GridFn2D, row_tiles, tile_rows
from .norms import NormSpec, data_norm, lp_norm, sobolev_norm
from .problem import (Coefficients, ConstraintError, NonclassicalData, PdeProblem,
                      SampledData, SampledProblem, check_data_constraints, sample_problem,
                      solution_data)
from .reduction import (BlockSystem, DenseLimitError, DiscreteOperator, apply_pde_operator,
                        assemble_eliminated, far_edge, representation)

#: consecutive growing updates before the iteration is declared divergent
DIVERGENCE_PATIENCE = 5

#: solve routes accepted by `solve_problem`, the config and the command line
METHODS = ("auto", "neumann", "dense")

#: largest 1-norm condition number the dense solve accepts; a system above it,
#: or whose condition number is not finite, is numerically singular
SINGULAR_CONDITION = 1e15

#: largest 1-norm condition number of a diagonal block of T and of the
#: capacitance matrix C for which the direct solve takes the structured route
STRUCTURED_CONDITION = 1e8

#: largest normwise backward error ||g - (I + K) b||_1 / (||I + K||_1 ||b||_1
#: + ||g||_1) of a structured core, 16 unit roundoffs; above it the LU route
#: runs instead
STRUCTURED_BACKWARD_ERROR = 16 * np.finfo(float).eps

#: most products with (I + K)^-1 of the condition estimate's search
ESTIMATE_SWEEPS = 5


class SolverError(RuntimeError):
    """A solve failed: singular system, dense limit or memory exceeded, or a
    residual-gate calibration whose reference residuals are not finite."""


@dataclass(frozen=True)
class SolutionBundle:
    """u and its eight derivative grids, all built by quadrature.  The unknown
    quadruple is held as the bundle's own values: u_xy(0,0) at the origin
    node of `uxy`, u_xxy(x,0) and u_xyy(0,y) along the bottom edge of `uxxy`
    and the left edge of `uxyy`, and the core as the `uxxyy` grid."""

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

    def boundary_values(self) -> dict[str, float | np.ndarray]:
        """The 11 nonclassical components read off this bundle at their
        `NonclassicalData.PLACES`: a scalar at a corner node, or a 1-D array
        of node values along a trace's edge."""
        index = {0: 0, 1: -1, None: slice(None)}   # a place as an index along one axis
        return {key: getattr(self, name).values[index[px], index[py]]
                for key, (name, px, py) in NonclassicalData.PLACES.items()}


@dataclass
class NeumannInfo:
    """The record of a Neumann iteration; the default is the record of none."""

    converged: bool = False
    diverged: bool = False
    update_norms: list[float] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.update_norms)

    @property
    def final_update_norm(self) -> float | None:
        """The last finite update norm: 0.0 after no pass, None if no pass
        produced a finite one."""
        if not self.update_norms:
            return 0.0
        finite = [v for v in self.update_norms if math.isfinite(v)]
        return finite[-1] if finite else None

    @property
    def update_ratio(self) -> float | None:
        """Last observed geometric ratio of the finite, positive update norms."""
        u = [v for v in self.update_norms if 0 < v < math.inf]
        if len(u) < 2:
            return None
        return u[-1] / u[-2]


def _sup_distance(a: np.ndarray, b: np.ndarray, buf: np.ndarray) -> float:
    """max |a - b| over the nodes, formed one row tile (`row_tiles`) at a time
    in `buf`: the max of the tile maxima, so a NaN or inf in any tile is kept."""
    maxima = []
    for rows in row_tiles(a.shape):
        d = buf[:len(a[rows])]
        maxima.append(np.max(np.abs(np.subtract(a[rows], b[rows], out=d), out=d)))
    return float(np.max(maxima))


def solve_neumann(op: DiscreteOperator, tol: float = 1e-10,
                  max_iter: int = 200) -> tuple[np.ndarray, NeumannInfo]:
    """Successive approximations b <- g - K b started from b = g.

    Stops when the sup-norm update drops below `tol`.  Divergence (five
    consecutive growing updates, a non-finite iterate, or exhaustion of
    `max_iter`) is a reported state, not an exception; the last finite
    iterate is returned so a dense fallback can be compared against it.
    The iterate and the next one live in two buffers made once, which swap
    roles on every pass; the update norm is taken one row tile at a time
    in one tile buffer, and a NaN or inf in any tile is its value.
    """
    g = op.g
    b = g.copy()
    info = NeumannInfo()
    if not np.any(g):
        # zero data: fixed point is zero regardless of K
        info.converged = True
        return b, info
    nxt = np.empty_like(g)
    diff = np.empty((tile_rows(g.shape), g.shape[1]))
    grows = 0
    for _ in range(max_iter):
        np.subtract(g, op.matvec(b, out=nxt), out=nxt)
        upd = _sup_distance(nxt, b, diff)
        info.update_norms.append(upd)
        if not math.isfinite(upd):
            info.diverged = True
            return b, info
        b, nxt = nxt, b
        if upd <= tol:
            info.converged = True
            return b, info
        if len(info.update_norms) > 1 and upd > info.update_norms[-2]:
            grows += 1
            if grows >= DIVERGENCE_PATIENCE:
                info.diverged = True
                return b, info
        else:
            grows = 0
    info.diverged = True
    return b, info


def _inverse_norm1_estimate(solve, solve_t, shape) -> float:
    """A lower bound on ||A^-1||_1 from products with A^-1 (`solve`) and
    A^-T (`solve_t`) on grids of `shape`: Hager's search for the column of
    largest 1-norm (SIAM J. Sci. Stat. Comput. 5, 1984) as Higham refined it
    (ACM TOMS 14, 1988): at most ESTIMATE_SWEEPS products with A^-1, then
    the alternating-sign vector.  Each candidate is ||A^-1 x||_1 / ||x||_1
    for a vector x, and the largest is kept, so the bound is exactly 1 for
    A = I."""
    n = math.prod(shape)
    y = solve(np.ones(shape))
    est = float(np.abs(y).sum()) / n
    sign = np.where(y >= 0.0, 1.0, -1.0)
    j = int(np.argmax(np.abs(solve_t(sign))))
    for _ in range(ESTIMATE_SWEEPS - 1):
        x = np.zeros(shape)
        x.flat[j] = 1.0
        y = solve(x)
        value = float(np.abs(y).sum())
        new_sign = np.where(y >= 0.0, 1.0, -1.0)
        if value <= est or np.array_equal(new_sign, sign):
            est = max(est, value)
            break
        est, sign = value, new_sign
        z = np.abs(solve_t(sign))
        j, last = int(np.argmax(z)), j
        if z.flat[last] == z.flat[j]:
            break
    alt = ((1.0 + np.arange(n) / (n - 1)) * np.where(np.arange(n) % 2, -1.0, 1.0)).reshape(shape)
    return max(est, float(np.abs(solve(alt)).sum() / np.abs(alt).sum()))


def _structured_inverse(system: BlockSystem):
    """(solve, solve_t), the products with (I + K)^-1 and (I + K)^-T by the
    Woodbury formula, or None where a diagonal block of T or the capacitance
    matrix C is above STRUCTURED_CONDITION in condition number, or singular.

    With I + K = T + U W^T (`reduction.BlockSystem`), (I + K)^-1 r is
    y - T^-1 U C^-1 W^T y for y = T^-1 r, by block forward substitution, and
    C = I + W^T T^-1 U is n2 x n2; (I + K)^-T r is T^-T (r - W C^-T (T^-1 U)^T r),
    by block back substitution over T^T.  The blocks' condition numbers are
    read off the inverses that the substitutions use (`BlockSystem.diag_cond`).
    """
    try:
        if not np.max(system.diag_cond()) <= STRUCTURED_CONDITION:
            return None
    except np.linalg.LinAlgError:
        return None
    m = system.moment
    t_inv_u = system.solve_lower(system.u)
    cap = np.eye(system.shape[1]) + np.tensordot(m, t_inv_u, 1)
    if not np.linalg.cond(cap, 1) <= STRUCTURED_CONDITION:
        return None

    def solve(r):
        y = system.solve_lower(r)
        return y - t_inv_u @ np.linalg.solve(cap, m @ y)

    def solve_t(r):
        w = np.linalg.solve(cap.T, np.tensordot(t_inv_u, r, ((0, 1), (0, 1))))
        return system.solve_upper(r - np.outer(m, w))

    return solve, solve_t


def _solve_structured(op: DiscreteOperator) -> tuple[np.ndarray, float] | None:
    """The core and its condition estimate by the structured route, or None
    where the route is not stable.

    The route is taken when `_structured_inverse` accepts T and C and the
    core's normwise backward error, by one matvec, is at most
    STRUCTURED_BACKWARD_ERROR.  The estimate is the exact ||I + K||_1
    (`reduction.BlockSystem.norm1`) times the estimate of ||(I + K)^-1||_1
    (`_inverse_norm1_estimate`).  Memory is O(n1 n2^2): no matrix of the
    size of K is made.
    """
    system = BlockSystem(op)
    g = op.g
    with np.errstate(all="ignore"):     # a non-finite piece sends the solve to LU
        inverse = _structured_inverse(system)
        if inverse is None:
            return None
        solve, solve_t = inverse
        core = solve(g)
        norm = system.norm1()
        residual = g - core - op.matvec(core)
        if not (np.abs(residual).sum()
                <= STRUCTURED_BACKWARD_ERROR * (norm * np.abs(core).sum() + np.abs(g).sum())):
            return None
        return core, norm * _inverse_norm1_estimate(solve, solve_t, op.grid.shape)


def _refuse_singular(cond: float):
    """The singular rule: a condition number above SINGULAR_CONDITION, or
    not finite, is a SolverError."""
    if not cond <= SINGULAR_CONDITION:
        raise SolverError(f"second-kind system numerically singular (cond ~ {cond:.3e})")


def solve_dense(op: DiscreteOperator) -> tuple[np.ndarray, float]:
    """Direct solve of (I + K) b = g; returns the core and its 1-norm
    condition number.

    The structured route runs first (`_solve_structured`): in O(N n2) memory
    for N = n1 n2 nodes, O(N n2^2) time to build its pieces, O(N n2) per
    solve and O(N^2 / 2) for the exact ||I + K||_1, over the blocks on and
    below the diagonal (`reduction.BlockSystem`), it returns the condition
    estimate ||I + K||_1 est(||(I + K)^-1||_1).  Where it is not stable, the
    LU route runs: I + K is made dense, its exact condition number taken and
    the system solved by LU.  A grid over the dense limit, one whose matrices
    do not fit in memory, and a numerically singular system
    (`SINGULAR_CONDITION`) are each a SolverError.
    """
    try:
        structured = _solve_structured(op)
        if structured is not None:
            _refuse_singular(structured[1])
            return structured
        a = op.dense()                      # I + K, built in place
        a[np.diag_indices_from(a)] += 1.0
        cond = float(np.linalg.cond(a, 1))
    except (DenseLimitError, MemoryError) as exc:
        raise SolverError(f"dense solve refused: {exc}") from exc
    _refuse_singular(cond)
    try:
        sol = np.linalg.solve(a, op.g.ravel())
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"dense solve failed (cond ~ {cond:.3e})") from exc
    return sol.reshape(op.grid.shape), cond


def assemble_solution(sd: SampledData, grid: Grid2D, quadruple) -> SolutionBundle:
    """Rebuild all nine derivative grids from the integral representation
    (`reduction.representation`) of the quadruple (corner, edge_x, edge_y,
    core), each a direct quadrature, never a difference of u.  The core grid
    of the bundle is the core itself, and every grid is adopted without a
    copy where it may be (`grids`)."""
    return SolutionBundle(**{name: GridFn2D(grid, values)
                             for name, values in representation(sd, grid, quadruple)})


@dataclass(frozen=True)
class ResidualReport:
    pde: float
    bc: dict[str, float]

    @property
    def max_bc(self) -> float:
        """The largest boundary residual; NaN if any is NaN."""
        return float(np.max(list(self.bc.values())))


def residual_report(sp: SampledProblem, bundle: SolutionBundle,
                    spec: NormSpec = NormSpec()) -> ResidualReport:
    """Residual of the equation and of all 11 boundary conditions.

    The equation residual is the L_p norm of (operator applied to the
    bundle) minus the forcing.  Each boundary residual compares the data with
    `SolutionBundle.boundary_values`: at a corner node, or as the node
    maximum along a trace's edge.
    """
    v = apply_pde_operator(sp.coeffs, bundle)
    v -= sp.forcing
    pde = lp_norm(v, (bundle.grid.ax, bundle.grid.ay), spec)
    bc = {key: float(np.max(np.abs(value - getattr(sp.data, key))))
          for key, value in bundle.boundary_values().items()}
    return ResidualReport(pde=float(pde), bc=bc)


def _reference_problems(domain: Domain) -> list[PdeProblem]:
    """Smooth manufactured problems used to calibrate the residual gate.

    Two zero-coefficient cases with known solutions: sin(x) sin(y), and the
    asymmetric sin(x) exp(y) whose corner-route and constraint residuals do
    not cancel by symmetry, so they expose the genuine quadrature error of
    the grid in use.  Zero coefficients (K = 0) let the calibration skip the solve.
    """
    sin = (np.sin, np.cos, lambda t: -np.sin(t))   # a factor and its two derivatives
    exp = (np.exp,) * 3
    return [PdeProblem(domain, Coefficients(),
                       Field2D(lambda x, y, _f=f, _g=g: _f[2](x) * _g[2](y)),
                       solution_data(lambda i, j, x, y, _f=f, _g=g: _f[i](x) * _g[j](y),
                                     domain))
            for f, g in ((sin, sin), (sin, exp))]


_THRESHOLD_CACHE: dict[tuple, float] = {}


def calibrate_residual_threshold(grid: Grid2D) -> float:
    """Ten times the worst residual of the reference problems on this grid.

    Their coefficients are zero, so K is identically zero and the solved
    core is the sampled forcing, bit for bit on every route (one zero
    Neumann update, or LU on the identity): each reference bundle is rebuilt
    from it with no solve, and the threshold is the dense-route one at any
    grid size.  The equation residual is then exactly 0 in every L_p norm
    and the boundary residuals are node maxima, so one threshold per grid
    serves every norm exponent.  Non-finite residuals are a solver failure.
    """
    key = (grid.x.tobytes(), grid.y.tobytes())
    if key not in _THRESHOLD_CACHE:
        worst = 0.0
        for prob in _reference_problems(grid.domain):
            try:
                sp = sample_problem(prob, grid)
            except ValueError:      # a reference forcing overflows, as exp(y) past y = 709
                worst = math.nan
                break
            quadruple = (*far_edge(sp.data, grid, sp.forcing)[:3], sp.forcing)  # K = 0: core = g
            # no name holds the bundle, so it is freed before the next one is built
            resid = residual_report(sp, assemble_solution(sp.data, grid, quadruple))
            worst = float(np.max([worst, resid.pde, *resid.bc.values()]))
        if not math.isfinite(worst):
            raise SolverError(f"residual-gate calibration gave a non-finite residual ({worst})")
        _THRESHOLD_CACHE[key] = 10.0 * max(worst, 1e-12)
    return _THRESHOLD_CACHE[key]


@dataclass
class SolveReport:
    """Everything a solve is accountable for, JSON-serializable."""

    method: str
    iterations: int
    final_update_norm: float | None
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
    grid: Grid2D
    bundle: SolutionBundle
    report: SolveReport


def solve_problem(problem: PdeProblem, grid: Grid2D, method: str = "auto",
                  tol: float = 1e-10, max_iter: int = 200, p: float = 2.0,
                  force: bool = False, residual_gate: bool = True) -> SolveResult:
    """End-to-end solve: gate, assemble, solve, reconstruct, verify.

    method: "auto" tries successive approximations and falls back to the
    dense solve on divergence; "neumann" and "dense" select one route
    explicitly.  The route is decided in one block that keeps the core, the
    Neumann record (`NeumannInfo`; the dense route makes no iteration, so
    its record is the empty one) and the condition number of
    the dense solve; the report's `method`, `converged` and `warning` are
    derived from the last two.

    Data failing the two scalar constraints is refused unless `force` is
    set; the residuals are reported either way.  The problem is sampled on
    the grid once, and every stage reads that sample.  The residual gate is
    calibrated first, without a solve, so that its arrays are freed before
    any array of this solve is made; the operator is freed once the route
    is decided, and the bundle adopts the solved core without a copy.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    spec = NormSpec(p)
    gate = calibrate_residual_threshold(grid) if residual_gate else math.inf
    sp = sample_problem(problem, grid)
    constraints = check_data_constraints(sp.data, grid)
    if not constraints.passed and not force:
        raise ConstraintError(
            "data violates the corner constraints "
            f"(max residual {constraints.max_residual:.3e} > tol {constraints.tolerance:.3e}); "
            "pass force=True to proceed anyway")

    info = NeumannInfo()
    cond: float | None = None
    op = assemble_eliminated(sp)
    if method in ("auto", "neumann"):
        core, info = solve_neumann(op, tol=tol, max_iter=max_iter)
    if method == "dense" or (method == "auto" and info.diverged):
        try:
            core, cond = solve_dense(op)
        except SolverError as exc:
            if not info.diverged:
                raise
            raise SolverError("successive approximations diverged after "
                              f"{info.iterations} iterations and the dense "
                              f"fallback failed: {exc}") from exc
    del op                  # K's grids and g are freed before reconstruction
    core.flags.writeable = False    # the bundle adopts the core without a copy

    converged = info.converged or cond is not None
    method_used = "neumann" if cond is None else "dense"
    warning = None
    if info.diverged:
        outcome = ("dense fallback used" if cond is not None
                   else "partial iterate returned, consider method='dense'")
        warning = (f"successive approximations diverged after {info.iterations} "
                   f"iterations; {outcome}")

    corner, edge_x, edge_y, corner_alt = far_edge(sp.data, grid, core)
    bundle = assemble_solution(sp.data, grid, (corner, edge_x, edge_y, core))
    resid = residual_report(sp, bundle, spec)

    solution_norm = sobolev_norm(bundle, spec)
    dnorm = data_norm(sp.data, grid, spec)
    fnorm = lp_norm(sp.forcing, (grid.ax, grid.ay), spec)
    denom = dnorm + fnorm
    if denom == 0.0:
        ratio = 0.0 if solution_norm == 0.0 else math.inf
    else:
        ratio = solution_norm / denom           # NaN when a data norm is NaN

    # a data norm that overflows or is NaN leaves no finite threshold, and the gate fails
    threshold = gate * float(np.maximum(1.0, denom))
    residual_pass = bool(converged
                         and (math.isfinite(threshold) or not residual_gate)
                         and resid.pde <= threshold
                         and resid.max_bc <= threshold)

    report = SolveReport(
        method=method_used,
        iterations=info.iterations,
        final_update_norm=info.final_update_norm,
        converged=converged,
        neumann_diverged=info.diverged,
        residual_pde=resid.pde,
        residual_bc=resid.bc,
        residual_threshold=threshold,
        residual_pass=residual_pass,
        uxy00_route_gap=abs(corner - corner_alt),
        stability_ratio=ratio,
        condition_estimate=cond,
        constraint_residuals=constraints.as_dict(),
        constraint_pass=constraints.passed,
        update_ratio=info.update_ratio,
        warning=warning,
        p=p,
        solution_norm=solution_norm,
        data_norm_value=dnorm,
        forcing_norm=fnorm)
    return SolveResult(grid, bundle, report)
