"""Reduction of the Dirichlet problem to discrete integral equations.

Any admissible solution splits as u = base + remainder, where the base part
is determined by the origin-corner data and the bottom/left edge traces,
and the remainder is a quadruple of unknowns: the corner mixed derivative
u_xy(0,0), the edge traces u_xxy(x,0) and u_xyy(0,y), and the core unknown
u_xxyy(x,y).  Collocating the transformed equation at the grid nodes and
replacing every integral by the shared trapezoid weight tables yields
either a coupled square system in the full quadruple or, after eliminating
the three lower unknowns through the far-edge conditions, a single
second-kind system (I + K) core = g in the core unknown alone.

Both assemblies use identical quadrature, so their core solutions agree to
linear-solver roundoff; this is exercised as a cross-check downstream.
"""

from __future__ import annotations

import numpy as np

from .grids import Grid2D, GridFn2D
from .problem import Coefficients, NonclassicalData, PdeProblem, SampledData, sample_data

#: largest node count for which the dense kernel matrix may be materialized
DENSE_NODE_LIMIT = 70 * 70


class DenseLimitError(ValueError):
    """A dense assembly refused because the grid exceeds DENSE_NODE_LIMIT."""


def _check_dense_limit(n_nodes: int):
    """Refuse a dense assembly over more than DENSE_NODE_LIMIT grid nodes."""
    if n_nodes > DENSE_NODE_LIMIT:
        raise DenseLimitError(f"dense assembly limited to {DENSE_NODE_LIMIT} nodes; "
                              "use the matrix-free matvec")


class BaseBundle:
    """The data-determined base part of the solution and its derivatives.

    The base is an additively separable function of x and y, so every mixed
    derivative vanishes identically; only u, ux, uy, uxx, uyy are stored.
    uxx depends on x alone (constant along grid columns) and uyy on y alone.
    """

    def __init__(self, grid: Grid2D, sd: SampledData):
        ax, ay = grid.ax, grid.ay
        x, y = ax.nodes, ay.nodes
        mom_x = ax.cum1 @ sd.uxx_bottom      # integral of (x - t) uxx_bottom(t)
        mom_y = ay.cum1 @ sd.uyy_left
        run_x = ax.cum0 @ sd.uxx_bottom      # integral of uxx_bottom up to x
        run_y = ay.cum0 @ sd.uyy_left
        n1, n2 = grid.shape
        u = sd.u00 + x[:, None] * sd.ux00 + y[None, :] * sd.uy00 \
            + mom_x[:, None] + mom_y[None, :]
        ux = np.broadcast_to((sd.ux00 + run_x)[:, None], (n1, n2))
        uy = np.broadcast_to((sd.uy00 + run_y)[None, :], (n1, n2))
        uxx = np.broadcast_to(sd.uxx_bottom[:, None], (n1, n2))
        uyy = np.broadcast_to(sd.uyy_left[None, :], (n1, n2))
        self.grid = grid
        self.u = GridFn2D(grid, u)
        self.ux = GridFn2D(grid, ux)
        self.uy = GridFn2D(grid, uy)
        self.uxx = GridFn2D(grid, uxx)
        self.uyy = GridFn2D(grid, uyy)


def assemble_base(data: NonclassicalData, grid: Grid2D) -> BaseBundle:
    """Base part of the solution from the origin corner and near-edge data."""
    return BaseBundle(grid, sample_data(data, grid))


def apply_pde_operator(coeffs: Coefficients, bundle) -> GridFn2D:
    """Pointwise application of the full fourth-order operator to a bundle.

    The bundle must expose all nine derivative grids (u .. uxxyy); the result
    is uxxyy + c_xxy uxxy + c_xyy uxyy + c_xx uxx + c_yy uyy + c_xy uxy
    + c_x ux + c_y uy + c_u u at every node.
    """
    grid = bundle.u.grid
    c = coeffs.sample_all(grid)
    for key in ("u", "ux", "uy", "uxx", "uyy", "uxy", "uxxy", "uxyy", "uxxyy"):
        if getattr(bundle, key, None) is None:
            raise ValueError(f"bundle is missing derivative grid {key!r}")
    v = (bundle.uxxyy.values
         + c["c_xxy"] * bundle.uxxy.values
         + c["c_xyy"] * bundle.uxyy.values
         + c["c_xx"] * bundle.uxx.values
         + c["c_yy"] * bundle.uyy.values
         + c["c_xy"] * bundle.uxy.values
         + c["c_x"] * bundle.ux.values
         + c["c_y"] * bundle.uy.values
         + c["c_u"] * bundle.u.values)
    return GridFn2D(grid, v)


def reduced_rhs(problem: PdeProblem, base: BaseBundle) -> GridFn2D:
    """Forcing minus the operator applied to the base part.

    Every mixed derivative of the base vanishes identically, so only the
    five non-mixed terms survive.
    """
    grid = base.grid
    c = problem.coeffs.sample_all(grid)
    v = problem.forcing.sample(grid) - (
        c["c_xx"] * base.uxx.values
        + c["c_yy"] * base.uyy.values
        + c["c_x"] * base.ux.values
        + c["c_y"] * base.uy.values
        + c["c_u"] * base.u.values)
    return GridFn2D(grid, v)


class KernelSet:
    """Grouped kernels of the collocated integral equation on one grid.

    All kernels are algebraic combinations of the coefficient fields with
    first-moment factors; they are stored both as grid arrays (for
    assembly) and as pointwise evaluators (for probing).
    """

    def __init__(self, coeffs: Coefficients, grid: Grid2D):
        self.grid = grid
        self.coeffs = coeffs
        c = coeffs.sample_all(grid)
        self.c = c
        x = grid.x[:, None]
        y = grid.y[None, :]
        # factors of the kernel acting on the bottom-edge unknown (dx integral)
        self.fx1 = y * c["c_u"] + c["c_y"]
        self.fx0 = y * c["c_x"] + c["c_xy"]
        # factors of the kernel acting on the left-edge unknown (dy integral)
        self.fy1 = x * c["c_u"] + c["c_x"]
        self.fy0 = x * c["c_y"] + c["c_xy"]
        # pointwise multipliers of the three lower unknowns
        self.corner_factor = x * y * c["c_u"] + y * c["c_x"] + x * c["c_y"] + c["c_xy"]
        self.edge_x_factor = y * c["c_xx"] + c["c_xxy"]
        self.edge_y_factor = x * c["c_yy"] + c["c_xyy"]

    # pointwise evaluators (x, y = collocation point; s, t = integration vars)
    def k_edge_x(self, x, y, s):
        cf = self.coeffs
        return ((x - s) * (y * cf.c_u.eval(x, y) + cf.c_y.eval(x, y))
                + y * cf.c_x.eval(x, y) + cf.c_xy.eval(x, y))

    def k_core_x(self, x, y, s):
        cf = self.coeffs
        return (x - s) * cf.c_yy.eval(x, y) + cf.c_xyy.eval(x, y)

    def k_edge_y(self, x, y, t):
        cf = self.coeffs
        return ((y - t) * (x * cf.c_u.eval(x, y) + cf.c_x.eval(x, y))
                + x * cf.c_y.eval(x, y) + cf.c_xy.eval(x, y))

    def k_core_y(self, x, y, t):
        cf = self.coeffs
        return (y - t) * cf.c_xx.eval(x, y) + cf.c_xxy.eval(x, y)

    def k_core_xy(self, x, y, s, t):
        cf = self.coeffs
        return ((x - s) * (y - t) * cf.c_u.eval(x, y) + (y - t) * cf.c_x.eval(x, y)
                + (x - s) * cf.c_y.eval(x, y) + cf.c_xy.eval(x, y))


def _moment_average_weights(grid: Grid2D) -> tuple[np.ndarray, np.ndarray]:
    """Weights of (1/h) * integral of (h - t) f(t) dt over each full axis."""
    m1x = grid.wx * (grid.domain.h1 - grid.x) / grid.domain.h1
    m2y = grid.wy * (grid.domain.h2 - grid.y) / grid.domain.h2
    return m1x, m2y


class DiscreteOperator:
    """Nystrom discretization (I + K) core = g of the eliminated equation.

    The three lower unknowns are substituted by their far-edge expressions:
    the bottom-edge unknown from the top-edge condition, the left-edge
    unknown from the right-edge condition, and the corner unknown from the
    bottom-edge route (its alternative left-edge route is kept as a
    post-solve diagnostic, not used in assembly).  K collects every
    core-dependent term after substitution; g collects the reduced forcing
    minus all known-data terms.

    `matvec` applies K matrix-free; `dense` materializes K (allowed up to
    DENSE_NODE_LIMIT nodes).  Both paths share the weight tables, and agree
    to roundoff.
    """

    def __init__(self, problem: PdeProblem, grid: Grid2D):
        self.grid = grid
        self.problem = problem
        self.kernels = KernelSet(problem.coeffs, grid)
        self.sd = sample_data(problem.data, grid)
        self.m1x, self.m2y = _moment_average_weights(grid)
        self._dense = None

        k = self.kernels
        ax, ay = grid.ax, grid.ay
        sd = self.sd
        # data part of the corner unknown (bottom-edge route)
        corner_data = sd.d_uy - float(self.m1x @ sd.d_uxx)
        data_terms = (k.fx1 * (ax.cum1 @ sd.d_uxx)[:, None]
                      + k.fx0 * (ax.cum0 @ sd.d_uxx)[:, None]
                      + k.fy1 * (ay.cum1 @ sd.d_uyy)[None, :]
                      + k.fy0 * (ay.cum0 @ sd.d_uyy)[None, :]
                      + k.corner_factor * corner_data
                      + k.edge_x_factor * sd.d_uxx[:, None]
                      + k.edge_y_factor * sd.d_uyy[None, :])
        self.corner_data = corner_data
        rr = reduced_rhs(problem, assemble_base(problem.data, grid))
        self.g = GridFn2D(grid, rr.values - data_terms)

    @property
    def shape(self) -> tuple[int, int]:
        n = self.grid.shape[0] * self.grid.shape[1]
        return (n, n)

    def matvec(self, core: np.ndarray) -> np.ndarray:
        """Apply K to a core-unknown array of shape (n1, n2)."""
        grid, k = self.grid, self.kernels
        c = k.c
        c0x, c1x = grid.ax.cum0, grid.ax.cum1
        c0y, c1y = grid.ay.cum0, grid.ay.cum1
        avg_y = core @ self.m2y            # (n1,) moment average along y
        avg_x = self.m1x @ core            # (n2,) moment average along x
        avg_xy = float(self.m1x @ core @ self.m2y)

        out = -(k.fx1 * (c1x @ avg_y)[:, None] + k.fx0 * (c0x @ avg_y)[:, None])
        out -= k.fy1 * (c1y @ avg_x)[None, :] + k.fy0 * (c0y @ avg_x)[None, :]
        bx1 = c1x @ core
        bx0 = c0x @ core
        out += c["c_yy"] * bx1 + c["c_xyy"] * bx0
        out += c["c_xx"] * (core @ c1y.T) + c["c_xxy"] * (core @ c0y.T)
        out += (c["c_u"] * (bx1 @ c1y.T) + c["c_x"] * (bx0 @ c1y.T)
                + c["c_y"] * (bx1 @ c0y.T) + c["c_xy"] * (bx0 @ c0y.T))
        out += k.corner_factor * avg_xy
        out -= k.edge_x_factor * avg_y[:, None]
        out -= k.edge_y_factor * avg_x[None, :]
        return out

    def dense(self) -> np.ndarray:
        """Materialize K as an (n1 n2) x (n1 n2) matrix, row-major nodes."""
        if self._dense is not None:
            return self._dense
        n1, n2 = self.grid.shape
        _check_dense_limit(n1 * n2)
        k = self.kernels
        c = k.c
        c0x, c1x = self.grid.ax.cum0, self.grid.ax.cum1
        c0y, c1y = self.grid.ay.cum0, self.grid.ay.cum1
        m1x, m2y = self.m1x, self.m2y

        k4 = np.einsum("ij,ik,jl->ijkl", c["c_u"], c1x, c1y, optimize=True)
        k4 += np.einsum("ij,ik,jl->ijkl", c["c_x"], c0x, c1y, optimize=True)
        k4 += np.einsum("ij,ik,jl->ijkl", c["c_y"], c1x, c0y, optimize=True)
        k4 += np.einsum("ij,ik,jl->ijkl", c["c_xy"], c0x, c0y, optimize=True)
        k4 -= np.einsum("ij,ik,l->ijkl", k.fx1, c1x, m2y, optimize=True)
        k4 -= np.einsum("ij,ik,l->ijkl", k.fx0, c0x, m2y, optimize=True)
        k4 -= np.einsum("ij,jl,k->ijkl", k.fy1, c1y, m1x, optimize=True)
        k4 -= np.einsum("ij,jl,k->ijkl", k.fy0, c0y, m1x, optimize=True)
        k4 += np.einsum("ij,k,l->ijkl", k.corner_factor, m1x, m2y, optimize=True)
        for j in range(n2):  # same-row core terms (k varies, l = j)
            k4[:, j, :, j] += c["c_yy"][:, j][:, None] * c1x + c["c_xyy"][:, j][:, None] * c0x
            k4[:, j, :, j] -= k.edge_y_factor[:, j][:, None] * m1x[None, :]
        for i in range(n1):  # same-column core terms (l varies, k = i)
            k4[i, :, i, :] += c["c_xx"][i][:, None] * c1y + c["c_xxy"][i][:, None] * c0y
            k4[i, :, i, :] -= k.edge_x_factor[i][:, None] * m2y[None, :]
        n = n1 * n2
        self._dense = k4.reshape(n, n)
        return self._dense


def assemble_eliminated(problem: PdeProblem, grid: Grid2D) -> DiscreteOperator:
    """Assemble the single second-kind system in the core unknown."""
    return DiscreteOperator(problem, grid)


class CoupledSystem:
    """Square dense system in the full unknown quadruple.

    Unknown layout: [corner, bottom-edge nodes (n1), left-edge nodes (n2),
    core nodes (n1*n2, row-major)].  Rows: the bottom-edge route for the
    corner unknown, the right-edge conditions for the left-edge unknown,
    the top-edge conditions for the bottom-edge unknown, and the collocated
    integral equation at every node.  The left-edge route for the corner
    unknown is algebraically redundant on admissible data and is kept as a
    post-solve diagnostic instead of a row.
    """

    def __init__(self, problem: PdeProblem, grid: Grid2D):
        self.grid = grid
        self.problem = problem
        n1, n2 = grid.shape
        n_core = n1 * n2
        _check_dense_limit(n_core)
        size = 1 + n1 + n2 + n_core
        self.size = size
        self.i_corner = 0
        self.s_edge_x = slice(1, 1 + n1)
        self.s_edge_y = slice(1 + n1, 1 + n1 + n2)
        self.s_core = slice(1 + n1 + n2, size)

        k = KernelSet(problem.coeffs, grid)
        sd = sample_data(problem.data, grid)
        self.sd = sd
        c = k.c
        h1, h2 = grid.domain.h1, grid.domain.h2
        mom1x = grid.wx * (h1 - grid.x)     # full first-moment weights in x
        mom2y = grid.wy * (h2 - grid.y)
        c0x, c1x = grid.ax.cum0, grid.ax.cum1
        c0y, c1y = grid.ay.cum0, grid.ay.cum1

        a = np.zeros((size, size))
        b = np.zeros(size)

        # corner row (bottom-edge route)
        a[0, 0] = h1
        a[0, self.s_edge_x] = mom1x
        b[0] = sd.uy10 - sd.uy00

        # left-edge unknown rows, one per y node (right-edge conditions)
        rows = np.arange(n2)
        a[1 + n1 + rows, 1 + n1 + rows] = h1
        blk = np.zeros((n2, n1, n2))
        blk[rows, :, rows] = mom1x[None, :]
        a[self.s_edge_y, self.s_core] = blk.reshape(n2, n_core)
        b[self.s_edge_y] = sd.uyy_right - sd.uyy_left

        # bottom-edge unknown rows, one per x node (top-edge conditions)
        rows = np.arange(n1)
        a[1 + rows, 1 + rows] = h2
        blk = np.zeros((n1, n1, n2))
        blk[rows, rows, :] = mom2y[None, :]
        a[self.s_edge_x, self.s_core] = blk.reshape(n1, n_core)
        b[self.s_edge_x] = sd.uxx_top - sd.uxx_bottom

        # collocation rows at every node
        a[self.s_core, 0] = k.corner_factor.ravel()
        blk = np.einsum("ij,ik->ijk", k.fx1, c1x) + np.einsum("ij,ik->ijk", k.fx0, c0x)
        for i in range(n1):
            blk[i, :, i] += k.edge_x_factor[i]
        a[self.s_core, self.s_edge_x] = blk.reshape(n_core, n1)
        blk = np.einsum("ij,jl->ijl", k.fy1, c1y) + np.einsum("ij,jl->ijl", k.fy0, c0y)
        for j in range(n2):
            blk[:, j, j] += k.edge_y_factor[:, j]
        a[self.s_core, self.s_edge_y] = blk.reshape(n_core, n2)

        k4 = np.einsum("ij,ik,jl->ijkl", c["c_u"], c1x, c1y, optimize=True)
        k4 += np.einsum("ij,ik,jl->ijkl", c["c_x"], c0x, c1y, optimize=True)
        k4 += np.einsum("ij,ik,jl->ijkl", c["c_y"], c1x, c0y, optimize=True)
        k4 += np.einsum("ij,ik,jl->ijkl", c["c_xy"], c0x, c0y, optimize=True)
        for j in range(n2):
            k4[:, j, :, j] += c["c_yy"][:, j][:, None] * c1x + c["c_xyy"][:, j][:, None] * c0x
        for i in range(n1):
            k4[i, :, i, :] += c["c_xx"][i][:, None] * c1y + c["c_xxy"][i][:, None] * c0y
        k4 = k4.reshape(n_core, n_core)
        k4[np.arange(n_core), np.arange(n_core)] += 1.0
        a[self.s_core, self.s_core] = k4
        b[self.s_core] = reduced_rhs(problem, assemble_base(problem.data, grid)).values.ravel()

        self.matrix = a
        self.rhs = b

    def solve(self):
        """Direct solve; returns (corner, edge_x, edge_y, core, cond estimate)."""
        cond = float(np.linalg.cond(self.matrix, 1))
        try:
            sol = np.linalg.solve(self.matrix, self.rhs)
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(
                f"coupled system singular (cond ~ {cond:.3e})") from exc
        n1, n2 = self.grid.shape
        corner = float(sol[self.i_corner])
        edge_x = sol[self.s_edge_x]
        edge_y = sol[self.s_edge_y]
        core = sol[self.s_core].reshape(n1, n2)
        return corner, edge_x, edge_y, core, cond


def assemble_coupled(problem: PdeProblem, grid: Grid2D) -> CoupledSystem:
    """Assemble the coupled square system over the full unknown quadruple."""
    return CoupledSystem(problem, grid)
