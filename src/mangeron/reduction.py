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

K is written once, as 15 terms coef(i,j) * (A core B^T)(i,j) (`kernel_terms`);
the matrix-free product, the dense matrix and both blocks of the coupled
system are derived from that table, so the two assemblies agree to
linear-solver roundoff; this is exercised as a cross-check downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import Grid2D, GridFn2D
from .problem import SampledData, SampledProblem

#: largest node count for which the dense kernel matrix may be materialized
DENSE_NODE_LIMIT = 70 * 70

# operator kinds of a kernel term, on either axis
CUM0, CUM1, IDENT, MOM = "cum0", "cum1", "I", "mom"


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


def assemble_base(sd: SampledData, grid: Grid2D) -> BaseBundle:
    """Base part of the solution from the origin corner and near-edge data."""
    return BaseBundle(grid, sd)


def apply_pde_operator(c: dict[str, np.ndarray], bundle) -> GridFn2D:
    """Pointwise application of the full fourth-order operator to a bundle.

    `c` holds the coefficient grids on the bundle's grid (as sampled by
    `Coefficients.sample_all`).  The bundle must expose all nine derivative
    grids (u .. uxxyy); the result is uxxyy + c_xxy uxxy + c_xyy uxyy
    + c_xx uxx + c_yy uyy + c_xy uxy + c_x ux + c_y uy + c_u u at every node.
    """
    grid = bundle.u.grid
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


def reduced_rhs(sp: SampledProblem, base: BaseBundle) -> GridFn2D:
    """Forcing minus the operator applied to the base part.

    Every mixed derivative of the base vanishes identically, so only the
    five non-mixed terms survive.
    """
    c = sp.coeffs
    v = sp.forcing - (
        c["c_xx"] * base.uxx.values
        + c["c_yy"] * base.uyy.values
        + c["c_x"] * base.ux.values
        + c["c_y"] * base.uy.values
        + c["c_u"] * base.u.values)
    return GridFn2D(base.grid, v)


def _moment_average_weights(grid: Grid2D) -> tuple[np.ndarray, np.ndarray]:
    """Weights of (1/h) * integral of (h - t) f(t) dt over each full axis."""
    m1x = grid.wx * (grid.domain.h1 - grid.x) / grid.domain.h1
    m2y = grid.wy * (grid.domain.h2 - grid.y) / grid.domain.h2
    return m1x, m2y


@dataclass(frozen=True)
class Term:
    """One term coef(i,j) * (A core B^T)(i,j) of K; `x` names A, `y` names B."""

    name: str
    coef: np.ndarray
    x: str
    y: str


def kernel_terms(c: dict[str, np.ndarray], grid: Grid2D) -> list[Term]:
    """The 15 terms of K, signs included.  A and B are each a cumulative
    integral table (cum0, cum1), the identity, or the rank-one moment average
    (mom) left behind by substituting a lower unknown: the bottom edge (fx1,
    fx0, edge_x_factor) averages along y, the left edge (fy1, fy0,
    edge_y_factor) along x, and the corner (corner_factor) along both.
    """
    x = grid.x[:, None]
    y = grid.y[None, :]
    return [
        Term("c_u", c["c_u"], CUM1, CUM1),
        Term("c_x", c["c_x"], CUM0, CUM1),
        Term("c_y", c["c_y"], CUM1, CUM0),
        Term("c_xy", c["c_xy"], CUM0, CUM0),
        Term("c_yy", c["c_yy"], CUM1, IDENT),
        Term("c_xyy", c["c_xyy"], CUM0, IDENT),
        Term("c_xx", c["c_xx"], IDENT, CUM1),
        Term("c_xxy", c["c_xxy"], IDENT, CUM0),
        Term("fx1", -(y * c["c_u"] + c["c_y"]), CUM1, MOM),
        Term("fx0", -(y * c["c_x"] + c["c_xy"]), CUM0, MOM),
        Term("fy1", -(x * c["c_u"] + c["c_x"]), MOM, CUM1),
        Term("fy0", -(x * c["c_y"] + c["c_xy"]), MOM, CUM0),
        Term("edge_x_factor", -(y * c["c_xx"] + c["c_xxy"]), IDENT, MOM),
        Term("edge_y_factor", -(x * c["c_yy"] + c["c_xyy"]), MOM, IDENT),
        Term("corner_factor", x * y * c["c_u"] + y * c["c_x"] + x * c["c_y"] + c["c_xy"],
             MOM, MOM),
    ]


def _matrix(ops: dict, kind: str, n: int) -> np.ndarray:
    """The (n, n) matrix of an operator kind on one axis."""
    if kind == IDENT:
        return np.eye(n)
    if kind == MOM:
        return np.broadcast_to(ops[MOM], (n, n))
    return ops[kind]


class DiscreteOperator:
    """Nystrom discretization (I + K) core = g of the eliminated equation.

    The three lower unknowns are substituted by their far-edge expressions:
    the bottom-edge unknown from the top-edge condition, the left-edge
    unknown from the right-edge condition, and the corner unknown from the
    bottom-edge route (its alternative left-edge route is kept as a
    post-solve diagnostic, not used in assembly).  K collects every
    core-dependent term after substitution; g collects the reduced forcing
    minus all known-data terms.

    K is held as its term table; `matvec` applies it matrix-free and `dense`
    materializes it (allowed up to DENSE_NODE_LIMIT nodes).
    """

    def __init__(self, sp: SampledProblem):
        grid, sd = sp.grid, sp.data
        self.grid = grid
        self.terms = kernel_terms(sp.coeffs, grid)
        m1x, m2y = _moment_average_weights(grid)
        self._x = {CUM0: grid.ax.cum0, CUM1: grid.ax.cum1, MOM: m1x}
        self._y = {CUM0: grid.ay.cum0, CUM1: grid.ay.cum1, MOM: m2y}
        self._dense = None
        # data part of the corner unknown (bottom-edge route)
        corner_data = sd.d_uy - float(m1x @ sd.d_uxx)
        rr = reduced_rhs(sp, assemble_base(sd, grid))
        self.g = GridFn2D(grid, rr.values - self.lower(corner_data, sd.d_uxx, sd.d_uyy))

    def _along_x(self, kind: str, v: np.ndarray) -> np.ndarray:
        """A v for the x-side operator `kind`; v is indexed by x first."""
        if kind == IDENT:
            return v
        if kind == MOM:
            return (self._x[MOM] @ v)[None]
        return self._x[kind] @ v

    def _along_y(self, kind: str, v: np.ndarray) -> np.ndarray:
        """v B^T for the y-side operator `kind`; v is indexed by y last."""
        if kind == IDENT:
            return v
        if kind == MOM:
            return (v @ self._y[MOM])[:, None]
        return v @ self._y[kind].T

    def matvec(self, core: np.ndarray) -> np.ndarray:
        """Apply K to a core array of shape (n1, n2): the x-side partials
        once, then every term's y side."""
        parts = {kind: self._along_x(kind, core) for kind in (IDENT, CUM0, CUM1, MOM)}
        out = np.zeros(self.grid.shape)
        for t in self.terms:
            out += t.coef * self._along_y(t.y, parts[t.x])
        return out

    def lower(self, corner: float, edge_x: np.ndarray, edge_y: np.ndarray) -> np.ndarray:
        """The collocated terms of given lower unknowns, at every node: the
        moment-average terms before the substitutions edge_x = d_uxx - core m2y,
        edge_y = d_uyy - m1x core and corner = d_uy - m1x edge_x."""
        out = np.zeros(self.grid.shape)
        for t in self.terms:
            if t.x == MOM and t.y == MOM:
                out += t.coef * corner
            elif t.y == MOM:
                out -= t.coef * self._along_x(t.x, edge_x[:, None])
            elif t.x == MOM:
                out -= t.coef * self._along_y(t.y, edge_y[None, :])
        return out

    def assemble(self, terms: list[Term]) -> np.ndarray:
        """Dense (n1 n2) x (n1 n2) matrix of the sum of `terms`, row-major nodes.

        Terms are grouped by their x-side operator A: each group forms
        C[i,j,l] = sum of coef(i,j) B(j,l) and adds A(i,k) C[i,j,l] at
        [i,j,k,l]; for A = I that is an update of the k = i diagonal.
        """
        n1, n2 = self.grid.shape
        _check_dense_limit(n1 * n2)
        k4 = np.zeros((n1, n2, n1, n2))
        diag = np.arange(n1)
        for kind in (IDENT, CUM0, CUM1, MOM):
            group = [t for t in terms if t.x == kind]
            if not group:
                continue
            c = sum(t.coef[:, :, None] * _matrix(self._y, t.y, n2)[None] for t in group)
            if kind == IDENT:
                k4[diag, :, diag, :] += c
            else:
                k4 += np.einsum("ik,ijl->ijkl", _matrix(self._x, kind, n1), c)
        return k4.reshape(n1 * n2, n1 * n2)

    def dense(self) -> np.ndarray:
        """Materialize K as an (n1 n2) x (n1 n2) matrix, row-major nodes."""
        if self._dense is None:
            self._dense = self.assemble(self.terms)
        return self._dense


def assemble_eliminated(sp: SampledProblem) -> DiscreteOperator:
    """Assemble the single second-kind system in the core unknown."""
    return DiscreteOperator(sp)


class CoupledSystem:
    """Square dense system in the full unknown quadruple.

    Unknown layout: [corner, bottom-edge nodes (n1), left-edge nodes (n2),
    core nodes (n1*n2, row-major)].  Rows: the bottom-edge route for the
    corner unknown, the right-edge conditions for the left-edge unknown,
    the top-edge conditions for the bottom-edge unknown, and the collocated
    integral equation at every node.  The left-edge route for the corner
    unknown is algebraically redundant on admissible data and is kept as a
    post-solve diagnostic instead of a row.

    The collocation rows come from the eliminated operator's term table:
    the core block is I plus the terms without a moment-average side, and
    the lower-unknown columns are `DiscreteOperator.lower` applied to unit
    vectors.
    """

    def __init__(self, sp: SampledProblem):
        grid, sd = sp.grid, sp.data
        self.grid = grid
        n1, n2 = grid.shape
        n_core = n1 * n2
        _check_dense_limit(n_core)
        size = 1 + n1 + n2 + n_core
        self.size = size
        self.i_corner = 0
        self.s_edge_x = slice(1, 1 + n1)
        self.s_edge_y = slice(1 + n1, 1 + n1 + n2)
        self.s_core = slice(1 + n1 + n2, size)

        op = DiscreteOperator(sp)
        h1, h2 = grid.domain.h1, grid.domain.h2
        mom1x = grid.wx * (h1 - grid.x)     # full first-moment weights in x
        mom2y = grid.wy * (h2 - grid.y)

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
        zx, zy = np.zeros(n1), np.zeros(n2)
        a[self.s_core, 0] = op.lower(1.0, zx, zy).ravel()
        a[self.s_core, self.s_edge_x] = np.stack(
            [op.lower(0.0, e, zy).ravel() for e in np.eye(n1)], axis=1)
        a[self.s_core, self.s_edge_y] = np.stack(
            [op.lower(0.0, zx, e).ravel() for e in np.eye(n2)], axis=1)
        core = op.assemble([t for t in op.terms if MOM not in (t.x, t.y)])
        core[np.arange(n_core), np.arange(n_core)] += 1.0
        a[self.s_core, self.s_core] = core
        b[self.s_core] = reduced_rhs(sp, assemble_base(sd, grid)).values.ravel()

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


def assemble_coupled(sp: SampledProblem) -> CoupledSystem:
    """Assemble the coupled square system over the full unknown quadruple."""
    return CoupledSystem(sp)
