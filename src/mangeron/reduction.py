"""Reduction of the Dirichlet problem to discrete integral equations.

Any admissible solution splits as u = base + remainder, where the base part
is determined by the origin-corner data and the bottom/left edge traces,
and the remainder is a quadruple of unknowns: the corner mixed derivative
u_xy(0,0), the edge traces u_xxy(x,0) and u_xyy(0,y), and the core unknown
u_xxyy(x,y).  Collocating the transformed equation at the grid nodes and
replacing every integral by the shared trapezoid rule yields
either a coupled square system in the full quadruple or, after eliminating
the three lower unknowns through the far-edge conditions, a single
second-kind system (I + K) core = g in the core unknown alone.

K is written once, as 15 terms coef(i,j) * (A core B^T)(i,j) (`kernel_terms`);
the matrix-free product, the dense matrix and both blocks of the coupled
system are derived from that table, so the two assemblies agree to
linear-solver roundoff; this is exercised as a cross-check downstream.
The matrix-free product applies A and B by running sums (`Axis.cumulative`)
in O(n1 n2); the dense assemblies apply the same code to the identity.

The base part is separable (a function of x plus a function of y), so it
enters only the right-hand side, through the five non-mixed terms of the
operator; `reduced_rhs` reads it as the 1-D vectors of `SampledData` and
makes no base grid.  The stages exchange plain arrays; g is read-only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import Grid2D
from .problem import DERIVATIVES, Coefficients, SampledProblem

#: largest node count for which the dense kernel matrix may be materialized
DENSE_NODE_LIMIT = 70 * 70

#: largest 1-norm condition number a direct solve accepts; a system above it,
#: or whose condition number is not finite, is numerically singular
SINGULAR_CONDITION = 1e15

# operator kinds of a kernel term, on either axis
CUM0, CUM1, IDENT, MOM = "cum0", "cum1", "I", "mom"


class DenseLimitError(ValueError):
    """A dense assembly refused because the grid exceeds DENSE_NODE_LIMIT."""


def _check_dense_limit(n_nodes: int):
    """Refuse a dense assembly over more than DENSE_NODE_LIMIT grid nodes."""
    if n_nodes > DENSE_NODE_LIMIT:
        raise DenseLimitError(f"dense assembly limited to {DENSE_NODE_LIMIT} nodes; "
                              "use the matrix-free matvec")


def apply_pde_operator(c: dict[str, np.ndarray], bundle) -> np.ndarray:
    """Pointwise application of the full fourth-order operator to a bundle.

    `c` holds the coefficient grids on the bundle's grid (as sampled by
    `Coefficients.sample_all`).  The bundle must expose all nine derivative
    grids (`DERIVATIVES`); the result is uxxyy plus each coefficient times
    the grid it multiplies (`Coefficients.MULTIPLIES`) at every node.
    """
    for key in DERIVATIVES:
        if getattr(bundle, key, None) is None:
            raise ValueError(f"bundle is missing derivative grid {key!r}")
    out = bundle.uxxyy.values.copy()
    for key, name in Coefficients.MULTIPLIES.items():
        out += c[key] * getattr(bundle, name).values
    return out


def reduced_rhs(sp: SampledProblem) -> np.ndarray:
    """Forcing minus the operator applied to the base part.

    Every mixed derivative of the base vanishes identically, so only the
    five non-mixed terms survive; each reads the base's 1-D vectors in
    `SampledData` by broadcasting.
    """
    c, sd = sp.coeffs, sp.data
    return sp.forcing - (
        c["c_xx"] * sd.uxx_bottom[:, None]
        + c["c_yy"] * sd.uyy_left[None, :]
        + c["c_x"] * sd.base_ux[:, None]
        + c["c_y"] * sd.base_uy[None, :]
        + c["c_u"] * (sd.base_x[:, None] + sd.base_y[None, :]))


@dataclass(frozen=True)
class Term:
    """One term coef(i,j) * (A core B^T)(i,j) of K; `x` names A, `y` names B."""

    name: str
    coef: np.ndarray
    x: str
    y: str


def kernel_terms(c: dict[str, np.ndarray], grid: Grid2D) -> list[Term]:
    """The 15 terms of K, signs included.  A and B are each a cumulative
    integral (cum0, cum1, as in `Axis.cumulative`), the identity, or the
    rank-one moment average (mom) left behind by substituting a lower
    unknown: the bottom edge (fx1, fx0, edge_x_factor) averages along y,
    the left edge (fy1, fy0, edge_y_factor) along x, and the corner
    (corner_factor) along both.
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
        self.m1x = grid.ax.moment_avg
        self.m2y = grid.ay.moment_avg
        # data part of the corner unknown (bottom-edge route)
        corner_data = sd.d_uy - float(self.m1x @ sd.d_uxx)
        g = reduced_rhs(sp)
        g -= self.lower(corner_data, sd.d_uxx, sd.d_uyy)
        g.flags.writeable = False
        self.g = g

    def _along_x(self, v: np.ndarray) -> dict[str, np.ndarray]:
        """A v for every x-side operator A; v is indexed by x first."""
        c0, c1 = self.grid.ax.cumulative(v, 0)
        return {IDENT: v, CUM0: c0, CUM1: c1, MOM: (self.m1x @ v)[None]}

    def _along_y(self, v: np.ndarray) -> dict[str, np.ndarray]:
        """v B^T for every y-side operator B; v is indexed by y last."""
        c0, c1 = self.grid.ay.cumulative(v, 1)
        return {IDENT: v, CUM0: c0, CUM1: c1, MOM: (v @ self.m2y)[:, None]}

    def matvec(self, core: np.ndarray) -> np.ndarray:
        """Apply K to a core array of shape (n1, n2): the x-side partials
        once, then, one x-side operator at a time, every term's y side."""
        parts = self._along_x(core)
        out = np.zeros(self.grid.shape)
        prod = np.empty(self.grid.shape)
        for kind in (IDENT, CUM0, CUM1, MOM):
            sides = self._along_y(parts.pop(kind))
            for t in self.terms:
                if t.x == kind:
                    out += np.multiply(t.coef, sides[t.y], out=prod)
        return out

    def lower(self, corner: float, edge_x: np.ndarray, edge_y: np.ndarray) -> np.ndarray:
        """The collocated terms of given lower unknowns, at every node: the
        moment-average terms before the substitutions edge_x = d_uxx - core m2y,
        edge_y = d_uyy - m1x core and corner = d_uy - m1x edge_x."""
        xs = self._along_x(edge_x[:, None])
        ys = self._along_y(edge_y[None, :])
        out = np.zeros(self.grid.shape)
        for t in self.terms:
            if t.x == MOM and t.y == MOM:
                out += t.coef * corner
            elif t.y == MOM:
                out -= t.coef * xs[t.x]
            elif t.x == MOM:
                out -= t.coef * ys[t.y]
        return out

    def assemble(self, terms: list[Term]) -> np.ndarray:
        """Dense (n1 n2) x (n1 n2) matrix of the sum of `terms`, row-major nodes.

        The (n, n) matrix of every operator kind is read off the code the
        matvec runs, applied to the identity: A = `_along_x` of I, and B the
        transpose of `_along_y` of I.  Terms are grouped by their x-side
        operator A: each group forms C[i,j,l] = sum of coef(i,j) B(j,l) and
        adds A(i,k) C[i,j,l] at [i,j,k,l], one row block i at a time so that
        no temporary as large as K is made; for A = I that is an update of
        the k = i diagonal.
        """
        n1, n2 = self.grid.shape
        _check_dense_limit(n1 * n2)
        xs = self._along_x(np.eye(n1))
        ys = {kind: np.ascontiguousarray(b.T)
              for kind, b in self._along_y(np.eye(n2)).items()}
        k4 = np.zeros((n1, n2, n1, n2))
        diag = np.arange(n1)
        for kind in (IDENT, CUM0, CUM1, MOM):
            group = [t for t in terms if t.x == kind]
            if not group:
                continue
            c = sum(t.coef[:, :, None] * ys[t.y][None] for t in group)
            if kind == IDENT:
                k4[diag, :, diag, :] += c
                continue
            a = np.broadcast_to(xs[kind], (n1, n1))
            for i in range(n1):
                k4[i] += a[i][None, :, None] * c[i][:, None, :]
        return k4.reshape(n1 * n2, n1 * n2)

    def dense(self) -> np.ndarray:
        """Materialize K as a new (n1 n2) x (n1 n2) matrix, row-major nodes;
        the caller owns it and may modify it in place."""
        return self.assemble(self.terms)


def assemble_eliminated(sp: SampledProblem) -> DiscreteOperator:
    """Assemble the single second-kind system in the core unknown."""
    return DiscreteOperator(sp)


class CoupledSystem:
    """Square dense system in the full unknown quadruple, as one 4 x 4 block
    matrix.

    Columns: the corner, the n1 bottom-edge nodes, the n2 left-edge nodes and
    the n1*n2 core nodes (row-major).  Rows, with m_x, m_y the moment weights
    of the two axes (`Axis.moments`):

        corner (bottom-edge route)   [h1,  m_x,     0,       0             ]
        top-edge conditions (n1)     [0,   h2 I,    0,       kron(I, m_y)  ]
        right-edge conditions (n2)   [0,   0,       h1 I,    kron(m_x, I)  ]
        collocation (n1*n2)          [lower(corner, edge_x, edge_y), I + K']

    The collocation rows come from the eliminated operator's term table: the
    lower-unknown columns are `DiscreteOperator.lower` applied to unit
    vectors, and K' is K without its moment-average terms.  The left-edge
    route for the corner unknown is algebraically redundant on admissible
    data and is kept as a post-solve diagnostic instead of a row.
    """

    def __init__(self, sp: SampledProblem):
        grid, sd = sp.grid, sp.data
        self.grid = grid
        n1, n2 = grid.shape
        n_core = n1 * n2
        _check_dense_limit(n_core)
        op = DiscreteOperator(sp)
        h1, h2 = grid.domain.h1, grid.domain.h2
        m_x, m_y = grid.ax.moments, grid.ay.moments
        zx, zy = np.zeros(n1), np.zeros(n2)
        core = op.assemble([t for t in op.terms if MOM not in (t.x, t.y)])
        core[np.diag_indices(n_core)] += 1.0
        self.matrix = np.block([
            [h1, m_x, zy, np.zeros(n_core)],
            [zx[:, None], h2 * np.eye(n1), np.zeros((n1, n2)), np.kron(np.eye(n1), m_y)],
            [zy[:, None], np.zeros((n2, n1)), h1 * np.eye(n2), np.kron(m_x, np.eye(n2))],
            [op.lower(1.0, zx, zy).reshape(n_core, 1),
             np.stack([op.lower(0.0, e, zy).ravel() for e in np.eye(n1)], axis=1),
             np.stack([op.lower(0.0, zx, e).ravel() for e in np.eye(n2)], axis=1),
             core]])
        self.rhs = np.concatenate([[sd.uy10 - sd.uy00], sd.uxx_top - sd.uxx_bottom,
                                   sd.uyy_right - sd.uyy_left, reduced_rhs(sp).ravel()])

    def solve(self):
        """Direct solve; returns (corner, edge_x, edge_y, core, cond estimate).

        A numerically singular system (`SINGULAR_CONDITION`) raises LinAlgError.
        """
        cond = float(np.linalg.cond(self.matrix, 1))
        if not cond <= SINGULAR_CONDITION:
            raise np.linalg.LinAlgError(
                f"coupled system numerically singular (cond ~ {cond:.3e})")
        try:
            sol = np.linalg.solve(self.matrix, self.rhs)
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(
                f"coupled system singular (cond ~ {cond:.3e})") from exc
        n1, n2 = self.grid.shape
        corner, edge_x, edge_y, core = np.split(sol, np.cumsum([1, n1, n2]))
        return float(corner[0]), edge_x, edge_y, core.reshape(n1, n2), cond


def assemble_coupled(sp: SampledProblem) -> CoupledSystem:
    """Assemble the coupled square system over the full unknown quadruple."""
    return CoupledSystem(sp)
