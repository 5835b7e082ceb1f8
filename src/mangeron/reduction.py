"""Reduction of the Dirichlet problem to discrete integral equations.

The solution is written once, as the integral representation (`REPRESENTATION`)
u = base_x(x) + base_y(y) + x y corner + y cum1(edge_x) + x cum1(edge_y) +
cum1 cum1(core): a separable base part fixed by the origin-corner data and the
bottom/left edge traces, and a quadruple of unknowns, the corner mixed
derivative u_xy(0,0), the edge traces u_xxy(x,0) and u_xyy(0,y) and the core
unknown u_xxyy(x,y).  The derivative grids (`representation`), the base part
of the right-hand side (`reduced_rhs`) and the 15 terms coef(i,j) * (A core
B^T)(i,j) of K (`kernel_terms`) are read off that table.  Collocating the
equation at the grid nodes, every integral by the axes' one rule (`Axis`),
yields a coupled square system in the quadruple and, with the lower unknowns
eliminated by the far-edge conditions (`far_edge`), a single second-kind
system (I + K) core = g.  The solver solves the second-kind system; the
coupled system (`CoupledSystem`) is the reference it is held to in the
tests.  The matrix-free product, the dense matrix and both blocks of the
coupled system read K's term list; the product applies A and B by running
sums (`Axis.cumulative`) in O(n1 n2), and the dense assemblies apply the
same code to the identity.  So does the split of I + K for the direct
solve (`BlockSystem`): every A but the moment average is lower triangular,
so with the nodes in x rows I + K is a block lower triangular matrix plus a
rank-n2 part, the terms whose A is the moment average.  The product runs the x side over the
whole grid, into its output and one work grid that it reuses, and the y
side in row tiles (`grids.row_tiles`), except each y-side moment average,
which stays one whole-grid product so that BLAS sums it as before; its bits
are those of the whole-grid form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .grids import Axis, Grid2D, row_tiles, tile_rows
from .problem import DERIVATIVES, Coefficients, SampledData, SampledProblem

#: largest node count for which the dense kernel matrix may be materialized
DENSE_NODE_LIMIT = 70 * 70

# operator kinds of a kernel term, on either axis
CUM0, CUM1, IDENT, MOM = "cum0", "cum1", "I", "mom"

#: the factor of an integrated unknown on one axis by derivative order 0, 1, 2:
#: the unknown under two running integrals, under one, and itself
LADDER = (CUM1, CUM0, IDENT)

#: u as a sum of separable terms, each by its x and y factors with their
#: derivatives of order 0, 1, 2 (None: zero); besides LADDER an entry is the
#: coordinate "x" or "y", "1", or a `SampledData` vector of the base terms,
#: which carry no unknown
REPRESENTATION = {
    "base_x": (("base_x", "base_ux", "uxx_bottom"), ("1", None, None)),
    "base_y": (("1", None, None), ("base_y", "base_uy", "uyy_left")),
    "corner": (("x", "1", None), ("y", "1", None)),
    "edge_x": (LADDER, ("y", "1", None)),
    "edge_y": (("x", "1", None), LADDER),
    "core": (LADDER, LADDER),
}
BASE = ("base_x", "base_y")


class DenseLimitError(ValueError):
    """A dense assembly refused because the grid exceeds DENSE_NODE_LIMIT."""


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


def _ladder(axis: Axis, v: np.ndarray, dim: int) -> dict[str, np.ndarray]:
    """v and its two running integrals along `dim`, by LADDER operator."""
    c0, c1 = axis.cumulative(v, dim)
    return {IDENT: v, CUM0: c0, CUM1: c1}


def _vector(entry, grid: Grid2D, dim: int, sd: SampledData | None = None):
    """A vector entry along axis `dim`, shaped to broadcast; None for "1" or an operator."""
    if entry == "1" or entry in LADDER:
        return None
    v = getattr(grid if entry in ("x", "y") else sd, entry)
    return v[:, None] if dim == 0 else v[None, :]


def _times(*factors):
    """The product of the factors that are not None, left to right."""
    return reduce(lambda a, b: b if a is None else a if b is None else a * b, factors)


def _sum(parts):
    """The sum of the parts left to right, None if there are none; as in an
    expression, each part is freed before the next is made.  The first
    addition makes a new total; later parts are added into it in place
    wherever they broadcast to its shape, with the bits of ``total + part``.
    A total made here is returned read-only, so that a grid function adopts
    it without a copy (`grids`); a lone part is returned as it is."""
    total, owned = None, False
    for part in parts:
        if total is None:
            total = part
        elif owned and np.broadcast_shapes(total.shape, np.shape(part)) == total.shape:
            total += part
        else:
            total, owned = total + part, True
        part = None
    if owned:
        total.flags.writeable = False
    return total


def _unknowns_under(grid: Grid2D, quadruple):
    """(under, core_x) for `representation`: every unknown of the quadruple
    under each pair of its operators (term, A, B), except the core, which is
    kept under each x-side operator A alone; the base terms carry none."""
    under = {(term, IDENT, IDENT): None for term in BASE}   # (term, A, B) -> unknown under A, B
    core_x = {}
    for term, w in zip([t for t in REPRESENTATION if t not in BASE], quadruple):
        fx, fy = REPRESENTATION[term]
        if np.ndim(w) == 1:                 # an edge trace, constant across the domain
            w = w[:, None] if fx == LADDER else w[None, :]
        xs = _ladder(grid.ax, w, 0) if fx == LADDER else {IDENT: w}
        if fx == fy == LADDER:
            core_x = xs
        else:
            for a, wa in xs.items():
                for b, wab in (_ladder(grid.ay, wa, 1) if fy == LADDER else {IDENT: wa}).items():
                    under[term, a, b] = wab
    return under, core_x


def representation(sd: SampledData, grid: Grid2D, quadruple=()):
    """Yield (name, grid) for the nine derivative grids of u, each the sum of
    its `REPRESENTATION` terms in table order: a term's vectors, x by y, times
    its unknown under its operators, x first.  `quadruple` is (corner, edge_x,
    edge_y, core); without it these are the base part's grids, broadcast from
    1-D (None where they vanish).  The grids come grouped by their x order,
    so by the core's x-side operator: the core's y-side running integrals
    are taken for one x-side partial at a time, when its three grids are
    summed, and each grid of the core under two operators is freed once the
    grid it serves is summed."""
    under, core_x = _unknowns_under(grid, quadruple)

    def terms_at(i, j):
        for term, (fx, fy) in REPRESENTATION.items():
            key = (term, *(e if e in LADDER else IDENT for e in (fx[i], fy[j])))
            if None not in (fx[i], fy[j]) and key in under:
                yield _times(_vector(fx[i], grid, 0, sd), _vector(fy[j], grid, 1, sd),
                             under.pop(key) if fx == fy == LADDER else under[key])

    for i, a in enumerate(LADDER):
        if a in core_x:
            under.update({("core", a, b): v
                          for b, v in _ladder(grid.ay, core_x.pop(a), 1).items()})
        for name, (ni, j) in DERIVATIVES.items():
            if ni == i:
                yield name, _sum(terms_at(i, j))


def reduced_rhs(sp: SampledProblem) -> np.ndarray:
    """Forcing minus the operator applied to the base part, whose grids are
    `representation` with no unknown, summed in `Coefficients.MULTIPLIES` order."""
    base = dict(representation(sp.data, sp.grid))
    return sp.forcing - _sum(sp.coeffs[key] * base[name]
                             for key, name in Coefficients.MULTIPLIES.items()
                             if base[name] is not None)


def far_edge(sd: SampledData, grid: Grid2D, core: np.ndarray | None = None):
    """(corner, edge_x, edge_y, corner_alt): the lower unknowns that the
    far-edge conditions give for a core (None: zero, leaving the data parts).
    Each edge unknown is the difference of its data across the domain over
    the side length, minus the core's moment average; the corner comes by
    the bottom edge, corner_alt by the left."""
    h1, h2 = grid.domain.h1, grid.domain.h2
    m1x, m2y = grid.ax.moment_avg, grid.ay.moment_avg
    edge_x = (sd.uxx_top - sd.uxx_bottom) / h2
    edge_y = (sd.uyy_right - sd.uyy_left) / h1
    if core is not None:
        edge_x -= core @ m2y
        edge_y -= m1x @ core
    return (float((sd.uy10 - sd.uy00) / h1 - m1x @ edge_x), edge_x, edge_y,
            float((sd.ux01 - sd.ux00) / h2 - m2y @ edge_y))


@dataclass(frozen=True)
class Term:
    """One term coef(i,j) * (A core B^T)(i,j) of K; `x` names A, `y` names B."""

    coef: np.ndarray
    x: str
    y: str


def kernel_terms(c: dict[str, np.ndarray], grid: Grid2D) -> list[Term]:
    """The 15 terms of K: each coefficient times its grid, expanded by the
    `REPRESENTATION` terms with an unknown (u_xxyy's core term is the I of
    I + K).  A lower unknown is constant along an axis where its factor is a
    vector, and `far_edge` gives its core part as minus the core's moment
    average (mom) along that axis: that side's operator is mom, the vector
    moves into the coefficient, and the sign flips.  Coefficients sum their
    parts in DERIVATIVES order; the list keeps the order K was first written
    in, which the sums of the matvec and the dense assembly follow."""
    multiplier = {name: key for key, name in Coefficients.MULTIPLIES.items()}
    parts = {}      # (term, A, B) -> [(coefficient key, x entry, y entry)]
    for name, (i, j) in DERIVATIVES.items():
        for term, (fx, fy) in REPRESENTATION.items():
            if name in multiplier and term not in BASE and None not in (fx[i], fy[j]):
                ops = (e if e in LADDER else MOM for e in (fx[i], fy[j]))
                parts.setdefault((term, *ops), []).append((multiplier[name], fx[i], fy[j]))
    # K's first order: by both sides' steps from a running integral (I one, mom
    # two), the nearer x side first; a stable sort keeps DERIVATIVES order in ties
    steps = {CUM1: 0, CUM0: 0, IDENT: 1, MOM: 2}
    terms = []
    for term, a, b in sorted(parts, key=lambda t: (steps[t[1]] + steps[t[2]], steps[t[1]])):
        keys = parts[term, a, b]
        coef = _sum(_times(_vector(ex, grid, 0), _vector(ey, grid, 1), c[key])
                    for key, ex, ey in keys)
        if (a, b).count(MOM) == 1:
            coef = -coef
        terms.append(Term(coef, a, b))
    return terms


class DiscreteOperator:
    """Nystrom discretization (I + K) core = g of the eliminated equation.

    The three lower unknowns are substituted by their far-edge expressions
    (`far_edge`; the corner by its bottom-edge route).  K collects every
    core-dependent term after substitution; g collects the reduced forcing
    minus all known-data terms.

    K is held as its term table; `matvec` applies it matrix-free, `dense`
    materializes it and `BlockSystem` splits I + K for the direct solve (both
    allowed up to DENSE_NODE_LIMIT nodes).  `matvec` reuses
    the operator's work grid, so an operator serves one matvec at a time.
    """

    def __init__(self, sp: SampledProblem):
        grid = sp.grid
        self.sp = sp
        self.grid = grid
        self.terms = kernel_terms(sp.coeffs, grid)

    @cached_property
    def g(self) -> np.ndarray:
        """The right-hand side, read-only; made on first access, since the
        coupled system reads only K's terms."""
        corner, edge_x, edge_y, _ = far_edge(self.sp.data, self.grid)  # the lower data parts
        g = reduced_rhs(self.sp)
        g -= self.lower(corner, edge_x, edge_y)
        g.flags.writeable = False
        return g

    def _along_x(self, v: np.ndarray) -> dict[str, np.ndarray]:
        """A v for every x-side operator A; v is indexed by x first."""
        return {**_ladder(self.grid.ax, v, 0), MOM: (self.grid.ax.moment_avg @ v)[None]}

    def _along_y(self, v: np.ndarray) -> dict[str, np.ndarray]:
        """v B^T for every y-side operator B; v is indexed by y last."""
        return {**_ladder(self.grid.ay, v, 1), MOM: (v @ self.grid.ay.moment_avg)[:, None]}

    @cached_property
    def _work(self) -> np.ndarray:
        """The grid that receives the core's second x-side running integral,
        made on the first matvec and reused by every later one."""
        return np.empty(self.grid.shape)

    def matvec(self, core: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Apply K to a core array of shape (n1, n2), into `out` if given.

        The x side runs over the whole grid once: the core's first running
        integral goes into `out` itself and its second into the operator's
        work grid, and its moment average is one row.  The y-side moment
        average of each x-side partial is one whole-grid product, because a
        product over fewer rows may sum in another order under BLAS and
        change the last bits.  The rest runs one row tile (`grids.row_tiles`)
        at a time: the tile's rows of the first running integral are copied
        out of `out`, which is then zeroed there, each partial's y-side
        running integrals are taken, and every term coef * (A core B^T) is
        added into the rows of `out` in K's term order.  So each node gets
        the bits of the whole-grid sum, and a call makes only four tiles of
        work arrays.
        `out` must be a C-contiguous float (n1, n2) array that shares no
        memory with `core`; its values on entry are not read, and it is
        returned.
        """
        shape = self.grid.shape
        core = np.asarray(core, dtype=float)
        if out is None:
            out = np.empty(shape)
        elif (type(out) is not np.ndarray or out.shape != shape or out.dtype != np.float64
              or not out.flags.c_contiguous):
            raise ValueError(f"out must be a C-contiguous float array of shape {shape}")
        elif np.shares_memory(out, core):
            raise ValueError("out must share no memory with core")
        x0, x1 = self.grid.ax.cumulative(core, 0, out=(out, self._work))
        parts = {IDENT: core, CUM0: x0, CUM1: x1}
        moms = {kind: v @ self.grid.ay.moment_avg for kind, v in parts.items()}
        row = self._along_y((self.grid.ax.moment_avg @ core)[None])  # the x-side mom: one row
        x0t, y0, y1, prod = (np.empty((tile_rows(shape), shape[1])) for _ in range(4))
        for tile in row_tiles(shape):
            acc = out[tile]
            m = len(acc)
            x0t[:m] = acc       # the tile's rows of x0, read before they are zeroed
            tiles = {IDENT: core[tile], CUM0: x0t[:m], CUM1: x1[tile]}
            acc[...] = 0.0      # a sum from zero, as over the whole grid (-0.0 included)
            for kind in (IDENT, CUM0, CUM1, MOM):
                if kind == MOM:
                    sides = row
                else:
                    v = tiles[kind]
                    c0, c1 = self.grid.ay.cumulative(v, 1, out=(y0[:m], y1[:m]))
                    sides = {IDENT: v, CUM0: c0, CUM1: c1, MOM: moms[kind][tile, None]}
                for t in self.terms:
                    if t.x == kind:
                        acc += np.multiply(t.coef[tile], sides[t.y], out=prod[:m])
        return out

    def lower(self, corner: float, edge_x: np.ndarray, edge_y: np.ndarray) -> np.ndarray:
        """The collocated terms of given lower unknowns, at every node: the
        moment-average terms of K before the substitution of `far_edge`."""
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

    def check_dense_limit(self):
        """Refuse a grid of more than DENSE_NODE_LIMIT nodes for a dense
        assembly or a direct solve, before anything is allocated."""
        n1, n2 = self.grid.shape
        if n1 * n2 > DENSE_NODE_LIMIT:
            raise DenseLimitError(f"dense assembly limited to {DENSE_NODE_LIMIT} nodes; "
                                  "use the matrix-free matvec")

    def x_groups(self, terms: list[Term]):
        """Yield (kind, C) for each x-side operator kind of `terms`, in the
        order I, cum0, cum1, mom: C[i, j, l] is the sum of coef(i, j) B(j, l)
        over the kind's terms, with B the (n2, n2) matrix of the term's y-side
        operator, the transpose of `_along_y` of the identity.  A term then
        adds A(i, k) C[i, j, l] at row (i, j) and column (k, l), A the matrix
        of its x-side operator (`_along_x` of the identity)."""
        ys = {kind: np.ascontiguousarray(b.T)
              for kind, b in self._along_y(np.eye(self.grid.shape[1])).items()}
        for kind in (IDENT, CUM0, CUM1, MOM):
            group = [t for t in terms if t.x == kind]
            if group:
                yield kind, sum(t.coef[:, :, None] * ys[t.y][None] for t in group)

    def assemble(self, terms: list[Term]) -> np.ndarray:
        """Dense (n1 n2) x (n1 n2) matrix of the sum of `terms`, row-major nodes.

        Terms are grouped by their x-side operator A (`x_groups`), and each
        group adds A(i, k) C[i, j, l] at [i, j, k, l], one row block i at a
        time so that no temporary as large as K is made; for A = I that is an
        update of the k = i diagonal.  A grid of more than DENSE_NODE_LIMIT
        nodes is refused before anything is allocated.
        """
        self.check_dense_limit()
        n1, n2 = self.grid.shape
        xs = self._along_x(np.eye(n1))
        k4 = np.zeros((n1, n2, n1, n2))
        diag = np.arange(n1)
        for kind, c in self.x_groups(terms):
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


class BlockSystem:
    """I + K split for a direct solve in O(n1 n2^2) memory.

    With the nodes in x rows (row-major), I + K = T + U W^T.  T holds I and
    the terms whose x-side operator is I, cum0 or cum1; these are lower
    triangular along x, so T is block lower triangular, with n1 diagonal
    blocks T_ii of size n2 x n2 (`diag`).  U W^T holds the terms whose
    x-side operator is the moment average: W^T b = m_x @ b, the x-side
    moment average of b, and (U v)[i] = U_i v, so it has rank n2.  Every
    block is read off the term table as `DiscreteOperator.assemble` reads it
    (`DiscreteOperator.x_groups`): block (i, k) of T is the sum over cum0,
    cum1 of A(i, k) C_i, plus C_i of I and the identity where k = i, and
    U_i is C_i of mom.  Nothing of the size of K is made.  The grid is
    refused above DENSE_NODE_LIMIT nodes, as for the dense matrix.

    For N = n1 n2 nodes the pieces (the C_i, the T_ii and their inverses)
    take O(N n2^2) time to build, and a substitution over T or T^T takes
    O(N n2) per right-hand side: below the diagonal, A(i, k) of cum0 and
    cum1 are w_k and w_k (x_i - x_k), w the axis's trapezoid weights, so
    row i reads two running sums over the rows solved before it.  The
    exact ||I + K||_1 (`norm1`) forms the blocks on and below the diagonal
    only, in O(N^2 / 2).
    """

    LOWER = (CUM0, CUM1)    # the x-side kinds with blocks below the diagonal

    def __init__(self, op: DiscreteOperator):
        op.check_dense_limit()
        n1, n2 = self.shape = op.grid.shape
        ax = op.grid.ax
        self._a = op._along_x(np.eye(n1))             # A of each x-side kind
        self._c = dict(op.x_groups(op.terms))         # C of each: every kind has terms in K
        self._weights, self._steps = ax.weights, ax.steps
        self.u = self._c[MOM]
        self.moment = ax.moment_avg
        d, e = np.arange(n1), np.arange(n2)
        diag = self._c[IDENT].copy()
        for kind in self.LOWER:
            diag += self._a[kind][d, d, None, None] * self._c[kind]
        diag[:, e, e] += 1.0
        self.diag = diag

    @cached_property
    def diag_inv(self) -> np.ndarray:
        """The inverses of the diagonal blocks, made once; a singular block
        raises `np.linalg.LinAlgError`."""
        return np.linalg.inv(self.diag)

    def diag_cond(self) -> np.ndarray:
        """The 1-norm condition number of each diagonal block,
        ||T_ii||_1 ||T_ii^-1||_1 from `diag_inv`, the inverses that the
        substitutions use: the bits of ``np.linalg.cond(diag, 1)`` without a
        second inversion.  A singular block raises where that gives inf."""
        inv = self.diag_inv
        with np.errstate(all="ignore"):
            return np.linalg.norm(self.diag, 1, (-2, -1)) * np.linalg.norm(inv, 1, (-2, -1))

    def solve_lower(self, r: np.ndarray) -> np.ndarray:
        """z with T z = r by block forward substitution; r is (n1, n2), or
        (n1, n2, m) for m right-hand sides.  Row i subtracts C_i of cum0
        times s0 = sum_{k<i} w_k z_k and C_i of cum1 times s1 = sum_{k<i}
        w_k (x_i - x_k) z_k, which step to the next row by the recurrences
        of `Axis.cumulative`."""
        c0, c1, inv = self._c[CUM0], self._c[CUM1], self.diag_inv
        z = np.empty(np.shape(r))
        s0, s1 = np.zeros(z.shape[1:]), np.zeros(z.shape[1:])
        for i, step in enumerate(self._steps):
            z[i] = inv[i] @ (r[i] - c0[i] @ s0 - c1[i] @ s1)
            s0 += self._weights[i] * z[i]
            s1 += step * s0
        z[-1] = inv[-1] @ (r[-1] - c0[-1] @ s0 - c1[-1] @ s1)
        return z

    def solve_upper(self, r: np.ndarray) -> np.ndarray:
        """z with T^T z = r by block back substitution; r is (n1, n2), or
        (n1, n2, m).  Row i subtracts w_i times the sum over k > i of
        C_k^T z_k for cum0 and (x_k - x_i) C_k^T z_k for cum1, kept as
        running sums from the last row back, with the plain sum of the cum1
        products beside them."""
        c0, c1, inv = self._c[CUM0], self._c[CUM1], self.diag_inv
        z = np.empty(np.shape(r))
        s, p1 = np.zeros(z.shape[1:]), np.zeros(z.shape[1:])
        for i in range(len(z) - 1, 0, -1):
            z[i] = inv[i].T @ (r[i] - self._weights[i] * s)
            p1 += c1[i].T @ z[i]
            s += c0[i].T @ z[i] + self._steps[i - 1] * p1
        z[0] = inv[0].T @ (r[0] - self._weights[0] * s)
        return z

    def norm1(self) -> float:
        """The exact 1-norm of I + K, its largest column sum.  Row block i
        holds in column block k the product of the kinds' C_i by A(i, k),
        plus the identity where k = i; it is formed for k <= i only, one row
        block at a time.  Above the diagonal only the moment-average term is
        left, m_k U_i, so those column sums are m_k (never negative) times
        the running sum over i < k of the column sums of |U_i|."""
        n1, n2 = self.shape
        kinds = list(self._c)
        a = np.stack([np.broadcast_to(self._a[kind], (n1, n1)) for kind in kinds], axis=1)
        e = np.arange(n2)
        colsum = np.zeros((n2, n1))
        above = np.cumsum(np.abs(self.u).sum(axis=1)[:-1], axis=0)    # over i < k, k >= 1
        colsum[:, 1:] = (self.moment[1:, None] * above).T
        for i in range(n1):
            c = np.stack([self._c[kind][i] for kind in kinds], axis=-1)
            # block[j, l, k]: the entry at row (i, j) and column (k, l), k <= i
            block = (c.reshape(n2 * n2, -1) @ a[i, :, :i + 1]).reshape(n2, n2, i + 1)
            block[e, e, i] += 1.0
            colsum[:, :i + 1] += np.abs(block, out=block).sum(axis=0)
        return float(np.max(colsum))


def assemble_eliminated(sp: SampledProblem) -> DiscreteOperator:
    """Assemble the single second-kind system in the core unknown."""
    return DiscreteOperator(sp)


class CoupledSystem:
    """Square dense system in the full unknown quadruple, as one 4 x 4 block
    matrix: the reference that the eliminated system is held to, solved by
    no route of the solver.

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
        """Direct solve; returns (corner, edge_x, edge_y, core)."""
        sol = np.linalg.solve(self.matrix, self.rhs)
        n1, n2 = self.grid.shape
        corner, edge_x, edge_y, core = np.split(sol, np.cumsum([1, n1, n2]))
        return float(corner[0]), edge_x, edge_y, core.reshape(n1, n2)
