"""Tensor-product grids on a rectangle and composite trapezoid quadrature.

The whole discretization is built on one rule: composite trapezoid weights
on a (possibly nonuniform) node set that always contains both interval
endpoints, stated only by `Axis` from its panel widths: the full-interval
weights, the partial integrals from 0 up to a node and their first-moment
variants with kernel (x - t) as running sums in O(n) per line
(`Axis.cumulative`, which the dense assemblies apply to the identity), and
the rule's error bound (`Axis.error_bound`).

All node and weight arrays are frozen, and so are the values of a
`GridFn2D`, the type of a solution bundle's grids; grids and grid functions
are safe to share across threads, and every operation here is a pure
function of its inputs.  Freezing follows one rule: a read-only float array
that owns its memory is adopted as it is, and anything else (a writeable
array, a view, a list, another dtype) is copied.  An owner that marks its
array read-only hands it over; whoever holds it afterwards only reads it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: relative tolerance for matching a coordinate against a grid node
NODE_MATCH_RTOL = 1e-12

#: fewest nodes along one axis of a grid
MIN_NODES = 3

#: most nodes in a tile of the row-tiled passes (`row_tiles`): 32 rows of a
#: 513-node line
TILE_NODES = 32 * 513


def tile_rows(shape: tuple[int, int]) -> int:
    """Rows of a tile of a grid of `shape`: the most whole rows that
    TILE_NODES nodes hold, rounded down to a power of two, at least one and
    at most the grid's.  So a 65 x 65 grid is one tile, and lines of 257
    and 513 nodes take 32 rows: rounded down, the work tiles of
    `reduction.DiscreteOperator.matvec` stay under a grid at 257 x 257."""
    n1, n2 = shape
    fit = max(1, TILE_NODES // n2)
    return min(n1, 1 << (fit.bit_length() - 1))


def row_tiles(shape: tuple[int, int]):
    """Yield the row slices of a grid of `shape`, `tile_rows` rows at a time;
    the last may be shorter."""
    rows = tile_rows(shape)
    for start in range(0, shape[0], rows):
        yield slice(start, start + rows)


def _frozen(a) -> np.ndarray:
    """`a` as a read-only float array: adopted if it already is one that owns
    its memory, otherwise a frozen copy."""
    if (type(a) is np.ndarray and a.dtype == np.float64 and a.flags.owndata
            and not a.flags.writeable):
        return a
    out = np.array(a, dtype=float, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Domain:
    """Open rectangle (0, h1) x (0, h2)."""

    h1: float
    h2: float

    def __post_init__(self):
        if not (0.0 < self.h1 < np.inf and 0.0 < self.h2 < np.inf):
            raise ValueError(f"side lengths must be positive and finite, got {self.h1, self.h2}")


class Axis:
    """One quadrature axis: nodes from 0 to `length` plus derived weights.

    Attributes
    ----------
    nodes : (n,) strictly increasing, nodes[0] == 0
    steps : (n - 1,) panel widths, ``steps[i] = nodes[i + 1] - nodes[i]``
    weights : (n,) full-interval trapezoid weights
    moments : (n,) full-interval first-moment weights, ``moments @ f`` =
        integral of (length - t) f(t)
    moment_avg : (n,) ``moments / length``, the weights of the moment average
        (1/length) * integral of (length - t) f(t); finite on any side, where
        `moments` overflows above a side of about 1e154
    """

    def __init__(self, nodes):
        nodes = np.asarray(nodes, dtype=float)
        if nodes.ndim != 1 or len(nodes) < MIN_NODES:
            raise ValueError(f"axis needs at least {MIN_NODES} nodes")
        if nodes[0] != 0.0:
            raise ValueError("first node must be 0")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        self.nodes = _frozen(nodes)
        self.n = len(nodes)
        self.length = float(nodes[-1])
        self.steps = _frozen(np.diff(nodes))
        self._halves = _frozen(0.5 * self.steps)
        self.weights = _frozen(np.append(self._halves, 0.0) + np.insert(self._halves, 0, 0.0))
        with np.errstate(over="ignore"):
            self.moments = _frozen(self.weights * (self.length - nodes))
        finite = np.all(np.isfinite(self.moments))
        self.moment_avg = _frozen(self.moments / self.length if finite
                                  else self.weights * ((self.length - nodes) / self.length))

    def cumulative(self, f, axis: int = 0, out=None) -> tuple[np.ndarray, np.ndarray]:
        """``(cum0 f, cum1 f)`` along `axis` of f, in O(f.size) by running sums.

        ``cum0 f[i]`` is the trapezoid integral of f from 0 to nodes[i] and
        ``cum1 f[i]`` that of (nodes[i] - t) f(t); with panel widths d_i =
        nodes[i] - nodes[i-1],

            cum0 f[i] = cum0 f[i-1] + d_i (f[i-1] + f[i]) / 2,
            cum1 f[i] = cum1 f[i-1] + d_i (cum0 f[i-1] + d_i f[i-1] / 2),

        which is ``x cum0 f - cum0 (x f)`` summed panel by panel, free of the
        cancellation between its two terms.  `f` is 1-D, or 2-D with its
        `axis` running along this axis; applied to the identity, the results
        are the (n, n) weight matrices of the two rules.

        `out`, a pair of float arrays of f's shape that share no memory with
        f or with each other, receives ``(cum0 f, cum1 f)`` with the same
        bits, and is returned; without it the pair is made.
        """
        f = np.asarray(f, dtype=float)
        if not 0 <= axis < f.ndim or f.shape[axis] != self.n:
            raise ValueError(f"axis {axis} of shape {f.shape} does not match axis ({self.n},)")
        if out is None:
            c0, c1 = np.empty(f.shape), np.empty(f.shape)
        else:
            c0, c1 = out
            if any(type(c) is not np.ndarray or c.shape != f.shape or c.dtype != np.float64
                   for c in out):
                raise ValueError(f"out must be two float arrays of shape {f.shape}")
            if (np.shares_memory(c0, c1) or np.shares_memory(c0, f)
                    or np.shares_memory(c1, f)):
                raise ValueError("out arrays must share no memory with f or each other")
        shape = (-1,) + (1,) * (f.ndim - 1 - axis)
        step, half = self.steps.reshape(shape), self._halves.reshape(shape)
        head = (slice(None),) * axis + (slice(0, 1),)
        lo = (slice(None),) * axis + (slice(None, -1),)
        hi = (slice(None),) * axis + (slice(1, None),)
        c0[head] = 0.0
        c1[head] = 0.0
        panel = c1[hi]          # the panel increments, summed in place into c1
        np.add(f[lo], f[hi], out=panel)
        panel *= half
        np.cumsum(panel, axis=axis, out=c0[hi])
        np.multiply(half, f[lo], out=panel)
        panel += c0[lo]
        panel *= step
        np.cumsum(panel, axis=axis, out=panel)
        return c0, c1

    def error_bound(self, f) -> float:
        """Classical composite-trapezoid error bound length h^2/12 max|f''| of
        the samples `f`, h the largest step.  f'' is estimated from the
        samples, so the bound is reliable for resolved integrands and only
        sizes tolerances.  Differencing in units of h gives h^2 f'' directly,
        so no step is squared or cubed on a very small or very large side."""
        h = float(np.max(self.steps))
        _, h2_d2 = fd_derivatives(self.nodes / h, f)
        return self.length / 12.0 * float(np.max(np.abs(h2_d2)))

    def __repr__(self):
        return f"Axis(n={self.n}, length={self.length})"


class Grid2D:
    """Tensor-product grid over the closed rectangle [0, h1] x [0, h2]."""

    def __init__(self, domain: Domain, x_nodes, y_nodes):
        self.domain = domain
        self.ax = Axis(x_nodes)
        self.ay = Axis(y_nodes)
        for axis, h in ((self.ax, domain.h1), (self.ay, domain.h2)):
            if abs(axis.length - h) > NODE_MATCH_RTOL * h:
                raise ValueError(f"last node {axis.length} does not match side length {h}")

    @property
    def x(self) -> np.ndarray:
        return self.ax.nodes

    @property
    def y(self) -> np.ndarray:
        return self.ay.nodes

    @property
    def shape(self) -> tuple[int, int]:
        return (self.ax.n, self.ay.n)

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        return np.meshgrid(self.x, self.y, indexing="ij")

    def __repr__(self):
        return f"Grid2D({self.ax.n}x{self.ay.n} on [0,{self.domain.h1}]x[0,{self.domain.h2}])"


def uniform_nodes(length: float, n: int) -> np.ndarray:
    """`n` equally spaced nodes from 0 to `length`; a side too short to hold
    them as distinct floats is refused."""
    nodes = np.linspace(0.0, length, n)
    if np.any(np.diff(nodes) <= 0):
        raise ValueError(f"{n} nodes on a side of {length!r} are not distinct floats")
    return nodes


def check_breakpoint(b: float, length: float):
    """Refuse a breakpoint outside the open interval (0, length)."""
    if not 0.0 < b < length:
        raise ValueError(f"breakpoint {b} outside open interval (0, {length})")


def _axis_nodes(length: float, n: int, breakpoints) -> np.ndarray:
    nodes = uniform_nodes(length, n)
    if breakpoints:
        extra = []
        for b in breakpoints:
            b = float(b)
            check_breakpoint(b, length)
            if np.min(np.abs(np.append(nodes, extra) - b)) > NODE_MATCH_RTOL * length:
                extra.append(b)
        if extra:
            nodes = np.sort(np.concatenate([nodes, extra]))
    return nodes


def build_grid(domain: Domain, n1: int, n2: int,
               x_breakpoints=None, y_breakpoints=None) -> Grid2D:
    """Uniform n1 x n2 grid, augmented with interior breakpoints.

    Breakpoints let piecewise-defined coefficients keep their discontinuity
    lines node-aligned, which the piecewise evaluation rule relies on.
    """
    return Grid2D(domain,
                  _axis_nodes(domain.h1, n1, x_breakpoints),
                  _axis_nodes(domain.h2, n2, y_breakpoints))


class GridFn2D:
    """Real values attached to the nodes of a 2-D grid (shape (n1, n2));
    read-only values that own their memory are adopted, anything else is
    copied (`_frozen`)."""

    def __init__(self, grid: Grid2D, values):
        values = np.asarray(values, dtype=float)
        if values.shape != grid.shape:
            raise ValueError(f"value shape {values.shape} does not match grid {grid.shape}")
        self.grid = grid
        self.values = _frozen(values)


def fd_derivatives(nodes: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and second derivatives of sampled data by three-point differences.

    Interior nodes use the 3-point stencil (exact for quadratics, second
    order on uniform spacing).  The endpoints are read off the nearest
    stencils, with no fit or linear solve.  The first derivative is that of
    the quadratic through the three end nodes, ``d1[0] = d1[1] - d2[1] (x1 -
    x0)``, exact for quadratics.  The second derivative is extrapolated
    linearly from the two nearest interior values, each placed at the
    centroid of its stencil, where a three-point second difference is exact
    for any cubic; so it is exact for cubics.  With three nodes the one
    interior second derivative is used throughout.
    """
    nodes = np.asarray(nodes, dtype=float)
    values = np.asarray(values, dtype=float)
    n = len(nodes)
    if n < 3:
        raise ValueError("need at least 3 samples to difference")
    d1 = np.empty(n)
    d2 = np.empty(n)

    hm = nodes[1:-1] - nodes[:-2]
    hp = nodes[2:] - nodes[1:-1]
    f0, f1, f2 = values[:-2], values[1:-1], values[2:]
    d1[1:-1] = (-hp / (hm * (hm + hp))) * f0 \
        + ((hp - hm) / (hm * hp)) * f1 \
        + (hm / (hp * (hm + hp))) * f2
    d2[1:-1] = 2.0 * (hm * f2 - (hm + hp) * f1 + hp * f0) / (hm * hp * (hm + hp))

    d1[0] = d1[1] - d2[1] * hm[0]
    d1[-1] = d1[-2] + d2[-2] * hp[-1]
    if n == 3:
        d2[0] = d2[-1] = d2[1]
        return d1, d2
    inner, centroid = d2[1:-1], nodes[1:-1] + (hp - hm) / 3.0
    for end, a, b in ((0, 0, 1), (-1, -1, -2)):
        slope = (inner[b] - inner[a]) / (centroid[b] - centroid[a])
        d2[end] = inner[a] + slope * (nodes[end] - centroid[a])
    return d1, d2

