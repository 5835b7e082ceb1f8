"""Tensor-product grids on a rectangle and composite trapezoid quadrature.

The whole discretization is built on one rule: composite trapezoid weights
on a (possibly nonuniform) node set that always contains both interval
endpoints.  Partial integrals from 0 up to a node, and their first-moment
variants with kernel (x - t), are applied by `Axis.cumulative` as running
sums in O(n) per line; this is the only definition of the cumulative rule,
and the dense assemblies read its matrix entries by applying it to the
identity.

All node and weight arrays are frozen; grids and grid functions are safe to
share across threads, and every operation here is a pure function of its
inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: relative tolerance for matching a coordinate against a grid node
NODE_MATCH_RTOL = 1e-12


def _frozen(a) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Domain:
    """Open rectangle (0, h1) x (0, h2)."""

    h1: float
    h2: float

    def __post_init__(self):
        if not (self.h1 > 0.0 and self.h2 > 0.0):
            raise ValueError(f"side lengths must be positive, got ({self.h1}, {self.h2})")


def trapezoid_weights(nodes: np.ndarray) -> np.ndarray:
    """Composite trapezoid weights for a strictly increasing node vector."""
    d = np.diff(nodes)
    w = np.zeros(len(nodes))
    w[:-1] += 0.5 * d
    w[1:] += 0.5 * d
    return w


class Axis:
    """One quadrature axis: nodes from 0 to `length` plus derived weights.

    Attributes
    ----------
    nodes : (n,) strictly increasing, nodes[0] == 0
    weights : (n,) full-interval trapezoid weights
    moments : (n,) full-interval first-moment weights, ``moments @ f`` =
        integral of (length - t) f(t)
    moment_avg : (n,) ``moments / length``, the weights of the moment average
        (1/length) * integral of (length - t) f(t)
    """

    def __init__(self, nodes):
        nodes = np.asarray(nodes, dtype=float)
        if nodes.ndim != 1 or len(nodes) < 3:
            raise ValueError("axis needs at least 3 nodes")
        if nodes[0] != 0.0:
            raise ValueError("first node must be 0")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        self.nodes = _frozen(nodes)
        self.n = len(nodes)
        self.length = float(nodes[-1])
        self.weights = _frozen(trapezoid_weights(nodes))
        self.moments = _frozen(self.weights * (self.length - nodes))
        self.moment_avg = _frozen(self.moments / self.length)
        self._steps = _frozen(np.diff(nodes))

    def cumulative(self, f, axis: int = 0) -> tuple[np.ndarray, np.ndarray]:
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
        """
        f = np.asarray(f, dtype=float)
        if not 0 <= axis < f.ndim or f.shape[axis] != self.n:
            raise ValueError(f"axis {axis} of shape {f.shape} does not match axis ({self.n},)")
        step = self._steps.reshape((-1,) + (1,) * (f.ndim - 1 - axis))
        half = 0.5 * step
        head = (slice(None),) * axis + (slice(0, 1),)
        lo = (slice(None),) * axis + (slice(None, -1),)
        hi = (slice(None),) * axis + (slice(1, None),)
        c0 = np.empty(f.shape)
        c1 = np.empty(f.shape)
        c0[head] = 0.0
        c1[head] = 0.0
        panel = c1[hi]          # work space until c1 is accumulated below
        np.add(f[lo], f[hi], out=panel)
        panel *= half
        np.cumsum(panel, axis=axis, out=c0[hi])
        inc = half * f[lo]
        inc += c0[lo]
        inc *= step
        np.cumsum(inc, axis=axis, out=c1[hi])
        return c0, c1

    def node_index(self, t: float) -> int:
        """Index of the node equal to t; raises if t is not a node."""
        tol = NODE_MATCH_RTOL * max(1.0, self.length)
        idx = int(np.argmin(np.abs(self.nodes - t)))
        if abs(self.nodes[idx] - t) > tol:
            raise ValueError(f"{t} is not a grid node (no interpolation applied)")
        return idx

    def __repr__(self):
        return f"Axis(n={self.n}, length={self.length})"


class Grid2D:
    """Tensor-product grid over the closed rectangle [0, h1] x [0, h2]."""

    def __init__(self, domain: Domain, x_nodes, y_nodes):
        self.domain = domain
        self.ax = Axis(x_nodes)
        self.ay = Axis(y_nodes)
        for axis, h in ((self.ax, domain.h1), (self.ay, domain.h2)):
            if abs(axis.length - h) > NODE_MATCH_RTOL * max(1.0, h):
                raise ValueError(f"last node {axis.length} does not match side length {h}")

    @property
    def x(self) -> np.ndarray:
        return self.ax.nodes

    @property
    def y(self) -> np.ndarray:
        return self.ay.nodes

    @property
    def wx(self) -> np.ndarray:
        return self.ax.weights

    @property
    def wy(self) -> np.ndarray:
        return self.ay.weights

    @property
    def shape(self) -> tuple[int, int]:
        return (self.ax.n, self.ay.n)

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        return np.meshgrid(self.x, self.y, indexing="ij")

    def __repr__(self):
        return f"Grid2D({self.ax.n}x{self.ay.n} on [0,{self.domain.h1}]x[0,{self.domain.h2}])"


def _axis_nodes(length: float, n: int, breakpoints) -> np.ndarray:
    if n < 3:
        raise ValueError(f"need at least 3 nodes per axis, got {n}")
    nodes = np.linspace(0.0, length, n)
    if breakpoints:
        extra = []
        for b in breakpoints:
            b = float(b)
            if not (0.0 < b < length):
                raise ValueError(f"breakpoint {b} outside open interval (0, {length})")
            if np.min(np.abs(nodes - b)) > NODE_MATCH_RTOL * max(1.0, length):
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


class GridFn1D:
    """Real values attached to the nodes of one axis."""

    def __init__(self, axis: Axis, values):
        values = np.asarray(values, dtype=float)
        if values.shape != (axis.n,):
            raise ValueError(f"value shape {values.shape} does not match axis ({axis.n},)")
        self.axis = axis
        self.values = _frozen(values)


class GridFn2D:
    """Real values attached to the nodes of a 2-D grid (shape (n1, n2))."""

    def __init__(self, grid: Grid2D, values):
        values = np.asarray(values, dtype=float)
        if values.shape != grid.shape:
            raise ValueError(f"value shape {values.shape} does not match grid {grid.shape}")
        self.grid = grid
        self.values = _frozen(values)


def quad_1d(f: GridFn1D) -> float:
    """Trapezoid integral of f over its whole axis; exact for piecewise-linear f."""
    return float(f.axis.weights @ f.values)


def moment_integral_1d(f: GridFn1D, x: float) -> float:
    """Integral of (x - t) f(t) from 0 to x, where x must be a grid node."""
    idx = f.axis.node_index(x)
    return float(f.axis.cumulative(f.values)[1][idx])


def fd_derivatives(nodes: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and second derivatives of sampled data by local polynomial fits.

    Interior nodes use the 3-point stencil (exact for quadratics, second
    order on uniform spacing).  Endpoints use one-sided fits: quadratic for
    the first derivative, cubic for the second, keeping second-order
    accuracy at the boundary.
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

    def _fit(idx, deg, where):
        t = nodes[idx] - nodes[where]
        v = np.vander(t, deg + 1, increasing=True)
        coef = np.linalg.solve(v, values[idx])
        return coef  # coef[k] = f^(k)(nodes[where]) / k!

    c = _fit([0, 1, 2], 2, 0)
    d1[0] = c[1]
    c = _fit([n - 3, n - 2, n - 1], 2, n - 1)
    d1[-1] = c[1]
    if n >= 4:
        c = _fit([0, 1, 2, 3], 3, 0)
        d2[0] = 2.0 * c[2]
        c = _fit([n - 4, n - 3, n - 2, n - 1], 3, n - 1)
        d2[-1] = 2.0 * c[2]
    else:
        c = _fit([0, 1, 2], 2, 0)
        d2[0] = d2[-1] = 2.0 * c[2]
    return d1, d2


def trapezoid_error_bound(nodes: np.ndarray, integrand: np.ndarray) -> float:
    """Classical composite-trapezoid error bound (b-a) h^2/12 max|f''|.

    The curvature is estimated from the samples themselves, so the bound is
    reliable for resolved integrands and is used only to size tolerances.
    """
    nodes = np.asarray(nodes, dtype=float)
    h = float(np.max(np.diff(nodes)))
    _, d2 = fd_derivatives(nodes, integrand)
    return (nodes[-1] - nodes[0]) * h * h / 12.0 * float(np.max(np.abs(d2)))
