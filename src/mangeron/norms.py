"""L_p norms of node values on their axes, and the two composite norms used
by the solver.

`lp_norm` takes an array of node values and one `grids.Axis` per dimension,
and weights each node by the product of the axes' weights (`Axis.weights`).
The solution norm sums the L_p norms of all nine derivative grids of a
solution bundle; the data norm sums the absolute values of the seven scalar
boundary components and the L_p norms of the four edge-trace functions
(`NonclassicalData.SCALAR_KEYS` and `TRACE_KEYS`).
p = inf is realized as the node maximum, a discretization of the essential
supremum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import Axis, Grid2D, row_tiles
from .problem import DERIVATIVES, NonclassicalData, trace_axis


@dataclass(frozen=True)
class NormSpec:
    """Integrability exponent p in [1, inf]."""

    p: float = 2.0

    def __post_init__(self):
        if not self.p >= 1.0:
            raise ValueError(f"p must be >= 1, got {self.p}")

    @property
    def is_sup(self) -> bool:
        return math.isinf(self.p)


def _weighted_power_sum(t: np.ndarray, axes: tuple[Axis, ...], p: float) -> float:
    """The quadrature sum of t^p for a C-ordered array `t` on `axes`, which
    it overwrites: t^p in place, then weighted in place, on a 2-D grid in
    row tiles, each by the tile's rows of the tensor-product weights, so no
    full weight grid is made.  Each node has the bits of w * t^p, and the
    sum those of the whole-grid sum."""
    with np.errstate(over="ignore"):
        t **= p
        if len(axes) == 1:
            t *= axes[0].weights
        else:
            wx, wy = (axis.weights for axis in axes)
            for rows in row_tiles(len(t)):
                t[rows] *= np.outer(wx[rows], wy)
        return np.sum(t)


def lp_norm(values, axes: tuple[Axis, ...], spec: NormSpec = NormSpec()) -> float:
    """Quadrature L_p norm of node values on one or two axes (node max for
    p = inf); values whose shape is not the axes' node counts are refused.

    The sum of w |v|^p is formed in one array of |v| by `_weighted_power_sum`.
    When it overflows to inf or underflows to 0 while the node max m of |v|
    is finite and nonzero, the norm is taken as m times that of v / m
    instead, formed the same way; every other sum keeps its plain bits.
    """
    v = np.asarray(values, dtype=float)
    shape = tuple(axis.n for axis in axes)
    if v.shape != shape:
        raise ValueError(f"value shape {v.shape} does not match axes {shape}")
    if spec.is_sup:
        return float(np.max(np.abs(v)))
    total = _weighted_power_sum(np.abs(v, order="C"), axes, spec.p)
    if total == 0.0 or total == math.inf:
        m = np.max(np.abs(v))
        if 0.0 < m < math.inf:
            t = np.abs(v, order="C")
            t /= m
            return float(m * _weighted_power_sum(t, axes, spec.p) ** (1.0 / spec.p))
    return float(total ** (1.0 / spec.p))


def sobolev_norm(bundle, spec: NormSpec = NormSpec()) -> float:
    """Sum of the L_p norms of all nine derivative grids of `bundle`."""
    total = 0.0
    for key in DERIVATIVES:
        g = getattr(bundle, key, None)
        if g is None:
            raise ValueError(f"bundle is missing derivative grid {key!r}")
        total += lp_norm(g.values, (g.grid.ax, g.grid.ay), spec)
    return total


def data_norm(sd, grid: Grid2D, spec: NormSpec = NormSpec()) -> float:
    """Norm of an 11-component boundary data element, sampled as `sd`.

    The seven scalar components enter by absolute value, then the four edge
    traces by their quadrature L_p norm on the axis they run along, each
    group in its `NonclassicalData` key order.
    """
    axes = (grid.ax, grid.ay)
    total = 0.0
    for key in NonclassicalData.SCALAR_KEYS:
        total += abs(getattr(sd, key))
    for key in NonclassicalData.TRACE_KEYS:
        total += lp_norm(getattr(sd, key), (axes[trace_axis(key)],), spec)
    return float(total)
