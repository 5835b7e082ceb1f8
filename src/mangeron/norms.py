"""Discrete L_p norms and the two composite norms used by the solver.

The solution norm sums the L_p norms of all nine derivative grids of a
solution bundle; the data norm sums the absolute values of the seven scalar
boundary components and the L_p norms of the four edge-trace functions.
p = inf is realized as the node maximum, a discretization of the essential
supremum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import Grid2D, GridFn1D, GridFn2D

INF = math.inf

#: attribute names of the nine derivative grids of a solution bundle
DERIVATIVE_KEYS = ("u", "ux", "uy", "uxx", "uyy", "uxy", "uxxy", "uxyy", "uxxyy")


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


def lp_norm(f: GridFn1D | GridFn2D, spec: NormSpec = NormSpec()) -> float:
    """Quadrature L_p norm of a grid function (node max for p = inf)."""
    v = f.values
    if spec.is_sup:
        return float(np.max(np.abs(v)))
    if isinstance(f, GridFn1D):
        w = f.axis.weights
    else:
        w = np.outer(f.grid.wx, f.grid.wy)
    return float(np.sum(w * np.abs(v) ** spec.p) ** (1.0 / spec.p))


def sobolev_norm(bundle, spec: NormSpec = NormSpec()) -> float:
    """Sum of the L_p norms of all nine derivative grids of `bundle`."""
    total = 0.0
    for key in DERIVATIVE_KEYS:
        g = getattr(bundle, key, None)
        if g is None:
            raise ValueError(f"bundle is missing derivative grid {key!r}")
        total += lp_norm(g, spec)
    return total


def data_norm(sd, grid: Grid2D, spec: NormSpec = NormSpec()) -> float:
    """Norm of an 11-component boundary data element, sampled as `sd`.

    Seven scalar components enter by absolute value, the four edge traces
    by their quadrature L_p norm on the matching axis.
    """
    total = (abs(sd.u00) + abs(sd.ux00) + abs(sd.uy00)
             + abs(sd.u10) + abs(sd.uy10)
             + abs(sd.u01) + abs(sd.ux01))
    total += lp_norm(GridFn1D(grid.ax, sd.uxx_bottom), spec)
    total += lp_norm(GridFn1D(grid.ay, sd.uyy_left), spec)
    total += lp_norm(GridFn1D(grid.ay, sd.uyy_right), spec)
    total += lp_norm(GridFn1D(grid.ax, sd.uxx_top), spec)
    return float(total)
