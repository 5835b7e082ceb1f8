"""Evaluable scalar fields on the rectangle and on its axes.

A field is a total evaluator: a closure, analytic or piecewise, or the
linear interpolant of samples along one axis (`samples1d`).  A piecewise field
is given by (bounds, fn) pairs, the form the config language's `Piecewise`
node holds too: bounds (x0, x1, y0, y1) of a rectangle, or (t0, t1) of a
segment.  The boxes must tile the domain (`validate_tiling`) and are
evaluated deterministically by `evaluate_pieces`; both are the one piecewise
rule of the package.  On a shared edge the piece with the lexicographically
smallest origin wins.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .grids import Axis, Grid2D

@dataclass(frozen=True)
class Field1D:
    """Scalar field on one closed interval [0, h]."""

    fn: Callable

    def eval(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        out = np.asarray(self.fn(t), dtype=float)
        return np.broadcast_to(out, t.shape) if out.shape != t.shape else out

    def sample(self, axis: Axis) -> np.ndarray:
        return np.array(self.eval(axis.nodes))


@dataclass(frozen=True)
class Field2D:
    """Scalar field on the closed rectangle.

    `fn(x, y)` must be elementwise: given x and y of any two broadcastable
    shapes it returns the values at the broadcast points, as an array of the
    broadcast shape or of any shape that broadcasts to it (a scalar for a
    constant).  `sample` relies on this and passes the grid axes as a column
    (n1, 1) and a row (1, n2), so a separable closure evaluates its
    transcendental factors on n1 + n2 points instead of n1 * n2.
    """

    fn: Callable

    def eval(self, x, y) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        shape = np.broadcast_shapes(x.shape, y.shape)
        out = np.asarray(self.fn(x, y), dtype=float)
        return np.broadcast_to(out, shape) if out.shape != shape else out

    def sample(self, grid: Grid2D) -> np.ndarray:
        """Values at the grid nodes: a new, writeable (n1, n2) array."""
        return np.array(self.eval(grid.x[:, None], grid.y[None, :]))


def const1d(c: float) -> Field1D:
    c = float(c)
    return Field1D(lambda t, _c=c: _c)


def const2d(c: float) -> Field2D:
    c = float(c)
    return Field2D(lambda x, y, _c=c: _c)


ZERO_1D = const1d(0.0)
ZERO_2D = const2d(0.0)


def samples1d(nodes, values) -> Field1D:
    """Field defined by node samples; linear interpolation off the nodes."""
    nodes = np.array(nodes, dtype=float)
    values = np.array(values, dtype=float)
    if nodes.shape != values.shape:
        raise ValueError("nodes/values shape mismatch")

    def fn(t, _n=nodes, _v=values):
        return np.interp(np.clip(t, _n[0], _n[-1]), _n, _v)

    return Field1D(fn)


def validate_tiling(boxes: Sequence[Sequence[float]], extents: Sequence[float]):
    """Refuse boxes (lo0, hi0, lo1, hi1, ...) that do not tile the domain
    [0, extents[0]] x [0, extents[1]] x ...: each box must be nondegenerate
    and inside the domain, no two may overlap on a set of positive measure,
    and their measures must add up to the domain's.  Every tolerance is
    relative to the domain's side along its coordinate, and the measures
    are taken in units of the sides, so no product of tiny sides underflows."""
    sides = [tuple(zip(box[::2], box[1::2])) for box in boxes]
    for box, s in zip(boxes, sides):
        if not all(lo < hi for lo, hi in s):
            raise ValueError(f"degenerate piece {tuple(box)}")
        if any(lo < -1e-12 * h or hi > h + 1e-12 * h for (lo, hi), h in zip(s, extents)):
            raise ValueError(f"piece {tuple(box)} extends outside the domain")
    for (a, sa), (b, sb) in itertools.combinations(zip(boxes, sides), 2):
        if all(min(ah, bh) - max(al, bl) > 1e-12 * h
               for (al, ah), (bl, bh), h in zip(sa, sb, extents)):
            raise ValueError(f"pieces {tuple(a)} and {tuple(b)} overlap on a set of "
                             "positive measure")
    measure = sum(math.prod((hi - lo) / h for (lo, hi), h in zip(s, extents)) for s in sides)
    if abs(measure - 1.0) > 1e-10:
        raise ValueError("pieces do not tile the domain (gap detected)")


def evaluate_pieces(pieces: Sequence[tuple[Sequence[float], Callable]], coords: Sequence,
                    error: type[Exception] = ValueError) -> np.ndarray:
    """Values of a piecewise function at the broadcast points `coords`.

    `pieces` holds (bounds, fn) pairs: bounds (lo0, hi0, lo1, hi1, ...)
    give a closed box, one (lo, hi) per coordinate, and fn maps the
    coordinates of the points given to it to their values.  Pieces are
    tried in lexicographic order of their origin (lo0, lo1, ...), widened
    by 1e-14 times the pieces' extent along each coordinate, and the first
    whose box contains a point wins it.  A point that no box contains
    raises `error`, naming the point.
    """
    coords = np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in coords))
    shape = coords[0].shape if coords else ()
    out = np.empty(shape)
    done = np.zeros(shape, dtype=bool)
    lows, highs = zip(*(b[::2] for b, _ in pieces)), zip(*(b[1::2] for b, _ in pieces))
    slack = [1e-14 * (max(hi) - min(lo)) for lo, hi in zip(lows, highs)]
    for bounds, fn in sorted(pieces, key=lambda p: p[0][::2]):
        m = ~done
        for c, lo, hi, tol in zip(coords, bounds[::2], bounds[1::2], slack):
            m &= (c >= lo - tol) & (c <= hi + tol)
        if np.any(m):
            values = np.asarray(fn(*(c[m] for c in coords)), dtype=float)
            out[m] = np.broadcast_to(values, (np.count_nonzero(m),))
            done |= m
    if not np.all(done):
        first = np.unravel_index(np.argmin(done), shape)
        point = ", ".join(repr(float(c[first])) for c in coords)
        raise error(f"evaluation point ({point}) is not covered by any piece")
    return out


def piecewise2d(pieces: Sequence[tuple[Sequence[float], Callable]], h1: float,
                h2: float) -> Field2D:
    """Piecewise field from ((x0, x1, y0, y1), fn) pairs whose rectangles tile
    [0, h1] x [0, h2], evaluated by `evaluate_pieces`."""
    table = tuple(pieces)
    validate_tiling([b for b, _ in table], (h1, h2))
    return Field2D(lambda x, y, _t=table: evaluate_pieces(_t, (x, y)))
