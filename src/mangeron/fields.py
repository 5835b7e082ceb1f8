"""Evaluable scalar fields on the rectangle and on its axes.

A field is a total evaluator plus the kind of its representation (analytic
closure, piecewise over axis-aligned rectangles, or grid samples).
Piecewise fields must tile the domain exactly and are evaluated
deterministically by `evaluate_pieces`, the one piecewise rule of the
package (the config language uses it too): on a shared edge the piece with
the lexicographically smallest origin wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .grids import Axis, Grid2D

# representation kinds
ANALYTIC = "analytic"
PIECEWISE = "piecewise"
SAMPLES = "samples"

_KINDS = (ANALYTIC, PIECEWISE, SAMPLES)


def _check_kind(kind: str):
    if kind not in _KINDS:
        raise ValueError(f"unknown field kind {kind!r}")


@dataclass(frozen=True)
class Field1D:
    """Scalar field on one closed interval [0, h]."""

    fn: Callable
    kind: str = ANALYTIC

    def __post_init__(self):
        _check_kind(self.kind)

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
    kind: str = ANALYTIC

    def __post_init__(self):
        _check_kind(self.kind)

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
    return Field1D(lambda t, _c=c: np.full(np.shape(t), _c))


def const2d(c: float) -> Field2D:
    c = float(c)
    return Field2D(lambda x, y, _c=c: np.full(np.broadcast_shapes(np.shape(x), np.shape(y)), _c))


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

    return Field1D(fn, SAMPLES)


def samples2d(grid: Grid2D, values) -> Field2D:
    """Field defined by grid samples; bilinear interpolation off the nodes."""
    values = np.array(values, dtype=float)
    if values.shape != grid.shape:
        raise ValueError(f"value shape {values.shape} does not match grid {grid.shape}")
    xn, yn = grid.x, grid.y

    def fn(x, y, _xn=xn, _yn=yn, _v=values):
        x = np.clip(np.asarray(x, dtype=float), _xn[0], _xn[-1])
        y = np.clip(np.asarray(y, dtype=float), _yn[0], _yn[-1])
        x, y = np.broadcast_arrays(x, y)
        i = np.clip(np.searchsorted(_xn, x, side="right") - 1, 0, len(_xn) - 2)
        j = np.clip(np.searchsorted(_yn, y, side="right") - 1, 0, len(_yn) - 2)
        tx = (x - _xn[i]) / (_xn[i + 1] - _xn[i])
        ty = (y - _yn[j]) / (_yn[j + 1] - _yn[j])
        return ((1 - tx) * (1 - ty) * _v[i, j] + tx * (1 - ty) * _v[i + 1, j]
                + (1 - tx) * ty * _v[i, j + 1] + tx * ty * _v[i + 1, j + 1])

    return Field2D(fn, SAMPLES)


@dataclass(frozen=True)
class Piece2D:
    """One closed subrectangle [x0, x1] x [y0, y1] with its own evaluator."""

    x0: float
    x1: float
    y0: float
    y1: float
    fn: Callable

    def __post_init__(self):
        if not (self.x0 < self.x1 and self.y0 < self.y1):
            raise ValueError("degenerate piece")


def _validate_tiling(pieces: Sequence[Piece2D], h1: float, h2: float):
    area = 0.0
    for p in pieces:
        if p.x0 < -1e-12 or p.y0 < -1e-12 or p.x1 > h1 + 1e-12 or p.y1 > h2 + 1e-12:
            raise ValueError("piece extends outside the domain")
        area += (p.x1 - p.x0) * (p.y1 - p.y0)
    for a in range(len(pieces)):
        for b in range(a + 1, len(pieces)):
            pa, pb = pieces[a], pieces[b]
            ox = min(pa.x1, pb.x1) - max(pa.x0, pb.x0)
            oy = min(pa.y1, pb.y1) - max(pa.y0, pb.y0)
            if ox > 1e-12 and oy > 1e-12:
                raise ValueError("pieces overlap on a set of positive area")
    if abs(area - h1 * h2) > 1e-10 * max(1.0, h1 * h2):
        raise ValueError("pieces do not tile the domain (gap detected)")


def evaluate_pieces(pieces: Sequence[tuple[Sequence[float], Callable]], coords: Sequence,
                    error: type[Exception] = ValueError) -> np.ndarray:
    """Values of a piecewise function at the broadcast points `coords`.

    `pieces` holds (bounds, fn) pairs: bounds (lo0, hi0, lo1, hi1, ...)
    give a closed box, one (lo, hi) per coordinate, and fn maps the
    coordinates of the points given to it to their values.  Pieces are
    tried in lexicographic order of their origin (lo0, lo1, ...), widened
    by 1e-14, and the first whose box contains a point wins it.  A point
    that no box contains raises `error`, naming the point.
    """
    coords = np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in coords))
    shape = coords[0].shape if coords else ()
    out = np.empty(shape)
    done = np.zeros(shape, dtype=bool)
    for bounds, fn in sorted(pieces, key=lambda p: p[0][::2]):
        m = ~done
        for c, lo, hi in zip(coords, bounds[::2], bounds[1::2]):
            m &= (c >= lo - 1e-14) & (c <= hi + 1e-14)
        if np.any(m):
            values = np.asarray(fn(*(c[m] for c in coords)), dtype=float)
            out[m] = np.broadcast_to(values, (np.count_nonzero(m),))
            done |= m
    if not np.all(done):
        first = np.unravel_index(np.argmin(done), shape)
        point = ", ".join(repr(float(c[first])) for c in coords)
        raise error(f"evaluation point ({point}) is not covered by any piece")
    return out


def piecewise2d(pieces: Sequence[Piece2D], h1: float, h2: float) -> Field2D:
    """Piecewise field over axis-aligned rectangles tiling [0,h1] x [0,h2],
    evaluated by `evaluate_pieces`."""
    _validate_tiling(pieces, h1, h2)
    table = tuple(((p.x0, p.x1, p.y0, p.y1), p.fn) for p in pieces)
    return Field2D(lambda x, y, _t=table: evaluate_pieces(_t, (x, y)), PIECEWISE)


@dataclass(frozen=True)
class Segment1D:
    t0: float
    t1: float
    fn: Callable

    def __post_init__(self):
        if not self.t0 < self.t1:
            raise ValueError("degenerate segment")


def piecewise1d(segments: Sequence[Segment1D], h: float) -> Field1D:
    """Piecewise field over segments tiling [0, h], evaluated by
    `evaluate_pieces`."""
    length = sum(s.t1 - s.t0 for s in segments)
    if abs(length - h) > 1e-10 * max(1.0, h):
        raise ValueError("segments do not tile the interval")
    table = tuple(((s.t0, s.t1), s.fn) for s in segments)
    return Field1D(lambda t, _t=table: evaluate_pieces(_t, (t,)), PIECEWISE)
