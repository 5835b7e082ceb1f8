"""Independent cumulative trapezoid tables and the whole-grid form of K's
product, shared by the test modules."""

import numpy as np

from mangeron.reduction import CUM0, CUM1, IDENT, MOM


def panel_tables(nodes):
    """(cum0, cum1) weight tables built by a loop over panels.

    Row i of cum0 weighs f to give its trapezoid integral from nodes[0] to
    nodes[i]: row i - 1 plus half the panel width on each end of panel i.
    Row i of cum1 weighs f to give the integral of (nodes[i] - t) f(t).
    """
    nodes = np.asarray(nodes, dtype=float)
    n = len(nodes)
    cum0 = np.zeros((n, n))
    for i in range(1, n):
        h = nodes[i] - nodes[i - 1]
        cum0[i] = cum0[i - 1]
        cum0[i, i - 1] += h / 2
        cum0[i, i] += h / 2
    cum1 = cum0 * (nodes[:, None] - nodes[None, :])
    return cum0, cum1


def whole_grid_matvec(op, core):
    """K core as `DiscreteOperator.matvec` formed it before it ran in row
    tiles, every step over the whole grid, kept with its operation order so
    that the tiled form is pinned bit for bit: the x-side partials of the
    core, then, one x-side operator at a time, its y-side partials and every
    term's product added into a zero grid in K's term order."""
    ax, ay = op.grid.ax, op.grid.ay
    c0, c1 = ax.cumulative(core, 0)
    parts = {IDENT: core, CUM0: c0, CUM1: c1, MOM: (ax.moment_avg @ core)[None]}
    out = np.zeros(op.grid.shape)
    for kind in (IDENT, CUM0, CUM1, MOM):
        v = parts.pop(kind)
        y0, y1 = ay.cumulative(v, 1)
        sides = {IDENT: v, CUM0: y0, CUM1: y1, MOM: (v @ ay.moment_avg)[:, None]}
        for t in op.terms:
            if t.x == kind:
                out += t.coef * sides[t.y]
    return out
