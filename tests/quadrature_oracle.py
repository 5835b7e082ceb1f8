"""Independent cumulative trapezoid tables, shared by the test modules."""

import numpy as np


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
