"""An independent finite-difference solve of a problem, shared by the test
modules as a second solver to hold the integral-equation route against.

It is fed with classical edge data, built through the
nonclassical-to-classical conversion, and shares nothing with the
integral-equation pipeline except the grid.
"""

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spsolve

from mangeron.problem import DERIVATIVES, Coefficients, nonclassical_to_classical


def difference_matrices(nodes):
    """Sparse first/second central-difference matrices, interior rows only.

    Boundary rows are zero; the oracle replaces them with identity rows
    carrying the Dirichlet values, so one-sided stencils are never needed.
    """
    n = len(nodes)
    hm = nodes[1:-1] - nodes[:-2]
    hp = nodes[2:] - nodes[1:-1]
    rows = np.repeat(np.arange(1, n - 1), 3)
    cols = np.concatenate([[i - 1, i, i + 1] for i in range(1, n - 1)])
    d1_data = np.column_stack([
        -hp / (hm * (hm + hp)), (hp - hm) / (hm * hp), hm / (hp * (hm + hp))]).ravel()
    d2_data = np.column_stack([
        2.0 / (hm * (hm + hp)), -2.0 / (hm * hp), 2.0 / (hp * (hm + hp))]).ravel()
    d1 = sparse.csr_matrix((d1_data, (rows, cols)), shape=(n, n))
    d2 = sparse.csr_matrix((d2_data, (rows, cols)), shape=(n, n))
    return d1, d2


def fd_oracle(problem, grid):
    """Finite-difference solve with classical Dirichlet rows; the node values
    of u, an (n1, n2) array.

    The nonclassical data is first converted to classical edge functions
    (exercising the conversion on a second path); the operator is
    discretized by central differences on the tensor grid, and boundary
    nodes carry identity rows with the edge values.
    """
    cd = nonclassical_to_classical(problem.data, grid)
    n1, n2 = grid.shape
    dx = (sparse.identity(n1, format="csr"),) + difference_matrices(grid.x)
    dy = (sparse.identity(n2, format="csr"),) + difference_matrices(grid.y)
    c = problem.coeffs.sample_all(grid)

    def dia(vals):
        return sparse.diags(vals.ravel())

    def term(name):
        i, j = DERIVATIVES[name]
        return sparse.kron(dx[i], dy[j])

    op = term("uxxyy")
    for key, name in Coefficients.MULTIPLIES.items():
        op = op + dia(c[key]) @ term(name)

    rhs = problem.forcing.sample(grid).astype(float)
    boundary = np.zeros((n1, n2), dtype=bool)
    boundary[0, :] = boundary[-1, :] = True
    boundary[:, 0] = boundary[:, -1] = True
    vals = np.zeros((n1, n2))
    vals[:, 0] = cd.bottom.value.sample(grid.ax)
    vals[:, -1] = cd.top.value.sample(grid.ax)
    vals[0, :] = cd.left.value.sample(grid.ay)
    vals[-1, :] = cd.right.value.sample(grid.ay)
    rhs[boundary] = vals[boundary]

    interior = dia((~boundary).astype(float))
    op = interior @ op + dia(boundary.astype(float))
    sol = spsolve(op.tocsc(), rhs.ravel())
    if not np.all(np.isfinite(sol)):
        raise RuntimeError("finite-difference system produced non-finite solution")
    return sol.reshape(n1, n2)
