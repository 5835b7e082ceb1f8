import tracemalloc

import numpy as np
import pytest

from mangeron import (Coefficients, Domain, Field2D, GridFn2D, NonclassicalData, PdeProblem,
                      apply_pde_operator, assemble_coupled,
                      assemble_eliminated, assemble_solution, build_grid, const1d,
                      const2d, random_coefficients, random_forward_problem,
                      reconstruct_lower, reduced_rhs, sample_data, sample_problem)
from mangeron.reduction import DenseLimitError
from mangeron.mms import (biquadratic_solution, exact_bundle, make_mms, sep_poly,
                          SeparableSolution)
from quadrature_oracle import panel_tables

DOM = Domain(1.0, 1.0)


def const_coeffs(**kv):
    return Coefficients(**{k: const2d(v) for k, v in kv.items()})


def base_grids(sd, grid):
    """The base part's five non-mixed grids, broadcast from its 1-D vectors."""
    class Base:
        u = GridFn2D(grid, sd.base_x[:, None] + sd.base_y[None, :])
        ux = GridFn2D(grid, np.broadcast_to(sd.base_ux[:, None], grid.shape))
        uy = GridFn2D(grid, np.broadcast_to(sd.base_uy[None, :], grid.shape))
        uxx = GridFn2D(grid, np.broadcast_to(sd.uxx_bottom[:, None], grid.shape))
        uyy = GridFn2D(grid, np.broadcast_to(sd.uyy_left[None, :], grid.shape))
    return Base


# ------------------------------------------------------------- base bundle

def test_base_zero_data():
    grid = build_grid(DOM, 9, 9)
    base = base_grids(sample_data(NonclassicalData(), grid), grid)
    for g in (base.u, base.ux, base.uy, base.uxx, base.uyy):
        np.testing.assert_allclose(g.values, 0.0, atol=1e-15)


def test_base_affine_data():
    grid = build_grid(DOM, 9, 9)
    base = base_grids(sample_data(NonclassicalData(u00=1.0, ux00=2.0), grid), grid)
    xx, _ = grid.meshgrid()
    np.testing.assert_allclose(base.u.values, 1.0 + 2.0 * xx, atol=1e-14)
    np.testing.assert_allclose(base.ux.values, 2.0, atol=1e-14)
    np.testing.assert_allclose(base.uxx.values, 0.0, atol=1e-15)


def test_base_constant_curvature():
    # uxx trace == 2 integrates to u = x^2 exactly (linear moment integrand)
    grid = build_grid(DOM, 21, 21)
    base = base_grids(sample_data(NonclassicalData(uxx_bottom=const1d(2.0)), grid), grid)
    xx, _ = grid.meshgrid()
    np.testing.assert_allclose(base.u.values, xx**2, atol=1e-12)
    np.testing.assert_allclose(base.uxx.values, 2.0, atol=1e-15)
    # column-wise constancy of the uxx grid
    assert np.all(base.uxx.values == base.uxx.values[:, :1])


# ------------------------------------------------------- operator application

def test_apply_operator_bilinear_with_cxy():
    grid = build_grid(DOM, 9, 9)
    bundle = exact_bundle(SeparableSolution(((sep_poly(0, 1), sep_poly(0, 1)),)), grid)
    out = apply_pde_operator(const_coeffs(c_xy=1.0).sample_all(grid), bundle)
    np.testing.assert_allclose(out, 1.0, atol=1e-14)


def test_apply_operator_biquadratic():
    grid = build_grid(DOM, 9, 9)
    bundle = exact_bundle(biquadratic_solution(), grid)
    out = apply_pde_operator(Coefficients().sample_all(grid), bundle)
    np.testing.assert_allclose(out, 4.0, atol=1e-13)
    out = apply_pde_operator(const_coeffs(c_u=1.0).sample_all(grid), bundle)
    xx, yy = grid.meshgrid()
    np.testing.assert_allclose(out, 4.0 + xx**2 * yy**2, atol=1e-13)


def test_apply_operator_rejects_partial_bundle():
    grid = build_grid(DOM, 5, 5)

    class Partial:
        u = base_grids(sample_data(NonclassicalData(), grid), grid).u
    with pytest.raises(ValueError):
        apply_pde_operator(Coefficients().sample_all(grid), Partial())


# ------------------------------------------------------------- reduced rhs

def test_reduced_rhs_zero_coefficients_equals_forcing():
    grid = build_grid(DOM, 9, 9)
    forcing = Field2D(lambda x, y: 1.0 + x * y)
    sp = sample_problem(PdeProblem(DOM, Coefficients(), forcing, NonclassicalData(uy10=1.0)),
                        grid)
    rr = reduced_rhs(sp)
    np.testing.assert_allclose(rr, forcing.sample(grid), atol=1e-15)


def test_reduced_rhs_all_zero():
    grid = build_grid(DOM, 9, 9)
    sp = sample_problem(PdeProblem(DOM, const_coeffs(c_u=1.0, c_x=0.5)), grid)
    rr = reduced_rhs(sp)
    np.testing.assert_allclose(rr, 0.0, atol=1e-15)


def test_reduced_rhs_matches_analytic_derivation():
    # data of u = (1+x)^2 (1+y)^2 with unit zero-order coefficient:
    # base = 1 + 2x + 2y + x^2 + y^2, forcing = 4 + (1+x)^2 (1+y)^2,
    # so the reduced forcing is their difference
    grid = build_grid(DOM, 13, 13)
    shift = sep_poly(1.0, 2.0, 1.0)  # (1+t)^2
    u = SeparableSolution(((shift, shift),))
    case = make_mms(u, const_coeffs(c_u=1.0), DOM)
    sp = sample_problem(case.problem, grid)
    rr = reduced_rhs(sp)
    xx, yy = grid.meshgrid()
    expect = (4.0 + (1 + xx) ** 2 * (1 + yy) ** 2
              - (1.0 + 2 * xx + 2 * yy + xx**2 + yy**2))
    np.testing.assert_allclose(rr, expect, atol=1e-10)


def test_reduced_rhs_agrees_with_full_operator_on_base():
    # second route: apply the full nine-term operator to the base bundle
    # (mixed derivatives identically zero) and subtract from the forcing
    rng = np.random.default_rng(10)
    grid = build_grid(DOM, 9, 9)
    coeffs = random_coefficients(rng)
    prob, _, _ = random_forward_problem(rng, DOM, grid, coeffs)
    sp = sample_problem(prob, grid)
    base = base_grids(sp.data, grid)

    class BaseAsBundle:
        u, ux, uy, uxx, uyy = base.u, base.ux, base.uy, base.uxx, base.uyy
        uxy = uxxy = uxyy = uxxyy = GridFn2D(grid, np.zeros(grid.shape))

    direct = prob.forcing.sample(grid) - apply_pde_operator(sp.coeffs, BaseAsBundle())
    rr = reduced_rhs(sp)
    np.testing.assert_allclose(rr, direct, rtol=1e-12, atol=1e-12)


# ------------------------------------------------- pointwise kernels (oracle)
# The kernels of the collocated equation and the multipliers of the three
# lower unknowns, evaluated pointwise from the coefficient fields (x, y =
# collocation point; s, t = integration variables).  They are written from
# the representation formulas and share no code with the assembly.

def k_edge_x(cf, x, y, s):
    return ((x - s) * (y * cf.c_u.eval(x, y) + cf.c_y.eval(x, y))
            + y * cf.c_x.eval(x, y) + cf.c_xy.eval(x, y))


def k_core_x(cf, x, y, s):
    return (x - s) * cf.c_yy.eval(x, y) + cf.c_xyy.eval(x, y)


def k_edge_y(cf, x, y, t):
    return ((y - t) * (x * cf.c_u.eval(x, y) + cf.c_x.eval(x, y))
            + x * cf.c_y.eval(x, y) + cf.c_xy.eval(x, y))


def k_core_y(cf, x, y, t):
    return (y - t) * cf.c_xx.eval(x, y) + cf.c_xxy.eval(x, y)


def k_core_xy(cf, x, y, s, t):
    return ((x - s) * (y - t) * cf.c_u.eval(x, y) + (y - t) * cf.c_x.eval(x, y)
            + (x - s) * cf.c_y.eval(x, y) + cf.c_xy.eval(x, y))


def corner_factor(cf, x, y):
    return (x * y * cf.c_u.eval(x, y) + y * cf.c_x.eval(x, y)
            + x * cf.c_y.eval(x, y) + cf.c_xy.eval(x, y))


def edge_x_factor(cf, x, y):
    return y * cf.c_xx.eval(x, y) + cf.c_xxy.eval(x, y)


def edge_y_factor(cf, x, y):
    return x * cf.c_yy.eval(x, y) + cf.c_xyy.eval(x, y)


def brute_collocation_rows(problem, grid):
    """Entrywise loop assembly of the coupled system's collocation rows
    (columns: corner, bottom-edge nodes, left-edge nodes, core nodes), from
    the pointwise kernels and the panel-loop weight tables."""
    n1, n2 = grid.shape
    x, y = grid.x, grid.y
    (c0x, _), (c0y, _) = panel_tables(grid.x), panel_tables(grid.y)
    cf = problem.coeffs
    out = np.zeros((n1 * n2, 1 + n1 + n2 + n1 * n2))
    for i in range(n1):
        for j in range(n2):
            row = i * n2 + j
            out[row, 0] = corner_factor(cf, x[i], y[j])
            for kk in range(n1):
                out[row, 1 + kk] = (c0x[i, kk] * k_edge_x(cf, x[i], y[j], x[kk])
                                    + (kk == i) * edge_x_factor(cf, x[i], y[j]))
            for ll in range(n2):
                out[row, 1 + n1 + ll] = (c0y[j, ll] * k_edge_y(cf, x[i], y[j], y[ll])
                                         + (ll == j) * edge_y_factor(cf, x[i], y[j]))
            for kk in range(n1):
                for ll in range(n2):
                    v = float(kk == i and ll == j)
                    if ll == j:
                        v += c0x[i, kk] * k_core_x(cf, x[i], y[j], x[kk])
                    if kk == i:
                        v += c0y[j, ll] * k_core_y(cf, x[i], y[j], y[ll])
                    v += c0x[i, kk] * c0y[j, ll] * k_core_xy(cf, x[i], y[j], x[kk], y[ll])
                    out[row, 1 + n1 + n2 + kk * n2 + ll] = v
    return out


# ------------------------------------------------- eliminated operator

def brute_dense_eliminated(problem, grid):
    """Entrywise loop assembly of the eliminated kernel, straight from the
    pointwise kernel definitions and the panel-loop weight tables."""
    n1, n2 = grid.shape
    x, y = grid.x, grid.y
    (c0x, _), (c0y, _) = panel_tables(grid.x), panel_tables(grid.y)
    h1, h2 = grid.domain.h1, grid.domain.h2
    m1x = grid.wx * (h1 - x) / h1
    m2y = grid.wy * (h2 - y) / h2
    cf = problem.coeffs
    out = np.zeros((n1 * n2, n1 * n2))
    for i in range(n1):
        for j in range(n2):
            row = i * n2 + j
            pf = float(corner_factor(cf, x[i], y[j]))
            qf = float(edge_x_factor(cf, x[i], y[j]))
            sf = float(edge_y_factor(cf, x[i], y[j]))
            for kk in range(n1):
                for ll in range(n2):
                    col = kk * n2 + ll
                    v = 0.0
                    if ll == j:
                        v += c0x[i, kk] * float(k_core_x(cf, x[i], y[j], x[kk]))
                        v -= sf * m1x[kk]
                    if kk == i:
                        v += c0y[j, ll] * float(k_core_y(cf, x[i], y[j], y[ll]))
                        v -= qf * m2y[ll]
                    v += c0x[i, kk] * c0y[j, ll] * float(
                        k_core_xy(cf, x[i], y[j], x[kk], y[ll]))
                    v -= c0x[i, kk] * float(k_edge_x(cf, x[i], y[j], x[kk])) * m2y[ll]
                    v -= c0y[j, ll] * float(k_edge_y(cf, x[i], y[j], y[ll])) * m1x[kk]
                    v += pf * m1x[kk] * m2y[ll]
                    out[row, col] += v
    return out


def test_zero_coefficients_give_identity_operator():
    grid = build_grid(DOM, 5, 6)
    prob = PdeProblem(DOM, Coefficients(), Field2D(lambda x, y: x + y),
                      NonclassicalData())
    op = assemble_eliminated(sample_problem(prob, grid))
    np.testing.assert_allclose(op.dense(), 0.0, atol=1e-15)
    v = np.random.default_rng(0).standard_normal(grid.shape)
    np.testing.assert_allclose(op.matvec(v), 0.0, atol=1e-15)
    np.testing.assert_allclose(op.g, prob.forcing.sample(grid), atol=1e-15)


def test_constant_cxy_dense_matches_hand_factorization():
    # for constant c_xy = c every kernel collapses and the dense matrix is
    # c * (C0x[i,k] - m1x[k]) * (C0y[j,l] - m2y[l]) entrywise
    c = 0.7
    grid = build_grid(DOM, 3, 3)
    prob = PdeProblem(DOM, const_coeffs(c_xy=c))
    op = assemble_eliminated(sample_problem(prob, grid))
    (c0x, _), (c0y, _) = panel_tables(grid.x), panel_tables(grid.y)
    m1x = grid.wx * (1.0 - grid.x)
    m2y = grid.wy * (1.0 - grid.y)
    expect = np.zeros((9, 9))
    for i in range(3):
        for j in range(3):
            for k in range(3):
                for l in range(3):
                    expect[i * 3 + j, k * 3 + l] = (c * (c0x[i, k] - m1x[k])
                                                    * (c0y[j, l] - m2y[l]))
    np.testing.assert_allclose(op.dense(), expect, atol=1e-12)


def test_dense_matches_brute_force_on_random_problem():
    rng = np.random.default_rng(12)
    grid = build_grid(DOM, 4, 5)   # nonsquare to catch index transposition
    coeffs = random_coefficients(rng)
    prob, _, _ = random_forward_problem(rng, DOM, grid, coeffs)
    op = assemble_eliminated(sample_problem(prob, grid))
    np.testing.assert_allclose(op.dense(), brute_dense_eliminated(prob, grid),
                               atol=1e-12)


def test_dense_matches_matvec_columnwise():
    rng = np.random.default_rng(13)
    grid = build_grid(DOM, 5, 4)
    prob, _, _ = random_forward_problem(rng, DOM, grid, random_coefficients(rng))
    op = assemble_eliminated(sample_problem(prob, grid))
    dense = op.dense()
    n = dense.shape[0]
    for col in range(n):
        e = np.zeros(n)
        e[col] = 1.0
        np.testing.assert_allclose(op.matvec(e.reshape(grid.shape)).ravel(),
                                   dense[:, col], atol=1e-12)


def test_dense_matches_matvec_columnwise_on_breakpoint_grid():
    rng = np.random.default_rng(16)
    dom = Domain(2.0, 0.5)
    grid = build_grid(dom, 6, 5, x_breakpoints=[0.3], y_breakpoints=[0.111])
    prob, _, _ = random_forward_problem(rng, dom, grid, random_coefficients(rng))
    op = assemble_eliminated(sample_problem(prob, grid))
    dense = op.dense()
    n = dense.shape[0]
    for col in range(n):
        e = np.zeros(n)
        e[col] = 1.0
        np.testing.assert_allclose(op.matvec(e.reshape(grid.shape)).ravel(),
                                   dense[:, col], atol=1e-12)


def test_matvec_linearity():
    rng = np.random.default_rng(14)
    grid = build_grid(DOM, 6, 5)
    prob, _, _ = random_forward_problem(rng, DOM, grid, random_coefficients(rng))
    op = assemble_eliminated(sample_problem(prob, grid))
    u = rng.standard_normal(grid.shape)
    v = rng.standard_normal(grid.shape)
    a, b = 1.7, -0.4
    np.testing.assert_allclose(op.matvec(a * u + b * v),
                               a * op.matvec(u) + b * op.matvec(v),
                               rtol=1e-12, atol=1e-12)


def test_eliminated_equation_matches_bundle_route():
    # for any core array b, (I + K) b - g must equal the pointwise operator
    # applied to the reconstructed solution minus the forcing
    rng = np.random.default_rng(15)
    grid = build_grid(DOM, 6, 7)
    coeffs = random_coefficients(rng)
    prob, _, _ = random_forward_problem(rng, DOM, grid, coeffs)
    sp = sample_problem(prob, grid)
    op = assemble_eliminated(sp)
    b = rng.standard_normal(grid.shape)
    lhs = b + op.matvec(b) - op.g
    unknowns = reconstruct_lower(sp.data, b, grid)
    bundle = assemble_solution(sp.data, unknowns, grid)
    rhs = apply_pde_operator(sp.coeffs, bundle) - sp.forcing
    np.testing.assert_allclose(lhs, rhs, rtol=1e-11, atol=1e-11)


def test_dense_size_guard():
    grid = build_grid(Domain(1.0, 1.0), 71, 71)
    prob = PdeProblem(DOM, Coefficients())
    op = assemble_eliminated(sample_problem(prob, grid))
    with pytest.raises(ValueError):
        op.dense()


def test_eliminated_assembly_peak_memory():
    # the operator keeps its seven substituted coefficient grids and g; the
    # base part enters g through 1-D vectors, so no base grid is made
    rng = np.random.default_rng(3)
    grid = build_grid(DOM, 129, 129)
    prob, _, _ = random_forward_problem(rng, DOM, grid, random_coefficients(rng))
    sp = sample_problem(prob, grid)
    tracemalloc.start()
    try:
        op = assemble_eliminated(sp)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 129 * 129 * 8
    assert isinstance(op.g, np.ndarray) and not op.g.flags.writeable


# ------------------------------------------------------- coupled system

def test_coupled_zero_problem():
    grid = build_grid(DOM, 5, 5)
    system = assemble_coupled(sample_problem(PdeProblem(DOM, Coefficients()), grid))
    corner, edge_x, edge_y, core, cond = system.solve()
    assert corner == 0.0
    np.testing.assert_allclose(edge_x, 0.0, atol=1e-15)
    np.testing.assert_allclose(edge_y, 0.0, atol=1e-15)
    np.testing.assert_allclose(core, 0.0, atol=1e-15)
    assert np.isfinite(cond)


def test_coupled_corner_row_hand_case():
    # zero coefficients, uy10 = 1 forces the corner unknown to 1 while every
    # other unknown stays zero
    grid = build_grid(DOM, 5, 5)
    prob = PdeProblem(DOM, Coefficients(), data=NonclassicalData(uy10=1.0))
    corner, edge_x, edge_y, core, _ = assemble_coupled(sample_problem(prob, grid)).solve()
    assert corner == pytest.approx(1.0, abs=1e-13)
    np.testing.assert_allclose(edge_x, 0.0, atol=1e-13)
    np.testing.assert_allclose(edge_y, 0.0, atol=1e-13)
    np.testing.assert_allclose(core, 0.0, atol=1e-13)


def test_coupled_reproduces_constant_core_mms():
    # u = x y + x^2 y^2 with unit c_xy: the core unknown is the constant 4
    u = SeparableSolution(((sep_poly(0, 1), sep_poly(0, 1)),
                           (sep_poly(0, 0, 1), sep_poly(0, 0, 1))))
    case = make_mms(u, const_coeffs(c_xy=1.0), DOM)
    grid = build_grid(DOM, 9, 9)
    _, _, _, core, _ = assemble_coupled(sample_problem(case.problem, grid)).solve()
    np.testing.assert_allclose(core, 4.0, atol=1e-10)


def test_coupled_and_eliminated_agree_on_core():
    rng = np.random.default_rng(16)
    for _ in range(3):
        grid = build_grid(DOM, 7, 6)
        coeffs = random_coefficients(rng)
        prob, _, _ = random_forward_problem(rng, DOM, grid, coeffs)
        _, _, _, core_coupled, _ = assemble_coupled(sample_problem(prob, grid)).solve()
        op = assemble_eliminated(sample_problem(prob, grid))
        from mangeron import solve_dense
        core_elim, _ = solve_dense(op)
        scale = max(1e-30, float(np.max(np.abs(core_elim))))
        assert np.max(np.abs(core_coupled - core_elim)) / scale <= 1e-8


def test_coupled_collocation_rows_match_brute_force():
    rng = np.random.default_rng(17)
    dom = Domain(1.0, 0.8)
    grid = build_grid(dom, 5, 4, x_breakpoints=[0.37], y_breakpoints=[0.5])
    assert grid.shape[0] != grid.shape[1]     # nonsquare to catch index transposition
    prob = PdeProblem(dom, random_coefficients(rng))
    system = assemble_coupled(sample_problem(prob, grid))
    np.testing.assert_allclose(system.matrix[system.s_core],
                               brute_collocation_rows(prob, grid), atol=1e-12)


def test_coupled_size_guard_refuses_before_allocating():
    grid = build_grid(DOM, 71, 71)
    tracemalloc.start()
    try:
        with pytest.raises(DenseLimitError, match="dense assembly limited to 4900 nodes"):
            assemble_coupled(sample_problem(PdeProblem(DOM, Coefficients()), grid))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10e6
