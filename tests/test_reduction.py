import tracemalloc

import numpy as np
import pytest

from mangeron import (Coefficients, CoupledSystem, Domain, Field2D, GridFn2D, NonclassicalData,
                      PdeProblem, apply_pde_operator, assemble_eliminated, assemble_solution,
                      build_grid, const1d, const2d, reduced_rhs, sample_data, sample_problem,
                      solve_dense, solve_problem)
from mangeron import reduction, solver as solver_mod
from mangeron.reduction import (CUM0, CUM1, IDENT, MOM, TILE_ROWS, DenseLimitError, Term,
                                far_edge)
from mangeron.mms import biquadratic_solution, make_mms, sep_poly, SeparableSolution
from helpers import exact_bundle, random_coefficients, random_forward_problem
from quadrature_oracle import panel_tables, whole_grid_matvec

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
    prob, _ = random_forward_problem(rng, grid, coeffs)
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
    m1x = grid.ax.weights * (h1 - x) / h1
    m2y = grid.ay.weights * (h2 - y) / h2
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
    m1x = grid.ax.weights * (1.0 - grid.x)
    m2y = grid.ay.weights * (1.0 - grid.y)
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
    prob, _ = random_forward_problem(rng, grid, coeffs)
    op = assemble_eliminated(sample_problem(prob, grid))
    np.testing.assert_allclose(op.dense(), brute_dense_eliminated(prob, grid),
                               atol=1e-12)


def test_dense_matches_matvec_columnwise():
    rng = np.random.default_rng(13)
    grid = build_grid(DOM, 5, 4)
    prob, _ = random_forward_problem(rng, grid, random_coefficients(rng))
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
    prob, _ = random_forward_problem(rng, grid, random_coefficients(rng))
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
    prob, _ = random_forward_problem(rng, grid, random_coefficients(rng))
    op = assemble_eliminated(sample_problem(prob, grid))
    u = rng.standard_normal(grid.shape)
    v = rng.standard_normal(grid.shape)
    a, b = 1.7, -0.4
    np.testing.assert_allclose(op.matvec(a * u + b * v),
                               a * op.matvec(u) + b * op.matvec(v),
                               rtol=1e-12, atol=1e-12)


# grids whose row counts fall below one tile, on it, one past it and one
# past two tiles, square or not, with and without breakpoints on both axes
TILED_GRIDS = {
    "below": ((DOM, TILE_ROWS - 1, 20, None, None), TILE_ROWS - 1),
    "one-tile": ((DOM, TILE_ROWS, TILE_ROWS + 15, None, None), TILE_ROWS),
    "one-past": ((DOM, TILE_ROWS + 1, 9, None, None), TILE_ROWS + 1),
    "two-past": ((DOM, 2 * TILE_ROWS + 1, 2 * TILE_ROWS + 1, None, None), 2 * TILE_ROWS + 1),
    "one-tile-breakpoints": ((Domain(2.0, 0.5), TILE_ROWS - 1, 11, [0.7], [0.2]), TILE_ROWS),
    "two-past-breakpoints": ((Domain(2.0, 0.5), 2 * TILE_ROWS, 17, [0.7], [0.2]),
                             2 * TILE_ROWS + 1),
}


@pytest.mark.parametrize("seed, case", list(enumerate(TILED_GRIDS)), ids=list(TILED_GRIDS))
def test_tiled_matvec_is_the_whole_grid_product_bit_for_bit(seed, case):
    (dom, n1, n2, xb, yb), rows = TILED_GRIDS[case]
    grid = build_grid(dom, n1, n2, x_breakpoints=xb, y_breakpoints=yb)
    assert grid.shape[0] == rows
    rng = np.random.default_rng(300 + seed)
    prob, _ = random_forward_problem(rng, grid, random_coefficients(rng))
    op = assemble_eliminated(sample_problem(prob, grid))
    out = np.full(grid.shape, np.nan)
    for _ in range(2):      # the second call reuses the operator's work grids
        v = rng.standard_normal(grid.shape)
        want = whole_grid_matvec(op, v)
        assert np.array_equal(op.matvec(v), want)
        assert op.matvec(v, out=out) is out
        assert np.array_equal(out, want)
    frozen = op.g       # read-only, as the solver hands it in
    assert np.array_equal(op.matvec(frozen, out=out), whole_grid_matvec(op, frozen))


@pytest.mark.parametrize("fill", [np.nan, np.inf, -0.0])
def test_matvec_reads_nothing_of_out(fill):
    # out is the x-side scratch of the first running integral: whatever it
    # holds on entry, every call gives the whole-grid product's bits
    grid = build_grid(DOM, 2 * TILE_ROWS + 5, 19)
    rng = np.random.default_rng(12)
    prob, _ = random_forward_problem(rng, grid, random_coefficients(rng))
    op = assemble_eliminated(sample_problem(prob, grid))
    out = np.empty(grid.shape)
    for _ in range(2):
        v = rng.standard_normal(grid.shape)
        out.fill(fill)
        assert op.matvec(v, out=out) is out
        assert np.array_equal(out, whole_grid_matvec(op, v))


def test_matvec_refuses_an_out_that_is_not_a_separate_grid():
    grid = build_grid(DOM, 9, 7)
    op = assemble_eliminated(sample_problem(PdeProblem(DOM, Coefficients()), grid))
    v = np.ones(grid.shape)
    for out in (v, v[:, :], v.T.T, np.zeros((7, 9)), np.zeros(grid.shape, dtype=np.float32),
                np.zeros(grid.shape, order="F"), np.zeros((9, 14))[:, ::2]):
        with pytest.raises(ValueError):
            op.matvec(v, out=out)
    assert np.all(v == 1.0)


def test_warm_matvec_into_given_out_allocates_less_than_a_grid():
    # the x-side running integrals go into `out` and the operator's work
    # grid, made on the first call; the rest works in row tiles
    rng = np.random.default_rng(8)
    grid = build_grid(DOM, 257, 257)
    prob, _ = random_forward_problem(rng, grid, random_coefficients(rng))
    op = assemble_eliminated(sample_problem(prob, grid))
    v = rng.standard_normal(grid.shape)
    out = np.empty(grid.shape)
    op.matvec(v, out=out)
    tracemalloc.start()
    try:
        op.matvec(v, out=out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < v.nbytes


def test_eliminated_equation_matches_bundle_route():
    # for any core array b, (I + K) b - g must equal the pointwise operator
    # applied to the reconstructed solution minus the forcing
    rng = np.random.default_rng(15)
    grid = build_grid(DOM, 6, 7)
    coeffs = random_coefficients(rng)
    prob, _ = random_forward_problem(rng, grid, coeffs)
    sp = sample_problem(prob, grid)
    op = assemble_eliminated(sp)
    b = rng.standard_normal(grid.shape)
    lhs = b + op.matvec(b) - op.g
    bundle = assemble_solution(sp.data, grid, (*far_edge(sp.data, grid, b)[:3], b))
    rhs = apply_pde_operator(sp.coeffs, bundle) - sp.forcing
    np.testing.assert_allclose(lhs, rhs, rtol=1e-11, atol=1e-11)


def test_dense_size_guard():
    grid = build_grid(Domain(1.0, 1.0), 71, 71)
    prob = PdeProblem(DOM, Coefficients())
    op = assemble_eliminated(sample_problem(prob, grid))
    with pytest.raises(ValueError):
        op.dense()


def test_eliminated_assembly_peak_memory():
    # the operator keeps its seven substituted coefficient grids and g, made
    # once on first access; the base part enters g through 1-D vectors, so no
    # base grid is made
    rng = np.random.default_rng(3)
    grid = build_grid(DOM, 129, 129)
    prob, _ = random_forward_problem(rng, grid, random_coefficients(rng))
    sp = sample_problem(prob, grid)
    tracemalloc.start()
    try:
        op = assemble_eliminated(sp)
        g = op.g
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 129 * 129 * 8
    assert isinstance(g, np.ndarray) and not g.flags.writeable and op.g is g


# ------------------------------------------------------- coupled system

def test_coupled_zero_problem():
    grid = build_grid(DOM, 5, 5)
    system = CoupledSystem(sample_problem(PdeProblem(DOM, Coefficients()), grid))
    corner, edge_x, edge_y, core = system.solve()
    assert corner == 0.0
    np.testing.assert_allclose(edge_x, 0.0, atol=1e-15)
    np.testing.assert_allclose(edge_y, 0.0, atol=1e-15)
    np.testing.assert_allclose(core, 0.0, atol=1e-15)


def test_coupled_corner_row_hand_case():
    # zero coefficients, uy10 = 1 forces the corner unknown to 1 while every
    # other unknown stays zero
    grid = build_grid(DOM, 5, 5)
    prob = PdeProblem(DOM, Coefficients(), data=NonclassicalData(uy10=1.0))
    corner, edge_x, edge_y, core = CoupledSystem(sample_problem(prob, grid)).solve()
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
    _, _, _, core = CoupledSystem(sample_problem(case.problem, grid)).solve()
    np.testing.assert_allclose(core, 4.0, atol=1e-10)


def test_coupled_collocation_rows_match_brute_force():
    rng = np.random.default_rng(17)
    dom = Domain(1.0, 0.8)
    grid = build_grid(dom, 5, 4, x_breakpoints=[0.37], y_breakpoints=[0.5])
    assert grid.shape[0] != grid.shape[1]     # nonsquare to catch index transposition
    prob = PdeProblem(dom, random_coefficients(rng))
    system = CoupledSystem(sample_problem(prob, grid))
    n_core = grid.shape[0] * grid.shape[1]
    np.testing.assert_allclose(system.matrix[-n_core:],
                               brute_collocation_rows(prob, grid), atol=1e-12)


def test_coupled_system_holds_the_forward_quadruple():
    # every row, the corner and far-edge rows included, holds the quadruple a
    # forward problem was built from, to roundoff
    rng = np.random.default_rng(18)
    dom = Domain(1.0, 0.8)
    grid = build_grid(dom, 6, 5, x_breakpoints=[0.37], y_breakpoints=[0.5])
    assert grid.shape == (7, 6)
    prob, bundle = random_forward_problem(rng, grid, random_coefficients(rng))
    system = CoupledSystem(sample_problem(prob, grid))
    z = np.concatenate([[bundle.uxy.values[0, 0]], bundle.uxxy.values[:, 0],
                        bundle.uxyy.values[0, :], bundle.uxxyy.values.ravel()])
    scale = np.abs(system.matrix) @ np.abs(z) + np.abs(system.rhs)
    assert np.max(np.abs(system.matrix @ z - system.rhs) / scale) <= 1e-14
    corner, edge_x, edge_y, core = system.solve()
    np.testing.assert_allclose(np.concatenate([[corner], edge_x, edge_y, core.ravel()]), z,
                               rtol=1e-10, atol=1e-10)
    assert edge_x.shape == (7,) and edge_y.shape == (6,) and core.shape == (7, 6)


def test_coupled_assembly_peak_memory():
    # the matrix and the core block it is built from; no third full-size copy
    rng = np.random.default_rng(19)
    grid = build_grid(DOM, 40, 40)
    prob, _ = random_forward_problem(rng, grid, random_coefficients(rng))
    sp = sample_problem(prob, grid)
    tracemalloc.start()
    try:
        system = CoupledSystem(sp)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.05 * system.matrix.nbytes


def test_coupled_assembly_makes_no_unused_right_hand_side(monkeypatch):
    # the eliminated operator's g is made on first access, and the coupled
    # system never reads it: one reduced_rhs, and 1 + n1 + n2 lower calls
    rng = np.random.default_rng(20)
    grid = build_grid(DOM, 9, 9)
    sp = sample_problem(random_forward_problem(rng, grid, random_coefficients(rng))[0], grid)
    calls = {"reduced_rhs": 0, "lower": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(reduction, "reduced_rhs", counted("reduced_rhs", reduction.reduced_rhs))
    monkeypatch.setattr(reduction.DiscreteOperator, "lower",
                        counted("lower", reduction.DiscreteOperator.lower))
    CoupledSystem(sp)
    assert calls == {"reduced_rhs": 1, "lower": 19}


def test_coupled_size_guard_refuses_before_allocating():
    grid = build_grid(DOM, 71, 71)
    tracemalloc.start()
    try:
        with pytest.raises(DenseLimitError, match="dense assembly limited to 4900 nodes"):
            CoupledSystem(sample_problem(PdeProblem(DOM, Coefficients()), grid))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10e6


# ------------------------------------------------ bit-level oracle of the table
# The 15 terms of K, the base part of g and the nine bundle grids as they were
# written by hand before they were read off `reduction.REPRESENTATION`, kept
# verbatim (operation order included) so that the derivation is pinned bit
# for bit.

def oracle_labelled_terms(c, grid):
    """(label, term) in K's order; the labels only name terms in messages."""
    x = grid.x[:, None]
    y = grid.y[None, :]
    return [
        ("c_u", Term(c["c_u"], CUM1, CUM1)),
        ("c_x", Term(c["c_x"], CUM0, CUM1)),
        ("c_y", Term(c["c_y"], CUM1, CUM0)),
        ("c_xy", Term(c["c_xy"], CUM0, CUM0)),
        ("c_yy", Term(c["c_yy"], CUM1, IDENT)),
        ("c_xyy", Term(c["c_xyy"], CUM0, IDENT)),
        ("c_xx", Term(c["c_xx"], IDENT, CUM1)),
        ("c_xxy", Term(c["c_xxy"], IDENT, CUM0)),
        ("fx1", Term(-(y * c["c_u"] + c["c_y"]), CUM1, MOM)),
        ("fx0", Term(-(y * c["c_x"] + c["c_xy"]), CUM0, MOM)),
        ("fy1", Term(-(x * c["c_u"] + c["c_x"]), MOM, CUM1)),
        ("fy0", Term(-(x * c["c_y"] + c["c_xy"]), MOM, CUM0)),
        ("edge_x_factor", Term(-(y * c["c_xx"] + c["c_xxy"]), IDENT, MOM)),
        ("edge_y_factor", Term(-(x * c["c_yy"] + c["c_xyy"]), MOM, IDENT)),
        ("corner_factor", Term(x * y * c["c_u"] + y * c["c_x"] + x * c["c_y"] + c["c_xy"],
                               MOM, MOM)),
    ]


def oracle_kernel_terms(c, grid):
    return [t for _, t in oracle_labelled_terms(c, grid)]


def oracle_far_differences(sd, grid):
    """The far-edge differences of the data: edge_x, edge_y, corner, corner_alt."""
    h1, h2 = grid.domain.h1, grid.domain.h2
    return ((sd.uxx_top - sd.uxx_bottom) / h2, (sd.uyy_right - sd.uyy_left) / h1,
            (sd.uy10 - sd.uy00) / h1, (sd.ux01 - sd.ux00) / h2)


def oracle_reduced_rhs(sp):
    c, sd = sp.coeffs, sp.data
    return sp.forcing - (
        c["c_xx"] * sd.uxx_bottom[:, None]
        + c["c_yy"] * sd.uyy_left[None, :]
        + c["c_x"] * sd.base_ux[:, None]
        + c["c_y"] * sd.base_uy[None, :]
        + c["c_u"] * (sd.base_x[:, None] + sd.base_y[None, :]))


def oracle_bundle(sd, b, grid):
    """The lower unknowns of core b and the nine bundle grids, by hand."""
    ax, ay = grid.ax, grid.ay
    m1x, m2y = ax.moment_avg, ay.moment_avg
    d_uxx, d_uyy, d_uy, d_ux = oracle_far_differences(sd, grid)
    ex = d_uxx - b @ m2y
    ey = d_uyy - m1x @ b
    corner = float(d_uy - m1x @ ex)
    corner_alt = float(d_ux - m2y @ ey)
    x = grid.x[:, None]
    y = grid.y[None, :]
    i_ex0, i_ex1 = ax.cumulative(ex)
    i_ey0, i_ey1 = ay.cumulative(ey)
    bx0, bx1 = ax.cumulative(b, 0)
    dbl10, dbl11 = ay.cumulative(bx1, 1)
    dbl00, dbl01 = ay.cumulative(bx0, 1)
    ry0, ry1 = ay.cumulative(b, 1)
    grids = {
        "u": (sd.base_x[:, None] + sd.base_y[None, :] + x * y * corner
              + y * i_ex1[:, None] + x * i_ey1[None, :] + dbl11),
        "ux": sd.base_ux[:, None] + y * corner + y * i_ex0[:, None] + i_ey1[None, :] + dbl01,
        "uy": sd.base_uy[None, :] + x * corner + i_ex1[:, None] + x * i_ey0[None, :] + dbl10,
        "uxx": sd.uxx_bottom[:, None] + y * ex[:, None] + ry1,
        "uyy": sd.uyy_left[None, :] + x * ey[None, :] + bx1,
        "uxy": corner + i_ex0[:, None] + i_ey0[None, :] + dbl00,
        "uxxy": ex[:, None] + ry0,
        "uxyy": ey[None, :] + bx0,
        "uxxyy": b,
    }
    return corner, corner_alt, grids


ORACLE_GRIDS = {
    "9x9": (DOM, 9, 9, None, None),
    "9x7": (DOM, 9, 7, None, None),
    "15x11-breakpoints": (Domain(2.0, 0.5), 15, 11, [0.7], [0.2]),
}


@pytest.mark.parametrize("seed, case", list(enumerate(ORACLE_GRIDS)), ids=list(ORACLE_GRIDS))
def test_representation_table_reproduces_the_hand_written_terms(monkeypatch, seed, case):
    dom, n1, n2, xb, yb = ORACLE_GRIDS[case]
    grid = build_grid(dom, n1, n2, x_breakpoints=xb, y_breakpoints=yb)
    rng = np.random.default_rng(100 + seed)
    prob, _ = random_forward_problem(rng, grid, random_coefficients(rng))
    sp = sample_problem(prob, grid)
    op = assemble_eliminated(sp)
    system = CoupledSystem(sp)

    oracle = oracle_labelled_terms(sp.coeffs, grid)
    assert [(t.x, t.y) for t in op.terms] == [(o.x, o.y) for _, o in oracle]
    for t, (label, o) in zip(op.terms, oracle):
        assert np.array_equal(t.coef, o.coef), label

    # the same operator and coupled system assembled from the hand-written table
    monkeypatch.setattr(reduction, "kernel_terms", oracle_kernel_terms)
    monkeypatch.setattr(reduction, "reduced_rhs", oracle_reduced_rhs)
    oracle_op = reduction.DiscreteOperator(sp)
    oracle_system = reduction.CoupledSystem(sp)
    monkeypatch.undo()
    sd = sp.data
    g = oracle_reduced_rhs(sp)
    d_uxx, d_uyy, d_uy, _ = oracle_far_differences(sd, grid)
    g -= oracle_op.lower(d_uy - float(grid.ax.moment_avg @ d_uxx), d_uxx, d_uyy)
    assert np.array_equal(op.g, g)
    v = rng.standard_normal(grid.shape)
    assert np.array_equal(op.matvec(v), oracle_op.matvec(v))
    assert np.array_equal(op.dense(), oracle_op.dense())
    assert np.array_equal(system.matrix, oracle_system.matrix)
    assert np.array_equal(system.rhs, oracle_system.rhs)

    quadruple = far_edge(sd, grid, v)
    bundle = assemble_solution(sd, grid, (*quadruple[:3], v))
    corner, corner_alt, grids = oracle_bundle(sd, v, grid)
    assert (quadruple[0], quadruple[3]) == (corner, corner_alt)
    for name, values in grids.items():
        assert np.array_equal(getattr(bundle, name).values, values), name


@pytest.mark.parametrize("method", ["neumann", "dense"])
@pytest.mark.parametrize("seed, case", list(enumerate(ORACLE_GRIDS)), ids=list(ORACLE_GRIDS))
def test_bundle_carries_the_reduced_unknowns(monkeypatch, seed, case, method):
    # the bundle is the solution: its near-edge values are the quadruple that
    # the far-edge conditions give for the solved core, bit for bit
    dom, n1, n2, xb, yb = ORACLE_GRIDS[case]
    grid = build_grid(dom, n1, n2, x_breakpoints=xb, y_breakpoints=yb)
    rng = np.random.default_rng(200 + seed)
    prob, _ = random_forward_problem(rng, grid, random_coefficients(rng))
    cores = []

    def far_edge_of_solved_core(sd, on, core=None):
        cores.append(core)
        return far_edge(sd, on, core)

    monkeypatch.setattr(solver_mod, "far_edge", far_edge_of_solved_core)
    result = solve_problem(prob, grid, method=method, residual_gate=False)
    (core,) = cores
    bundle = result.bundle
    corner, edge_x, edge_y, corner_alt = far_edge(sample_data(prob.data, grid), grid, core)
    assert bundle.uxy.values[0, 0] == corner
    assert np.array_equal(bundle.uxxy.values[:, 0], edge_x)
    assert np.array_equal(bundle.uxyy.values[0, :], edge_y)
    assert np.array_equal(bundle.uxxyy.values, core)
    # adopted where the solver owns it; the dense route's core is a view
    assert (bundle.uxxyy.values is core) == (method == "neumann")
    assert result.report.uxy00_route_gap == abs(corner - corner_alt)


def test_coupled_and_eliminated_agree_on_core():
    # the coupled system is the reference: its core is the dense solve's, and
    # its lower unknowns are the far-edge conditions of its own core
    rng = np.random.default_rng(16)
    for dom, n1, n2, xb, yb in ORACLE_GRIDS.values():
        grid = build_grid(dom, n1, n2, x_breakpoints=xb, y_breakpoints=yb)
        prob, _ = random_forward_problem(rng, grid, random_coefficients(rng))
        sp = sample_problem(prob, grid)
        corner, edge_x, edge_y, core_coupled = CoupledSystem(sp).solve()
        core_elim, _ = solve_dense(assemble_eliminated(sp))
        scale = max(1e-30, float(np.max(np.abs(core_elim))))
        assert np.max(np.abs(core_coupled - core_elim)) / scale <= 1e-8
        far_corner, far_x, far_y, _ = far_edge(sp.data, grid, core_coupled)
        lower = np.concatenate([[corner], edge_x, edge_y])
        far = np.concatenate([[far_corner], far_x, far_y])
        assert np.max(np.abs(lower - far)) <= 1e-13 * max(1.0, float(np.max(np.abs(lower))))
