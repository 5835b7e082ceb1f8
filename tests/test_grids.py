import numpy as np
import pytest

from mangeron import (Axis, Domain, Grid2D, GridFn1D, GridFn2D, build_grid,
                      fd_derivatives, moment_integral_1d, quad_1d,
                      trapezoid_error_bound)
from quadrature_oracle import panel_tables


def panel_weights(nodes):
    """Independent trapezoid weights: accumulate panel halves one by one."""
    w = np.zeros(len(nodes))
    for k in range(len(nodes) - 1):
        h = nodes[k + 1] - nodes[k]
        w[k] += h / 2
        w[k + 1] += h / 2
    return w


def test_domain_validation():
    with pytest.raises(ValueError):
        Domain(0.0, 1.0)
    with pytest.raises(ValueError):
        Domain(1.0, -2.0)


def test_uniform_three_node_grid():
    grid = build_grid(Domain(1.0, 1.0), 3, 3)
    np.testing.assert_allclose(grid.x, [0.0, 0.5, 1.0])
    np.testing.assert_allclose(grid.wx, [0.25, 0.5, 0.25])


def test_too_few_nodes_rejected():
    with pytest.raises(ValueError):
        build_grid(Domain(2.0, 1.0), 2, 3)


def test_breakpoint_inserted_and_weights_sum():
    grid = build_grid(Domain(1.0, 1.0), 5, 5, x_breakpoints=[0.3])
    assert np.any(np.isclose(grid.x, 0.3))
    assert abs(np.sum(grid.wx) - 1.0) <= 1e-13
    np.testing.assert_allclose(grid.wx, panel_weights(grid.x), rtol=1e-14)


def test_breakpoint_outside_interval_rejected():
    with pytest.raises(ValueError):
        build_grid(Domain(1.0, 1.0), 5, 5, x_breakpoints=[1.5])
    with pytest.raises(ValueError):
        build_grid(Domain(1.0, 1.0), 5, 5, y_breakpoints=[0.0])


def test_weights_nonnegative_and_sum_to_length():
    rng = np.random.default_rng(1)
    for _ in range(20):
        h1 = float(rng.uniform(0.5, 3.0))
        h2 = float(rng.uniform(0.5, 3.0))
        bx = sorted(rng.uniform(0.05 * h1, 0.95 * h1, rng.integers(0, 4)))
        by = sorted(rng.uniform(0.05 * h2, 0.95 * h2, rng.integers(0, 4)))
        grid = build_grid(Domain(h1, h2), int(rng.integers(3, 12)),
                          int(rng.integers(3, 12)), bx, by)
        assert np.all(grid.wx >= 0) and np.all(grid.wy >= 0)
        assert abs(np.sum(grid.wx) - h1) <= 1e-13 * max(1.0, h1)
        assert abs(np.sum(grid.wy) - h2) <= 1e-13 * max(1.0, h2)


def test_axis_node_validation():
    with pytest.raises(ValueError):
        Axis([0.0, 0.5, 0.4])
    with pytest.raises(ValueError):
        Axis([0.1, 0.5, 1.0])


def test_cumulative_matrix_rows():
    ax = Axis(np.linspace(0.0, 1.0, 7))
    cum0, _ = ax.cumulative(np.eye(ax.n))
    np.testing.assert_allclose(cum0[0], 0.0)
    np.testing.assert_allclose(cum0[-1], ax.weights, rtol=1e-14)


def test_moment_weights_are_last_row_of_cum1():
    grid = build_grid(Domain(2.0, 0.5), 44, 25, [0.3, 1.37], [0.111])
    for ax in (grid.ax, grid.ay):
        assert np.array_equal(ax.moments, panel_tables(ax.nodes)[1][-1])


# uniform unit axis; breakpoint axes on [0, 2] and [0, 0.5]
CUMULATIVE_AXES = {
    "uniform": build_grid(Domain(1.0, 1.0), 33, 33),
    "breakpoints": build_grid(Domain(2.0, 0.5), 44, 25, [0.3, 1.37], [0.111]),
}


@pytest.mark.parametrize("name", CUMULATIVE_AXES)
@pytest.mark.parametrize("sign", ["mixed", "positive"])
def test_cumulative_matches_tables(name, sign):
    # the tables' own products round too, so agreement is to roundoff of
    # the integrals: 1e-15 max|f| on a unit axis, scaled by length^2 above it
    grid = CUMULATIVE_AXES[name]
    rng = np.random.default_rng(5)
    f = rng.standard_normal(grid.shape)
    if sign == "positive":
        f = 1.0 + np.abs(f)
    x0, x1 = panel_tables(grid.x)
    y0, y1 = panel_tables(grid.y)
    cases = [(grid.ax, f, 0, x0 @ f, x1 @ f),
             (grid.ay, f, 1, f @ y0.T, f @ y1.T),
             (grid.ax, f[:, 3], 0, x0 @ f[:, 3], x1 @ f[:, 3]),
             (grid.ay, f[2], 0, y0 @ f[2], y1 @ f[2])]
    for ax, v, axis, want0, want1 in cases:
        tol = 1e-15 * float(np.max(np.abs(v))) * max(1.0, ax.length) ** 2
        got0, got1 = ax.cumulative(v, axis)
        assert got0.shape == got1.shape == v.shape
        assert np.max(np.abs(got0 - want0)) <= tol
        assert np.max(np.abs(got1 - want1)) <= tol
        assert np.all(got0[(slice(None),) * axis + (0,)] == 0.0)
        assert np.all(got1[(slice(None),) * axis + (0,)] == 0.0)


def test_cumulative_rejects_mismatched_axis():
    grid = build_grid(Domain(1.0, 1.0), 5, 6)
    with pytest.raises(ValueError):
        grid.ax.cumulative(np.zeros((5, 6)), 1)
    with pytest.raises(ValueError):
        grid.ax.cumulative(np.zeros(5), 1)


def test_gridfn_shape_validation():
    grid = build_grid(Domain(1.0, 1.0), 4, 5)
    with pytest.raises(ValueError):
        GridFn1D(grid.ax, np.zeros(5))
    with pytest.raises(ValueError):
        GridFn2D(grid, np.zeros((5, 4)))


def test_quad_linear_exact():
    ax = Axis(np.linspace(0.0, 1.0, 6))
    assert quad_1d(GridFn1D(ax, ax.nodes)) == pytest.approx(0.5, abs=1e-15)
    assert quad_1d(GridFn1D(ax, np.zeros(6))) == 0.0


def test_quad_quadratic_error():
    ax = Axis(np.linspace(0.0, 1.0, 11))
    q = quad_1d(GridFn1D(ax, ax.nodes**2))
    assert abs(q - 1.0 / 3.0) <= 2e-3
    # constant curvature: the composite trapezoid error is exactly (b-a) h^2/12 * 2
    assert abs(q - 1.0 / 3.0) == pytest.approx(0.01 / 12.0 * 2.0, rel=1e-10)


def test_moment_constant_and_empty():
    ax = Axis(np.linspace(0.0, 1.0, 9))
    f = GridFn1D(ax, np.ones(9))
    assert moment_integral_1d(f, 1.0) == pytest.approx(0.5, abs=1e-15)
    assert moment_integral_1d(f, 0.0) == 0.0


def test_moment_linear_integrand():
    ax = Axis(np.linspace(0.0, 1.0, 21))
    f = GridFn1D(ax, ax.nodes)
    assert abs(moment_integral_1d(f, 1.0) - 1.0 / 6.0) <= 1e-3


def test_moment_rejects_off_node_point():
    ax = Axis(np.linspace(0.0, 1.0, 9))
    f = GridFn1D(ax, ax.nodes)
    with pytest.raises(ValueError):
        moment_integral_1d(f, 0.3)


def test_quad_and_moment_linear_in_f():
    rng = np.random.default_rng(2)
    ax = Axis(np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0.05, 0.95, 9)])))
    for _ in range(10):
        f = rng.standard_normal(ax.n)
        g = rng.standard_normal(ax.n)
        a, b = rng.standard_normal(2)
        lhs = quad_1d(GridFn1D(ax, a * f + b * g))
        rhs = a * quad_1d(GridFn1D(ax, f)) + b * quad_1d(GridFn1D(ax, g))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
        x = float(ax.nodes[rng.integers(0, ax.n)])
        lhs = moment_integral_1d(GridFn1D(ax, a * f + b * g), x)
        rhs = (a * moment_integral_1d(GridFn1D(ax, f), x)
               + b * moment_integral_1d(GridFn1D(ax, g), x))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_moment_nondecreasing_for_nonnegative_f():
    rng = np.random.default_rng(3)
    ax = Axis(np.linspace(0.0, 2.0, 15))
    f = GridFn1D(ax, rng.uniform(0.0, 1.0, ax.n))
    vals = [moment_integral_1d(f, float(t)) for t in ax.nodes]
    assert all(vals[k + 1] >= vals[k] - 1e-15 for k in range(len(vals) - 1))


def test_trapezoid_second_order_refinement():
    exact = np.exp(1.0) - 1.0
    errors = []
    for n in (9, 17, 33):
        ax = Axis(np.linspace(0.0, 1.0, n))
        errors.append(abs(quad_1d(GridFn1D(ax, np.exp(ax.nodes))) - exact))
    order1 = np.log2(errors[0] / errors[1])
    order2 = np.log2(errors[1] / errors[2])
    assert order1 >= 1.9 and order2 >= 1.9


def test_fd_derivatives_exact_for_quadratics():
    nodes = np.sort(np.concatenate([[0.0, 1.0], np.random.default_rng(4).uniform(0.1, 0.9, 6)]))
    vals = 3.0 - 2.0 * nodes + 5.0 * nodes**2
    d1, d2 = fd_derivatives(nodes, vals)
    np.testing.assert_allclose(d1, -2.0 + 10.0 * nodes, rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(d2, 10.0, rtol=1e-10)


def test_fd_second_derivative_endpoints_exact_for_cubics():
    nodes = np.linspace(0.0, 1.0, 9)
    vals = nodes**3
    _, d2 = fd_derivatives(nodes, vals)
    assert d2[0] == pytest.approx(0.0, abs=1e-9)
    assert d2[-1] == pytest.approx(6.0, rel=1e-9)


def test_trapezoid_error_bound_covers_actual_error():
    ax = Axis(np.linspace(0.0, 1.0, 11))
    vals = ax.nodes**2
    actual = abs(quad_1d(GridFn1D(ax, vals)) - 1.0 / 3.0)
    # constant curvature: the bound is attained exactly
    assert trapezoid_error_bound(ax.nodes, vals) >= actual * (1 - 1e-12)
    vals = np.exp(ax.nodes)
    actual = abs(quad_1d(GridFn1D(ax, vals)) - (np.e - 1.0))
    assert trapezoid_error_bound(ax.nodes, vals) > actual


def test_grid_requires_matching_side_lengths():
    with pytest.raises(ValueError):
        Grid2D(Domain(1.0, 1.0), np.linspace(0, 2.0, 5), np.linspace(0, 1.0, 5))
