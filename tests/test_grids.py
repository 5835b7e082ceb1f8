import tracemalloc

import numpy as np
import pytest

from mangeron import Axis, Domain, Grid2D, GridFn2D, build_grid, fd_derivatives
from mangeron.grids import row_tiles, tile_rows
from quadrature_oracle import panel_tables


def panel_weights(nodes):
    """Independent trapezoid weights: accumulate panel halves one by one."""
    w = np.zeros(len(nodes))
    for k in range(len(nodes) - 1):
        h = nodes[k + 1] - nodes[k]
        w[k] += h / 2
        w[k + 1] += h / 2
    return w


@pytest.mark.parametrize("shape, rows", [
    ((49, 49), 49), ((65, 65), 65), ((129, 129), 64), ((257, 257), 32), ((513, 513), 32),
    ((1025, 1025), 16), ((3, 20000), 1), ((2000, 9), 1024),
])
def test_row_tiles_are_sized_by_node_count(shape, rows):
    # the most whole rows of 32 x 513 nodes, rounded down to a power of two:
    # small grids are one tile, 513-node lines keep their 32-row tiles
    assert tile_rows(shape) == rows
    tiles = list(row_tiles(shape))
    assert all(t.stop - t.start == rows for t in tiles)
    assert [i for t in tiles for i in range(shape[0])[t]] == list(range(shape[0]))


def test_domain_validation():
    with pytest.raises(ValueError):
        Domain(0.0, 1.0)
    with pytest.raises(ValueError):
        Domain(1.0, -2.0)


def test_uniform_three_node_grid():
    grid = build_grid(Domain(1.0, 1.0), 3, 3)
    np.testing.assert_allclose(grid.x, [0.0, 0.5, 1.0])
    np.testing.assert_allclose(grid.ax.weights, [0.25, 0.5, 0.25])


def test_too_few_nodes_rejected():
    with pytest.raises(ValueError):
        build_grid(Domain(2.0, 1.0), 2, 3)


def test_breakpoint_inserted_and_weights_sum():
    grid = build_grid(Domain(1.0, 1.0), 5, 5, x_breakpoints=[0.3])
    assert np.any(np.isclose(grid.x, 0.3))
    assert abs(np.sum(grid.ax.weights) - 1.0) <= 1e-13
    np.testing.assert_allclose(grid.ax.weights, panel_weights(grid.x), rtol=1e-14)


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
        assert np.all(grid.ax.weights >= 0) and np.all(grid.ay.weights >= 0)
        assert abs(np.sum(grid.ax.weights) - h1) <= 1e-13 * max(1.0, h1)
        assert abs(np.sum(grid.ay.weights) - h2) <= 1e-13 * max(1.0, h2)


def test_axis_node_validation():
    with pytest.raises(ValueError):
        Axis([0.0, 0.5, 0.4])
    with pytest.raises(ValueError):
        Axis([0.1, 0.5, 1.0])


def test_cumulative_matrix_rows():
    # the rule is stated once: the full-interval weights are the last row of
    # the running sums applied to the identity, bit for bit, on uniform axes
    # and on axes with breakpoints
    for length in (1e-3, 1.0, 44.0, 1e5):
        for n, breakpoints in ((7, None), (33, None), (20, [0.3 * length]),
                               (41, [0.111 * length, 0.9 * length])):
            grid = build_grid(Domain(length, 1.0), n, 3, x_breakpoints=breakpoints)
            cum0, _ = grid.ax.cumulative(np.eye(grid.ax.n))
            assert np.all(cum0[0] == 0.0)
            assert np.array_equal(cum0[-1], grid.ax.weights), (length, n, breakpoints)


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


@pytest.mark.parametrize("name", CUMULATIVE_AXES)
def test_cumulative_into_given_out_keeps_the_bits(name):
    grid = CUMULATIVE_AXES[name]
    f = np.random.default_rng(7).standard_normal(grid.shape)
    for ax, axis in ((grid.ax, 0), (grid.ay, 1)):
        out = (np.full(f.shape, np.nan), np.full(f.shape, np.nan))
        got = ax.cumulative(f, axis, out=out)
        assert got[0] is out[0] and got[1] is out[1]
        for a, b in zip(got, ax.cumulative(f, axis)):
            assert np.array_equal(a, b)


def test_cumulative_refuses_an_out_that_aliases_f_or_has_the_wrong_shape():
    grid = build_grid(Domain(1.0, 1.0), 5, 6)
    f = np.ones(grid.shape)
    spare = np.empty(grid.shape)
    for out in ((f, spare), (spare, f[:, :]), (spare, spare), (spare, np.empty((6, 5))),
                (spare, np.empty((5, 6), dtype=np.float32)), (spare,)):
        with pytest.raises(ValueError):
            grid.ax.cumulative(f, 0, out=out)
    assert np.all(f == 1.0)


@pytest.mark.parametrize("axis", [0, 1])
def test_cumulative_allocates_only_its_results(axis):
    # the panel increments are formed in the storage of the cum1 result and
    # summed there in place: two results plus O(n) and numpy's ufunc buffers
    # (a few of `np.getbufsize()` elements, whatever the grid), no third grid
    grid = build_grid(Domain(2.0, 0.5), 513, 513, [0.3, 1.37], [0.111])
    n = grid.shape[axis]
    f = np.random.default_rng(6).standard_normal(grid.shape)
    tracemalloc.start()
    try:
        (grid.ax, grid.ay)[axis].cumulative(f, axis)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * f.nbytes + 64 * n * 8 + 4 * np.getbufsize() * 8


def test_gridfn_shape_validation():
    grid = build_grid(Domain(1.0, 1.0), 4, 5)
    with pytest.raises(ValueError):
        GridFn2D(grid, np.zeros(5))
    with pytest.raises(ValueError):
        GridFn2D(grid, np.zeros((5, 4)))


def test_gridfn_adopts_only_read_only_arrays_that_own_their_memory():
    grid = build_grid(Domain(1.0, 1.0), 4, 5)
    owned = np.arange(20.0).reshape(4, 5).copy()
    owned.flags.writeable = False
    assert GridFn2D(grid, owned).values is owned
    view = owned.T.T
    ints = np.zeros((4, 5), dtype=int)
    ints.flags.writeable = False
    writeable = np.zeros((4, 5))
    for values, fn in ((view, GridFn2D(grid, view)), (ints, GridFn2D(grid, ints)),
                       (writeable, GridFn2D(grid, writeable))):
        assert not np.shares_memory(fn.values, values)
        assert not fn.values.flags.writeable and np.array_equal(fn.values, values)
    assert writeable.flags.writeable


def test_quad_linear_exact():
    ax = Axis(np.linspace(0.0, 1.0, 6))
    assert ax.weights @ ax.nodes == pytest.approx(0.5, abs=1e-15)
    assert ax.weights @ np.zeros(6) == 0.0


def test_quad_quadratic_error():
    ax = Axis(np.linspace(0.0, 1.0, 11))
    q = ax.weights @ ax.nodes**2
    assert abs(q - 1.0 / 3.0) <= 2e-3
    # constant curvature: the composite trapezoid error is exactly (b-a) h^2/12 * 2
    assert abs(q - 1.0 / 3.0) == pytest.approx(0.01 / 12.0 * 2.0, rel=1e-10)


def test_moment_constant_and_empty():
    ax = Axis(np.linspace(0.0, 1.0, 9))
    moment = ax.cumulative(np.ones(9))[1]
    assert moment[-1] == pytest.approx(0.5, abs=1e-15)
    assert moment[0] == 0.0


def test_moment_linear_integrand():
    ax = Axis(np.linspace(0.0, 1.0, 21))
    assert abs(ax.cumulative(ax.nodes)[1][-1] - 1.0 / 6.0) <= 1e-3


def test_quad_and_moment_linear_in_f():
    rng = np.random.default_rng(2)
    ax = Axis(np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0.05, 0.95, 9)])))
    for _ in range(10):
        f = rng.standard_normal(ax.n)
        g = rng.standard_normal(ax.n)
        a, b = rng.standard_normal(2)
        lhs = ax.weights @ (a * f + b * g)
        rhs = a * (ax.weights @ f) + b * (ax.weights @ g)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
        k = rng.integers(0, ax.n)
        lhs = ax.cumulative(a * f + b * g)[1][k]
        rhs = a * ax.cumulative(f)[1][k] + b * ax.cumulative(g)[1][k]
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_moment_nondecreasing_for_nonnegative_f():
    rng = np.random.default_rng(3)
    ax = Axis(np.linspace(0.0, 2.0, 15))
    vals = ax.cumulative(rng.uniform(0.0, 1.0, ax.n))[1]
    assert all(vals[k + 1] >= vals[k] - 1e-15 for k in range(len(vals) - 1))


def test_trapezoid_second_order_refinement():
    exact = np.exp(1.0) - 1.0
    errors = []
    for n in (9, 17, 33):
        ax = Axis(np.linspace(0.0, 1.0, n))
        errors.append(abs(ax.weights @ np.exp(ax.nodes) - exact))
    order1 = np.log2(errors[0] / errors[1])
    order2 = np.log2(errors[1] / errors[2])
    assert order1 >= 1.9 and order2 >= 1.9


def test_fd_derivatives_exact_for_quadratics():
    # three nodes keep the one interior second derivative at both ends
    for nodes in (np.sort(np.concatenate([[0.0, 1.0],
                                          np.random.default_rng(4).uniform(0.1, 0.9, 6)])),
                  np.array([0.0, 0.2, 1.0])):
        vals = 3.0 - 2.0 * nodes + 5.0 * nodes**2
        d1, d2 = fd_derivatives(nodes, vals)
        np.testing.assert_allclose(d1, -2.0 + 10.0 * nodes, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(d2, 10.0, rtol=1e-10)


def test_fd_second_derivative_endpoints_exact_for_cubics():
    for nodes in (np.linspace(0.0, 1.0, 9),
                  np.array([0.0, 0.05, 0.3, 0.32, 0.7, 0.95, 1.0]),
                  np.array([0.0, 0.9, 0.93, 1.0])):
        _, d2 = fd_derivatives(nodes, 2.0 - nodes + 3.0 * nodes**2 - 4.0 * nodes**3)
        np.testing.assert_allclose(d2[[0, -1]], [6.0, 6.0 - 24.0], rtol=1e-9)
        # the endpoint first derivative is that of the quadratic through the end nodes
        d1, _ = fd_derivatives(nodes, 1.0 - 2.0 * nodes + nodes**2)
        np.testing.assert_allclose(d1[[0, -1]], [-2.0, 0.0], atol=1e-12)


@pytest.mark.parametrize("length", [1e-300, 1e-200, 1e-100, 1e100, 1e200, 1e300])
def test_error_bound_scales_with_the_interval(length):
    # differenced in units of the step, the bound neither underflows nor
    # overflows: it is (b-a) h^2/12 max|f''| for any length
    t = np.linspace(0.0, 1.0, 9) ** 1.3
    vals = np.sin(3.0 * t)
    bound = Axis(t * length).error_bound(vals)
    assert bound / length == pytest.approx(Axis(t).error_bound(vals), rel=1e-12)


def test_error_bound_covers_actual_error():
    ax = Axis(np.linspace(0.0, 1.0, 11))
    vals = ax.nodes**2
    actual = abs(ax.weights @ vals - 1.0 / 3.0)
    # constant curvature: the bound is attained exactly
    assert ax.error_bound(vals) >= actual * (1 - 1e-12)
    vals = np.exp(ax.nodes)
    actual = abs(ax.weights @ vals - (np.e - 1.0))
    assert ax.error_bound(vals) > actual


@pytest.mark.parametrize("length", [1.0, 1e100, 1e160, 1e300])
def test_moment_average_is_finite_on_any_side(length):
    # the moment weights overflow above a side of about 1e154; the moment
    # average does not, and it keeps the bits of moments / length where the
    # moments are finite
    t = np.linspace(0.0, 1.0, 9) ** 1.3
    ax = Axis(t * length)
    want = Axis(t).moment_avg * length
    assert np.all(np.isfinite(ax.moment_avg))
    np.testing.assert_allclose(ax.moment_avg, want, rtol=1e-14)
    if np.all(np.isfinite(ax.moments)):
        assert np.array_equal(ax.moment_avg, ax.moments / length)


def test_grid_requires_matching_side_lengths():
    with pytest.raises(ValueError):
        Grid2D(Domain(1.0, 1.0), np.linspace(0, 2.0, 5), np.linspace(0, 1.0, 5))


def test_node_matching_scales_with_the_side():
    # on a side of 1e-13 a breakpoint 5e-15 from a node is a node of its
    # own, and a last node 1e-14 past the side is refused
    h = 1e-13
    grid = build_grid(Domain(h, h), 5, 5, x_breakpoints=[3e-14])
    assert 3e-14 in grid.x and grid.shape == (6, 5)
    with pytest.raises(ValueError, match="does not match side length"):
        Grid2D(Domain(h, h), np.linspace(0.0, 1.1 * h, 5), np.linspace(0.0, h, 5))
