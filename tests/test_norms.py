import math

import numpy as np
import pytest

from mangeron import (Domain, GridFn2D, NonclassicalData, NormSpec,
                      build_grid, const1d, data_norm, lp_norm, sample_data,
                      sobolev_norm)
from mangeron.mms import bilinear_solution
from helpers import TILE_ROWS, exact_bundle, set_tile_rows


@pytest.fixture
def grid():
    return build_grid(Domain(1.0, 1.0), 21, 21)


def test_norm_spec_validation():
    with pytest.raises(ValueError):
        NormSpec(0.5)
    assert NormSpec(math.inf).is_sup


def test_sup_norm_of_constant(grid):
    f = np.full(grid.shape, 3.0)
    assert lp_norm(f, (grid.ax, grid.ay), NormSpec(math.inf)) == 3.0


def test_l2_norm_of_one_on_unit_square(grid):
    f = np.ones(grid.shape)
    assert lp_norm(f, (grid.ax, grid.ay), NormSpec(2.0)) == pytest.approx(1.0, rel=1e-12)


def test_l2_norm_of_x(grid):
    xx, _ = grid.meshgrid()
    assert abs(lp_norm(xx, (grid.ax, grid.ay), NormSpec(2.0)) - 1.0 / math.sqrt(3.0)) <= 5e-3


def test_sobolev_norm_zero_and_constant(grid):
    zero = exact_bundle(bilinear_solution(), grid)
    zero_vals = {k: GridFn2D(grid, np.zeros(grid.shape))
                 for k in ("u", "ux", "uy", "uxx", "uyy", "uxy", "uxxy", "uxyy", "uxxyy")}
    from mangeron import SolutionBundle
    bundle0 = SolutionBundle(**zero_vals)
    assert sobolev_norm(bundle0, NormSpec(2.0)) == 0.0
    const_vals = dict(zero_vals)
    const_vals["u"] = GridFn2D(grid, np.full(grid.shape, -2.5))
    assert sobolev_norm(SolutionBundle(**const_vals), NormSpec(math.inf)) == 2.5


def test_sobolev_norm_of_bilinear(grid):
    # u = x y on the unit square: u, ux, uy, uxy each have sup 1, rest vanish
    bundle = exact_bundle(bilinear_solution(), grid)
    assert sobolev_norm(bundle, NormSpec(math.inf)) == pytest.approx(4.0, rel=1e-12)


def test_sobolev_norm_missing_grid_rejected(grid):
    class Partial:
        u = GridFn2D(grid, np.ones(grid.shape))
    with pytest.raises(ValueError):
        sobolev_norm(Partial(), NormSpec(2.0))


def test_data_norm_cases(grid):
    assert data_norm(sample_data(NonclassicalData(), grid), grid) == 0.0
    assert data_norm(sample_data(NonclassicalData(u00=2.0), grid), grid) == 2.0
    z = NonclassicalData(uxx_bottom=const1d(1.0))
    assert data_norm(sample_data(z, grid), grid, NormSpec(1.0)) \
        == pytest.approx(1.0, rel=1e-12)


def test_lp_triangle_inequality_and_homogeneity(grid):
    rng = np.random.default_rng(11)
    for p in (1.0, 2.0, 3.0, math.inf):
        spec = NormSpec(p)
        for _ in range(5):
            f = rng.standard_normal(grid.shape)
            g = rng.standard_normal(grid.shape)
            nf = lp_norm(f, (grid.ax, grid.ay), spec)
            ng = lp_norm(g, (grid.ax, grid.ay), spec)
            nfg = lp_norm(f + g, (grid.ax, grid.ay), spec)
            assert nfg <= (nf + ng) * (1 + 1e-10)
            a = float(rng.standard_normal())
            na = lp_norm(a * f, (grid.ax, grid.ay), spec)
            assert na == pytest.approx(abs(a) * nf, rel=1e-10, abs=1e-12)


def test_lp_norm_refuses_values_off_its_axes():
    grid = build_grid(Domain(1.0, 1.0), 4, 5)
    for values, axes in ((np.zeros(5), (grid.ax,)), (np.zeros((4, 5)), (grid.ax,)),
                         (np.zeros((5, 4)), (grid.ax, grid.ay)), (np.zeros(4), (grid.ax, grid.ay))):
        with pytest.raises(ValueError, match="does not match axes"):
            lp_norm(values, axes)


def test_lp_norm_1d(grid):
    assert lp_norm(grid.x, (grid.ax,), NormSpec(1.0)) == pytest.approx(0.5, rel=1e-12)
    assert lp_norm(grid.x, (grid.ax,), NormSpec(math.inf)) == 1.0


@pytest.mark.parametrize("scale", [1e300, 1e-200])
@pytest.mark.parametrize("p", [1.0, 2.0, 3.5])
def test_lp_norm_of_huge_and_tiny_grids(scale, p):
    # |v|^p of 1e300 overflows and of 1e-200 underflows; the norm is then
    # taken of v over its node max, times that max
    grid = build_grid(Domain(1.0, 1.0), 9, 9)
    spec = NormSpec(p)
    for ones, f, axes in ((np.ones(grid.shape), np.full(grid.shape, scale), (grid.ax, grid.ay)),
                          (np.ones(9), np.full(9, -scale), (grid.ax,))):
        assert lp_norm(f, axes, spec) == pytest.approx(scale * lp_norm(ones, axes, spec), rel=1e-14)


def test_lp_norm_keeps_the_plain_sum_where_it_is_finite_and_nonzero():
    grid = build_grid(Domain(2.0, 0.5), 11, 7, x_breakpoints=[0.3])
    w = np.outer(grid.ax.weights, grid.ay.weights)
    v = np.random.default_rng(4).standard_normal(grid.shape) * 1e20
    for p in (1.0, 2.0, 3.5):
        assert lp_norm(v, (grid.ax, grid.ay), NormSpec(p)) == float(
            np.sum(w * np.abs(v) ** p) ** (1.0 / p))
    assert lp_norm(np.zeros(grid.shape), (grid.ax, grid.ay)) == 0.0
    for bad, want in ((math.inf, math.inf), (math.nan, math.nan)):
        v[2, 3] = bad
        got = lp_norm(v, (grid.ax, grid.ay))
        assert got == want or (math.isnan(got) and math.isnan(want))


def whole_grid_lp_norm(v, w, p):
    """`lp_norm` as it was formed over the whole grid, with a full weight
    grid `w` (or the axis weights of 1-D values)."""
    with np.errstate(over="ignore"):
        total = np.sum(w * np.abs(v) ** p)
    if total == 0.0 or total == math.inf:
        m = np.max(np.abs(v))
        if 0.0 < m < math.inf:
            return float(m * np.sum(w * (np.abs(v) / m) ** p) ** (1.0 / p))
    return float(total ** (1.0 / p))


@pytest.mark.parametrize("scale", [1.0, 1e200, 1e-200, 1e300])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0, 7.25])
def test_tiled_lp_norm_is_the_whole_grid_sum_bit_for_bit(scale, p, monkeypatch):
    # rows over two tiles and a partial one, breakpoints on both axes; at
    # the three large and tiny scales, every p from 2 on overflows or
    # underflows and takes the rescale path
    grid = build_grid(Domain(2.0, 0.5), 2 * TILE_ROWS + 5, 23,
                      x_breakpoints=[0.7], y_breakpoints=[0.2])
    set_tile_rows(monkeypatch, grid.shape[1])
    assert grid.shape[0] % TILE_ROWS != 0
    w = np.outer(grid.ax.weights, grid.ay.weights)
    rng = np.random.default_rng(int(p * 4))
    v = scale * rng.standard_normal(grid.shape)
    v[3, 4] = -0.0
    for values in (v, np.asfortranarray(v), v[0]):
        axes = (grid.ax, grid.ay) if values.ndim == 2 else (grid.ay,)
        want = whole_grid_lp_norm(values, w if values.ndim == 2 else grid.ay.weights, p)
        assert lp_norm(values, axes, NormSpec(p)) == want
    v[-1, -2] = math.nan                # in the last, partial tile
    assert math.isnan(lp_norm(v, (grid.ax, grid.ay), NormSpec(p)))
    assert math.isnan(whole_grid_lp_norm(v, w, p))
