import math

import numpy as np
import pytest

from mangeron import (Domain, GridFn1D, GridFn2D, NonclassicalData, NormSpec,
                      build_grid, const1d, data_norm, lp_norm, sample_data,
                      sobolev_norm)
from mangeron.mms import bilinear_solution, exact_bundle


@pytest.fixture
def grid():
    return build_grid(Domain(1.0, 1.0), 21, 21)


def test_norm_spec_validation():
    with pytest.raises(ValueError):
        NormSpec(0.5)
    assert NormSpec(math.inf).is_sup


def test_sup_norm_of_constant(grid):
    f = GridFn2D(grid, np.full(grid.shape, 3.0))
    assert lp_norm(f, NormSpec(math.inf)) == 3.0


def test_l2_norm_of_one_on_unit_square(grid):
    f = GridFn2D(grid, np.ones(grid.shape))
    assert lp_norm(f, NormSpec(2.0)) == pytest.approx(1.0, rel=1e-12)


def test_l2_norm_of_x(grid):
    xx, _ = grid.meshgrid()
    f = GridFn2D(grid, xx)
    assert abs(lp_norm(f, NormSpec(2.0)) - 1.0 / math.sqrt(3.0)) <= 5e-3


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
            nf = lp_norm(GridFn2D(grid, f), spec)
            ng = lp_norm(GridFn2D(grid, g), spec)
            nfg = lp_norm(GridFn2D(grid, f + g), spec)
            assert nfg <= (nf + ng) * (1 + 1e-10)
            a = float(rng.standard_normal())
            na = lp_norm(GridFn2D(grid, a * f), spec)
            assert na == pytest.approx(abs(a) * nf, rel=1e-10, abs=1e-12)


def test_lp_norm_1d(grid):
    f = GridFn1D(grid.ax, grid.x)
    assert lp_norm(f, NormSpec(1.0)) == pytest.approx(0.5, rel=1e-12)
    assert lp_norm(f, NormSpec(math.inf)) == 1.0
