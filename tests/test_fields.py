import numpy as np
import pytest

from mangeron import (Domain, Field1D, Field2D, Piece2D, Segment1D, build_grid,
                      const1d, const2d, piecewise1d, piecewise2d, samples1d, samples2d)
from mangeron.config import build_coefficients, load_config


def test_constant_fields_broadcast():
    f = const2d(3.5)
    out = f.eval(np.zeros((4, 1)), np.zeros((1, 5)))
    assert out.shape == (4, 5)
    assert np.all(out == 3.5)
    g = const1d(-1.0)
    assert g.eval(np.linspace(0, 1, 7)).shape == (7,)


def test_metadata_validation():
    with pytest.raises(ValueError):
        Field1D(lambda t: t, kind="weird")


def test_samples1d_linear_interpolation():
    nodes = np.linspace(0.0, 1.0, 5)
    f = samples1d(nodes, 2.0 * nodes)
    np.testing.assert_allclose(f.eval(nodes), 2.0 * nodes, rtol=1e-15)
    assert f.eval(np.array(0.125)) == pytest.approx(0.25)


def test_samples2d_bilinear_exact_for_bilinear():
    grid = build_grid(Domain(1.0, 2.0), 5, 6)
    xx, yy = grid.meshgrid()
    vals = 1.0 + 2.0 * xx - yy + 0.5 * xx * yy
    f = samples2d(grid, vals)
    xs = np.array([0.1, 0.62, 0.99])
    ys = np.array([0.05, 1.3, 1.97])
    expect = 1.0 + 2.0 * xs - ys + 0.5 * xs * ys
    np.testing.assert_allclose(f.eval(xs, ys), expect, rtol=1e-12)


def test_piecewise2d_tiles_and_lex_priority():
    pieces = [
        Piece2D(0.5, 1.0, 0.0, 1.0, lambda x, y: 2.0 * np.ones(np.shape(x))),
        Piece2D(0.0, 0.5, 0.0, 1.0, lambda x, y: np.ones(np.shape(x))),
    ]
    f = piecewise2d(pieces, 1.0, 1.0)
    assert f.eval(np.array(0.25), np.array(0.5)) == 1.0
    assert f.eval(np.array(0.75), np.array(0.5)) == 2.0
    # on the shared edge the lexicographically first piece wins
    assert f.eval(np.array(0.5), np.array(0.5)) == 1.0


def test_piecewise2d_rejects_gaps_and_overlaps():
    with pytest.raises(ValueError):
        piecewise2d([Piece2D(0.0, 0.4, 0.0, 1.0, lambda x, y: x)], 1.0, 1.0)
    with pytest.raises(ValueError):
        piecewise2d([Piece2D(0.0, 0.7, 0.0, 1.0, lambda x, y: x),
                     Piece2D(0.3, 1.0, 0.0, 1.0, lambda x, y: x)], 1.0, 1.0)
    with pytest.raises(ValueError):
        piecewise2d([Piece2D(0.0, 1.2, 0.0, 1.0, lambda x, y: x)], 1.0, 1.0)


def test_piecewise1d_segments():
    f = piecewise1d([Segment1D(0.0, 0.5, lambda t: np.ones(np.shape(t))),
                     Segment1D(0.5, 1.0, lambda t: 3.0 * np.ones(np.shape(t)))], 1.0)
    np.testing.assert_allclose(f.eval(np.array([0.2, 0.5, 0.8])), [1.0, 1.0, 3.0])
    with pytest.raises(ValueError):
        piecewise1d([Segment1D(0.0, 0.5, lambda t: t)], 1.0)


def test_field2d_sample_matches_meshgrid_eval():
    grid = build_grid(Domain(1.0, 1.0), 4, 7)
    f = Field2D(lambda x, y: np.sin(x) + y)
    xx, yy = grid.meshgrid()
    np.testing.assert_allclose(f.sample(grid), np.sin(xx) + yy, rtol=1e-15)


def test_field2d_sample_passes_axes_and_returns_full_writeable_array():
    grid = build_grid(Domain(1.0, 2.0), 4, 7)
    seen = []

    def fn(x, y):
        seen.append((x.shape, y.shape))
        return 2.5

    out = Field2D(fn).sample(grid)
    assert seen == [((4, 1), (1, 7))]
    assert out.shape == (4, 7) and out.flags.writeable and out.flags.owndata
    assert np.all(out == 2.5)
    out[0, 0] = 1.0


CONFIG_FIELDS = """[domain]
h1 = 1.0
h2 = 2.0

[grid]
n1 = 9
n2 = 13
x_breakpoints = 0.3

[coefficients]
c_u = piecewise((0, 0.3, 0, 2): 1 + x * y; (0.3, 1, 0, 2): sin(y))
c_xy = exp(x) * cos(y) / (1 + x^2)
c_x = 0.25

[forcing]
z = zero

[data.nonclassical]
u00 = 0
"""


def test_field2d_sample_bit_identical_to_meshgrid_eval(tmp_path):
    cfg_path = tmp_path / "fields.cfg"
    cfg_path.write_text(CONFIG_FIELDS)
    coeffs = build_coefficients(load_config(str(cfg_path)))
    grid = build_grid(Domain(1.0, 2.0), 9, 13, x_breakpoints=[0.3])
    xx, yy = grid.meshgrid()
    rng = np.random.default_rng(6)
    fields = {
        "analytic": Field2D(lambda x, y: np.sin(3.0 * x) * np.exp(-y) + x * y),
        "constant": const2d(-1.5),
        "config c_u (piecewise)": coeffs.c_u,
        "config c_xy": coeffs.c_xy,
        "config c_x": coeffs.c_x,
        "piecewise2d": piecewise2d(
            [Piece2D(0.0, 0.3, 0.0, 2.0, lambda x, y: np.cos(x + y)),
             Piece2D(0.3, 1.0, 0.0, 1.0, lambda x, y: x - y),
             Piece2D(0.3, 1.0, 1.0, 2.0, lambda x, y: np.ones(np.shape(x)))], 1.0, 2.0),
        "samples2d": samples2d(build_grid(Domain(1.0, 2.0), 5, 6),
                               rng.standard_normal((5, 6))),
    }
    for name, f in fields.items():
        assert np.array_equal(f.sample(grid), f.eval(xx, yy)), name


CONFIG_PIECES = """[domain]
h1 = 1.0
h2 = 1.0

[grid]
n1 = 9
n2 = 9

[coefficients]
c_u = piecewise((0, 0.5, 0.5, 1): 1 + x; (0, 1, 0, 0.5): 2 + y; (0.5, 1, 0.5, 1): 3 + x * y)

[forcing]
z = zero

[data.nonclassical]
u00 = 0
"""


def test_config_piecewise_agrees_with_piecewise2d_on_shared_edges(tmp_path):
    # three pieces meet at (0.5, 0.5) and every shared edge lies on nodes;
    # both take the piece of lowest origin (x0, y0), so the edge y = 0.5,
    # x < 0.5 belongs to the piece with origin (0, 0)
    cfg_path = tmp_path / "pieces.cfg"
    cfg_path.write_text(CONFIG_PIECES)
    from_config = build_coefficients(load_config(str(cfg_path))).c_u
    direct = piecewise2d([Piece2D(0.0, 0.5, 0.5, 1.0, lambda x, y: 1 + x),
                          Piece2D(0.0, 1.0, 0.0, 0.5, lambda x, y: 2 + y),
                          Piece2D(0.5, 1.0, 0.5, 1.0, lambda x, y: 3 + x * y)], 1.0, 1.0)
    grid = build_grid(Domain(1.0, 1.0), 9, 9)
    assert np.array_equal(from_config.sample(grid), direct.sample(grid))
    assert from_config.eval(0.25, 0.5) == 2.5
