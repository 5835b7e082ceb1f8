import numpy as np
import pytest

from mangeron import Domain, Field2D, build_grid, const1d, const2d, piecewise2d, samples1d
from mangeron.fields import evaluate_pieces, validate_tiling
from mangeron.config import ConfigError, build_coefficients, load_config


def test_constant_fields_broadcast():
    f = const2d(3.5)
    out = f.eval(np.zeros((4, 1)), np.zeros((1, 5)))
    assert out.shape == (4, 5)
    assert np.all(out == 3.5)
    g = const1d(-1.0)
    assert g.eval(np.linspace(0, 1, 7)).shape == (7,)


def test_samples1d_linear_interpolation():
    nodes = np.linspace(0.0, 1.0, 5)
    f = samples1d(nodes, 2.0 * nodes)
    np.testing.assert_allclose(f.eval(nodes), 2.0 * nodes, rtol=1e-15)
    assert f.eval(np.array(0.125)) == pytest.approx(0.25)


def test_piecewise2d_tiles_and_lex_priority():
    pieces = [
        ((0.5, 1.0, 0.0, 1.0), lambda x, y: 2.0 * np.ones(np.shape(x))),
        ((0.0, 0.5, 0.0, 1.0), lambda x, y: np.ones(np.shape(x))),
    ]
    f = piecewise2d(pieces, 1.0, 1.0)
    assert f.eval(np.array(0.25), np.array(0.5)) == 1.0
    assert f.eval(np.array(0.75), np.array(0.5)) == 2.0
    # on the shared edge the lexicographically first piece wins
    assert f.eval(np.array(0.5), np.array(0.5)) == 1.0


def test_piecewise2d_rejects_gaps_and_overlaps():
    with pytest.raises(ValueError):
        piecewise2d([((0.0, 0.4, 0.0, 1.0), lambda x, y: x)], 1.0, 1.0)
    with pytest.raises(ValueError):
        piecewise2d([((0.0, 0.7, 0.0, 1.0), lambda x, y: x),
                     ((0.3, 1.0, 0.0, 1.0), lambda x, y: x)], 1.0, 1.0)
    with pytest.raises(ValueError):
        piecewise2d([((0.0, 1.2, 0.0, 1.0), lambda x, y: x)], 1.0, 1.0)
    with pytest.raises(ValueError, match="degenerate"):
        piecewise2d([((0.0, 1.0, 0.0, 1.0), lambda x, y: x),
                     ((0.5, 0.5, 0.0, 1.0), lambda x, y: x)], 1.0, 1.0)


def test_segments_tile_and_evaluate():
    pieces = [((0.0, 0.5), lambda t: np.ones(np.shape(t))),
              ((0.5, 1.0), lambda t: 3.0 * np.ones(np.shape(t)))]
    validate_tiling([b for b, _ in pieces], (1.0,))
    np.testing.assert_allclose(evaluate_pieces(pieces, (np.array([0.2, 0.5, 0.8]),)),
                               [1.0, 1.0, 3.0])
    with pytest.raises(ValueError, match="gap"):
        validate_tiling([(0.0, 0.5)], (1.0,))
    # lengths add up to 1, but the segments overlap and leave (0.6, 1] uncovered
    with pytest.raises(ValueError, match="overlap"):
        validate_tiling([(0.0, 0.6), (0.2, 0.6)], (1.0,))


def test_piece_tolerances_scale_with_the_domain():
    h = 1e-13
    for bounds in ((0.0, 0.8 * h, 0.2 * h, h), (0.0, 0.3 * h, 0.6 * h, h)):
        with pytest.raises(ValueError, match="overlap|gap"):
            validate_tiling([bounds[:2], bounds[2:]], (h,))
    pieces = [((0.0, 0.5 * h), lambda t: 1.0), ((0.5 * h, h), lambda t: 2.0)]
    validate_tiling([b for b, _ in pieces], (h,))
    points = np.array([0.4 * h, 0.5 * h, 0.6 * h])
    assert evaluate_pieces(pieces, (points,)).tolist() == [1.0, 1.0, 2.0]
    # a gap on a square of side 1e-200, whose area underflows to 0
    tiny = 1e-200
    with pytest.raises(ValueError, match="gap"):
        piecewise2d([((0.0, 0.3 * tiny, 0.0, tiny), lambda x, y: x),
                     ((0.6 * tiny, tiny, 0.0, tiny), lambda x, y: x)], tiny, tiny)


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


def test_config_pieces_tile_the_extent_of_their_variable(tmp_path):
    # on [0, 1] x [0, 2] the pieces of a trace in y tile [0, 2], of one in x [0, 1]
    cfg_path = tmp_path / "traces.cfg"
    cfg_path.write_text(CONFIG_FIELDS + "uyy_left = piecewise((0, 1): 1; (1, 2): 2)\n")
    load_config(str(cfg_path))
    cfg_path.write_text(CONFIG_FIELDS + "uxx_bottom = piecewise((0, 1): 1; (1, 2): 2)\n")
    with pytest.raises(ConfigError, match=r"^\[data\.nonclassical\] uxx_bottom = "
                                          r"'piecewise\(\(0, 1\): 1; \(1, 2\): 2\)': piece "
                                          r"\(1\.0, 2\.0\) extends outside the domain$"):
        load_config(str(cfg_path))


def test_field2d_sample_bit_identical_to_meshgrid_eval(tmp_path):
    cfg_path = tmp_path / "fields.cfg"
    cfg_path.write_text(CONFIG_FIELDS)
    coeffs = build_coefficients(load_config(str(cfg_path)))
    grid = build_grid(Domain(1.0, 2.0), 9, 13, x_breakpoints=[0.3])
    xx, yy = grid.meshgrid()
    fields = {
        "analytic": Field2D(lambda x, y: np.sin(3.0 * x) * np.exp(-y) + x * y),
        "constant": const2d(-1.5),
        "config c_u (piecewise)": coeffs.c_u,
        "config c_xy": coeffs.c_xy,
        "config c_x": coeffs.c_x,
        "piecewise2d": piecewise2d(
            [((0.0, 0.3, 0.0, 2.0), lambda x, y: np.cos(x + y)),
             ((0.3, 1.0, 0.0, 1.0), lambda x, y: x - y),
             ((0.3, 1.0, 1.0, 2.0), lambda x, y: np.ones(np.shape(x)))], 1.0, 2.0),
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
    direct = piecewise2d([((0.0, 0.5, 0.5, 1.0), lambda x, y: 1 + x),
                          ((0.0, 1.0, 0.0, 0.5), lambda x, y: 2 + y),
                          ((0.5, 1.0, 0.5, 1.0), lambda x, y: 3 + x * y)], 1.0, 1.0)
    grid = build_grid(Domain(1.0, 1.0), 9, 9)
    assert np.array_equal(from_config.sample(grid), direct.sample(grid))
    assert from_config.eval(0.25, 0.5) == 2.5
