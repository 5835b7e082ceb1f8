import math

import numpy as np
import pytest

from mangeron import (BoundaryTrace, ClassicalData, Coefficients, CornerMismatchError,
                      Domain, Field1D, NonclassicalData, build_grid,
                      check_data_constraints, check_matching, classical_to_nonclassical,
                      const1d, nonclassical_to_classical, random_forward_problem,
                      sample_data, trapezoid_error_bound)
from mangeron.mms import make_mms, random_solution


def plane_classical():
    """Edge traces of u = x + y on the unit square, with analytic derivatives."""
    lin = lambda c: Field1D(lambda t, _c=c: _c + np.asarray(t, dtype=float))
    one = const1d(1.0)
    zero = const1d(0.0)
    return ClassicalData(
        left=BoundaryTrace(lin(0.0), one, zero),     # u(0, y) = y
        right=BoundaryTrace(lin(1.0), one, zero),    # u(1, y) = 1 + y
        bottom=BoundaryTrace(lin(0.0), one, zero),   # u(x, 0) = x
        top=BoundaryTrace(lin(1.0), one, zero))      # u(x, 1) = 1 + x


PLANE_EXPECTED = dict(u00=0.0, ux00=1.0, uy00=1.0, u10=1.0, uy10=1.0, u01=1.0, ux01=1.0)


def test_plane_conversion_analytic():
    dom = Domain(1.0, 1.0)
    grid = build_grid(dom, 9, 9)
    data = classical_to_nonclassical(plane_classical(), dom, grid)
    for key, val in PLANE_EXPECTED.items():
        assert getattr(data, key) == pytest.approx(val, abs=1e-12)
    for key in NonclassicalData.TRACE_KEYS:
        trace = getattr(data, key)
        axis = grid.ax if key.startswith("uxx") else grid.ay
        np.testing.assert_allclose(trace.sample(axis), 0.0, atol=1e-12)


def test_plane_conversion_differenced():
    # same traces without derivative evaluators: values are differenced on the grid
    dom = Domain(1.0, 1.0)
    grid = build_grid(dom, 9, 9)
    lin = lambda c: Field1D(lambda t, _c=c: _c + np.asarray(t, dtype=float))
    cd = ClassicalData(left=BoundaryTrace(lin(0.0)), right=BoundaryTrace(lin(1.0)),
                       bottom=BoundaryTrace(lin(0.0)), top=BoundaryTrace(lin(1.0)))
    data = classical_to_nonclassical(cd, dom, grid)
    for key, val in PLANE_EXPECTED.items():
        assert getattr(data, key) == pytest.approx(val, abs=1e-10)
    np.testing.assert_allclose(data.uxx_top.sample(grid.ax), 0.0, atol=1e-9)


def test_conversion_requires_grid_when_underivable():
    dom = Domain(1.0, 1.0)
    cd = plane_classical()
    bare = ClassicalData(left=BoundaryTrace(cd.left.value), right=cd.right,
                         bottom=cd.bottom, top=cd.top)
    with pytest.raises(ValueError):
        classical_to_nonclassical(bare, dom)


def test_corner_mismatch_detected():
    dom = Domain(1.0, 1.0)
    grid = build_grid(dom, 9, 9)
    cd = plane_classical()
    bad = ClassicalData(left=BoundaryTrace(const1d(1.0), const1d(0.0), const1d(0.0)),
                        right=cd.right, bottom=cd.bottom, top=cd.top)
    with pytest.raises(CornerMismatchError):
        classical_to_nonclassical(bad, dom, grid)


def test_nonclassical_to_classical_simple_cases():
    dom = Domain(1.0, 1.0)
    grid = build_grid(dom, 21, 21)
    cd = nonclassical_to_classical(NonclassicalData(uy00=1.0), dom, grid)
    np.testing.assert_allclose(cd.left.value.sample(grid.ay), grid.y, atol=1e-13)

    cd0 = nonclassical_to_classical(NonclassicalData(), dom, grid)
    for trace, axis in ((cd0.left, grid.ay), (cd0.right, grid.ay),
                        (cd0.bottom, grid.ax), (cd0.top, grid.ax)):
        np.testing.assert_allclose(trace.value.sample(axis), 0.0, atol=1e-15)


def test_nonclassical_to_classical_quadratic_top_edge():
    # constant second-derivative trace integrates to an exact quadratic
    dom = Domain(1.0, 1.0)
    grid = build_grid(dom, 21, 21)
    z = NonclassicalData(u01=1.0, ux01=2.0, uxx_top=const1d(2.0))
    cd = nonclassical_to_classical(z, dom, grid)
    expect = 1.0 + 2.0 * grid.x + grid.x**2
    np.testing.assert_allclose(cd.top.value.sample(grid.ax), expect, atol=1e-12)


def test_matching_exact_for_plane_traces():
    dom = Domain(1.0, 1.0)
    rep = check_matching(plane_classical(), dom)
    assert rep.passed and rep.max_residual == 0.0


def test_matching_detects_injected_mismatch():
    dom = Domain(1.0, 1.0)
    cd = plane_classical()
    bad = ClassicalData(left=cd.left, right=BoundaryTrace(const1d(5.0)),
                        bottom=cd.bottom, top=cd.top)
    rep = check_matching(bad, dom)
    assert not rep.passed
    assert rep.as_dict()["corner(h1,0)"] == pytest.approx(5.0 - 1.0)


def test_matching_auto_satisfied_for_admissible_data():
    # reconstructed edge functions must match at corners within quadrature error
    rng = np.random.default_rng(5)
    dom = Domain(1.0, 1.0)
    grid = build_grid(dom, 17, 17)
    for _ in range(10):
        case = make_mms(random_solution(rng), Coefficients(), dom)
        data = case.problem.data
        cd = nonclassical_to_classical(data, dom, grid)
        rep = check_matching(cd, dom, tol=math.inf)
        sd = sample_data(data, grid)
        h1, h2 = dom.h1, dom.h2
        bound = {
            "corner(0,0)": 0.0,
            "corner(h1,h2)": (trapezoid_error_bound(grid.y, (h2 - grid.y) * sd.uyy_right)
                              + trapezoid_error_bound(grid.x, (h1 - grid.x) * sd.uxx_top)),
            "corner(0,h2)": trapezoid_error_bound(grid.y, (h2 - grid.y) * sd.uyy_left),
            "corner(h1,0)": trapezoid_error_bound(grid.x, (h1 - grid.x) * sd.uxx_bottom),
        }
        for name, res in rep.residuals:
            assert res <= 10.0 * bound[name] + 1e-9


def test_data_constraints_plane_and_violations():
    dom = Domain(1.0, 1.0)
    grid = build_grid(dom, 9, 9)
    plane = NonclassicalData(ux00=1.0, uy00=1.0, u10=1.0, uy10=1.0,
                             u01=1.0, ux01=1.0)
    rep = check_data_constraints(sample_data(plane, grid), grid)
    assert rep.passed and rep.max_residual <= 1e-14

    assert check_data_constraints(sample_data(NonclassicalData(), grid), grid).passed

    bad = NonclassicalData(u10=1.0)
    rep = check_data_constraints(sample_data(bad, grid), grid)
    assert not rep.passed
    assert rep.as_dict()["bottom-edge route to u(h1,0)"] == pytest.approx(1.0)


def test_constraints_pass_for_forward_constructed_data():
    rng = np.random.default_rng(6)
    dom = Domain(1.0, 1.0)
    grid = build_grid(dom, 9, 9)
    for _ in range(5):
        prob, _, _ = random_forward_problem(rng, dom, grid, Coefficients())
        assert check_data_constraints(sample_data(prob.data, grid), grid).passed


def _data_sup_distance(a, b, grid):
    out = 0.0
    for key in NonclassicalData.SCALAR_KEYS:
        out = max(out, abs(getattr(a, key) - getattr(b, key)))
    for key in NonclassicalData.TRACE_KEYS:
        axis = grid.ax if key.startswith("uxx") else grid.ay
        out = max(out, float(np.max(np.abs(getattr(a, key).sample(axis)
                                           - getattr(b, key).sample(axis)))))
    return out


def test_round_trip_nonclassical_second_order():
    # nonclassical -> classical -> nonclassical converges at second order;
    # the corner gate is widened to the quadrature allowance because the
    # reconstructed edges inherit the data's O(h^2) constraint residual
    rng = np.random.default_rng(7)
    dom = Domain(1.0, 1.0)
    case = make_mms(random_solution(rng), Coefficients(), dom)
    data = case.problem.data
    errors = []
    for n in (9, 17, 33):
        grid = build_grid(dom, n, n)
        ctol = 100.0 * max(np.max(np.diff(grid.x)), np.max(np.diff(grid.y))) ** 2
        back = classical_to_nonclassical(
            nonclassical_to_classical(data, dom, grid), dom, grid,
            corner_tol=ctol)
        errors.append(_data_sup_distance(data, back, grid))
    orders = [np.log2(errors[k] / errors[k + 1]) for k in range(2)]
    assert min(orders) >= 1.9


def test_round_trip_classical_second_order():
    # classical -> nonclassical -> classical converges at second order
    rng = np.random.default_rng(8)
    dom = Domain(1.0, 1.0)
    u = random_solution(rng)
    d = u.eval_deriv
    cd = ClassicalData(
        left=BoundaryTrace(Field1D(lambda t: d(0, 0, 0.0, t)),
                           Field1D(lambda t: d(0, 1, 0.0, t)),
                           Field1D(lambda t: d(0, 2, 0.0, t))),
        right=BoundaryTrace(Field1D(lambda t: d(0, 0, 1.0, t)),
                            Field1D(lambda t: d(0, 1, 1.0, t)),
                            Field1D(lambda t: d(0, 2, 1.0, t))),
        bottom=BoundaryTrace(Field1D(lambda t: d(0, 0, t, 0.0)),
                             Field1D(lambda t: d(1, 0, t, 0.0)),
                             Field1D(lambda t: d(2, 0, t, 0.0))),
        top=BoundaryTrace(Field1D(lambda t: d(0, 0, t, 1.0)),
                          Field1D(lambda t: d(1, 0, t, 1.0)),
                          Field1D(lambda t: d(2, 0, t, 1.0))))
    errors = []
    for n in (9, 17, 33):
        grid = build_grid(dom, n, n)
        back = nonclassical_to_classical(
            classical_to_nonclassical(cd, dom, grid), dom, grid)
        err = 0.0
        for name, axis in (("left", grid.ay), ("right", grid.ay),
                           ("bottom", grid.ax), ("top", grid.ax)):
            got = getattr(back, name).value.sample(axis)
            want = getattr(cd, name).value.sample(axis)
            err = max(err, float(np.max(np.abs(got - want))))
        errors.append(err)
    orders = [np.log2(errors[k] / errors[k + 1]) for k in range(2)]
    assert min(orders) >= 1.9


def test_conversion_is_linear_in_the_data():
    dom = Domain(1.0, 1.0)
    grid = build_grid(dom, 9, 9)
    rng = np.random.default_rng(9)
    c1 = make_mms(random_solution(rng), Coefficients(), dom).problem.data
    c2 = make_mms(random_solution(rng), Coefficients(), dom).problem.data
    a, b = 0.7, -1.3
    combo = c1.scaled(a).plus(c2.scaled(b))
    cd_combo = nonclassical_to_classical(combo, dom, grid)
    cd1 = nonclassical_to_classical(c1, dom, grid)
    cd2 = nonclassical_to_classical(c2, dom, grid)
    for name, axis in (("left", grid.ay), ("right", grid.ay),
                       ("bottom", grid.ax), ("top", grid.ax)):
        got = getattr(cd_combo, name).value.sample(axis)
        want = (a * getattr(cd1, name).value.sample(axis)
                + b * getattr(cd2, name).value.sample(axis))
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)


def test_sampled_data_derived_slopes():
    dom = Domain(2.0, 0.5)
    grid = build_grid(dom, 9, 9)
    z = NonclassicalData(uy00=1.0, uy10=3.0, ux00=0.5, ux01=1.5,
                         uxx_bottom=const1d(1.0), uxx_top=const1d(2.0))
    sd = sample_data(z, grid)
    assert sd.d_uy == pytest.approx((3.0 - 1.0) / 2.0)
    assert sd.d_ux == pytest.approx((1.5 - 0.5) / 0.5)
    np.testing.assert_allclose(sd.d_uxx, (2.0 - 1.0) / 0.5)
