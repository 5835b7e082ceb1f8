import dataclasses
import math

import numpy as np
import pytest

from mangeron import (DERIVATIVES, BoundaryTrace, ClassicalData, Coefficients,
                      CornerMismatchError, Domain, Field1D, Field2D, NonclassicalData,
                      SolutionBundle, build_grid,
                      check_data_constraints, check_matching, classical_to_nonclassical,
                      const1d, nonclassical_to_classical, sample_data, solution_data,
                      solve_problem, trace_axis)
from mangeron.cli import CSV_COLUMNS
from mangeron.problem import CORNER_TOL_ANALYTIC, CORNER_TOL_SAMPLED
from mangeron.reduction import far_edge
from mangeron.mms import make_mms
from helpers import combine, random_forward_problem, random_solution


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
    data = classical_to_nonclassical(plane_classical(), grid)
    for key, val in PLANE_EXPECTED.items():
        assert getattr(data, key) == pytest.approx(val, abs=1e-12)
    for key in NonclassicalData.TRACE_KEYS:
        trace = getattr(data, key)
        axis = (grid.ax, grid.ay)[trace_axis(key)]
        np.testing.assert_allclose(trace.sample(axis), 0.0, atol=1e-12)


def test_plane_conversion_differenced():
    # same traces without derivative evaluators: values are differenced on the grid
    dom = Domain(1.0, 1.0)
    grid = build_grid(dom, 9, 9)
    lin = lambda c: Field1D(lambda t, _c=c: _c + np.asarray(t, dtype=float))
    cd = ClassicalData(left=BoundaryTrace(lin(0.0)), right=BoundaryTrace(lin(1.0)),
                       bottom=BoundaryTrace(lin(0.0)), top=BoundaryTrace(lin(1.0)))
    data = classical_to_nonclassical(cd, grid)
    for key, val in PLANE_EXPECTED.items():
        assert getattr(data, key) == pytest.approx(val, abs=1e-10)
    np.testing.assert_allclose(data.uxx_top.sample(grid.ax), 0.0, atol=1e-9)


def test_corner_mismatch_detected():
    dom = Domain(1.0, 1.0)
    grid = build_grid(dom, 9, 9)
    cd = plane_classical()
    bad = ClassicalData(left=BoundaryTrace(const1d(1.0), const1d(0.0), const1d(0.0)),
                        right=cd.right, bottom=cd.bottom, top=cd.top)
    with pytest.raises(CornerMismatchError):
        classical_to_nonclassical(bad, grid)
    # top = 1 + 3x disagrees with the other edges only at (h1, h2)
    top = BoundaryTrace(Field1D(lambda t: 1.0 + 3.0 * np.asarray(t, dtype=float)),
                        const1d(3.0), const1d(0.0))
    bad = ClassicalData(left=cd.left, right=cd.right, bottom=cd.bottom, top=top)
    with pytest.raises(CornerMismatchError, match=r"corner\(h1,h2\)"):
        classical_to_nonclassical(bad, grid)


def test_equation_tables_name_the_grids_and_coefficients():
    names = lambda cls: tuple(f.name for f in dataclasses.fields(cls))
    assert tuple(DERIVATIVES) == names(SolutionBundle)
    assert ",".join(CSV_COLUMNS) == "x,y,u,ux,uy,uxx,uyy,uxy,uxxy,uxyy,uxxyy"
    assert CSV_COLUMNS[2:] == tuple(DERIVATIVES)
    for name, (i, j) in DERIVATIVES.items():
        assert name == "u" + "x" * i + "y" * j
    assert tuple(Coefficients.MULTIPLIES) == Coefficients.KEYS == names(Coefficients)
    # every term but the leading u_xxyy has one coefficient, named by its grid
    assert set(Coefficients.MULTIPLIES.values()) == set(DERIVATIVES) - {"uxxyy"}
    for key, name in Coefficients.MULTIPLIES.items():
        assert key == "c_" + (name[1:] or "u")


def test_boundary_table_places_every_component():
    places = NonclassicalData.PLACES
    assert tuple(places) == tuple(f.name for f in dataclasses.fields(NonclassicalData))
    assert NonclassicalData.SCALAR_KEYS == ("u00", "ux00", "uy00", "u10", "uy10", "u01", "ux01")
    assert NonclassicalData.TRACE_KEYS == ("uxx_bottom", "uyy_left", "uyy_right", "uxx_top")
    edges = {(None, 0): "bottom", (None, 1): "top", (0, None): "left", (1, None): "right"}
    for key, (name, px, py) in places.items():
        assert name in DERIVATIVES
        if key in NonclassicalData.TRACE_KEYS:
            # named by its grid and its edge; a bottom or top trace runs along x
            assert key == f"{name}_{edges[px, py]}"
            assert trace_axis(key) == (0 if edges[px, py] in ("bottom", "top") else 1)
        else:
            # named by its grid and its corner in units of the side lengths
            assert key == f"{name}{px}{py}"
    # the residual report has one entry per component, in the table's order
    case = make_mms(random_solution(np.random.default_rng(3)), Coefficients(),
                    Domain(1.0, 0.5))
    grid = build_grid(case.problem.domain, 9, 7)
    report = solve_problem(case.problem, grid, residual_gate=False).report
    assert tuple(report.residual_bc) == tuple(places)


def test_solution_data_reads_each_place():
    # a solution whose every derivative names the point it is read at
    dom = Domain(2.0, 0.5)
    data = solution_data(lambda i, j, x, y: 100.0 * i + 10.0 * j + np.asarray(x)
                         + 1000.0 * np.asarray(y), dom)
    t = np.array([0.0, 0.25, 0.5])
    assert (data.u00, data.ux00, data.uy00) == (0.0, 100.0, 10.0)
    assert (data.u10, data.uy10, data.u01, data.ux01) == (2.0, 12.0, 500.0, 600.0)
    np.testing.assert_array_equal(data.uxx_bottom.eval(t), 200.0 + t)
    np.testing.assert_array_equal(data.uxx_top.eval(t), 700.0 + t)
    np.testing.assert_array_equal(data.uyy_left.eval(t), 20.0 + 1000.0 * t)
    np.testing.assert_array_equal(data.uyy_right.eval(t), 22.0 + 1000.0 * t)


def test_nan_corner_fails_matching_wherever_it_is_listed():
    # the top edge is NaN at x = 0: the third corner check, corner(0,h2)
    dom = Domain(1.0, 1.0)
    cd = plane_classical()
    top = BoundaryTrace(Field1D(lambda t: np.where(t == 0.0, np.nan, 1.0 + t)),
                        cd.top.d1, cd.top.d2)
    bad = ClassicalData(left=cd.left, right=cd.right, bottom=cd.bottom, top=top)
    report = check_matching(bad, dom)
    assert [name for name, _ in report.residuals].index("corner(0,h2)") > 0
    assert math.isnan(report.max_residual)
    assert report.passed is False
    with pytest.raises(CornerMismatchError, match=r"corner\(0,h2\)"):
        classical_to_nonclassical(bad, build_grid(dom, 9, 9))


def test_nonclassical_to_classical_simple_cases():
    dom = Domain(1.0, 1.0)
    grid = build_grid(dom, 21, 21)
    cd = nonclassical_to_classical(NonclassicalData(uy00=1.0), grid)
    np.testing.assert_allclose(cd.left.value.sample(grid.ay), grid.y, atol=1e-13)

    cd0 = nonclassical_to_classical(NonclassicalData(), grid)
    for trace, axis in ((cd0.left, grid.ay), (cd0.right, grid.ay),
                        (cd0.bottom, grid.ax), (cd0.top, grid.ax)):
        np.testing.assert_allclose(trace.value.sample(axis), 0.0, atol=1e-15)


def test_nonclassical_to_classical_quadratic_top_edge():
    # constant second-derivative trace integrates to an exact quadratic
    dom = Domain(1.0, 1.0)
    grid = build_grid(dom, 21, 21)
    z = NonclassicalData(u01=1.0, ux01=2.0, uxx_top=const1d(2.0))
    cd = nonclassical_to_classical(z, grid)
    expect = 1.0 + 2.0 * grid.x + grid.x**2
    np.testing.assert_allclose(cd.top.value.sample(grid.ax), expect, atol=1e-12)


def test_matching_exact_for_plane_traces():
    dom = Domain(1.0, 1.0)
    rep = check_matching(plane_classical(), dom)
    assert rep.passed and rep.max_residual == 0.0


def test_matching_default_tolerance_is_the_analytic_one():
    # edges built by quadrature get no looser default; callers pass CORNER_TOL_SAMPLED
    dom = Domain(1.0, 1.0)
    cd = nonclassical_to_classical(NonclassicalData(uy00=1.0), build_grid(dom, 9, 9))
    assert check_matching(cd, dom).tolerance == CORNER_TOL_ANALYTIC
    assert check_matching(cd, dom, CORNER_TOL_SAMPLED).tolerance == CORNER_TOL_SAMPLED


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
        cd = nonclassical_to_classical(data, grid)
        rep = check_matching(cd, dom, tol=math.inf)
        sd = sample_data(data, grid)
        h1, h2 = dom.h1, dom.h2
        bound = {
            "corner(0,0)": 0.0,
            "corner(h1,h2)": (grid.ay.error_bound((h2 - grid.y) * sd.uyy_right)
                              + grid.ax.error_bound((h1 - grid.x) * sd.uxx_top)),
            "corner(0,h2)": grid.ay.error_bound((h2 - grid.y) * sd.uyy_left),
            "corner(h1,0)": grid.ax.error_bound((h1 - grid.x) * sd.uxx_bottom),
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
        prob, _ = random_forward_problem(rng, grid, Coefficients())
        assert check_data_constraints(sample_data(prob.data, grid), grid).passed


def _data_sup_distance(a, b, grid):
    out = 0.0
    for key in NonclassicalData.SCALAR_KEYS:
        out = max(out, abs(getattr(a, key) - getattr(b, key)))
    for key in NonclassicalData.TRACE_KEYS:
        axis = (grid.ax, grid.ay)[trace_axis(key)]
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
            nonclassical_to_classical(data, grid), grid,
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
            classical_to_nonclassical(cd, grid), grid)
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
    combo = combine((a, c1), (b, c2))
    cd_combo = nonclassical_to_classical(combo, grid)
    cd1 = nonclassical_to_classical(c1, grid)
    cd2 = nonclassical_to_classical(c2, grid)
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
    # with no core, far_edge leaves the data parts: each edge's difference
    # across the domain over the side length, and the corner by both routes
    # (the moment average of a constant c over [0, h1] is c h1 / 2)
    corner, edge_x, edge_y, corner_alt = far_edge(sample_data(z, grid), grid)
    assert corner == pytest.approx((3.0 - 1.0) / 2.0 - 2.0 / 2 * (2.0 - 1.0) / 0.5, abs=1e-14)
    assert corner_alt == pytest.approx((1.5 - 0.5) / 0.5, abs=1e-14)
    np.testing.assert_allclose(edge_x, (2.0 - 1.0) / 0.5, rtol=1e-15)
    np.testing.assert_allclose(edge_y, 0.0, atol=0.0)


@pytest.mark.parametrize("method", ["auto", "neumann"])
def test_non_finite_coefficient_or_forcing_sample_is_refused(method):
    # one inf node once gave a singular dense system or an all-NaN Neumann
    # solution; the sample is refused by field and node before either runs
    grid = build_grid(Domain(1.0, 1.0), 17, 17)
    problem = make_mms(random_solution(np.random.default_rng(3)), Coefficients(),
                       grid.domain).problem

    def spike(x, y):
        values = np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y)))
        values[3, 5] = np.inf
        return values

    for field, changes in (("c_u", {"coeffs": Coefficients(c_u=Field2D(spike))}),
                           ("forcing", {"forcing": Field2D(spike)})):
        with pytest.raises(ValueError, match=rf"^{field} is inf at node \(3, 5\), "
                                             r"\(x, y\) = \(0\.1875, 0\.3125\): not finite$"):
            solve_problem(dataclasses.replace(problem, **changes), grid, method=method,
                          residual_gate=False)
