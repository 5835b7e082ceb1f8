import numpy as np
import pytest

from mangeron import (Coefficients, Domain, build_grid, check_data_constraints,
                      const2d, residual_report, sample_data, sample_problem, solve_problem)
from mangeron.mms import (SeparableSolution, biquadratic_solution, convergence_study,
                          make_mms, named_cases, sep_poly, trig_solution)
from fd_oracle import fd_oracle
from helpers import exact_bundle, random_coefficients, random_forward_problem, random_solution

DOM = Domain(1.0, 1.0)


def fd_trace(fn, t, h=1e-5):
    return (fn(t + h) - 2.0 * fn(t) + fn(t - h)) / (h * h)


def test_make_mms_zero_solution():
    zero = SeparableSolution(((sep_poly(0.0), sep_poly(0.0)),))
    case = make_mms(zero, Coefficients(), DOM)
    grid = build_grid(DOM, 5, 5)
    np.testing.assert_allclose(case.problem.forcing.sample(grid), 0.0, atol=1e-15)
    assert case.problem.data.u00 == 0.0
    np.testing.assert_allclose(case.problem.data.uxx_top.sample(grid.ax), 0.0,
                               atol=1e-15)


def test_make_mms_biquadratic_components():
    case = make_mms(biquadratic_solution(), Coefficients(c_u=const2d(1.0)), DOM)
    grid = build_grid(DOM, 9, 9)
    xx, yy = grid.meshgrid()
    np.testing.assert_allclose(case.problem.forcing.sample(grid),
                               4.0 + xx**2 * yy**2, atol=1e-13)
    data = case.problem.data
    np.testing.assert_allclose(data.uxx_bottom.sample(grid.ax), 0.0, atol=1e-15)
    np.testing.assert_allclose(data.uyy_right.sample(grid.ay), 2.0, atol=1e-13)
    np.testing.assert_allclose(data.uxx_top.sample(grid.ax), 2.0, atol=1e-13)
    assert data.u00 == data.ux00 == data.uy00 == 0.0


def test_make_mms_trace_components_match_finite_differences():
    # second-derivative edge traces cross-checked by differencing the solution
    rng = np.random.default_rng(31)
    u = random_solution(rng)
    case = make_mms(u, Coefficients(), DOM)
    for t in (0.25, 0.5, 0.8):
        got = float(case.problem.data.uxx_bottom.eval(t))
        want = fd_trace(lambda s: u.eval_deriv(0, 0, s, 0.0), t)
        assert got == pytest.approx(want, rel=1e-5, abs=1e-5)
        got = float(case.problem.data.uyy_right.eval(t))
        want = fd_trace(lambda s: u.eval_deriv(0, 0, 1.0, s), t)
        assert got == pytest.approx(want, rel=1e-5, abs=1e-5)


def test_make_mms_trig_forcing():
    case = make_mms(trig_solution(), Coefficients(), DOM)
    grid = build_grid(DOM, 9, 9)
    xx, yy = grid.meshgrid()
    np.testing.assert_allclose(case.problem.forcing.sample(grid),
                               np.sin(xx) * np.sin(yy), atol=1e-14)


def test_mms_data_satisfies_constraints_by_construction():
    rng = np.random.default_rng(32)
    grid = build_grid(DOM, 17, 17)
    for _ in range(5):
        case = make_mms(random_solution(rng), random_coefficients(rng), DOM)
        assert check_data_constraints(sample_data(case.problem.data, grid), grid).passed


def test_exact_bundle_matches_solution_derivatives():
    grid = build_grid(DOM, 7, 7)
    bundle = exact_bundle(biquadratic_solution(), grid)
    xx, yy = grid.meshgrid()
    np.testing.assert_allclose(bundle.uxy.values, 4.0 * xx * yy, atol=1e-13)
    np.testing.assert_allclose(bundle.uxxyy.values, 4.0, atol=1e-13)


# ------------------------------------------------------------- fd oracle

def test_fd_oracle_exact_for_bilinear():
    case = named_cases(DOM)["bilinear"]
    grid = build_grid(DOM, 9, 9)
    u = fd_oracle(case.problem, grid)
    xx, yy = grid.meshgrid()
    assert np.max(np.abs(u - xx * yy)) <= 1e-10


def test_fd_oracle_second_order_on_trig():
    case = named_cases(DOM)["trig"]
    errors = []
    for n in (9, 17, 33):
        grid = build_grid(DOM, n, n)
        xx, yy = grid.meshgrid()
        errors.append(np.max(np.abs(fd_oracle(case.problem, grid)
                                    - case.u_star.eval_deriv(0, 0, xx, yy))))
    orders = [np.log2(errors[k] / errors[k + 1]) for k in range(2)]
    assert all(o >= 1.9 for o in orders)


def test_fd_oracle_handles_nonzero_coefficients():
    rng = np.random.default_rng(33)
    case = make_mms(random_solution(rng), random_coefficients(rng), DOM)
    grid = build_grid(DOM, 17, 17)
    u = fd_oracle(case.problem, grid)
    xx, yy = grid.meshgrid()
    assert np.max(np.abs(u - case.u_star.eval_deriv(0, 0, xx, yy))) <= 5e-2


def test_cross_oracle_agreement_within_combined_error():
    rng = np.random.default_rng(34)
    grid = build_grid(DOM, 17, 17)
    xx, yy = grid.meshgrid()
    for case in (named_cases(DOM)["trig"],
                 make_mms(random_solution(rng), Coefficients(), DOM)):
        truth = case.u_star.eval_deriv(0, 0, xx, yy)
        ie = solve_problem(case.problem, grid).bundle.u.values
        fd = fd_oracle(case.problem, grid)
        err_ie = np.max(np.abs(ie - truth))
        err_fd = np.max(np.abs(fd - truth))
        assert np.max(np.abs(ie - fd)) <= err_ie + err_fd + 1e-12


# ------------------------------------------------------ convergence study

def test_study_requires_three_sizes():
    with pytest.raises(ValueError):
        convergence_study(named_cases(DOM)["trig"], (9, 17))


def test_study_exact_case_marked():
    table = convergence_study(named_cases(DOM)["bilinear"], (9, 17, 33))
    assert table.all_exact
    assert all(r.sup_error <= 1e-12 for r in table.rows)
    assert all(r.order is None for r in table.rows)


def test_study_trig_orders_in_window():
    table = convergence_study(named_cases(DOM)["trig"], (9, 17, 33))
    assert table.monotone
    assert all(1.8 <= o <= 2.2 for o in table.observed_orders)


def test_study_piecewise_coefficient_orders_recorded():
    table = convergence_study(named_cases(DOM)["piecewise"], (9, 17, 33))
    assert table.observed_orders
    assert all(o >= 1.5 for o in table.observed_orders)


def test_forward_problem_recovered_exactly():
    rng = np.random.default_rng(35)
    grid = build_grid(DOM, 9, 9)
    coeffs = random_coefficients(rng)
    prob, bundle = random_forward_problem(rng, grid, coeffs)
    result = solve_problem(prob, grid, method="dense")
    scale = max(1.0, float(np.max(np.abs(bundle.uxxyy.values))))
    assert np.max(np.abs(result.bundle.uxxyy.values
                         - bundle.uxxyy.values)) / scale <= 1e-11
    assert np.max(np.abs(result.bundle.u.values - bundle.u.values)) <= 1e-11
    assert result.report.uxy00_route_gap <= 1e-12


@pytest.mark.parametrize("grid", [
    build_grid(DOM, 9, 9),
    build_grid(Domain(2.0, 0.5), 11, 7, x_breakpoints=[0.3, 1.37], y_breakpoints=[0.11]),
], ids=["uniform", "breakpoints"])
def test_forward_data_is_read_off_its_bundle(grid):
    # the data is the bundle's own values at their places, so the oracle and
    # the residual gate agree exactly, not to roundoff
    rng = np.random.default_rng(12)
    for _ in range(5):
        prob, bundle = random_forward_problem(rng, grid, random_coefficients(rng))
        sp = sample_problem(prob, grid)
        assert prob.domain == grid.domain
        assert residual_report(sp, bundle).max_bc == 0.0
        assert check_data_constraints(sp.data, grid).max_residual == 0.0
