"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines.
"""

import math
import time

import numpy as np
import pytest

from mangeron import (Coefficients, ConstraintError, CoupledSystem, Domain, Field2D,
                      GridFn2D, NonclassicalData, NormSpec, PdeProblem,
                      assemble_eliminated, build_grid, check_data_constraints,
                      check_matching, classical_to_nonclassical, const2d,
                      nonclassical_to_classical,
                      residual_report, sample_data, sample_problem, solve_dense,
                      solve_neumann, solve_problem, trace_axis)
from mangeron.mms import (SeparableSolution, bilinear_solution, convergence_study,
                          make_mms, named_cases, sep_sin, trig_solution)
from fd_oracle import fd_oracle
from helpers import (combine, estimate_stability_ratio, random_coefficients,
                     random_forward_problem, random_solution, sep_exp)

DOM = Domain(1.0, 1.0)


def const_coeffs(**kv):
    return Coefficients(**{k: const2d(v) for k, v in kv.items()})


def test_criterion_01_zero_coefficient_exactness():
    """Bilinear data with zero coefficients is reproduced to roundoff."""
    case = make_mms(bilinear_solution(), Coefficients(), DOM)
    worst = 0.0
    for grid in (build_grid(DOM, 21, 21),
                 build_grid(DOM, 13, 17),
                 build_grid(DOM, 9, 9, x_breakpoints=[0.37], y_breakpoints=[0.81])):
        result = solve_problem(case.problem, grid)
        xx, yy = grid.meshgrid()
        worst = max(worst, float(np.max(np.abs(result.bundle.u.values - xx * yy))))
    assert worst <= 1e-12

    grid = build_grid(DOM, 21, 21)
    start = time.perf_counter()
    solve_problem(case.problem, grid)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: bilinear node error {worst:.2e} <= 1e-12, "
          f"solve at n=21 took {elapsed:.3f} s")


def test_criterion_02_coupled_vs_eliminated_equivalence():
    """Coupled and eliminated solves agree on the core unknown."""
    rng = np.random.default_rng(101)
    grid = build_grid(DOM, 9, 9)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(10):
        coeffs = random_coefficients(rng, magnitude=0.5)
        prob, _ = random_forward_problem(rng, grid, coeffs)
        _, _, _, core_coupled = CoupledSystem(sample_problem(prob, grid)).solve()
        core_elim, _ = solve_dense(assemble_eliminated(sample_problem(prob, grid)))
        scale = float(np.max(np.abs(core_elim)))
        rel = float(np.max(np.abs(core_coupled - core_elim))) / scale
        worst = max(worst, rel)
        assert rel <= 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 2 PASS: worst relative core disagreement {worst:.2e} "
          f"over 10 random problems ({elapsed:.2f} s)")


def test_criterion_03_successive_approximations_vs_direct():
    """Neumann-convergent solves match dense LU; the large-coefficient regime
    is detected as divergent and rescued by the dense fallback."""
    rng = np.random.default_rng(102)
    grid = build_grid(DOM, 13, 13)
    convergent = [
        make_mms(trig_solution(), const_coeffs(c_xy=0.1), DOM).problem,
        make_mms(random_solution(rng), random_coefficients(rng, 0.2), DOM).problem,
        make_mms(random_solution(rng), random_coefficients(rng, 0.2), DOM).problem,
        named_cases(DOM)["biquadratic"].problem,
    ]
    worst = 0.0
    for prob in convergent:
        op = assemble_eliminated(sample_problem(prob, grid))
        core_n, info = solve_neumann(op, tol=1e-12)
        assert info.converged, "expected convergence for a small-coefficient case"
        core_d, _ = solve_dense(op)
        gap = float(np.max(np.abs(core_n - core_d)))
        worst = max(worst, gap)
        assert gap <= 1e-9

    big = make_mms(trig_solution(), const_coeffs(c_xy=50.0), DOM)
    op = assemble_eliminated(sample_problem(big.problem, grid))
    _, info = solve_neumann(op)
    assert info.diverged
    # independent confirmation: power iteration shows spectral radius > 1
    v = np.random.default_rng(0).standard_normal(grid.shape)
    lam = 0.0
    for _ in range(80):
        w = op.matvec(v)
        lam = float(np.max(np.abs(w))) / float(np.max(np.abs(v)))
        v = w / np.max(np.abs(w))
    assert lam > 1.0
    result = solve_problem(big.problem, grid, method="auto")
    assert result.report.method == "dense" and result.report.neumann_diverged
    xx, yy = grid.meshgrid()
    fallback_err = float(np.max(np.abs(result.bundle.u.values - np.sin(xx) * np.sin(yy))))
    assert fallback_err < 1e-2
    print(f"\nACCEPTANCE 3 PASS: worst converged gap {worst:.2e} <= 1e-9; "
          f"divergence detected (iteration growth {lam:.3f} > 1), "
          f"dense fallback error {fallback_err:.2e}")


def test_criterion_04_mms_convergence():
    """Grid refinement behavior of the named manufactured cases.

    The biquadratic case is exact at the nodes (its core unknown is
    constant, so every quadrature integrand is at most linear per axis):
    errors sit at roundoff for all grids and no order can be observed.  The
    trigonometric case and the bicubic case exhibit the genuine second-order
    window.
    """
    start = time.perf_counter()
    cases = named_cases(DOM)
    lines = []
    for name in ("biquadratic", "trig", "bicubic"):
        table = convergence_study(cases[name], (9, 17, 33))
        errors = [r.sup_error for r in table.rows]
        if table.all_exact:
            assert all(e <= 1e-11 for e in errors)
            lines.append(f"{name}: exact at nodes (errors {errors[0]:.1e}..{errors[-1]:.1e})")
        else:
            orders = table.observed_orders
            assert orders and all(1.8 <= o <= 2.2 for o in orders), (name, orders)
            assert errors[-1] < errors[0]
            lines.append(f"{name}: orders {', '.join(f'{o:.2f}' for o in orders)}")
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 4 PASS: {'; '.join(lines)} ({elapsed:.1f} s)")


def _matching_bounds(data, grid):
    sd = sample_data(data, grid)
    h1, h2 = grid.domain.h1, grid.domain.h2
    return {
        "corner(0,0)": 0.0,
        "corner(h1,h2)": (grid.ay.error_bound((h2 - grid.y) * sd.uyy_right)
                          + grid.ax.error_bound((h1 - grid.x) * sd.uxx_top)),
        "corner(0,h2)": grid.ay.error_bound((h2 - grid.y) * sd.uyy_left),
        "corner(h1,0)": grid.ax.error_bound((h1 - grid.x) * sd.uxx_bottom),
    }


def test_criterion_05_matching_auto_satisfaction():
    """Edge functions rebuilt from 100 random admissible data sets satisfy
    the corner matching relations within ten times the quadrature error."""
    rng = np.random.default_rng(103)
    grid = build_grid(DOM, 17, 17)
    worst_margin = 0.0
    for trial in range(100):
        if trial % 2 == 0:
            data = random_forward_problem(rng, grid, Coefficients())[0].data
        else:
            data = make_mms(random_solution(rng), Coefficients(), DOM).problem.data
        cd = nonclassical_to_classical(data, grid)
        rep = check_matching(cd, DOM, tol=math.inf)
        bounds = _matching_bounds(data, grid)
        for name, res in rep.residuals:
            allowed = 10.0 * bounds[name] + 1e-9
            assert res <= allowed, (trial, name, res, allowed)
            if allowed > 1e-9:
                worst_margin = max(worst_margin, res / allowed)
    print(f"\nACCEPTANCE 5 PASS: 100 random admissible data sets, worst "
          f"residual at {worst_margin:.2%} of the 10x quadrature allowance")


def test_criterion_06_round_trip_second_order():
    """Both conversion round trips converge at observed order >= 1.9."""
    u = SeparableSolution(((sep_sin(1.3), sep_exp(0.7)),))
    data = make_mms(u, Coefficients(), DOM).problem.data

    nc_errors = []
    cl_errors = []
    for n in (9, 17, 33):
        grid = build_grid(DOM, n, n)
        ctol = 100.0 * float(np.max(np.diff(grid.x))) ** 2
        back = classical_to_nonclassical(
            nonclassical_to_classical(data, grid), grid, corner_tol=ctol)
        err = 0.0
        for key in NonclassicalData.SCALAR_KEYS:
            err = max(err, abs(getattr(back, key) - getattr(data, key)))
        for key in NonclassicalData.TRACE_KEYS:
            axis = (grid.ax, grid.ay)[trace_axis(key)]
            err = max(err, float(np.max(np.abs(
                getattr(back, key).sample(axis) - getattr(data, key).sample(axis)))))
        nc_errors.append(err)

        cd = nonclassical_to_classical(data, grid)   # exact anchor traces
        again = nonclassical_to_classical(
            classical_to_nonclassical(cd, grid, corner_tol=ctol), grid)
        err = 0.0
        for name, axis in (("left", grid.ay), ("right", grid.ay),
                           ("bottom", grid.ax), ("top", grid.ax)):
            err = max(err, float(np.max(np.abs(
                getattr(again, name).value.sample(axis)
                - getattr(cd, name).value.sample(axis)))))
        cl_errors.append(err)

    nc_orders = [np.log2(nc_errors[k] / nc_errors[k + 1]) for k in range(2)]
    cl_orders = [np.log2(cl_errors[k] / cl_errors[k + 1]) for k in range(2)]
    assert min(nc_orders) >= 1.9, nc_orders
    assert min(cl_orders) >= 1.9, cl_orders
    print(f"\nACCEPTANCE 6 PASS: round-trip orders "
          f"nonclassical {nc_orders[0]:.2f}/{nc_orders[1]:.2f}, "
          f"classical {cl_orders[0]:.2f}/{cl_orders[1]:.2f}")


def test_criterion_07_corner_route_consistency():
    """The two data routes to u_xy(0,0) agree on admissible data; on
    corrupted data the gap is reported, never hidden."""
    rng = np.random.default_rng(104)
    grid = build_grid(DOM, 17, 17)
    worst = 0.0
    for trial in range(20):
        if trial % 2 == 0:
            prob = random_forward_problem(rng, grid, Coefficients())[0]
        else:
            prob = make_mms(random_solution(rng), Coefficients(), DOM).problem
        assert check_data_constraints(sample_data(prob.data, grid), grid).passed
        result = solve_problem(prob, grid)
        sd = sample_data(prob.data, grid)
        h1, h2 = DOM.h1, DOM.h2
        d_uxx = (sd.uxx_top - sd.uxx_bottom) / h2
        d_uyy = (sd.uyy_right - sd.uyy_left) / h1
        allowed = 10.0 * (grid.ax.error_bound((h1 - grid.x) * d_uxx / h1)
                          + grid.ay.error_bound((h2 - grid.y) * d_uyy / h2)) \
            + 1e-9
        assert result.report.uxy00_route_gap <= allowed
        if allowed > 1e-9:
            worst = max(worst, result.report.uxy00_route_gap / allowed)

    # corrupt a component entering both a constraint and one route
    base = make_mms(random_solution(rng), Coefficients(), DOM).problem
    bad_data = NonclassicalData(
        u00=base.data.u00, ux00=base.data.ux00, uy00=base.data.uy00 + 1.0,
        uxx_bottom=base.data.uxx_bottom, uyy_left=base.data.uyy_left,
        u10=base.data.u10, uy10=base.data.uy10, uyy_right=base.data.uyy_right,
        u01=base.data.u01, ux01=base.data.ux01, uxx_top=base.data.uxx_top)
    bad = PdeProblem(DOM, base.coeffs, base.forcing, bad_data)
    assert not check_data_constraints(sample_data(bad.data, grid), grid).passed
    with pytest.raises(ConstraintError):
        solve_problem(bad, grid)
    forced = solve_problem(bad, grid, force=True)
    assert forced.report.uxy00_route_gap > 0.5    # the injected 1/h1 shift
    assert not forced.report.constraint_pass
    print(f"\nACCEPTANCE 7 PASS: route gap within allowance on 20 admissible "
          f"sets (worst at {worst:.2%}); corrupted data refused, forced solve "
          f"reports gap {forced.report.uxy00_route_gap:.3f}")


def test_criterion_08_well_posedness_surrogate():
    """Linearity, scale invariance, and a stable solution/data ratio."""
    rng = np.random.default_rng(105)
    grid = build_grid(DOM, 9, 9)
    coeffs = random_coefficients(rng, 0.3)
    p1, _ = random_forward_problem(rng, grid, coeffs)
    p2, _ = random_forward_problem(rng, grid, coeffs)
    a, b = 0.8, -0.6
    combo = PdeProblem(
        DOM, coeffs,
        Field2D(lambda x, y, _f=p1.forcing, _g=p2.forcing:
                a * _f.eval(x, y) + b * _g.eval(x, y)),
        combine((a, p1.data), (b, p2.data)))
    r1 = solve_problem(p1, grid, method="dense")
    r2 = solve_problem(p2, grid, method="dense")
    rc = solve_problem(combo, grid, method="dense")
    expect = a * r1.bundle.u.values + b * r2.bundle.u.values
    lin_err = float(np.max(np.abs(rc.bundle.u.values - expect))) \
        / max(1.0, float(np.max(np.abs(expect))))
    assert lin_err <= 1e-8

    doubled = PdeProblem(DOM, p1.coeffs,
                         Field2D(lambda x, y, _f=p1.forcing: 2.0 * _f.eval(x, y)),
                         combine((2.0, p1.data)))
    ratio1 = r1.report.stability_ratio
    ratio2 = solve_problem(doubled, grid, method="dense").report.stability_ratio
    assert ratio2 == pytest.approx(ratio1, rel=1e-10)

    def make(k):
        return random_forward_problem(rng, grid, Coefficients())[0]

    est = estimate_stability_ratio(make, grid, 50)
    spread = max(est.ratios) / min(est.ratios)
    assert est.excluded == 0
    assert spread < 10.0
    print(f"\nACCEPTANCE 8 PASS: linearity {lin_err:.2e}, scale-invariant ratio "
          f"{ratio1:.4f}, 50-draw ratio spread {spread:.2f} < 10")


def test_criterion_09_residual_gate():
    """Accepted solves report the equation residual and all 11 boundary
    residuals under the calibrated threshold; a corrupted node is caught.

    The clean gate is exercised at the default p = 2 and at p = inf; the
    corruption check uses the sup norm, which is the natural lens for a
    point defect (an integral norm dilutes a single node by the quadrature
    weight).
    """
    grid = build_grid(DOM, 21, 21)
    case = named_cases(DOM)["biquadratic"]
    result2 = solve_problem(case.problem, grid, p=2.0)
    assert result2.report.residual_pass
    assert len(result2.report.residual_bc) == 11
    assert result2.report.residual_pde <= result2.report.residual_threshold
    assert max(result2.report.residual_bc.values()) <= result2.report.residual_threshold

    result = solve_problem(case.problem, grid, p=math.inf)
    rep = result.report
    assert rep.residual_pass

    values = result.bundle.u.values.copy()
    values[10, 10] += 1.0
    from mangeron import SolutionBundle
    corrupted = SolutionBundle(
        u=GridFn2D(grid, values), ux=result.bundle.ux, uy=result.bundle.uy,
        uxx=result.bundle.uxx, uyy=result.bundle.uyy, uxy=result.bundle.uxy,
        uxxy=result.bundle.uxxy, uxyy=result.bundle.uxyy, uxxyy=result.bundle.uxxyy)
    bad = residual_report(sample_problem(case.problem, grid), corrupted, NormSpec(math.inf))
    assert bad.pde > rep.residual_threshold
    assert bad.pde > 100.0 * rep.residual_pde
    print(f"\nACCEPTANCE 9 PASS: clean residuals under thresholds (p=2: "
          f"{result2.report.residual_pde:.2e} <= {result2.report.residual_threshold:.2e}); "
          f"corrupted node flagged at p=inf ({bad.pde:.2e} > "
          f"{rep.residual_threshold:.2e})")


def test_criterion_10_fd_oracle_cross_check():
    """Integral-equation and finite-difference solutions differ by no more
    than the sum of their individual errors, node by node."""
    rng = np.random.default_rng(106)
    grid = build_grid(DOM, 17, 17)
    xx, yy = grid.meshgrid()
    checked = []
    for label, case in (("trig", named_cases(DOM)["trig"]),
                        ("asym", make_mms(SeparableSolution(((sep_sin(1.3), sep_exp(0.7)),)),
                                          Coefficients(), DOM)),
                        ("random", make_mms(random_solution(rng),
                                            random_coefficients(rng, 0.2), DOM))):
        truth = case.u_star.eval_deriv(0, 0, xx, yy)
        ie = solve_problem(case.problem, grid).bundle.u.values
        fd = fd_oracle(case.problem, grid)
        lhs = np.abs(ie - fd)
        rhs = np.abs(ie - truth) + np.abs(fd - truth)
        assert np.all(lhs <= rhs + 1e-12)
        checked.append(f"{label} |ie-fd| {np.max(lhs):.2e}")
    print(f"\nACCEPTANCE 10 PASS: {'; '.join(checked)}")
