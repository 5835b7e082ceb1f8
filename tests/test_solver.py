import math
import tracemalloc

import numpy as np
import pytest

from mangeron import (Coefficients, ConstraintError, Domain, Field2D, GridFn2D,
                      NonclassicalData, NormSpec, PdeProblem, assemble_eliminated,
                      assemble_solution, build_grid, const1d, const2d,
                      estimate_stability_ratio, random_coefficients,
                      random_forward_problem, reconstruct_lower, residual_report,
                      sample_data, sample_problem, SolverError,
                      calibrate_residual_threshold, solve_dense, solve_neumann,
                      solve_problem)
from mangeron import solver as solver_mod
from mangeron.mms import (bilinear_solution, biquadratic_solution, make_mms,
                          trig_solution)
from quadrature_oracle import panel_tables

DOM = Domain(1.0, 1.0)


def const_coeffs(**kv):
    return Coefficients(**{k: const2d(v) for k, v in kv.items()})


def power_iteration_radius(op, grid, iters=80, seed=0):
    v = np.random.default_rng(seed).standard_normal(grid.shape)
    lam = 0.0
    for _ in range(iters):
        w = op.matvec(v)
        nw = float(np.max(np.abs(w)))
        if nw == 0.0:
            return 0.0
        lam = nw / float(np.max(np.abs(v)))
        v = w / nw
    return lam


# --------------------------------------------------------------- iteration

def test_neumann_identity_converges_in_one_step():
    grid = build_grid(DOM, 9, 9)
    prob = PdeProblem(DOM, Coefficients(), Field2D(lambda x, y: 1.0 + x * y))
    op = assemble_eliminated(sample_problem(prob, grid))
    core, info = solve_neumann(op)
    assert info.converged and info.iterations == 1
    np.testing.assert_allclose(core, op.g, atol=1e-15)


def test_neumann_matches_dense_for_small_coefficient():
    grid = build_grid(DOM, 13, 13)
    case = make_mms(trig_solution(), const_coeffs(c_xy=0.1), DOM)
    op = assemble_eliminated(sample_problem(case.problem, grid))
    core_n, info = solve_neumann(op, tol=1e-13)
    assert info.converged
    core_d, _ = solve_dense(op)
    assert np.max(np.abs(core_n - core_d)) <= 1e-9


def test_neumann_updates_decrease_geometrically():
    grid = build_grid(DOM, 9, 9)
    case = make_mms(trig_solution(), const_coeffs(c_xy=0.3), DOM)
    op = assemble_eliminated(sample_problem(case.problem, grid))
    _, info = solve_neumann(op, tol=1e-13)
    assert info.converged
    updates = [u for u in info.update_norms if u > 0][:-1]
    ratios = [updates[k + 1] / updates[k] for k in range(len(updates) - 1)]
    assert ratios and max(ratios) < 1.0
    assert info.update_ratio is not None and info.update_ratio < 1.0


def test_neumann_divergence_detected_for_large_coefficient():
    grid = build_grid(DOM, 9, 9)
    case = make_mms(trig_solution(), const_coeffs(c_xy=50.0), DOM)
    op = assemble_eliminated(sample_problem(case.problem, grid))
    core, info = solve_neumann(op)
    assert info.diverged and not info.converged
    assert np.all(np.isfinite(core))     # partial iterate is returned
    # the divergence is real: the iteration operator has spectral radius > 1
    assert power_iteration_radius(op, grid) > 1.0


def test_auto_falls_back_to_dense_on_divergence():
    grid = build_grid(DOM, 9, 9)
    case = make_mms(trig_solution(), const_coeffs(c_xy=50.0), DOM)
    result = solve_problem(case.problem, grid, method="auto")
    assert result.report.method == "dense"
    assert result.report.neumann_diverged
    assert result.report.warning is not None
    xx, yy = grid.meshgrid()
    assert np.max(np.abs(result.bundle.u.values - np.sin(xx) * np.sin(yy))) < 1e-2


# ------------------------------------------------------------- direct solve

def test_dense_identity_returns_g():
    grid = build_grid(DOM, 7, 7)
    prob = PdeProblem(DOM, Coefficients(), Field2D(lambda x, y: np.cos(x) + y))
    op = assemble_eliminated(sample_problem(prob, grid))
    core, cond = solve_dense(op)
    np.testing.assert_allclose(core, op.g, atol=1e-14)
    assert cond == pytest.approx(1.0, rel=1e-12)


def test_dense_three_node_case_matches_direct_elimination():
    c = 0.7
    grid = build_grid(DOM, 3, 3)
    case = make_mms(trig_solution(), const_coeffs(c_xy=c), DOM)
    op = assemble_eliminated(sample_problem(case.problem, grid))
    core, _ = solve_dense(op)
    # independent route: assemble the same 9x9 system from the hand
    # factorization of the constant-coefficient kernel and solve it directly
    (c0x, _), (c0y, _) = panel_tables(grid.x), panel_tables(grid.y)
    m1x = grid.wx * (1.0 - grid.x)
    m2y = grid.wy * (1.0 - grid.y)
    k = np.zeros((9, 9))
    for i in range(3):
        for j in range(3):
            for kk in range(3):
                for ll in range(3):
                    k[i * 3 + j, kk * 3 + ll] = (c * (c0x[i, kk] - m1x[kk])
                                                 * (c0y[j, ll] - m2y[ll]))
    expect = np.linalg.solve(np.eye(9) + k, op.g.ravel()).reshape(3, 3)
    np.testing.assert_allclose(core, expect, atol=1e-12)


# ----------------------------------------------------------- reconstruction

def test_reconstruct_zero_core_with_equal_edge_traces():
    grid = build_grid(DOM, 9, 9)
    data = NonclassicalData(uxx_bottom=const1d(2.0), uxx_top=const1d(2.0))
    unknowns = reconstruct_lower(sample_data(data, grid),
                                 np.zeros(grid.shape), grid)
    np.testing.assert_allclose(unknowns.uxxy_bottom.values, 0.0, atol=1e-15)


def test_reconstruct_corner_from_far_edge_value():
    grid = build_grid(DOM, 9, 9)
    data = NonclassicalData(uy10=1.0)
    unknowns = reconstruct_lower(sample_data(data, grid),
                                 np.zeros(grid.shape), grid)
    assert unknowns.uxy00 == pytest.approx(1.0, abs=1e-14)


def test_reconstruct_bilinear_case_routes_agree():
    grid = build_grid(DOM, 9, 9)
    case = make_mms(bilinear_solution(), Coefficients(), DOM)
    unknowns = reconstruct_lower(sample_data(case.problem.data, grid),
                                 np.zeros(grid.shape), grid)
    assert unknowns.uxy00 == pytest.approx(1.0, abs=1e-12)
    assert unknowns.uxy00_alt == pytest.approx(1.0, abs=1e-12)
    assert unknowns.route_gap <= 1e-12
    np.testing.assert_allclose(unknowns.uxxy_bottom.values, 0.0, atol=1e-13)
    np.testing.assert_allclose(unknowns.uxyy_left.values, 0.0, atol=1e-13)


# -------------------------------------------------------- solution assembly

def test_assemble_solution_zero():
    grid = build_grid(DOM, 9, 9)
    unknowns = reconstruct_lower(sample_data(NonclassicalData(), grid),
                                 np.zeros(grid.shape), grid)
    bundle = assemble_solution(sample_data(NonclassicalData(), grid), unknowns, grid)
    for key in ("u", "ux", "uy", "uxx", "uyy", "uxy", "uxxy", "uxyy", "uxxyy"):
        np.testing.assert_allclose(getattr(bundle, key).values, 0.0, atol=1e-15)


def test_assemble_solution_pure_corner_term():
    from mangeron import GridFn1D, ReducedUnknowns
    grid = build_grid(DOM, 9, 9)
    unknowns = ReducedUnknowns(
        uxy00=1.0,
        uxxy_bottom=GridFn1D(grid.ax, np.zeros(grid.ax.n)),
        uxyy_left=GridFn1D(grid.ay, np.zeros(grid.ay.n)),
        uxxyy=GridFn2D(grid, np.zeros(grid.shape)),
        uxy00_alt=1.0)
    bundle = assemble_solution(sample_data(NonclassicalData(), grid), unknowns, grid)
    xx, yy = grid.meshgrid()
    np.testing.assert_allclose(bundle.u.values, xx * yy, atol=1e-14)
    np.testing.assert_allclose(bundle.ux.values, yy, atol=1e-14)
    np.testing.assert_allclose(bundle.uxy.values, 1.0, atol=1e-14)
    np.testing.assert_allclose(bundle.uxx.values, 0.0, atol=1e-15)


def test_assemble_solution_constant_core_biquadratic():
    grid = build_grid(DOM, 21, 21)
    case = make_mms(biquadratic_solution(), Coefficients(), DOM)
    core = np.full(grid.shape, 4.0)
    sd = sample_data(case.problem.data, grid)
    unknowns = reconstruct_lower(sd, core, grid)
    bundle = assemble_solution(sd, unknowns, grid)
    xx, yy = grid.meshgrid()
    np.testing.assert_allclose(bundle.u.values, xx**2 * yy**2, atol=1e-10)
    assert bundle.uxxyy.values is unknowns.uxxyy.values   # the core grid is the unknown itself
    np.testing.assert_array_equal(bundle.uxxyy.values, core)  # and holds the core passed in


def test_core_grid_is_solution_core_exactly():
    rng = np.random.default_rng(20)
    grid = build_grid(DOM, 9, 9)
    prob, _, _ = random_forward_problem(rng, DOM, grid, random_coefficients(rng))
    result = solve_problem(prob, grid, method="dense")
    assert np.array_equal(result.bundle.uxxyy.values, result.unknowns.uxxyy.values)


# ------------------------------------------------------------- residuals

def test_residuals_tiny_for_exact_polynomial_solve():
    grid = build_grid(DOM, 9, 9)
    case = make_mms(bilinear_solution(), Coefficients(), DOM)
    result = solve_problem(case.problem, grid)
    rep = residual_report(sample_problem(case.problem, grid), result.bundle, NormSpec(2.0))
    assert rep.pde <= 1e-9
    assert rep.max_bc <= 1e-9


def test_residuals_bounded_for_forward_constructed_data():
    rng = np.random.default_rng(21)
    grid = build_grid(DOM, 9, 9)
    prob, _, _ = random_forward_problem(rng, DOM, grid, random_coefficients(rng))
    result = solve_problem(prob, grid, method="dense")
    rep = residual_report(sample_problem(prob, grid), result.bundle, NormSpec(2.0))
    assert rep.pde <= 1e-10
    assert rep.max_bc <= 1e-10


def test_corrupted_solution_is_flagged():
    grid = build_grid(DOM, 21, 21)
    case = make_mms(biquadratic_solution(), const_coeffs(c_u=1.0), DOM)
    result = solve_problem(case.problem, grid)
    clean = residual_report(sample_problem(case.problem, grid), result.bundle, NormSpec(2.0))
    values = result.bundle.u.values.copy()
    values[10, 10] += 1.0
    from mangeron import SolutionBundle
    corrupted = SolutionBundle(
        u=GridFn2D(grid, values), ux=result.bundle.ux, uy=result.bundle.uy,
        uxx=result.bundle.uxx, uyy=result.bundle.uyy, uxy=result.bundle.uxy,
        uxxy=result.bundle.uxxy, uxyy=result.bundle.uxyy, uxxyy=result.bundle.uxxyy)
    rep = residual_report(sample_problem(case.problem, grid), corrupted, NormSpec(2.0))
    assert rep.pde > max(100.0 * clean.pde, 1e-3)


# -------------------------------------------------------------- gating

def test_constraint_gate_refuses_bad_data_unless_forced():
    grid = build_grid(DOM, 9, 9)
    prob = PdeProblem(DOM, Coefficients(), data=NonclassicalData(u10=1.0))
    with pytest.raises(ConstraintError):
        solve_problem(prob, grid)
    result = solve_problem(prob, grid, force=True)
    assert not result.report.constraint_pass
    assert result.report.constraint_residuals["bottom-edge route to u(h1,0)"] \
        == pytest.approx(1.0)
    assert not result.report.residual_pass   # the violated condition shows up


def test_residual_gate_passes_good_solves():
    grid = build_grid(DOM, 17, 17)
    for case_name in ("bilinear", "biquadratic", "trig"):
        from mangeron import named_cases
        result = solve_problem(named_cases(DOM)[case_name].problem, grid)
        assert result.report.residual_pass, case_name


# ------------------------------------------------------------- stability

def test_stability_single_trial_equals_report_ratio():
    rng = np.random.default_rng(22)
    grid = build_grid(DOM, 9, 9)
    prob, _, _ = random_forward_problem(rng, DOM, grid, Coefficients())
    single = solve_problem(prob, grid)
    est = estimate_stability_ratio(lambda k: prob, grid, 1)
    assert est.max_ratio == pytest.approx(single.report.stability_ratio, rel=1e-12)


def test_stability_ratio_scale_invariant():
    rng = np.random.default_rng(23)
    grid = build_grid(DOM, 9, 9)
    prob, _, _ = random_forward_problem(rng, DOM, grid, Coefficients())
    doubled = PdeProblem(
        DOM, prob.coeffs,
        Field2D(lambda x, y, _f=prob.forcing: 2.0 * _f.eval(x, y)),
        prob.data.scaled(2.0))
    r1 = solve_problem(prob, grid).report.stability_ratio
    r2 = solve_problem(doubled, grid).report.stability_ratio
    assert r2 == pytest.approx(r1, rel=1e-10)


def test_stability_family_is_stable():
    rng = np.random.default_rng(24)
    grid = build_grid(DOM, 9, 9)

    def make(k):
        prob, _, _ = random_forward_problem(rng, DOM, grid, Coefficients())
        return prob

    est = estimate_stability_ratio(make, grid, 50)
    assert est.excluded == 0
    assert max(est.ratios) / min(est.ratios) < 10.0


# ------------------------------------------------------------- linearity

def test_full_pipeline_superposition():
    rng = np.random.default_rng(25)
    grid = build_grid(DOM, 9, 9)
    coeffs = random_coefficients(rng)
    p1, _, _ = random_forward_problem(rng, DOM, grid, coeffs)
    p2, _, _ = random_forward_problem(rng, DOM, grid, coeffs)
    a, b = 0.6, -1.1
    combo = PdeProblem(
        DOM, coeffs,
        Field2D(lambda x, y, _f=p1.forcing, _g=p2.forcing:
                a * _f.eval(x, y) + b * _g.eval(x, y)),
        p1.data.scaled(a).plus(p2.data.scaled(b)))
    r1 = solve_problem(p1, grid, method="dense")
    r2 = solve_problem(p2, grid, method="dense")
    rc = solve_problem(combo, grid, method="dense")
    expect = a * r1.bundle.u.values + b * r2.bundle.u.values
    scale = max(1.0, float(np.max(np.abs(expect))))
    assert np.max(np.abs(rc.bundle.u.values - expect)) / scale <= 1e-8


def test_solver_report_methods():
    grid = build_grid(DOM, 9, 9)
    case = make_mms(trig_solution(), Coefficients(), DOM)
    assert solve_problem(case.problem, grid, method="neumann").report.method == "neumann"
    assert solve_problem(case.problem, grid, method="dense").report.method == "dense"
    assert solve_problem(case.problem, grid, method="coupled").report.method == "coupled-dense"
    with pytest.raises(ValueError):
        solve_problem(case.problem, grid, method="bogus")


def counting(f, counts, key):
    """`f` as a Field2D that counts its samples in counts[key]."""
    def fn(x, y):
        counts[key] = counts.get(key, 0) + 1
        return f.eval(x, y)
    return Field2D(fn, f.kind)


@pytest.mark.parametrize("method, c, used", [
    ("neumann", 0.1, "neumann"),
    ("auto", 50.0, "dense"),          # stiff: the iteration diverges, dense LU runs
    ("coupled", 0.1, "coupled-dense"),
])
def test_each_field_is_sampled_once_per_solve(method, c, used):
    grid = build_grid(DOM, 9, 9)
    case = make_mms(trig_solution(), const_coeffs(**dict.fromkeys(Coefficients.KEYS, c)), DOM)
    counts = {}
    coeffs = Coefficients(**{k: counting(getattr(case.problem.coeffs, k), counts, k)
                             for k in Coefficients.KEYS})
    prob = PdeProblem(DOM, coeffs, counting(case.problem.forcing, counts, "forcing"),
                      case.problem.data)
    result = solve_problem(prob, grid, method=method, residual_gate=False)
    assert result.report.method == used
    assert counts == dict.fromkeys((*Coefficients.KEYS, "forcing"), 1)


def test_explicit_neumann_divergence_recommends_dense():
    grid = build_grid(DOM, 9, 9)
    case = make_mms(trig_solution(), const_coeffs(c_xy=50.0), DOM)
    result = solve_problem(case.problem, grid, method="neumann")
    assert result.report.neumann_diverged and not result.report.converged
    assert "dense" in result.report.warning
    assert not result.report.residual_pass


def test_selectable_norm_exponents():
    grid = build_grid(DOM, 13, 13)
    case = make_mms(trig_solution(), Coefficients(), DOM)
    for p in (1.0, math.inf):
        result = solve_problem(case.problem, grid, p=p)
        assert result.report.p == p
        assert result.report.residual_pass
        assert math.isfinite(result.report.stability_ratio)


def test_constraint_tolerance_override():
    grid = build_grid(DOM, 9, 9)
    prob = PdeProblem(DOM, Coefficients(), data=NonclassicalData(u10=1e-7))
    with pytest.raises(ConstraintError):
        solve_problem(prob, grid, constraint_tol=1e-9)
    result = solve_problem(prob, grid, constraint_tol=1e-3)
    assert result.report.constraint_pass


def test_grid_and_data_arrays_are_frozen():
    grid = build_grid(DOM, 9, 9)
    with pytest.raises(ValueError):
        grid.x[0] = 1.0
    case = make_mms(trig_solution(), Coefficients(), DOM)
    result = solve_problem(case.problem, grid)
    with pytest.raises(ValueError):
        result.bundle.u.values[0, 0] = 7.0


def test_neumann_route_builds_no_weight_table():
    # the matrix-free route integrates by running sums, gate on or off
    grid = build_grid(DOM, 33, 33)
    case = make_mms(trig_solution(), const_coeffs(c_xy=0.2, c_u=0.1), DOM)
    for gate in (False, True):
        result = solve_problem(case.problem, grid, method="neumann", residual_gate=gate)
        assert result.report.converged
    assert result.report.residual_pass


def test_gate_on_solve_peak_memory(monkeypatch):
    # the gate is calibrated before the problem is sampled, and only the
    # reference solves' reports are kept: a cold gate-on solve peaks no
    # higher than the gate-off solve of the same problem
    grid = build_grid(DOM, 129, 129)
    case = make_mms(trig_solution(), const_coeffs(c_xy=0.2, c_u=0.1), DOM)
    peaks = {}
    for gate in (False, True):
        monkeypatch.setattr(solver_mod, "_THRESHOLD_CACHE", {})
        tracemalloc.start()
        try:
            report = solve_problem(case.problem, grid, method="neumann",
                                   residual_gate=gate).report
            _, peaks[gate] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.converged
    assert report.residual_pass
    assert peaks[True] <= 1.1 * peaks[False]


def test_dense_route_peak_memory():
    # K is assembled one row block at a time and I + K is formed in place:
    # no temporary as large as K besides the inverse and LU copies
    rng = np.random.default_rng(21)
    grid = build_grid(DOM, 49, 49)
    prob, _, _ = random_forward_problem(rng, DOM, grid, random_coefficients(rng))
    op = assemble_eliminated(sample_problem(prob, grid))
    k_bytes = (49 * 49) ** 2 * 8
    tracemalloc.start()
    try:
        op.dense()
        _, dense_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        solve_dense(op)
        _, solve_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dense_peak <= 1.1 * k_bytes
    assert solve_peak <= 3.2 * k_bytes


# ------------------------------------------------------ residual-gate calibration

def dense_route_threshold(grid, p):
    """The calibration rule evaluated through dense LU solves (the oracle)."""
    worst = 0.0
    for prob in solver_mod._reference_problems(grid.domain):
        rep = solve_problem(prob, grid, method="dense", p=p,
                            residual_gate=False, force=True).report
        worst = max(worst, rep.residual_pde, max(rep.residual_bc.values()))
    return 10.0 * max(worst, 1e-12)


@pytest.mark.parametrize("grid", [
    build_grid(DOM, 17, 17),
    build_grid(DOM, 33, 33),
    build_grid(Domain(2.0, 0.5), 22, 12, x_breakpoints=[0.3, 1.37], y_breakpoints=[0.11]),
], ids=["17x17", "33x33", "nonuniform"])
def test_calibrated_threshold_equals_dense_route(grid, monkeypatch):
    # one threshold per grid: it equals the dense-route rule under every norm
    monkeypatch.setattr(solver_mod, "_THRESHOLD_CACHE", {})
    threshold = calibrate_residual_threshold(grid)
    for p in (1.0, 2.0, math.inf):
        assert threshold == dense_route_threshold(grid, p)


def test_calibration_refuses_unconverged_reference(monkeypatch):
    grid = build_grid(DOM, 9, 9)
    divergent = make_mms(trig_solution(), const_coeffs(c_xy=50.0), DOM).problem
    monkeypatch.setattr(solver_mod, "_THRESHOLD_CACHE", {})
    monkeypatch.setattr(solver_mod, "_reference_problems", lambda domain: [divergent])
    with pytest.raises(SolverError, match="calibration did not converge"):
        calibrate_residual_threshold(grid)
    assert solver_mod._THRESHOLD_CACHE == {}
