import dataclasses
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mangeron import (Coefficients, ConstraintError, Domain, Field2D, GridFn2D,
                      NonclassicalData, NormSpec, PdeProblem, assemble_eliminated,
                      assemble_solution, build_grid, const1d, const2d, piecewise2d,
                      residual_report, sample_data, sample_problem, SolverError,
                      calibrate_residual_threshold, solve_dense, solve_neumann,
                      solve_problem)
from mangeron import reduction, solver as solver_mod
from mangeron.cli import main as cli_main
from mangeron.mms import bilinear_solution, biquadratic_solution, make_mms, trig_solution
from mangeron.reduction import CUM0, IDENT, MOM, DiscreteOperator, Term, far_edge
from helpers import (TILE_ROWS, combine, estimate_stability_ratio, random_coefficients,
                     random_forward_problem, set_tile_rows)
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


def neumann_iterate(op, k):
    """The k-th iterate b <- g - K b from b = g, computed here independently."""
    b = op.g
    for _ in range(k):
        b = op.g - op.matvec(b)
    return b


def test_neumann_stops_at_a_non_finite_update():
    # K b overflows on the second pass: the iteration stops there and returns
    # the last finite iterate
    grid = build_grid(DOM, 9, 9)
    case = make_mms(trig_solution(), const_coeffs(c_xy=1e150), DOM)
    op = assemble_eliminated(sample_problem(case.problem, grid))
    with np.errstate(over="ignore", invalid="ignore"):
        core, info = solve_neumann(op)
        expected = neumann_iterate(op, 1)
    assert info.diverged and not info.converged
    assert info.iterations == 2
    assert math.isfinite(info.update_norms[0]) and not math.isfinite(info.update_norms[-1])
    assert info.final_update_norm == info.update_norms[0]
    assert np.all(np.isfinite(core)) and np.array_equal(core, expected)


class HalvingOperator:
    """K b = b / 2, whose `bad_pass`-th product holds `bad` at its last node."""

    def __init__(self, g, bad_pass, bad):
        self.g, self.bad_pass, self.bad, self.calls = g, bad_pass, bad, 0

    def matvec(self, b, out):
        np.multiply(b, 0.5, out=out)
        self.calls += 1
        if self.calls == self.bad_pass:
            out[-1, -1] = self.bad
        return out


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_neumann_stops_at_a_non_finite_node_in_the_last_partial_tile(bad, monkeypatch):
    # the update norm is taken in row tiles; a NaN or inf only in the last,
    # partial tile still ends the iteration, with the last finite iterate
    set_tile_rows(monkeypatch, 9)
    g = np.random.default_rng(6).standard_normal((2 * TILE_ROWS + 5, 9))
    g.flags.writeable = False
    core, info = solve_neumann(HalvingOperator(g, 3, bad))
    first, second = g - 0.5 * g, g - 0.5 * (g - 0.5 * g)
    assert info.update_norms[:2] == [float(np.max(np.abs(first - g))),
                                     float(np.max(np.abs(second - first)))]
    assert info.diverged and not info.converged and info.iterations == 3
    assert not math.isfinite(info.update_norms[-1])
    assert info.final_update_norm == info.update_norms[1]
    assert np.array_equal(core, second)


def test_neumann_record_reports_only_finite_update_norms():
    # report.json holds these two: the last finite norm (0.0 after no pass,
    # None when no pass gave one) and a ratio of finite, positive norms
    assert solver_mod.NeumannInfo().final_update_norm == 0.0
    assert solver_mod.NeumannInfo(update_norms=[math.nan]).final_update_norm is None
    info = solver_mod.NeumannInfo(update_norms=[1.0, 0.0, 0.25, math.inf])
    assert info.final_update_norm == 0.25 and info.update_ratio == 0.25


def test_neumann_exhausting_max_iter_is_divergence():
    grid = build_grid(DOM, 9, 9)
    case = make_mms(trig_solution(), const_coeffs(c_xy=0.3), DOM)
    op = assemble_eliminated(sample_problem(case.problem, grid))
    core, info = solve_neumann(op, tol=1e-13, max_iter=3)
    assert info.diverged and not info.converged
    assert info.iterations == 3 and info.final_update_norm == info.update_norms[-1] > 1e-13
    assert np.array_equal(core, neumann_iterate(op, 3))


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
    m1x = grid.ax.weights * (1.0 - grid.x)
    m2y = grid.ay.weights * (1.0 - grid.y)
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
    _, edge_x, _, _ = far_edge(sample_data(data, grid), grid, np.zeros(grid.shape))
    np.testing.assert_allclose(edge_x, 0.0, atol=1e-15)


def test_reconstruct_corner_from_far_edge_value():
    grid = build_grid(DOM, 9, 9)
    data = NonclassicalData(uy10=1.0)
    corner, _, _, _ = far_edge(sample_data(data, grid), grid, np.zeros(grid.shape))
    assert corner == pytest.approx(1.0, abs=1e-14)


def test_reconstruct_bilinear_case_routes_agree():
    grid = build_grid(DOM, 9, 9)
    case = make_mms(bilinear_solution(), Coefficients(), DOM)
    corner, edge_x, edge_y, corner_alt = far_edge(sample_data(case.problem.data, grid), grid,
                                                  np.zeros(grid.shape))
    assert corner == pytest.approx(1.0, abs=1e-12)
    assert corner_alt == pytest.approx(1.0, abs=1e-12)
    assert abs(corner - corner_alt) <= 1e-12
    np.testing.assert_allclose(edge_x, 0.0, atol=1e-13)
    np.testing.assert_allclose(edge_y, 0.0, atol=1e-13)


# -------------------------------------------------------- solution assembly

def test_assemble_solution_zero():
    grid = build_grid(DOM, 9, 9)
    sd = sample_data(NonclassicalData(), grid)
    core = np.zeros(grid.shape)
    bundle = assemble_solution(sd, grid, (*far_edge(sd, grid, core)[:3], core))
    for key in ("u", "ux", "uy", "uxx", "uyy", "uxy", "uxxy", "uxyy", "uxxyy"):
        np.testing.assert_allclose(getattr(bundle, key).values, 0.0, atol=1e-15)


def test_assemble_solution_pure_corner_term():
    grid = build_grid(DOM, 9, 9)
    quadruple = (1.0, np.zeros(grid.ax.n), np.zeros(grid.ay.n), np.zeros(grid.shape))
    bundle = assemble_solution(sample_data(NonclassicalData(), grid), grid, quadruple)
    xx, yy = grid.meshgrid()
    np.testing.assert_allclose(bundle.u.values, xx * yy, atol=1e-14)
    np.testing.assert_allclose(bundle.ux.values, yy, atol=1e-14)
    np.testing.assert_allclose(bundle.uxy.values, 1.0, atol=1e-14)
    np.testing.assert_allclose(bundle.uxx.values, 0.0, atol=1e-15)


def test_assemble_solution_constant_core_biquadratic():
    grid = build_grid(DOM, 21, 21)
    case = make_mms(biquadratic_solution(), Coefficients(), DOM)
    core = np.full(grid.shape, 4.0)
    core.flags.writeable = False
    sd = sample_data(case.problem.data, grid)
    bundle = assemble_solution(sd, grid, (*far_edge(sd, grid, core)[:3], core))
    xx, yy = grid.meshgrid()
    np.testing.assert_allclose(bundle.u.values, xx**2 * yy**2, atol=1e-10)
    assert bundle.uxxyy.values is core      # the core grid is the core itself


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
    prob, _ = random_forward_problem(rng, grid, random_coefficients(rng))
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


def nan_datum(key):
    prob = make_mms(trig_solution(), Coefficients(), DOM).problem
    return dataclasses.replace(prob, data=dataclasses.replace(prob.data, **{key: math.nan}))


@pytest.mark.parametrize("key", ["ux01", "u01"])
def test_nan_datum_fails_every_pass_rule(key):
    # Python max skips a NaN unless it comes first; neither scalar is first
    grid = build_grid(DOM, 17, 17)
    report = solve_problem(nan_datum(key), grid, force=True).report
    assert math.isnan(report.residual_bc[key])
    # the threshold scales with the data norm, so it is NaN too, not the bare gate
    assert math.isnan(report.data_norm_value) and math.isnan(report.residual_threshold)
    assert report.residual_pass is False
    if key == "u01":   # u(0, h2) enters the left-edge constraint
        assert math.isnan(report.constraint_residuals["left-edge route to u(0,h2)"])
        assert report.constraint_pass is False
        with pytest.raises(ConstraintError):
            solve_problem(nan_datum(key), grid)


def test_residual_gate_passes_good_solves():
    grid = build_grid(DOM, 17, 17)
    for case_name in ("bilinear", "biquadratic", "trig"):
        from mangeron.mms import named_cases
        result = solve_problem(named_cases(DOM)[case_name].problem, grid)
        assert result.report.residual_pass, case_name


# ------------------------------------------------------------- stability

def test_stability_single_trial_equals_report_ratio():
    rng = np.random.default_rng(22)
    grid = build_grid(DOM, 9, 9)
    prob, _ = random_forward_problem(rng, grid, Coefficients())
    single = solve_problem(prob, grid)
    est = estimate_stability_ratio(lambda k: prob, grid, 1)
    assert est.max_ratio == pytest.approx(single.report.stability_ratio, rel=1e-12)


def test_stability_ratio_scale_invariant():
    rng = np.random.default_rng(23)
    grid = build_grid(DOM, 9, 9)
    prob, _ = random_forward_problem(rng, grid, Coefficients())
    doubled = PdeProblem(
        DOM, prob.coeffs,
        Field2D(lambda x, y, _f=prob.forcing: 2.0 * _f.eval(x, y)),
        combine((2.0, prob.data)))
    r1 = solve_problem(prob, grid).report.stability_ratio
    r2 = solve_problem(doubled, grid).report.stability_ratio
    assert r2 == pytest.approx(r1, rel=1e-10)


def test_stability_family_is_stable():
    rng = np.random.default_rng(24)
    grid = build_grid(DOM, 9, 9)

    def make(k):
        prob, _ = random_forward_problem(rng, grid, Coefficients())
        return prob

    est = estimate_stability_ratio(make, grid, 50)
    assert est.excluded == 0
    assert max(est.ratios) / min(est.ratios) < 10.0


def test_stability_excludes_a_trial_that_fails_the_gate():
    # a NaN datum gives a NaN data norm, hence a NaN ratio, and fails the gate
    grid = build_grid(DOM, 17, 17)
    bad = nan_datum("ux01")
    assert math.isnan(solve_problem(bad, grid).report.stability_ratio)
    good = make_mms(trig_solution(), Coefficients(), DOM).problem
    est = estimate_stability_ratio(lambda k: (good, bad)[k], grid, 2)
    assert len(est.ratios) == 1 and est.excluded == 1
    assert est.max_ratio == solve_problem(good, grid).report.stability_ratio


def test_stability_excludes_refused_and_failed_trials():
    # one trial violates a corner constraint; the other diverges on a grid
    # above the dense limit, so its dense fallback is refused
    grid = build_grid(DOM, 71, 71)
    good = make_mms(trig_solution(), Coefficients(), DOM).problem
    refused = dataclasses.replace(good, data=dataclasses.replace(good.data, u10=1.0))
    failed = make_mms(trig_solution(), const_coeffs(c_xy=50.0), DOM).problem
    est = estimate_stability_ratio(lambda k: (refused, good, failed)[k], grid, 3)
    assert len(est.ratios) == 1 and est.excluded == 2
    with pytest.raises(SolverError, match="no trial produced a usable solve"):
        estimate_stability_ratio(lambda k: (refused, failed)[k], grid, 2)


# ------------------------------------------------ structured direct route

EPS = np.finfo(float).eps


def lu_route(op):
    """I + K made dense, the LU route's core and its exact 1-norm condition
    number, computed as the LU route computes them."""
    a = op.dense()
    a[np.diag_indices_from(a)] += 1.0
    cond = float(np.linalg.cond(a, 1))
    return a, np.linalg.solve(a, op.g.ravel()).reshape(op.grid.shape), cond


def jump_problem(rng, grid):
    """A random forward problem whose c_u jumps from 0.2 to 3 at x = 0.5."""
    jump = piecewise2d([((0.0, 0.5, 0.0, 1.0), lambda x, y: 0.2 + 0.0 * x),
                        ((0.5, 1.0, 0.0, 1.0), lambda x, y: 3.0 + 0.0 * x)], 1.0, 1.0)
    return random_forward_problem(rng, grid, Coefficients(c_u=jump, c_xy=const2d(0.1)))[0]


def stiff_problem(c):
    return lambda rng, grid: make_mms(trig_solution(), const_coeffs(c_xy=c), DOM).problem


def smooth_problem(magnitude):
    return lambda rng, grid: random_forward_problem(
        rng, grid, random_coefficients(rng, magnitude))[0]


#: the families the structured route is held to LU on: (grid, problem maker)
STRUCTURED_FAMILIES = {
    **{f"stiff-{c:g}": (build_grid(DOM, 21, 21), stiff_problem(c)) for c in (50.0, 55.0, 60.0)},
    "all-variable": (build_grid(DOM, 17, 17), smooth_problem(1.0)),
    "13x21": (build_grid(DOM, 13, 21), smooth_problem(0.3)),
    "21x13": (build_grid(DOM, 21, 13), smooth_problem(0.3)),
    "breakpoints": (build_grid(Domain(2.0, 0.5), 14, 9, x_breakpoints=[0.3, 1.37],
                               y_breakpoints=[0.11]), smooth_problem(0.3)),
    "c_u-jump": (build_grid(DOM, 16, 16, x_breakpoints=[0.5]), jump_problem),
}


@pytest.mark.parametrize("family", list(STRUCTURED_FAMILIES))
def test_structured_route_agrees_with_lu(family, monkeypatch):
    grid, make = STRUCTURED_FAMILIES[family]
    op = assemble_eliminated(sample_problem(make(np.random.default_rng(40), grid), grid))
    a, lu_core, lu_cond = lu_route(op)
    monkeypatch.setattr(DiscreteOperator, "dense", lambda self: pytest.fail("LU route taken"))
    core, cond = solve_dense(op)
    # a core of backward error at most 16 eps (the route's limit) is within
    # about 16 cond eps of the exact one, relative; measured: at most 4.6
    # cond eps for the core and 2.1 for the transposed solve
    assert np.max(np.abs(core - lu_core)) <= 16 * lu_cond * EPS * np.max(np.abs(lu_core))
    system = reduction.BlockSystem(op)
    _, solve_t = solver_mod._structured_inverse(system)
    x = np.random.default_rng(41).standard_normal(grid.shape)
    lu_t = np.linalg.solve(a.T, x.ravel()).reshape(grid.shape)
    assert np.max(np.abs(solve_t(x) - lu_t)) <= 16 * lu_cond * EPS * np.max(np.abs(lu_t))
    assert system.norm1() == pytest.approx(np.max(np.abs(a).sum(axis=0)), rel=1e-13)
    # the estimate bounds ||(I + K)^-1||_1 from below, up to roundoff;
    # measured: 0.87 to 1 of the exact condition number on these families
    assert 0.7 <= cond / lu_cond <= 1.0 + 1e-12


@pytest.mark.parametrize("tiles", ["one-tile", "4-row-tiles"])
@pytest.mark.parametrize("family", list(STRUCTURED_FAMILIES))
def test_block_substitutions_match_dense_triangular_solves(family, tiles, monkeypatch):
    # T is I plus the terms whose x-side operator is not the moment average;
    # the running sums of the substitutions solve T and T^T as dense LU does,
    # to roundoff (measured: at most 3.1 cond(T) eps), for one right-hand
    # side and for three; the structured core has the same bits in any tiles
    grid, make = STRUCTURED_FAMILIES[family]
    if tiles == "4-row-tiles":
        set_tile_rows(monkeypatch, grid.shape[1], 4)
    op = assemble_eliminated(sample_problem(make(np.random.default_rng(40), grid), grid))
    system = reduction.BlockSystem(op)
    t = op.assemble([term for term in op.terms if term.x != MOM])
    t[np.diag_indices_from(t)] += 1.0
    bound = 16 * np.linalg.cond(t, 1) * EPS
    rng = np.random.default_rng(42)
    for shape in (grid.shape, (*grid.shape, 3)):
        r = rng.standard_normal(shape)
        for solve, dense in ((system.solve_lower, t), (system.solve_upper, t.T)):
            want = np.linalg.solve(dense, r.reshape(t.shape[0], -1)).reshape(shape)
            assert np.max(np.abs(solve(r) - want)) <= bound * np.max(np.abs(want))
    core, cond = solver_mod._solve_structured(op)
    monkeypatch.undo()
    whole_core, whole_cond = solver_mod._solve_structured(op)
    assert np.array_equal(core, whole_core) and cond == whole_cond


def unstable_problem(magnitude, seed):
    """The operator of an all-variable problem on 15 x 30 nodes of [0,2]x[0,0.5]."""
    grid = build_grid(Domain(2.0, 0.5), 15, 30)
    rng = np.random.default_rng(seed)
    prob, _ = random_forward_problem(rng, grid, random_coefficients(rng, magnitude))
    return assemble_eliminated(sample_problem(prob, grid))


#: (magnitude, seed) of an unstable problem for each guard of the route:
#: cond(C) 1.2e11; cond(C) 860, yet backward error 3.6e-12
UNSTABLE = {"condition": (20.0, 1), "backward error": (5.0, 3)}


@pytest.mark.parametrize("case", [*STRUCTURED_FAMILIES, *UNSTABLE])
def test_block_condition_check_is_numpys_cond_bit_for_bit(case):
    # the check reads the inverses that the substitutions use, so the route
    # is decided on the numbers np.linalg.cond gave
    if case in STRUCTURED_FAMILIES:
        grid, make = STRUCTURED_FAMILIES[case]
        op = assemble_eliminated(sample_problem(make(np.random.default_rng(40), grid), grid))
    else:
        op = unstable_problem(*UNSTABLE[case])
    system = reduction.BlockSystem(op)
    want = np.linalg.cond(system.diag, 1)
    assert np.all(np.isfinite(want))
    assert np.array_equal(system.diag_cond(), want)


@pytest.mark.parametrize("block", ["singular", "nan"])
def test_a_singular_or_nan_block_declines_the_structured_route(block):
    grid, make = STRUCTURED_FAMILIES["all-variable"]
    op = assemble_eliminated(sample_problem(make(np.random.default_rng(40), grid), grid))
    system = reduction.BlockSystem(op)
    if block == "singular":
        system.diag[3] = 0.0
        assert np.linalg.cond(system.diag, 1)[3] == math.inf
        with pytest.raises(np.linalg.LinAlgError):
            system.diag_cond()
    else:
        system.diag[3, 1, 2] = math.nan
        assert math.isnan(np.linalg.cond(system.diag, 1)[3])
        assert math.isnan(system.diag_cond()[3])
    assert solver_mod._structured_inverse(system) is None


@pytest.mark.parametrize("shape", [(3, 3), (7, 7), (9, 5), (49, 49)])
def test_structured_estimate_is_exactly_one_for_k_zero(shape):
    grid = build_grid(DOM, *shape)
    prob = PdeProblem(DOM, Coefficients(), Field2D(lambda x, y: np.cos(x) + y))
    op = assemble_eliminated(sample_problem(prob, grid))
    core, cond = solve_dense(op)
    assert cond == 1.0
    assert np.array_equal(core, op.g)


@pytest.mark.parametrize("magnitude, seed, guard", [(*UNSTABLE[g], g) for g in UNSTABLE])
def test_unstable_structured_route_falls_back_to_the_lu_bits(magnitude, seed, guard):
    # all-variable coefficients of this size can leave the Woodbury core far
    # from LU's (2.7 relative at scale 20, seed 1; 1.3e-8 at scale 5, seed
    # 3): the structured route declines, and LU gives the bits it gave before
    op = unstable_problem(magnitude, seed)
    system = reduction.BlockSystem(op)
    assert (solver_mod._structured_inverse(system) is None) is (guard == "condition")
    assert solver_mod._solve_structured(op) is None
    _, lu_core, lu_cond = lu_route(op)
    core, cond = solve_dense(op)
    assert np.array_equal(core, lu_core) and cond == lu_cond


def test_structured_route_peak_memory():
    # the route's pieces are O(n1 n2^2): C_i of four kinds, T_ii, their
    # inverses and T^-1 U, about 1 MB each at 49 x 49, against K's 46 MB;
    # measured peak 8.8 MB
    rng = np.random.default_rng(21)
    grid = build_grid(DOM, 49, 49)
    prob, _ = random_forward_problem(rng, grid, random_coefficients(rng))
    op = assemble_eliminated(sample_problem(prob, grid))
    op.g                # made before the measurement, as a Neumann pass would
    tracemalloc.start()
    try:
        solve_dense(op)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert solver_mod._solve_structured(op) is not None
    assert peak <= 0.25 * (49 * 49) ** 2 * 8


# ------------------------------------------------------------- linearity

def test_full_pipeline_superposition():
    rng = np.random.default_rng(25)
    grid = build_grid(DOM, 9, 9)
    coeffs = random_coefficients(rng)
    p1, _ = random_forward_problem(rng, grid, coeffs)
    p2, _ = random_forward_problem(rng, grid, coeffs)
    a, b = 0.6, -1.1
    combo = PdeProblem(
        DOM, coeffs,
        Field2D(lambda x, y, _f=p1.forcing, _g=p2.forcing:
                a * _f.eval(x, y) + b * _g.eval(x, y)),
        combine((a, p1.data), (b, p2.data)))
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
    with pytest.raises(ValueError):
        solve_problem(case.problem, grid, method="bogus")


DIVERGED = "successive approximations diverged after 8 iterations; "


@pytest.mark.parametrize("c, method, used, converged, diverged, iterated, cond, warning", [
    (0.1, "auto", "neumann", True, False, True, False, None),
    (0.1, "neumann", "neumann", True, False, True, False, None),
    (0.1, "dense", "dense", True, False, False, True, None),
    (50.0, "auto", "dense", True, True, True, True, DIVERGED + "dense fallback used"),
    (50.0, "neumann", "neumann", False, True, True, False,
     DIVERGED + "partial iterate returned, consider method='dense'"),
    (50.0, "dense", "dense", True, False, False, True, None),
])
def test_route_outcomes(c, method, used, converged, diverged, iterated, cond, warning):
    grid = build_grid(DOM, 9, 9)
    case = make_mms(trig_solution(), const_coeffs(c_xy=c), DOM)
    report = solve_problem(case.problem, grid, method=method).report
    assert report.method == used
    assert report.converged is converged
    assert report.neumann_diverged is diverged
    assert (report.iterations > 0) is iterated
    assert (report.condition_estimate is not None) is cond
    assert report.warning == warning


def test_auto_fallback_failure_message():
    grid = build_grid(DOM, 71, 71)
    case = make_mms(trig_solution(), const_coeffs(c_xy=50.0), DOM)
    with pytest.raises(SolverError) as err:
        solve_problem(case.problem, grid, residual_gate=False)
    assert str(err.value) == (
        "successive approximations diverged after 8 iterations and the dense fallback "
        "failed: dense solve refused: dense assembly limited to 4900 nodes; "
        "use the matrix-free matvec")


@pytest.mark.parametrize("h1", [1e160, 1e300])
def test_zero_problem_solves_on_a_side_whose_moment_weights_overflow(h1):
    # the moment weights are of order h1^2 / n and overflow; the moment
    # average that K reads does not, so the zero problem solves to u = 0
    dom = Domain(h1, 1.0)
    result = solve_problem(PdeProblem(dom, Coefficients()), build_grid(dom, 9, 9),
                           residual_gate=False)
    assert result.report.method == "neumann" and result.report.converged
    assert not np.any(result.bundle.u.values)


#: a term that makes I + K numerically singular, by the part of the
#: structured route that sees it: "capacitance" cancels I on every core
#: constant along x, so C is singular and the route leaves the solve to LU;
#: "triangular" makes each T_ii 0.01 I, well conditioned, while T^-1 grows
#: as about 200^(n1 - 1), which only the condition estimate sees
SINGULAR_TERMS = {
    "capacitance": lambda grid: Term(np.full(grid.shape, -1.0 / np.sum(grid.ax.moment_avg)),
                                     MOM, IDENT),
    "triangular": lambda grid: Term(np.full(grid.shape, -1.98 / grid.x[1]), CUM0, IDENT),
}


def test_dense_route_refuses_a_singular_system(monkeypatch, tmp_path, capsys):
    # both systems reach the structured route: one is refused by the LU route
    # it falls back to, the other by the structured route's own estimate
    message = "second-kind system numerically singular"
    grid = build_grid(DOM, 9, 9)
    case = make_mms(trig_solution(), Coefficients(), DOM)
    config = Path(__file__).resolve().parent.parent / "configs" / "trig.cfg"  # K = 0 too
    kernel_terms, structured = reduction.kernel_terms, solver_mod._solve_structured
    for name, by_lu in (("capacitance", True), ("triangular", False)):
        outcomes = []
        monkeypatch.setattr(reduction, "kernel_terms", lambda c, g, _extra=SINGULAR_TERMS[name]:
                            kernel_terms(c, g) + [_extra(g)])
        monkeypatch.setattr(solver_mod, "_solve_structured",
                            lambda op: outcomes.append(structured(op)) or outcomes[-1])
        with pytest.raises(SolverError, match=message):
            solve_problem(case.problem, grid, method="dense", residual_gate=False)
        (outcome,) = outcomes
        assert (outcome is None) is by_lu
        assert by_lu or outcome[1] > solver_mod.SINGULAR_CONDITION
        capsys.readouterr()
        assert cli_main(["solve", "--config", str(config), "--out", str(tmp_path),
                         "--grid", "9x9", "--method", "dense"]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"solver failure: {message} (cond ~ ")
        assert err.count("\n") == 1
        assert not (tmp_path / "report.json").exists()


def counting(f, counts, key):
    """`f` as a Field2D that counts its samples in counts[key]."""
    def fn(x, y):
        counts[key] = counts.get(key, 0) + 1
        return f.eval(x, y)
    return Field2D(fn)


@pytest.mark.parametrize("method, c, used", [
    ("neumann", 0.1, "neumann"),
    ("auto", 50.0, "dense"),          # stiff: the iteration diverges, dense LU runs
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


def test_grid_and_data_arrays_are_frozen():
    grid = build_grid(DOM, 9, 9)
    with pytest.raises(ValueError):
        grid.x[0] = 1.0
    case = make_mms(trig_solution(), Coefficients(), DOM)
    result = solve_problem(case.problem, grid)
    with pytest.raises(ValueError):
        result.bundle.u.values[0, 0] = 7.0


def test_sampled_forcing_is_adopted_without_a_copy():
    # the forcing norm of a solve reads the sampled forcing itself
    grid = build_grid(DOM, 9, 9)
    sp = sample_problem(make_mms(trig_solution(), Coefficients(), DOM).problem, grid)
    assert not sp.forcing.flags.writeable
    assert GridFn2D(grid, sp.forcing).values is sp.forcing


def test_a_grid_off_the_problems_domain_is_refused():
    # a grid on another rectangle would solve another problem and report a pass
    case = make_mms(trig_solution(), Coefficients(), Domain(1, 1))
    grid = build_grid(Domain(2, 2), 17, 17)
    for solve in (sample_problem, solve_problem):
        with pytest.raises(ValueError, match="the problem is posed on"):
            solve(case.problem, grid)
    assert solve_problem(case.problem, build_grid(Domain(1.0, 1.0), 17, 17)).report.residual_pass


def test_neumann_route_builds_no_weight_table():
    # the matrix-free route integrates by running sums, gate on or off
    grid = build_grid(DOM, 33, 33)
    case = make_mms(trig_solution(), const_coeffs(c_xy=0.2, c_u=0.1), DOM)
    for gate in (False, True):
        result = solve_problem(case.problem, grid, method="neumann", residual_gate=gate)
        assert result.report.converged
    assert result.report.residual_pass


def test_gate_on_solve_peak_memory(monkeypatch):
    # the gate is calibrated before the problem is sampled, and the
    # calibration's reference bundles are freed before it returns: a cold
    # gate-on solve peaks no higher than the gate-off solve of the same problem
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


def test_gate_off_solve_peak_memory():
    # the operator is dropped after the route block, matvec works in one
    # x-side grid that it reuses and in `out`, and applies the y side in row
    # tiles, the iterates swap between reused buffers, the core, the bundle
    # sums and the residual are adopted, not copied, and a running integral
    # makes no grid besides its two results: at most 26 grids at the peak
    rng = np.random.default_rng(21)
    grid = build_grid(DOM, 129, 129)
    prob, _ = random_forward_problem(rng, grid, random_coefficients(rng))
    tracemalloc.start()
    try:
        report = solve_problem(prob, grid, method="neumann", residual_gate=False).report
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.converged
    assert peak <= 26 * grid.shape[0] * grid.shape[1] * 8


def test_large_gate_off_solve_peaks_in_the_neumann_loop():
    # no full-grid scratch besides the loop's own: matvec's one work grid,
    # the two iterates and row tiles; the update norm, the bundle sums and
    # the norms work in row tiles or in place, and the forcing is adopted
    rng = np.random.default_rng(21)
    grid = build_grid(DOM, 257, 257)
    prob, _ = random_forward_problem(rng, grid, random_coefficients(rng))
    tracemalloc.start()
    try:
        report = solve_problem(prob, grid, method="neumann", residual_gate=False).report
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.converged
    assert peak <= 21.5 * grid.shape[0] * grid.shape[1] * 8


def test_assemble_solution_peak_memory():
    # the core's y-side running integrals are taken for one x-side partial
    # at a time: the eight new grids of the bundle (nine with the copied,
    # writeable core) and little more
    rng = np.random.default_rng(22)
    grid = build_grid(DOM, 257, 257)
    sd = sample_data(random_forward_problem(rng, grid, random_coefficients(rng))[0].data, grid)
    quadruple = (0.3, rng.standard_normal(257), rng.standard_normal(257),
                 rng.standard_normal(grid.shape))
    tracemalloc.start()
    try:
        assemble_solution(sd, grid, quadruple)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 10.6 * grid.shape[0] * grid.shape[1] * 8


def test_in_place_work_leaves_caller_arrays_alone(monkeypatch):
    rng = np.random.default_rng(23)
    grid = build_grid(Domain(2.0, 0.5), 15, 11, x_breakpoints=[0.7], y_breakpoints=[0.2])
    prob, forward = random_forward_problem(rng, grid, random_coefficients(rng))
    sampled = []

    def sample_and_copy(problem, on):
        sp = sample_problem(problem, on)
        arrays = [*sp.coeffs.values(), sp.forcing,
                  *(v for v in vars(sp.data).values() if isinstance(v, np.ndarray))]
        sampled.append((arrays, [a.copy() for a in arrays]))
        return sp

    monkeypatch.setattr(solver_mod, "sample_problem", sample_and_copy)
    result = solve_problem(prob, grid, method="neumann", residual_gate=False)
    (arrays, before), = sampled
    assert all(np.array_equal(a, b) for a, b in zip(arrays, before))
    assert len(arrays) == 17    # 8 coefficients, the forcing, 8 data vectors

    bundle = [getattr(result.bundle, name).values for name in vars(result.bundle)]
    assert len(bundle) == 9 and not any(v.flags.writeable for v in bundle)
    assert not any(np.shares_memory(a, b) for i, a in enumerate(bundle) for b in bundle[i + 1:])

    # representation reads the quadruple and the data, and writes neither
    sd = sample_data(prob.data, grid)
    old = (forward.uxxy.values[:, 0], forward.uxyy.values[0, :], forward.uxxyy.values)
    quad = (forward.uxy.values[0, 0], *(v.copy() for v in old))
    data = {k: v.copy() for k, v in vars(sd).items() if isinstance(v, np.ndarray)}
    grids = dict(reduction.representation(sd, grid, quad))
    assert grids["uxxyy"] is quad[3] and all(a.flags.writeable for a in quad[1:])
    assert all(np.array_equal(new, v) for new, v in zip(quad[1:], old))
    assert all(np.array_equal(getattr(sd, k), v) for k, v in data.items())


def test_dense_route_peak_memory():
    # K is assembled one row block at a time and I + K is formed in place:
    # no temporary as large as K besides the inverse and LU copies
    rng = np.random.default_rng(21)
    grid = build_grid(DOM, 49, 49)
    prob, _ = random_forward_problem(rng, grid, random_coefficients(rng))
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


def test_calibration_solves_nothing(monkeypatch):
    # the reference problems have K = 0, so their core is the forcing: the
    # calibration rebuilds each bundle from it and reaches no solve route
    grid = build_grid(DOM, 17, 17)
    expected = dense_route_threshold(grid, 2.0)

    def refuse(*args, **kwargs):
        raise AssertionError("the calibration solved a system")

    for name in ("solve_problem", "solve_neumann", "solve_dense", "assemble_eliminated",
                 "check_data_constraints"):
        monkeypatch.setattr(solver_mod, name, refuse)
    monkeypatch.setattr(solver_mod, "_THRESHOLD_CACHE", {})
    assert calibrate_residual_threshold(grid) == expected


@pytest.mark.parametrize("grid, threshold", [
    (build_grid(DOM, 17, 17), 0.01774602410513193),
    (build_grid(DOM, 33, 33), 0.004436471106328277),
    (build_grid(DOM, 65, 65), 0.0011091155977682732),
    (build_grid(DOM, 70, 70), 0.0009541980829874674),
    (build_grid(DOM, 129, 129), 0.00027727876332317436),
    (build_grid(Domain(2.0, 0.5), 44, 25, x_breakpoints=[0.7, 1.3], y_breakpoints=[0.2]),
     0.005202099743359945),
], ids=["17x17", "33x33", "65x65", "70x70", "129x129", "44x25-breakpoints"])
def test_calibrated_threshold_golden(grid, threshold, monkeypatch):
    # the gate is never loosened: thresholds stay those of the dense-route rule
    monkeypatch.setattr(solver_mod, "_THRESHOLD_CACHE", {})
    assert calibrate_residual_threshold(grid) == pytest.approx(threshold, rel=1e-12)


def test_calibration_refuses_non_finite_reference(monkeypatch):
    grid = build_grid(DOM, 9, 9)
    monkeypatch.setattr(solver_mod, "_THRESHOLD_CACHE", {})
    monkeypatch.setattr(solver_mod, "_reference_problems", lambda domain: [nan_datum("ux01")])
    with pytest.raises(SolverError, match="non-finite"):
        calibrate_residual_threshold(grid)
    assert solver_mod._THRESHOLD_CACHE == {}
