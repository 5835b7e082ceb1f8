"""Tests of the benchmark itself: PYTHONPATH=src python -m pytest -q perfbench"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from mangeron import config, grids, problem, reduction, solver
from perfbench.inputs import SHAPES, make_config, make_problem
from perfbench.run import tail
from perfbench.tracing import Span, Tracer, layer_metrics, load_spans, self_times, uncovered
from perfbench.workloads import CLI_ENTRY, ROOT, child_env, tolerance


def _generate_in_fresh_process(hash_seed: str) -> str:
    code = ("import sys; from perfbench.inputs import make_config; "
            "sys.stdout.write(make_config('cli-cold', 7, 3))")
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(ROOT))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout


def test_generator_is_deterministic_per_seed():
    assert _generate_in_fresh_process("1") == _generate_in_fresh_process("2") \
        == make_config("cli-cold", 7, 3)
    for name in SHAPES:
        texts = {make_config(name, seed, op) for seed in (1, 2) for op in (0, 1)}
        assert len(texts) == 4, name


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_config_text_and_problem_are_the_same_problem(tmp_path, name):
    path = tmp_path / "c.cfg"
    path.write_text(make_config(name, 3, 0))
    cfg = config.load_config(str(path))
    assert (cfg.n1, cfg.n2) == (SHAPES[name].n, SHAPES[name].n)
    assert cfg.solver.method == SHAPES[name].method
    grid = grids.build_grid(cfg.domain, 17, 17)
    from_text, _ = config.build_problem(cfg, grid)
    direct = make_problem(name, 3, 0)
    text_c = from_text.coeffs.sample_all(grid)
    direct_c = direct.coeffs.sample_all(grid)
    for key in text_c:
        np.testing.assert_allclose(text_c[key], direct_c[key], rtol=0, atol=1e-14)
    np.testing.assert_allclose(from_text.forcing.sample(grid), direct.forcing.sample(grid),
                               rtol=1e-13, atol=1e-13)
    a, b = problem.sample_data(from_text.data, grid), problem.sample_data(direct.data, grid)
    for key in ("uy10", "ux01", "uxx_top", "uyy_right", "uxx_bottom", "uyy_left"):
        np.testing.assert_allclose(getattr(a, key), getattr(b, key), rtol=0, atol=1e-15)
    if SHAPES[name].coefficients == "stiff":
        assert set(cfg.coeff_exprs) == {"c_xy"}
        assert 50.0 <= float(text_c["c_xy"][0, 0]) <= 60.0
    else:
        assert max(float(np.max(np.abs(c))) for c in text_c.values()) <= 0.3 + 1e-5


def _solve(name, n, gate):
    grid = grids.build_grid(grids.Domain(1.0, 1.0), n, n)
    return solver.solve_problem(make_problem(name, 5, 0), grid,
                                method=SHAPES[name].method, residual_gate=gate)


@pytest.mark.parametrize("name, n, gate", [("large-neumann", 17, False),
                                           ("stiff-fallback", 13, True)])
def test_tracing_does_not_change_results(name, n, gate):
    plain = _solve(name, n, gate).report.as_dict()
    tracer = Tracer()
    tracer.op = 0
    with tracer.installed():
        traced = _solve(name, n, gate).report.as_dict()
    assert traced == plain
    names = {s.name for s in tracer.spans}
    assert {"solver.solve_problem", "reduction.assemble_eliminated",
            "reduction.DiscreteOperator.matvec", "fields.Field2D.sample",
            "norms.sobolev_norm"} <= names
    if name == "stiff-fallback":
        assert {"solver.linalg.cond", "solver.linalg.solve"} <= names
    # every patched name is restored
    assert solver.assemble_eliminated is reduction.assemble_eliminated
    assert solver.np is np
    assert not hasattr(solver.solve_problem, "__wrapped__")


def _span(name, start, end, parent=None):
    return Span(name, start, end, parent, 0)


def test_self_time_is_duration_minus_child_coverage():
    spans = [_span("solver.a", 0.0, 10.0),          # children cover [1, 4] and [5, 7]
             _span("reduction.b", 1.0, 4.0, 0),     # child covers [2, 3]
             _span("grids.c", 2.0, 3.0, 1),
             _span("norms.d", 5.0, 7.0, 0),
             _span("fields.e", 5.5, 6.0, 3),        # overlapping children count once
             _span("fields.f", 5.8, 6.5, 3)]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 1.0, 0.5, 0.7])
    assert uncovered(spans, (-1.0, 12.0)) == pytest.approx(3.0)
    # an entry point's own span is no coverage: what is left is its self time
    spans[0].name = "solver.solve_problem"
    assert uncovered(spans, (0.0, 10.0)) == pytest.approx(5.0)


def test_layer_metrics_count_per_operation():
    spans = [Span("solver.solve_neumann", 0.0, 2.0, None, 0, {"iterations": 4,
                                                               "converged": True}),
             Span("reduction.DiscreteOperator.matvec", 0.5, 1.0, 0, 0),
             Span("solver.solve_neumann", 3.0, 4.0, None, 1, {"iterations": 6,
                                                               "converged": False}),
             Span("solver.solve_neumann", 5.0, 9.0, None, 2, {"iterations": 1,
                                                               "converged": True})]
    m = layer_metrics(spans, [0, 1])     # operation 2 was not traced
    assert m["solver.neumann_iters"] == 5.0
    assert m["solver.neumann_useful"] == 0.5
    assert m["solver.neumann_s"] == 1.5
    assert m["reduction.matvec_calls"] == 0.5
    assert m["reduction.matvec_s"] == 0.5
    assert m["solver.self_s"] == pytest.approx(1.25)


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert tail([float(i) for i in range(1, 31)])[0] == 20.0     # p67: 21..30 beyond
    assert tail([float(i) for i in range(1, 9)])[0] == 4.5       # too few: the median


def test_tolerance_is_h_squared():
    assert tolerance(49) == pytest.approx(1.0 / 48 ** 2)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert all("h^2" in w["why"] for w in bench["workloads"])


def test_cli_shim_traces_a_fresh_solve_process(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(make_config("cli-cold", 1, 0))
    args = ["solve", "--config", str(cfg), "--grid", "9x9", "--out", str(tmp_path / "out")]
    spans_path = tmp_path / "spans.json"
    shim = subprocess.run([sys.executable, str(ROOT / "perfbench" / "cli_shim.py"),
                           str(spans_path), *args], env=child_env(), cwd=ROOT)
    assert shim.returncode == 0
    traced_csv = (tmp_path / "out" / "solution.csv").read_bytes()
    plain = subprocess.run([sys.executable, "-c", CLI_ENTRY, *args], env=child_env(), cwd=ROOT)
    assert plain.returncode == 0
    assert (tmp_path / "out" / "solution.csv").read_bytes() == traced_csv
    spans = load_spans(str(spans_path))
    names = [s.name for s in spans]
    assert names[0] == "cli.import"
    assert {"cli.main", "config.load_config", "solver.calibrate_residual_threshold",
            "cli.write_solution_csv"} <= set(names)
    assert all(math.isfinite(s.end) and s.end >= s.start for s in spans)
