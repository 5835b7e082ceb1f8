import filecmp
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mangeron.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def run(args):
    return main([str(a) for a in args])


def read_report(out_dir):
    with open(Path(out_dir) / "report.json") as fh:
        return json.load(fh)


def test_solve_zero_config(tmp_path):
    assert run(["solve", "--config", CONFIGS / "zero.cfg", "--out", tmp_path]) == 0
    rows = (tmp_path / "solution.csv").read_text().splitlines()
    assert rows[0] == "x,y,u,ux,uy,uxx,uyy,uxy,uxxy,uxyy,uxxyy"
    data = np.loadtxt(rows[1:], delimiter=",")
    assert data.shape == (81, 11)
    np.testing.assert_allclose(data[:, 2:], 0.0, atol=1e-15)


def test_solve_zero_config_row_order(tmp_path):
    run(["solve", "--config", CONFIGS / "zero.cfg", "--out", tmp_path])
    data = np.loadtxt((tmp_path / "solution.csv").read_text().splitlines()[1:],
                      delimiter=",")
    # y varies in the outer loop: the first 9 rows share y = 0
    np.testing.assert_allclose(data[:9, 1], 0.0)
    np.testing.assert_allclose(data[:9, 0], np.linspace(0, 1, 9))


def test_solve_biquadratic_golden(tmp_path):
    assert run(["solve", "--config", CONFIGS / "biquadratic.cfg",
                "--out", tmp_path]) == 0
    report = read_report(tmp_path)
    assert report["sup_error_vs_reference"] <= 5e-3
    assert report["residual_pass"] is True
    assert set(report["residual_bc"]) == {
        "u00", "ux00", "uy00", "uxx_bottom", "uyy_left", "u10", "uy10",
        "uyy_right", "u01", "ux01", "uxx_top"}


def test_solve_trig_with_overrides(tmp_path):
    assert run(["solve", "--config", CONFIGS / "trig.cfg", "--out", tmp_path,
                "--grid", "17x17", "--method", "dense", "--p", "inf"]) == 0
    report = read_report(tmp_path)
    assert report["method"] == "dense"
    assert report["grid"] == {"n1": 17, "n2": 17}
    assert report["sup_error_vs_reference"] <= 1e-3


def test_solve_classical_config(tmp_path):
    assert run(["solve", "--config", CONFIGS / "plane_classical.cfg",
                "--out", tmp_path]) == 0
    assert read_report(tmp_path)["sup_error_vs_reference"] <= 1e-10


def test_solve_divergent_case_falls_back_and_succeeds(tmp_path):
    assert run(["solve", "--config", CONFIGS / "stiff.cfg", "--out", tmp_path]) == 0
    report = read_report(tmp_path)
    assert report["method"] == "dense"
    assert report["neumann_diverged"] is True
    assert "diverged" in report["warning"]
    assert report["sup_error_vs_reference"] <= 1e-2


def test_constraint_violation_exit_codes(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text((CONFIGS / "plane_nonclassical.cfg").read_text()
                   .replace("u10 = 1", "u10 = 3"))
    assert run(["solve", "--config", bad, "--out", tmp_path / "a"]) == 3
    # forced solve completes, reports the violation, and fails the gate
    assert run(["solve", "--config", bad, "--out", tmp_path / "b", "--force"]) == 4
    report = read_report(tmp_path / "b")
    assert report["constraint_pass"] is False
    assert report["residual_pass"] is False
    assert report["constraint_residuals"]["bottom-edge route to u(h1,0)"] \
        == pytest.approx(2.0)


def test_malformed_config_exit_two(tmp_path):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("[domain]\nh1 = 1.0\nh2 = 1.0\n")   # missing grid/forcing/data
    assert run(["solve", "--config", cfg, "--out", tmp_path]) == 2
    cfg.write_text((CONFIGS / "zero.cfg").read_text()
                   .replace("z = zero", "z = sin(q)"))
    assert run(["solve", "--config", cfg, "--out", tmp_path]) == 2


@pytest.mark.parametrize("p", ["0.5", "nan", "abc"])
def test_invalid_norm_exponent_exits_two(tmp_path, capsys, p):
    # on the command line
    assert run(["solve", "--config", CONFIGS / "zero.cfg", "--out", tmp_path / "a",
                "--p", p]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    # and under [solver] in the config
    cfg = tmp_path / "p.cfg"
    cfg.write_text((CONFIGS / "zero.cfg").read_text() + f"p = {p}\n")
    assert run(["solve", "--config", cfg, "--out", tmp_path / "b"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()


@pytest.mark.parametrize("setting", ["max_iter = 0", "max_iter = -3",
                                     "tol = nan", "tol = 0", "tol = -1e-10"])
def test_invalid_solver_options_exit_two(tmp_path, capsys, setting):
    cfg = tmp_path / "s.cfg"
    cfg.write_text((CONFIGS / "zero.cfg").read_text() + setting + "\n")
    assert run(["solve", "--config", cfg, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: [solver]") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_uncovered_piecewise_expression_exits_two(tmp_path, capsys):
    cfg = tmp_path / "pw.cfg"
    for section, key in (("coefficients", "c_u"), ("reference", "u")):
        cfg.write_text((CONFIGS / "zero.cfg").read_text()
                       + f"\n[{section}]\n{key} = piecewise((0, 0.5, 0, 1): 1)\n")
        assert run(["solve", "--config", cfg, "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "cover" in err
        # the key of the expression and the first uncovered node (9 x 9 grid)
        assert f"{section}.{key}: " in err and "(0.625, 0.0)" in err
        assert not (tmp_path / "out").exists()


def test_output_path_under_a_file_exits_two(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert run(["solve", "--config", CONFIGS / "zero.cfg", "--out", blocker / "sub"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert sorted(os.listdir(tmp_path)) == ["file"]


@pytest.mark.parametrize("command", [["solve", "--config", CONFIGS / "zero.cfg"],
                                     ["verify", "--suite", "exact-bilinear"]])
def test_blocked_output_path_exits_before_solving(tmp_path, monkeypatch, command):
    import mangeron.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("solved although the output path is blocked")

    monkeypatch.setattr(cli, "solve_problem", refuse)
    monkeypatch.setattr(cli, "convergence_study", refuse)
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert run(command + ["--out", blocker / "sub"]) == 2
    assert run(command + ["--out", blocker]) == 2
    assert sorted(os.listdir(tmp_path)) == ["file"]


def test_convert_plane_classical_to_nonclassical(tmp_path):
    assert run(["convert", "--config", CONFIGS / "plane_classical.cfg",
                "--direction", "to-nonclassical", "--out", tmp_path]) == 0
    with open(tmp_path / "converted_data.json") as fh:
        data = json.load(fh)
    assert data["u00"] == pytest.approx(0.0, abs=1e-12)
    assert data["ux00"] == pytest.approx(1.0, abs=1e-12)
    assert data["uy00"] == pytest.approx(1.0, abs=1e-12)
    assert data["u10"] == pytest.approx(1.0, abs=1e-12)
    assert data["u01"] == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(data["uxx_bottom"]["values"], 0.0, atol=1e-10)
    np.testing.assert_allclose(data["uyy_right"]["values"], 0.0, atol=1e-10)


def test_convert_round_trip_between_plane_configs(tmp_path):
    # the two bundled configs describe the same plane solution; converting
    # each into the other form must reproduce its counterpart
    assert run(["convert", "--config", CONFIGS / "plane_nonclassical.cfg",
                "--direction", "to-classical", "--out", tmp_path / "c"]) == 0
    with open(tmp_path / "c" / "converted_data.json") as fh:
        classical = json.load(fh)
    x = np.asarray(classical["bottom"]["nodes"])
    np.testing.assert_allclose(classical["bottom"]["values"], x, atol=1e-8)
    np.testing.assert_allclose(classical["top"]["values"], 1.0 + x, atol=1e-8)

    assert run(["convert", "--config", CONFIGS / "plane_classical.cfg",
                "--direction", "to-nonclassical", "--out", tmp_path / "n"]) == 0
    with open(tmp_path / "n" / "converted_data.json") as fh:
        nonclassical = json.load(fh)
    for key, want in (("u00", 0.0), ("ux00", 1.0), ("uy00", 1.0), ("u10", 1.0),
                      ("uy10", 1.0), ("u01", 1.0), ("ux01", 1.0)):
        assert nonclassical[key] == pytest.approx(want, abs=1e-8)


def test_convert_direction_mismatch_is_config_error(tmp_path):
    assert run(["convert", "--config", CONFIGS / "plane_classical.cfg",
                "--direction", "to-classical", "--out", tmp_path]) == 2


def test_check_passes_for_consistent_data(tmp_path):
    assert run(["check", "--config", CONFIGS / "plane_classical.cfg",
                "--out", tmp_path]) == 0
    assert run(["check", "--config", CONFIGS / "zero.cfg",
                "--out", tmp_path]) == 0
    assert run(["check", "--config", CONFIGS / "trig.cfg",
                "--out", tmp_path]) == 0


def test_check_reports_corner_mismatch(tmp_path):
    bad = tmp_path / "mismatch.cfg"
    bad.write_text((CONFIGS / "plane_classical.cfg").read_text()
                   .replace("left = y", "left = 5 + y"))
    assert run(["check", "--config", bad, "--out", tmp_path]) == 3
    with open(tmp_path / "check_report.json") as fh:
        report = json.load(fh)
    assert report["matching"]["passed"] is False
    assert report["matching"]["residuals"]["corner(0,0)"] == pytest.approx(5.0)


def test_solve_outputs_are_deterministic(tmp_path):
    run(["solve", "--config", CONFIGS / "biquadratic.cfg", "--out", tmp_path / "a"])
    run(["solve", "--config", CONFIGS / "biquadratic.cfg", "--out", tmp_path / "b"])
    assert filecmp.cmp(tmp_path / "a" / "solution.csv",
                       tmp_path / "b" / "solution.csv", shallow=False)
    assert filecmp.cmp(tmp_path / "a" / "report.json",
                       tmp_path / "b" / "report.json", shallow=False)


def test_csv_floats_have_full_precision(tmp_path):
    run(["solve", "--config", CONFIGS / "trig.cfg", "--out", tmp_path])
    body = (tmp_path / "solution.csv").read_text().splitlines()[1:]
    raw = max((cell for row in body for cell in row.split(",")), key=len)
    assert len(raw.split("e")[0].replace("-", "").replace(".", "")) >= 16


def test_verify_exact_bilinear_suite(tmp_path):
    assert run(["verify", "--suite", "exact-bilinear", "--out", tmp_path]) == 0
    table = (tmp_path / "convergence_bilinear.csv").read_text().splitlines()
    assert table[0] == "n,sup_error,observed_order,exact"
    assert all(line.endswith("true") for line in table[1:])
    with open(tmp_path / "verify_summary.json") as fh:
        assert json.load(fh)["passed"] is True


def test_verify_smooth_and_piecewise_suites(tmp_path):
    assert run(["verify", "--suite", "smooth-basic", "--out", tmp_path / "s"]) == 0
    with open(tmp_path / "s" / "verify_summary.json") as fh:
        summary = json.load(fh)
    orders = [r["order"] for r in summary["cases"]["trig"]["rows"] if r["order"]]
    assert all(o >= 1.9 for o in orders)
    assert run(["verify", "--suite", "piecewise", "--out", tmp_path / "p"]) == 0


def test_verify_unknown_suite(tmp_path):
    assert run(["verify", "--suite", "nope", "--out", tmp_path]) == 2


def test_solve_with_piecewise_coefficient_config(tmp_path):
    # jump coefficient expressed in the config mini-language, with the jump
    # line node-aligned through a breakpoint
    cfg = tmp_path / "pw.cfg"
    cfg.write_text("""
[domain]
h1 = 1.0
h2 = 1.0

[grid]
n1 = 17
n2 = 17
x_breakpoints = 0.5

[coefficients]
c_u = piecewise((0, 0.5, 0, 1): 1; (0.5, 1, 0, 1): 2)

[forcing]
z = piecewise((0, 0.5, 0, 1): sin(x)*sin(y) + sin(x)*sin(y); (0.5, 1, 0, 1): sin(x)*sin(y) + 2*sin(x)*sin(y))

[data.nonclassical]
uy10 = sin(1)
uyy_right = -sin(1) * sin(y)
ux01 = sin(1)
uxx_top = -sin(x) * sin(1)

[reference]
u = sin(x) * sin(y)
""")
    assert run(["solve", "--config", cfg, "--out", tmp_path]) == 0
    report = read_report(tmp_path)
    assert report["sup_error_vs_reference"] <= 5e-3


def test_solve_gate_on_above_dense_limit(tmp_path):
    assert run(["solve", "--config", CONFIGS / "trig.cfg", "--out", tmp_path,
                "--grid", "129x129"]) == 0
    report = read_report(tmp_path)
    assert report["method"] == "neumann"
    assert report["residual_pass"] is True


@pytest.mark.parametrize("config,extra", [
    ("trig.cfg", ["--grid", "101x101", "--method", "dense"]),
    ("stiff.cfg", ["--grid", "101x101"]),
    ("trig.cfg", ["--grid", "71x71", "--method", "coupled"]),
], ids=["dense", "auto-fallback", "coupled"])
def test_dense_limit_refusal_exits_four(tmp_path, capsys, config, extra):
    assert run(["solve", "--config", CONFIGS / config, "--out", tmp_path, *extra]) == 4
    err = capsys.readouterr().err
    assert err.startswith("solver failure: ")
    assert "dense assembly limited" in err
    assert not (tmp_path / "report.json").exists()


def test_cli_import_leaves_scipy_unloaded():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, mangeron.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_gate_on_solve_leaves_scipy_unloaded(tmp_path):
    # a cold CLI solve (residual gate on, Neumann route) never imports scipy
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys; from mangeron.cli import main; "
            f"rc = main(['solve', '--config', {str(CONFIGS / 'trig.cfg')!r}, "
            f"'--out', {str(tmp_path)!r}]); "
            "print(rc, sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip().splitlines()[-1] == "0 []"
    report = read_report(tmp_path)
    assert report["method"] == "neumann" and report["residual_pass"]
