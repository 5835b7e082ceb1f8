import ast
import filecmp
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mangeron import NonclassicalData, exprlang, solver as solver_mod, trace_axis
from mangeron.cli import fmt, main
from mangeron.solver import METHODS

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def run(args):
    return main([str(a) for a in args])


def read_report(out_dir):
    with open(Path(out_dir) / "report.json") as fh:
        return json.load(fh)


def run_fresh(args, **kwargs):
    """`main(args)` in a fresh interpreter, so that stderr is what a user sees;
    `kwargs` go to `subprocess.run`."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = f"import sys; from mangeron.cli import main; sys.exit(main({[str(a) for a in args]!r}))"
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          **kwargs)


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


@pytest.mark.parametrize("method", METHODS)
def test_solve_rational_classical_config_within_h_squared(tmp_path, method):
    # u = (1 + y) / (1 + x) on 21 x 21 nodes: the trapezoid error is O(h^2)
    assert run(["solve", "--config", CONFIGS / "rational_classical.cfg", "--out", tmp_path,
                "--method", method]) == 0
    report = read_report(tmp_path)
    assert report["residual_pass"] is True
    assert report["sup_error_vs_reference"] <= (1 / 20) ** 2


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


CONFIG_ERRORS = {
    # case: config (None: no file), text replaced, its replacement, part of the message
    "missing-file": (None, "", "", "cannot read config"),
    "no-section-header": ("trig.cfg", "[domain]\n", "", "malformed config"),
    "stray-line": ("trig.cfg", "[grid]\n", "[grid]\ngarbage line\n", "malformed config"),
    "unknown-coefficient": ("trig.cfg", "[forcing]\n",
                            "[coefficients]\nc_zz = 1\n\n[forcing]\n",
                            "unknown coefficient 'c_zz'"),
    "forcing-without-z": ("trig.cfg", "z = sin(x) * sin(y)\n", "", "[forcing] must define z"),
    "both-data-sections": ("plane_classical.cfg", "[data.classical]\n",
                           "[data.nonclassical]\n\n[data.classical]\n",
                           "exactly one of [data.nonclassical] or [data.classical]"),
    "unknown-nonclassical": ("trig.cfg", "u00 = 0\n", "u00 = 0\nu99 = 0\n",
                             "unknown data component 'u99'"),
    "unknown-classical": ("plane_classical.cfg", "top = 1 + x\n", "top = 1 + x\nmiddle = x\n",
                          "unknown data component 'middle'"),
    "classical-without-top": ("plane_classical.cfg", "top = 1 + x\n", "",
                              "[data.classical] must define top"),
    "tol-not-a-number": ("trig.cfg", "method = auto\n", "method = auto\ntol = abc\n",
                         "[solver] tol = 'abc'"),
    "max-iter-not-an-integer": ("trig.cfg", "method = auto\n", "method = auto\nmax_iter = 1e3\n",
                                "[solver] max_iter = '1e3': not an integer"),
    "n1-missing": ("trig.cfg", "n1 = 21\n", "", "[grid] must define n1"),
    "too-few-nodes": ("trig.cfg", "n1 = 21\n", "n1 = 2\n",
                      "[grid] n1 = '2': must be at least 3"),
    "max-iter-zero": ("trig.cfg", "method = auto\n", "method = auto\nmax_iter = 0\n",
                      "[solver] max_iter = '0': must be at least 1"),
    "p-below-one": ("trig.cfg", "method = auto\n", "method = auto\np = 0.5\n",
                    "[solver] p = '0.5': p must be >= 1, got 0.5"),
    "breakpoint-outside-domain": ("trig.cfg", "n1 = 21\n", "n1 = 21\nx_breakpoints = 1.5\n",
                                  "[grid] x_breakpoints = '1.5': "
                                  "breakpoint 1.5 outside open interval (0, 1.0)"),
    "side-too-small-for-its-nodes": ("trig.cfg", "h1 = 1.0\n", "h1 = 5e-324\n",
                                     "[grid] n1 = '21': 21 nodes on a side of 5e-324 "
                                     "are not distinct floats"),
}


@pytest.mark.parametrize("config, old, new, message", CONFIG_ERRORS.values(),
                         ids=list(CONFIG_ERRORS))
def test_config_error_exits_two_with_one_line(tmp_path, capsys, config, old, new, message):
    # configparser's messages span lines; a failure still prints exactly one
    cfg = tmp_path / "c.cfg"
    if config is not None:
        text = (CONFIGS / config).read_text()
        assert old in text
        cfg.write_text(text.replace(old, new))
    assert run(["solve", "--config", cfg, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("old, new, message", [
    ("[grid]", "[grid]\nx_breakpoints = abc", "[grid] x_breakpoints = 'abc'"),
    ("[grid]", "[grid]\ny_breakpoints = 0.5,,0.7", "[grid] y_breakpoints = '0.5,,0.7'"),
    ("h1 = 1.0", "h1 = inf", "[domain] h1 = 'inf'"),
    # the id names the rule this case has always checked
    pytest.param("h1 = 1.0", "h1 = 0", "[domain] h1 = '0': must be positive",
                 id="h1 = 1.0-h1 = 0-side lengths must be positive and finite"),
])
def test_invalid_grid_or_domain_values_exit_two(tmp_path, capsys, old, new, message):
    # every refused scalar reads `[section] key = 'text': reason`
    cfg = tmp_path / "g.cfg"
    cfg.write_text((CONFIGS / "zero.cfg").read_text().replace(old, new))
    assert run(["solve", "--config", cfg, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def same_outputs(tmp_path, config, old, spellings):
    """Solve `config` with `old` replaced by each spelling in turn; whether
    every spelling writes the bytes of the first."""
    tmp_path.mkdir(exist_ok=True)
    text = (CONFIGS / config).read_text()
    assert old in text
    outputs = []
    for k, new in enumerate(spellings):
        cfg = tmp_path / f"s{k}.cfg"
        cfg.write_text(text.replace(old, new))
        assert run(["solve", "--config", cfg, "--out", tmp_path / f"out{k}"]) == 0
        outputs.append([(tmp_path / f"out{k}" / name).read_bytes()
                        for name in ("report.json", "solution.csv")])
    return all(out == outputs[0] for out in outputs)


def test_sides_and_tolerance_are_constants(tmp_path):
    # a side, like a breakpoint, reads the constant rule: 2*pi is the literal
    assert same_outputs(tmp_path / "h1", "zero.cfg", "h1 = 1.0",
                        ["h1 = 2*pi", "h1 = 6.283185307179586"])
    assert same_outputs(tmp_path / "tol", "trig.cfg", "method = auto",
                        ["method = auto\ntol = 10^-8", "method = auto\ntol = 1e-08"])


def test_a_breakpoint_given_twice_is_one_node(tmp_path):
    # 1/3 and its literal are one double, so the grid holds it once
    assert same_outputs(tmp_path, "trig.cfg", "[grid]\n",
                        ["[grid]\nx_breakpoints = 1/3, 0.3333333333333333\n",
                         "[grid]\nx_breakpoints = 1/3\n"])


UNKNOWN_KEYS = {
    # case: text of trig.cfg replaced, its replacement, the message
    "domain": ("h2 = 1.0\n", "h2 = 1.0\nh3 = 1.0\n", "unknown key 'h3' in [domain]"),
    "grid": ("n2 = 21\n", "n2 = 21\nx_breakpoint = 0.5\n",
             "unknown key 'x_breakpoint' in [grid]"),
    "forcing": ("z = sin(x) * sin(y)\n", "z = sin(x) * sin(y)\nf = 1\n",
                "unknown key 'f' in [forcing]"),
    "solver": ("method = auto\n", "mehtod = dense\n", "unknown key 'mehtod' in [solver]"),
    "reference": ("[reference]\n", "[reference]\nv = x\n", "unknown key 'v' in [reference]"),
    "section": ("[solver]\n", "[solve]\n", "unknown section [solve]"),
    "default": ("[domain]\n", "[DEFAULT]\nn1 = 9\n\n[domain]\n",
                "unknown key 'n1' in [DEFAULT]"),
}


@pytest.mark.parametrize("old, new, message", UNKNOWN_KEYS.values(), ids=list(UNKNOWN_KEYS))
def test_unknown_section_or_key_exits_two(tmp_path, capsys, old, new, message):
    # a misspelt key is refused, not dropped for its default
    cfg = tmp_path / "k.cfg"
    text = (CONFIGS / "trig.cfg").read_text()
    assert old in text
    cfg.write_text(text.replace(old, new))
    assert run(["solve", "--config", cfg, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message} (") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_a_third_written_as_an_expression_is_the_literal(tmp_path):
    # a breakpoint and the piecewise bounds it aligns read one constant rule
    text = (CONFIGS / "piecewise.cfg").read_text()
    cfg = tmp_path / "third.cfg"
    outputs = [tmp_path / "expression", tmp_path / "literal"]
    for third, out in zip(("1/3", "0.3333333333333333"), outputs):
        cfg.write_text(text.replace("0.5", third))
        assert run(["solve", "--config", cfg, "--out", out]) == 0
    for name in ("report.json", "solution.csv"):
        assert (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes()


@pytest.mark.parametrize("bound, reason", [
    ("x", "not a constant: x"),
    ("piecewise((0, 1, 0, 1): 0.5)", "not a constant: piecewise("),
    ("1/0", "value inf is not finite"),
], ids=["x", "piecewise", "1/0"])
def test_piecewise_bound_that_is_not_a_constant_exits_two(tmp_path, capsys, bound, reason):
    cfg = tmp_path / "b.cfg"
    c_u = f"piecewise((0, {bound}, 0, 1): 1; (0.5, 1, 0, 1): 2)"
    cfg.write_text((CONFIGS / "piecewise.cfg").read_text().replace(
        "c_u = piecewise((0, 0.5, 0, 1): 1; (0.5, 1, 0, 1): 2)", f"c_u = {c_u}"))
    assert run(["solve", "--config", cfg, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: [coefficients] c_u = {c_u!r}: {reason}")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("h1", ["1e-200", "1e-320"])
def test_tiny_domain_solves_quietly(tmp_path, h1):
    # positive finite sides are admitted, so a tiny one must solve: the data
    # tolerance differences its samples in units of the step, with no fit
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text((CONFIGS / "zero.cfg").read_text().replace("h1 = 1.0", f"h1 = {h1}"))
    out = run_fresh(["solve", "--config", cfg, "--out", tmp_path / "out"])
    assert (out.returncode, out.stderr) == (0, "")
    assert read_report(tmp_path / "out")["residual_pass"] is True


def test_overflowing_domain_fails_with_one_line(tmp_path):
    # the quadrature overflows, or the reference forcing sin(x) exp(y) of the
    # calibration does; the calibration check reports it, and no numpy
    # warning precedes its line
    for old, new in (("h1 = 1.0", "h1 = 1e308"), ("h2 = 1.0", "h2 = 710"),
                     ("h2 = 1.0", "h2 = 1e300")):
        cfg = tmp_path / "huge.cfg"
        cfg.write_text((CONFIGS / "zero.cfg").read_text().replace(old, new))
        out = run_fresh(["solve", "--config", cfg, "--out", tmp_path / "out"])
        assert out.returncode == 4, new
        assert out.stderr.splitlines() == [
            "solver failure: residual-gate calibration gave a non-finite residual (nan)"], new
        assert not (tmp_path / "out").exists()


def test_overflowing_forcing_fails_the_gate(tmp_path):
    # the forcing norm overflows, so the threshold is not finite: the gate
    # must fail, not pass every residual; on [0, 2]^2 the L2 norm of this
    # forcing is 1.19 times its largest value, beyond the float range
    cfg = tmp_path / "huge.cfg"
    cfg.write_text((CONFIGS / "trig.cfg").read_text().replace(
        "z = sin(x) * sin(y)", "z = 1.7e308 * sin(x) * sin(y)").replace(
        "h1 = 1.0\nh2 = 1.0", "h1 = 2.0\nh2 = 2.0"))
    out = run_fresh(["solve", "--config", cfg, "--out", tmp_path / "out"])
    report = read_report(tmp_path / "out")
    assert report["forcing_norm"] == "inf"
    assert report["residual_threshold"] == "inf"
    assert report["residual_pass"] is False
    # the gate's line goes to stderr, alone, and not to stdout
    assert out.returncode == 4
    assert out.stderr.splitlines() == [
        f"solver failure: residual gate failed (pde {fmt(float(report['residual_pde']))}, "
        "threshold inf)"]
    assert "residual gate" not in out.stdout


def test_overflowing_data_norm_fails_the_gate(tmp_path, capsys):
    # u = 1.7e308 x is held exactly, with every residual 0, but three of its
    # scalar data sum past the float range: no finite threshold, so no pass
    cfg = tmp_path / "huge.cfg"
    text = (CONFIGS / "zero.cfg").read_text()
    for key in ("ux00", "u10", "ux01"):
        text = text.replace(f"\n{key} = 0\n", f"\n{key} = 1.7e308\n")
    cfg.write_text(text)
    assert run(["solve", "--config", cfg, "--out", tmp_path / "out"]) == 4
    report = read_report(tmp_path / "out")
    assert report["data_norm_value"] == report["residual_threshold"] == "inf"
    assert report["residual_pde"] == 0 and not any(report["residual_bc"].values())
    assert report["residual_pass"] is False
    assert capsys.readouterr().err == "solver failure: residual gate failed (pde 0, threshold inf)\n"


def test_huge_forcing_reports_finite_norms(tmp_path):
    # |forcing|^2 overflows node by node, but the norm of a 1e300 forcing is
    # finite, and so are the solution norm, the ratio and the threshold
    cfg = tmp_path / "huge.cfg"
    cfg.write_text((CONFIGS / "trig.cfg").read_text().replace(
        "z = sin(x) * sin(y)", "z = 1e300 * sin(x) * sin(y)"))
    assert run(["solve", "--config", cfg, "--out", tmp_path / "out"]) == 0
    report = read_report(tmp_path / "out")
    for key in ("forcing_norm", "solution_norm", "stability_ratio", "residual_threshold"):
        assert isinstance(report[key], float) and math.isfinite(report[key]), key
    assert 1e299 < report["forcing_norm"] < 1e300
    assert report["residual_pass"] is True
    assert all(math.isfinite(v) for v in json_numbers(report))


def test_unknown_method_exits_two(tmp_path, capsys):
    # one rule on the command line and under [solver] in the config;
    # `CoupledSystem` is no route, so `coupled` is unknown like any other name
    for k, method in enumerate(("bogus", "coupled")):
        reason = f" = {method!r}: not one of auto, neumann, dense\n"
        assert run(["solve", "--config", CONFIGS / "zero.cfg", "--out", tmp_path / f"a{k}",
                    "--method", method]) == 2
        assert capsys.readouterr().err == f"config error: --method{reason}"
        cfg = tmp_path / "m.cfg"
        cfg.write_text((CONFIGS / "zero.cfg").read_text().replace("method = auto",
                                                                  f"method = {method}"))
        assert run(["solve", "--config", cfg, "--out", tmp_path / f"b{k}"]) == 2
        assert capsys.readouterr().err == f"config error: [solver] method{reason}"
        assert not (tmp_path / f"a{k}").exists() and not (tmp_path / f"b{k}").exists()


def test_usage_error_is_one_line_and_help_goes_to_stdout():
    proc = run_fresh(["solve"], timeout=120)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("config error: ")
    assert "--config" in proc.stderr
    proc = run_fresh(["solve", "--help"], timeout=120)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.startswith("usage: mangeron solve")


@pytest.mark.parametrize("command", [["check"], ["convert", "--direction", "to-nonclassical"]])
@pytest.mark.parametrize("flag", [["--method", "dense"], ["--p", "3"]])
def test_only_solve_takes_method_and_p(tmp_path, capsys, command, flag):
    assert run([*command, "--config", CONFIGS / "plane_classical.cfg",
                "--out", tmp_path, *flag]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and flag[0] in err and err.count("\n") == 1
    assert os.listdir(tmp_path) == []


def test_bad_grid_override_exits_two(tmp_path, capsys):
    assert run(["solve", "--config", CONFIGS / "zero.cfg", "--out", tmp_path / "out",
                "--grid", "9by9"]) == 2
    assert capsys.readouterr().err == "config error: --grid expects N1xN2, got '9by9'\n"
    assert not (tmp_path / "out").exists()
    # each size is read as `[grid] n1` is, under the flag's name
    assert run(["solve", "--config", CONFIGS / "zero.cfg", "--out", tmp_path / "out",
                "--grid", "9x2"]) == 2
    assert capsys.readouterr().err == "config error: --grid N2 = '2': must be at least 3\n"
    assert not (tmp_path / "out").exists()
    # and on the config's side: 41 nodes on 1e-322 repeat a float, 9 do not
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text((CONFIGS / "zero.cfg").read_text().replace("h1 = 1.0", "h1 = 1e-322"))
    assert run(["solve", "--config", cfg, "--out", tmp_path / "out", "--grid", "41x9"]) == 2
    assert capsys.readouterr().err == ("config error: --grid N1 = '41': 41 nodes on a side "
                                       "of 1e-322 are not distinct floats\n")
    assert not (tmp_path / "out").exists()


def test_uncovered_piecewise_expression_exits_two(tmp_path, capsys):
    # pieces that leave a gap, overlap, stick out of the domain or are
    # degenerate are refused when the config is loaded, naming the key
    cfg = tmp_path / "pw.cfg"
    zero = (CONFIGS / "zero.cfg").read_text()
    for section, key, expr, message in (
            ("coefficients", "c_u", "piecewise((0, 0.5, 0, 1): 1)", "do not tile the domain"),
            ("reference", "u", "x * (1 + piecewise((0, 0.5, 0, 1): 1))",
             "do not tile the domain"),
            ("coefficients", "c_u",
             "piecewise((0, 1, 0, 1): 1; (0, 0.5, 0, 1): 2; (0.2, 0.3, 5, 9): 7)",
             "(0.2, 0.3, 5.0, 9.0) extends outside the domain"),
            ("coefficients", "c_xy", "piecewise((0, 0.7, 0, 1): 1; (0.3, 1, 0, 1): 2)",
             "overlap"),
            ("forcing", "z",
             "piecewise((0, 0.5, 0, 1): 1; (0.5, 0.5, 0, 1): 3; (0.5, 1, 0, 1): 2)",
             "degenerate piece (0.5, 0.5, 0.0, 1.0)"),
            ("data.nonclassical", "uxx_bottom", "piecewise((0, 0.6): 1; (0.2, 0.6): 2)",
             "overlap")):
        if section in ("forcing", "data.nonclassical"):
            text = zero.replace(f"{key} = zero", f"{key} = {expr}")
        else:
            text = zero + f"\n[{section}]\n{key} = {expr}\n"
        cfg.write_text(text)
        assert run(["solve", "--config", cfg, "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert err.startswith(f"config error: [{section}] {key} = ") and message in err
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
    monkeypatch.setattr("mangeron.mms.convergence_study", refuse)
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


@pytest.mark.parametrize("config", ["plane_classical.cfg", "rational_classical.cfg"])
def test_converted_expressions_reparse_to_their_values(tmp_path, config):
    # each folded second derivative renders as text that the expression
    # language reads back to the values written beside it
    data = convert_to_nonclassical(CONFIGS / config, tmp_path)
    for key in NonclassicalData.TRACE_KEYS:
        var = "xy"[trace_axis(key)]
        nodes = np.asarray(data[key]["nodes"])
        node = exprlang.parse(data[key]["expression"], (var,))
        got = np.broadcast_to(exprlang.evaluate(node, {var: nodes}), nodes.shape)
        np.testing.assert_array_equal(got, data[key]["values"], err_msg=key)


def test_converted_rational_edges_are_folded(tmp_path):
    data = convert_to_nonclassical(CONFIGS / "rational_classical.cfg", tmp_path)
    assert data["uyy_left"]["expression"] == data["uyy_right"]["expression"] == "0.0"
    assert data["uxx_bottom"]["expression"] == (
        "((2.0 * ((1.0 + x) ^ 1.0)) / (((1.0 + x) ^ 2.0) ^ 2.0))")


def classical_config(tmp_path, name, n, forcing, edges, reference=None):
    lines = ["[domain]", "h1 = 1.0", "h2 = 1.0", "[grid]", f"n1 = {n}", f"n2 = {n}",
             "[forcing]", f"z = {forcing}", "[data.classical]"]
    lines += [f"{key} = {text}" for key, text in edges.items()]
    if reference is not None:
        lines += ["[reference]", f"u = {reference}"]
    path = tmp_path / f"{name}.cfg"
    path.write_text("\n".join(lines) + "\n")
    return path


def convert_to_nonclassical(config, out):
    assert run(["convert", "--config", config, "--direction", "to-nonclassical",
                "--out", out]) == 0
    with open(Path(out) / "converted_data.json") as fh:
        return json.load(fh)


def test_constant_exponents_are_differentiated(tmp_path):
    # u* = 1/((1+x)(1+y)): an edge spelled with a constant negative power
    # converts exactly, like the same edge spelled as a quotient
    spellings = {"power": ("(1+y)^(-1)", "(1+x)^-1"), "quotient": ("1/(1+y)", "1/(1+x)")}
    errors = {}
    for name, (in_y, in_x) in spellings.items():
        cfg = classical_config(tmp_path, name, 17, "4 / ((1+x)^3 * (1+y)^3)",
                               {"left": in_y, "right": f"0.5 * {in_y}",
                                "bottom": in_x, "top": f"0.5 * {in_x}"},
                               reference="1 / ((1+x) * (1+y))")
        assert run(["solve", "--config", cfg, "--out", tmp_path / name]) == 0
        errors[name] = read_report(tmp_path / name)["sup_error_vs_reference"]
        data = convert_to_nonclassical(cfg, tmp_path / f"{name}-c")
        assert data["ux00"] == -1.0
        assert all("expression" in data[key] for key in NonclassicalData.TRACE_KEYS)
    assert errors["power"] == pytest.approx(errors["quotient"], abs=1e-12)


def test_convert_renders_derivatives_of_negations_cosines_and_pieces(tmp_path):
    edges = {"left": "-cos(y)", "right": "-cos(y) + 0.25",
             "bottom": "piecewise((0, 0.5): -1; (0.5, 1): -1 + (x - 0.5)^2)",
             "top": "-cos(1) + 0.25 * x^2"}
    data = convert_to_nonclassical(classical_config(tmp_path, "pieces", 21, "zero", edges),
                                   tmp_path)
    second = {"uxx_bottom": lambda x: np.where(x > 0.5, 2.0, 0.0),
              "uyy_left": np.cos, "uyy_right": np.cos,
              "uxx_top": lambda x: np.full_like(x, 0.5)}
    for key, want in second.items():
        var = "xy"[trace_axis(key)]
        nodes = np.asarray(data[key]["nodes"])
        node = exprlang.parse(data[key]["expression"], (var,))
        got = np.broadcast_to(exprlang.evaluate(node, {var: nodes}), nodes.shape)
        np.testing.assert_allclose(got, want(nodes), rtol=1e-12, atol=1e-12, err_msg=key)
        np.testing.assert_allclose(data[key]["values"], want(nodes), rtol=1e-12, atol=1e-12,
                                   err_msg=key)


def test_convert_differences_an_edge_with_a_variable_exponent(tmp_path):
    # 2^x has no symbolic derivative here: its traces come from grid differencing
    edges = {"left": "y", "right": "1 + y", "bottom": "2^x - 1", "top": "1 + 2^x - 1"}
    data = convert_to_nonclassical(classical_config(tmp_path, "var", 33, "zero", edges),
                                   tmp_path)
    assert "expression" not in data["uxx_bottom"] and "expression" not in data["uxx_top"]
    assert "expression" in data["uyy_left"]
    x = np.asarray(data["uxx_bottom"]["nodes"])
    np.testing.assert_allclose(data["uxx_bottom"]["values"], math.log(2) ** 2 * 2 ** x,
                               atol=1e-3)


def test_check_passes_for_consistent_data(tmp_path):
    assert run(["check", "--config", CONFIGS / "plane_classical.cfg",
                "--out", tmp_path]) == 0
    assert run(["check", "--config", CONFIGS / "zero.cfg",
                "--out", tmp_path]) == 0
    assert run(["check", "--config", CONFIGS / "trig.cfg",
                "--out", tmp_path]) == 0


@pytest.mark.parametrize("config, tolerance", [
    ("plane_classical.cfg", 1e-10),       # edges given as expressions
    ("plane_nonclassical.cfg", 1e-6),     # edges built by quadrature on the grid
])
def test_check_matching_tolerance_follows_the_edges(tmp_path, config, tolerance):
    assert run(["check", "--config", CONFIGS / config, "--out", tmp_path]) == 0
    with open(tmp_path / "check_report.json") as fh:
        assert json.load(fh)["matching"]["tolerance"] == tolerance


def test_check_reports_corner_mismatch(tmp_path):
    bad = tmp_path / "mismatch.cfg"
    bad.write_text((CONFIGS / "plane_classical.cfg").read_text()
                   .replace("left = y", "left = 5 + y"))
    assert run(["check", "--config", bad, "--out", tmp_path]) == 3
    with open(tmp_path / "check_report.json") as fh:
        report = json.load(fh)
    assert report["matching"]["passed"] is False
    assert report["matching"]["residuals"]["corner(0,0)"] == pytest.approx(5.0)


def test_far_corner_mismatch_exits_three(tmp_path, capsys):
    # classical edges that disagree only at (h1, h2) are refused by every command
    bad = tmp_path / "far.cfg"
    bad.write_text((CONFIGS / "plane_classical.cfg").read_text()
                   .replace("top = 1 + x", "top = 1 + 3*x"))
    for command in (["check"], ["solve"], ["convert", "--direction", "to-nonclassical"]):
        assert run([*command, "--config", bad, "--out", tmp_path / command[0]]) == 3
    with open(tmp_path / "check" / "check_report.json") as fh:
        assert json.load(fh)["matching"]["residuals"]["corner(h1,h2)"] == pytest.approx(2.0)
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all("corner(h1,h2)" in line for line in err)
    assert not (tmp_path / "solve").exists() and not (tmp_path / "convert").exists()


NON_FINITE_VALUES = (
    # a 0/0 at y = h2 in a classical edge, at x = 0 in a nonclassical trace,
    # a scalar inf - inf, and a constant forcing 1/0
    ("plane_classical.cfg", "left = y", "left = y * (y - 1) / (y - 1)",
     "[data.classical] left: value nan is not finite at (y = 1.0)"),
    ("plane_nonclassical.cfg", "uxx_top = zero", "uxx_top = x / x - 1",
     "[data.nonclassical] uxx_top: value nan is not finite at (x = 0.0)"),
    ("plane_nonclassical.cfg", "ux01 = 1", "ux01 = exp(1000) - exp(1000)",
     "[data.nonclassical] ux01 = 'exp(1000) - exp(1000)': value nan is not finite"),
    ("zero.cfg", "z = zero", "z = 1 / 0",
     "[forcing] z: value inf is not finite at (x = 0.0, y = 0.0)"),
)


@pytest.mark.parametrize("config, old, new, message", NON_FINITE_VALUES)
def test_non_finite_config_value_exits_two(tmp_path, capsys, config, old, new, message):
    bad = tmp_path / "nan.cfg"
    bad.write_text((CONFIGS / config).read_text().replace(old, new))
    direction = "to-nonclassical" if config == "plane_classical.cfg" else "to-classical"
    commands = [["solve"]]
    if message.startswith("[data."):   # check and convert read only the data
        commands += [["check"], ["convert", "--direction", direction]]
    for command in commands:
        assert run([*command, "--config", bad, "--out", tmp_path / command[0]]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: {message}\n"


def json_numbers(obj):
    """Every number in a loaded report; non-finite floats are written as strings."""
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        for item in obj:
            yield from json_numbers(item)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield float(obj)
    elif obj in ("nan", "inf", "-inf"):
        yield float(obj)


SMOKE_CONFIGS = sorted(CONFIGS.glob("*.cfg")) + [
    (config, old, new) for config, old, new, _ in NON_FINITE_VALUES]


@pytest.mark.parametrize("config", SMOKE_CONFIGS,
                         ids=lambda c: c.stem if isinstance(c, Path) else c[2])
def test_exit_zero_writes_only_finite_numbers(tmp_path, config):
    if not isinstance(config, Path):
        name, old, new = config
        config = tmp_path / "variant.cfg"
        config.write_text((CONFIGS / name).read_text().replace(old, new))
    for command in (["solve"], ["check"], ["convert", "--direction", "to-classical"],
                    ["convert", "--direction", "to-nonclassical"]):
        out = tmp_path / "-".join(command)
        if run([*command, "--config", config, "--out", out]) == 0:
            for path in out.glob("*.json"):
                numbers = list(json_numbers(json.loads(path.read_text())))
                assert numbers and all(math.isfinite(v) for v in numbers), path.name


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("config", sorted(CONFIGS.glob("*.cfg")), ids=lambda c: c.stem)
def test_solve_outputs_are_deterministic(tmp_path, capsys, monkeypatch, config, method):
    # two runs, each calibrating the gate afresh, write byte-identical files;
    # exit 0 writes nothing on stderr, and exit 4 one line
    for out in ("a", "b"):
        monkeypatch.setattr(solver_mod, "_THRESHOLD_CACHE", {})
        code = run(["solve", "--config", config, "--out", tmp_path / out, "--method", method])
        err = capsys.readouterr().err
        assert code in (0, 4)
        assert err == "" if code == 0 else len(err.splitlines()) == 1, err
    for name in ("report.json", "solution.csv"):
        assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name, shallow=False), name


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
    assert run(["solve", "--config", CONFIGS / "piecewise.cfg", "--out", tmp_path]) == 0
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
], ids=["dense", "auto-fallback"])
def test_dense_limit_refusal_exits_four(tmp_path, capsys, config, extra):
    assert run(["solve", "--config", CONFIGS / config, "--out", tmp_path, *extra]) == 4
    err = capsys.readouterr().err
    assert err.startswith("solver failure: ")
    assert "dense assembly limited" in err
    assert not (tmp_path / "report.json").exists()


def test_out_of_memory_exits_four(tmp_path):
    # a grid whose arrays cannot be allocated is a solver failure, not a
    # traceback; the address space is capped so that the refusal does not
    # depend on how the host overcommits memory
    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

    proc = run_fresh(["solve", "--config", CONFIGS / "trig.cfg", "--out", tmp_path,
                      "--grid", "1000000x1000000"], preexec_fn=cap_address_space)
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr.startswith("solver failure: out of memory (")
    assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr
    assert not (tmp_path / "report.json").exists()


def test_cli_import_leaves_scipy_unloaded():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, mangeron.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_package_never_imports_scipy():
    # numpy is the one runtime dependency; scipy serves the tests' oracle only
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parent.parent
    for path in sorted((root / "src" / "mangeron").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "scipy" for n in names), (path.name, node.lineno)
    with open(root / "pyproject.toml", "rb") as fh:
        dependencies = tomllib.load(fh)["project"]["dependencies"]
    assert [d.split(">")[0].split("=")[0].strip() for d in dependencies] == ["numpy"]


def test_cli_import_leaves_mms_unloaded():
    # the verification module and numpy.polynomial load on first use only
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, mangeron.cli; "
            "print(sorted(m for m in ('mangeron.mms', 'numpy.polynomial') if m in sys.modules)); "
            "from mangeron.mms import named_cases; print(sorted(named_cases()))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.splitlines()
    assert out[0] == "[]"
    assert "trig" in out[1]


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
