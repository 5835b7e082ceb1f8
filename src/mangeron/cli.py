"""Batch command line interface: solve, convert, check, verify.

One command per process, no state.  Outputs are a solution CSV (one row per
node, y varying in the outer loop) and JSON reports; all floating-point
output carries 17 significant digits so identical runs produce byte
identical files.

Exit codes: 0 success, 2 configuration error (including an expression that
fails to evaluate on the grid and an output directory that cannot be
created), 3 data-consistency failure, 4 solver failure (including a failed
residual gate, a failed verify suite, and a dense or coupled solve refused
above the dense limit).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import exprlang
from .config import (ConfigError, RunConfig, build_grid_from, build_problem, evaluate_expr,
                     load_config, norm_exponent)
from .mms import convergence_study, named_cases
from .problem import (DataConsistencyError, check_data_constraints, check_matching,
                      classical_to_nonclassical, nonclassical_to_classical, sample_data)
from .solver import METHODS, SolveResult, SolverError, solve_problem

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_SOLVER = 4

CSV_COLUMNS = ("x", "y", "u", "ux", "uy", "uxx", "uyy", "uxy", "uxxy", "uxyy", "uxxyy")


def fmt(v: float) -> str:
    """17 significant digits; non-finite values spelled out."""
    if isinstance(v, float) and not math.isfinite(v):
        return "inf" if v > 0 else ("-inf" if v < 0 else "nan")
    return f"{v:.17g}"


def _json_render(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad}  "{k}": {_json_render(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {_json_render(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if not math.isfinite(v):
            return f'"{fmt(v)}"'
        return fmt(v)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return _json_render(list(obj.ravel()), indent)
    raise TypeError(f"cannot serialize {type(obj)}")


def write_json(obj, path: str):
    with open(path, "w", newline="\n") as fh:
        fh.write(_json_render(obj) + "\n")


def write_solution_csv(result: SolveResult, path: str):
    grid = result.grid
    b = result.bundle
    grids = [getattr(b, k).values for k in CSV_COLUMNS[2:]]
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for j in range(grid.shape[1]):       # y outer
            for i in range(grid.shape[0]):
                row = [fmt(float(grid.x[i])), fmt(float(grid.y[j]))]
                row += [fmt(float(g[i, j])) for g in grids]
                fh.write(",".join(row) + "\n")


def _check_out_dir(out_dir: str):
    """Refuse, before any solving, an output directory that a file blocks.

    Only the deepest existing part of the path is looked at; nothing is
    created here, so a run that fails later leaves no directory behind.
    """
    path = os.path.abspath(out_dir)
    while not os.path.exists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise ConfigError(f"cannot create output directory {out_dir}: "
                          f"{path} is not a directory")


def _out_path(out_dir: str, name: str) -> str:
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: {exc.strerror}") from exc
    return os.path.join(out_dir, name)


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    if args.grid:
        try:
            n1, n2 = (int(t) for t in args.grid.lower().split("x"))
        except ValueError as exc:
            raise ConfigError(f"--grid expects N1xN2, got {args.grid!r}") from exc
        cfg.n1, cfg.n2 = n1, n2
    if args.method:
        if args.method not in METHODS:
            raise ConfigError(f"unknown method {args.method!r}")
        cfg.solver.method = args.method
    if args.p:
        cfg.solver.p = norm_exponent(args.p)
    return cfg


def cmd_solve(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    _check_out_dir(args.out)
    grid = build_grid_from(cfg)
    problem, _ = build_problem(cfg, grid)
    result = solve_problem(problem, grid, method=cfg.solver.method,
                           tol=cfg.solver.tol, max_iter=cfg.solver.max_iter,
                           p=cfg.solver.p, force=args.force)
    report = result.report.as_dict()
    report["grid"] = {"n1": grid.shape[0], "n2": grid.shape[1]}
    if cfg.reference_expr is not None:
        xx, yy = grid.meshgrid()
        ref = evaluate_expr(cfg.reference_expr, {"x": xx, "y": yy}, "reference.u")
        report["sup_error_vs_reference"] = float(np.max(np.abs(result.bundle.u.values - ref)))

    csv_path = _out_path(args.out, "solution.csv")
    json_path = _out_path(args.out, "report.json")
    write_solution_csv(result, csv_path)
    write_json(report, json_path)
    print(f"solution: {csv_path}")
    print(f"report:   {json_path}")
    if result.report.warning:
        print(f"warning: {result.report.warning}")
    if not result.report.residual_pass:
        print(f"residual gate FAILED (pde {fmt(result.report.residual_pde)}, "
              f"threshold {fmt(result.report.residual_threshold)})")
        return EXIT_SOLVER
    print(f"residual gate passed (pde {fmt(result.report.residual_pde)})")
    return EXIT_OK


def _trace_payload(axis_nodes: np.ndarray, values: np.ndarray, expr: str | None):
    out = {"nodes": [float(t) for t in axis_nodes],
           "values": [float(v) for v in values]}
    if expr is not None:
        out["expression"] = expr
    return out


def cmd_convert(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    grid = build_grid_from(cfg)

    if args.direction == "to-nonclassical":
        if cfg.data_kind != "classical":
            raise ConfigError("to-nonclassical conversion needs [data.classical]")
        from .config import build_classical
        cd = build_classical(cfg)
        data = classical_to_nonclassical(cd, cfg.domain, grid)
        sd = sample_data(data, grid)

        def second_derivative_expr(key, var):
            # analytic inputs yield exact expressions for the converted traces
            try:
                node = exprlang.diff(exprlang.diff(cfg.data_exprs[key], var), var)
                return exprlang.to_string(node)
            except exprlang.ExprError:
                return None

        payload = {"direction": args.direction,
                   "u00": sd.u00, "ux00": sd.ux00, "uy00": sd.uy00,
                   "uxx_bottom": _trace_payload(grid.x, sd.uxx_bottom,
                                                second_derivative_expr("bottom", "x")),
                   "uyy_left": _trace_payload(grid.y, sd.uyy_left,
                                              second_derivative_expr("left", "y")),
                   "u10": sd.u10, "uy10": sd.uy10,
                   "uyy_right": _trace_payload(grid.y, sd.uyy_right,
                                               second_derivative_expr("right", "y")),
                   "u01": sd.u01, "ux01": sd.ux01,
                   "uxx_top": _trace_payload(grid.x, sd.uxx_top,
                                             second_derivative_expr("top", "x"))}
    elif args.direction == "to-classical":
        if cfg.data_kind != "nonclassical":
            raise ConfigError("to-classical conversion needs [data.nonclassical]")
        from .config import build_nonclassical
        data = build_nonclassical(cfg)
        cd = nonclassical_to_classical(data, cfg.domain, grid)
        payload = {"direction": args.direction,
                   "left": _trace_payload(grid.y, cd.left.value.sample(grid.ay), None),
                   "right": _trace_payload(grid.y, cd.right.value.sample(grid.ay), None),
                   "bottom": _trace_payload(grid.x, cd.bottom.value.sample(grid.ax), None),
                   "top": _trace_payload(grid.x, cd.top.value.sample(grid.ax), None)}
    else:
        raise ConfigError(f"unknown direction {args.direction!r}")

    path = _out_path(args.out, "converted_data.json")
    write_json(payload, path)
    print(f"converted: {path}")
    return EXIT_OK


def cmd_check(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    grid = build_grid_from(cfg)
    payload: dict = {}
    ok = True
    if cfg.data_kind == "classical":
        from .config import build_classical
        cd = build_classical(cfg)
        matching = check_matching(cd, cfg.domain)
        # convert without the corner gate so residuals are reported even
        # for mismatched data
        data = classical_to_nonclassical(cd, cfg.domain, grid, corner_tol=math.inf)
    else:
        from .config import build_nonclassical
        data = build_nonclassical(cfg)
        cd = nonclassical_to_classical(data, cfg.domain, grid)
        matching = check_matching(cd, cfg.domain)
    constraints = check_data_constraints(sample_data(data, grid), grid)
    payload["matching"] = {"residuals": matching.as_dict(),
                           "tolerance": matching.tolerance,
                           "passed": matching.passed}
    payload["constraints"] = {"residuals": constraints.as_dict(),
                              "tolerance": constraints.tolerance,
                              "passed": constraints.passed}
    ok = matching.passed and constraints.passed
    payload["passed"] = ok
    path = _out_path(args.out, "check_report.json")
    write_json(payload, path)
    for name, rep in (("matching", matching), ("constraints", constraints)):
        state = "pass" if rep.passed else "FAIL"
        print(f"{name}: {state} (max residual {fmt(rep.max_residual)}, "
              f"tol {fmt(rep.tolerance)})")
    return EXIT_OK if ok else EXIT_DATA


VERIFY_SUITES = {
    # suite -> (case names, grid sizes, pass rule)
    "smooth-basic": (("trig", "bicubic"), (9, 17, 33), "order>=1.9"),
    "exact-bilinear": (("bilinear",), (9, 17, 33), "exact"),
    "piecewise": (("piecewise",), (9, 17, 33), "order>=1.5"),
}


def cmd_verify(args) -> int:
    if args.suite not in VERIFY_SUITES:
        raise ConfigError(f"unknown suite {args.suite!r} "
                          f"(available: {', '.join(sorted(VERIFY_SUITES))})")
    _check_out_dir(args.out)
    case_names, sizes, rule = VERIFY_SUITES[args.suite]
    cases = named_cases()
    summary = {"suite": args.suite, "cases": {}, "passed": True}
    for name in case_names:
        table = convergence_study(cases[name], sizes)
        csv_path = _out_path(args.out, f"convergence_{name}.csv")
        with open(csv_path, "w", newline="\n") as fh:
            fh.write("n,sup_error,observed_order,exact\n")
            for row in table.rows:
                order = "" if row.order is None else fmt(row.order)
                fh.write(f"{row.n},{fmt(row.sup_error)},{order},"
                         f"{'true' if row.exact else 'false'}\n")
        if rule == "exact":
            ok = all(r.sup_error <= 1e-12 for r in table.rows)
        elif rule == "order>=1.9":
            ok = table.all_exact or (table.observed_orders
                                     and all(o >= 1.9 for o in table.observed_orders))
        else:
            ok = table.all_exact or (table.observed_orders
                                     and all(o >= 1.5 for o in table.observed_orders))
        summary["cases"][name] = {
            "rows": [{"n": r.n, "sup_error": r.sup_error, "order": r.order,
                      "exact": r.exact} for r in table.rows],
            "monotone": table.monotone,
            "passed": bool(ok),
        }
        summary["passed"] = summary["passed"] and bool(ok)
        print(f"{name}: {'pass' if ok else 'FAIL'} "
              f"(errors {', '.join(fmt(r.sup_error) for r in table.rows)})")
    write_json(summary, _out_path(args.out, "verify_summary.json"))
    return EXIT_OK if summary["passed"] else EXIT_SOLVER


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mangeron",
        description="Dirichlet solver for the generalized Mangeron equation")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        if config_required:
            p.add_argument("--config", required=True, help="path to a config file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--grid", default=None, help="override grid as N1xN2")
        p.add_argument("--method", default=None,
                       help=f"override solver method ({'|'.join(METHODS)})")
        p.add_argument("--p", default=None, help="norm exponent (a number >= 1 or 'inf')")

    p = sub.add_parser("solve", help="solve the configured problem")
    common(p)
    p.add_argument("--force", action="store_true",
                   help="proceed even if the data constraints fail")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("convert", help="convert boundary data between forms")
    common(p)
    p.add_argument("--direction", required=True,
                   choices=("to-classical", "to-nonclassical"))
    p.set_defaults(fn=cmd_convert)

    p = sub.add_parser("check", help="report matching and constraint residuals")
    common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("verify", help="run a named convergence suite")
    p.add_argument("--suite", required=True,
                   help=f"one of: {', '.join(sorted(VERIFY_SUITES))}")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, exprlang.ExprError) as exc:
        # an expression error surfaces when a config expression is evaluated,
        # for example a piecewise expression that leaves a node uncovered
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataConsistencyError as exc:
        print(f"data-consistency failure: {exc}", file=sys.stderr)
        return EXIT_DATA
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
