"""Batch command line interface: solve, convert, check, verify.

One command per process, no state.  Outputs are a solution CSV (one row per
node, y varying in the outer loop) and JSON reports; all floating-point
output carries 17 significant digits so identical runs produce byte
identical files.

Exit codes: 0 success, 2 configuration error, 3 data-consistency failure,
4 solver failure; the README's CLI section lists what each one covers.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import asdict

import numpy as np

from . import exprlang
from .config import (CLASSICAL_TRACES, ConfigError, RunConfig, build_classical,
                     build_grid_from, build_nonclassical, build_problem, evaluate_expr,
                     key_lead, load_config, node_count, norm_exponent, read_value,
                     solve_method)
from .problem import (CORNER_TOL_SAMPLED, DERIVATIVES, DataConsistencyError,
                      NonclassicalData, check_data_constraints, check_matching,
                      classical_to_nonclassical, nonclassical_to_classical, sample_data,
                      trace_axis)
from .solver import METHODS, SolveResult, SolverError, solve_problem

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_SOLVER = 4

CSV_COLUMNS = ("x", "y") + tuple(DERIVATIVES)


def fmt(v: float) -> str:
    """17 significant digits; non-finite values print as inf, -inf, nan."""
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
    raise TypeError(f"cannot serialize {type(obj)}")


def write_json(obj, path: str):
    with open(path, "w", newline="\n") as fh:
        fh.write(_json_render(obj) + "\n")


def write_solution_csv(result: SolveResult, path: str):
    # one row per node, y outer: every (n1, n2) grid is read transposed
    xx, yy = result.grid.meshgrid()
    grids = [xx, yy] + [getattr(result.bundle, k).values for k in CSV_COLUMNS[2:]]
    columns = [g.T.ravel() for g in grids]
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        np.savetxt(fh, np.column_stack(columns), fmt="%.17g", delimiter=",")


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


def _load(args) -> RunConfig:
    """The config of `--config`, with the grid of `--grid` if one is given."""
    cfg = load_config(args.config)
    if args.grid:
        sizes = args.grid.lower().split("x")
        if len(sizes) != 2:
            raise ConfigError(f"--grid expects N1xN2, got {args.grid!r}")
        cfg.n1, cfg.n2 = (read_value(f"--grid {name}", text, node_count(var), cfg.domain)
                          for name, text, var in zip(("N1", "N2"), sizes, "xy"))
    return cfg


def cmd_solve(args) -> int:
    cfg = _load(args)
    if args.method:
        cfg.solver.method = read_value("--method", args.method, solve_method)
    if args.p:
        cfg.solver.p = read_value("--p", args.p, norm_exponent)
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
        ref = evaluate_expr(cfg.reference_expr, {"x": xx, "y": yy},
                            key_lead("reference", "u"))
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
        raise SolverError(f"residual gate failed (pde {fmt(result.report.residual_pde)}, "
                          f"threshold {fmt(result.report.residual_threshold)})")
    print(f"residual gate passed (pde {fmt(result.report.residual_pde)})")
    return EXIT_OK


def _trace_payload(axis_nodes: np.ndarray, values: np.ndarray, expr: str | None = None):
    out = {"nodes": [float(t) for t in axis_nodes],
           "values": [float(v) for v in values]}
    if expr is not None:
        out["expression"] = expr
    return out


def cmd_convert(args) -> int:
    cfg = _load(args)
    grid = build_grid_from(cfg)

    if args.direction == "to-nonclassical":
        if cfg.data_kind != "classical":
            raise ConfigError("to-nonclassical conversion needs [data.classical]")
        cd = build_classical(cfg)
        data = classical_to_nonclassical(cd, grid)
        sd = sample_data(data, grid)

        def trace(key):
            # a trace is named after its classical edge; analytic inputs
            # yield exact expressions for the converted traces
            axis = trace_axis(key)
            var = "xy"[axis]
            try:
                edge = cfg.data_exprs[key.partition("_")[2]]
                expr = exprlang.to_string(exprlang.diff(exprlang.diff(edge, var), var))
            except exprlang.ExprError:
                expr = None
            return _trace_payload((grid.x, grid.y)[axis], getattr(sd, key), expr)

        payload = {"direction": args.direction}
        for key in NonclassicalData.PLACES:
            payload[key] = trace(key) if key in NonclassicalData.TRACE_KEYS else getattr(sd, key)
    else:
        if cfg.data_kind != "nonclassical":
            raise ConfigError("to-classical conversion needs [data.nonclassical]")
        data = build_nonclassical(cfg)
        cd = nonclassical_to_classical(data, grid)
        payload = {"direction": args.direction}
        for edge, var in CLASSICAL_TRACES.items():
            axis = grid.ax if var == "x" else grid.ay
            payload[edge] = _trace_payload(axis.nodes, getattr(cd, edge).value.sample(axis))

    path = _out_path(args.out, "converted_data.json")
    write_json(payload, path)
    print(f"converted: {path}")
    return EXIT_OK


def cmd_check(args) -> int:
    cfg = _load(args)
    grid = build_grid_from(cfg)
    if cfg.data_kind == "classical":
        cd = build_classical(cfg)
        matching = check_matching(cd, cfg.domain)
        # convert without the corner gate so residuals are reported even
        # for mismatched data
        data = classical_to_nonclassical(cd, grid, corner_tol=math.inf)
    else:
        data = build_nonclassical(cfg)
        cd = nonclassical_to_classical(data, grid)
        matching = check_matching(cd, cfg.domain, CORNER_TOL_SAMPLED)
    constraints = check_data_constraints(sample_data(data, grid), grid)
    reports = {"matching": matching, "constraints": constraints}
    ok = matching.passed and constraints.passed
    payload = {name: {"residuals": rep.as_dict(), "tolerance": rep.tolerance,
                      "passed": rep.passed} for name, rep in reports.items()}
    payload["passed"] = ok
    path = _out_path(args.out, "check_report.json")
    write_json(payload, path)
    for name, rep in reports.items():
        state = "pass" if rep.passed else "FAIL"
        print(f"{name}: {state} (max residual {fmt(rep.max_residual)}, "
              f"tol {fmt(rep.tolerance)})")
    return EXIT_OK if ok else EXIT_DATA


VERIFY_SUITES = {
    # suite -> (case names, grid sizes, minimum observed order; None: exact at roundoff)
    "smooth-basic": (("trig", "bicubic"), (9, 17, 33), 1.9),
    "exact-bilinear": (("bilinear",), (9, 17, 33), None),
    "piecewise": (("piecewise",), (9, 17, 33), 1.5),
}


def cmd_verify(args) -> int:
    if args.suite not in VERIFY_SUITES:
        raise ConfigError(f"unknown suite {args.suite!r} "
                          f"(available: {', '.join(sorted(VERIFY_SUITES))})")
    _check_out_dir(args.out)
    from .mms import convergence_study, named_cases     # loaded only to verify

    case_names, sizes, min_order = VERIFY_SUITES[args.suite]
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
        ok = table.all_exact or (min_order is not None and
                                 min(table.observed_orders, default=-math.inf) >= min_order)
        summary["cases"][name] = {
            "rows": [asdict(r) for r in table.rows],
            "monotone": table.monotone,
            "passed": bool(ok),
        }
        summary["passed"] = summary["passed"] and bool(ok)
        print(f"{name}: {'pass' if ok else 'FAIL'} "
              f"(errors {', '.join(fmt(r.sup_error) for r in table.rows)})")
    write_json(summary, _out_path(args.out, "verify_summary.json"))
    return EXIT_OK if summary["passed"] else EXIT_SOLVER


class _Parser(argparse.ArgumentParser):
    """Raises a refused command line as a `ConfigError`, so that `main`
    reports it as one line, with no usage text."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mangeron",
                     description="Dirichlet solver for the generalized Mangeron equation")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="path to a config file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--grid", default=None, help="override grid as N1xN2")

    p = sub.add_parser("solve", help="solve the configured problem")
    common(p)
    p.add_argument("--method", default=None,
                   help=f"override solver method ({'|'.join(METHODS)})")
    p.add_argument("--p", default=None, help="norm exponent (a number >= 1 or 'inf')")
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


def _fail(message: str, code: int) -> int:
    """Print a mapped failure as one stderr line, each line break in it and
    the blanks around the break folded to one space; return `code`."""
    print(re.sub(r"\s*\n\s*", " ", message), file=sys.stderr)
    return code


def main(argv=None) -> int:
    # overflow and invalid values are reported by the explicit checks, never as numpy warnings
    try:
        with np.errstate(all="ignore"):
            args = make_parser().parse_args(argv)
            return args.fn(args)
    except (ConfigError, exprlang.ExprError) as exc:
        # an expression error surfaces when a config expression is evaluated,
        # for example a piecewise expression that leaves a node uncovered
        return _fail(f"config error: {exc}", EXIT_CONFIG)
    except DataConsistencyError as exc:
        return _fail(f"data-consistency failure: {exc}", EXIT_DATA)
    except SolverError as exc:
        return _fail(f"solver failure: {exc}", EXIT_SOLVER)
    except MemoryError as exc:
        return _fail(f"solver failure: out of memory ({exc})", EXIT_SOLVER)


if __name__ == "__main__":
    sys.exit(main())
