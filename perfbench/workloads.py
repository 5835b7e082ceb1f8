"""The three workloads: set-up, one timed operation, and its checks.

Every operation is one client waiting for one solve (a closed loop with a
single client).  Inputs come from `perfbench.inputs` and are generated
(and, on ``cli-cold``, written) outside the timed region; checks run after
it.

An operation fails when the solve raises, or when any check below fails:

* ``cli-cold``: exit code 0, ``residual_pass`` in ``report.json``, and all
  nine columns of ``solution.csv`` within the tolerance of u* and its
  derivatives;
* ``large-neumann``: ``converged``, and all nine grids of the bundle within
  the tolerance;
* ``stiff-fallback``: ``method == "dense"``, ``residual_pass``, and ``u``
  within the tolerance.

The tolerance on the sup error against u* = sin(x) sin(y) is h^2 for grid
spacing h.  With smooth coefficients the error of every grid is at most
0.19 h^2 on 49x49 up to 513x513.  With c_xy near 55 the derivative errors
are amplified (u_xxyy up to 140 h^2), so only u is held to h^2 there (at
most 0.15 h^2); the route flip seen at c_xy = 40 (u error 3.5e-3) exceeds
it eightfold.
"""

from __future__ import annotations

import csv
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from .inputs import BUNDLE_GRIDS, SHAPES, make_config, make_problem, u_star
from .tracing import Tracer, load_spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: grid of the once-per-run gate-on probe on large-neumann (above the 70x70
#: dense limit, where calibration fails today)
PROBE_N = 101

#: what the ``mangeron`` console script runs
CLI_ENTRY = "import sys; from mangeron.cli import main; sys.exit(main())"


def tolerance(n: int) -> float:
    """Allowed sup error against u* on an n x n grid of the unit square."""
    return (1.0 / (n - 1)) ** 2


def checked_grids(name: str) -> dict[str, tuple[int, int]]:
    """Grids of the solution held to the tolerance on a workload."""
    return BUNDLE_GRIDS if SHAPES[name].coefficients == "smooth" else {"u": (0, 0)}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    return env


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Op:
    window: tuple[float, float]         # start and end of the timed region
    failure: str | None = None          # why the operation failed, if it did
    traced: bool = False
    rss_mb: float | None = None         # peak RSS of the solving child process
    csv_mb: float = 0.0

    @property
    def seconds(self) -> float:
        return self.window[1] - self.window[0]


class LibraryWorkload:
    """``solve_problem`` called in this process on a shared grid."""

    def __init__(self, name: str, seed: int):
        self.name, self.seed = name, seed
        self.shape = SHAPES[name]
        self.gate = name == "stiff-fallback"

    def setup(self, tracer: Tracer | None = None):
        """Import, grid and first problem; on stiff-fallback also the
        first-call gate calibration, which is cached per grid."""
        import mangeron
        from mangeron import solver

        self.solver = solver
        if tracer is not None:
            tracer.op = "setup"
        with _installed(tracer):
            self.grid = mangeron.build_grid(mangeron.Domain(1.0, 1.0),
                                            self.shape.n, self.shape.n)
            if self.gate:
                solver.calibrate_residual_threshold(self.grid)

    def _solve(self, problem, grid, method: str, gate: bool):
        start = time.perf_counter()
        try:
            result = self.solver.solve_problem(problem, grid, method=method,
                                               residual_gate=gate)
        except Exception as exc:  # a failed operation, not a benchmark error
            return Op((start, time.perf_counter()), f"{type(exc).__name__}: {exc}"), None
        return Op((start, time.perf_counter())), result

    def op(self, k: int, tracer: Tracer | None = None) -> Op:
        problem = make_problem(self.name, self.seed, k)
        if tracer is not None:
            tracer.op = k
        with _installed(tracer):
            op, result = self._solve(problem, self.grid, self.shape.method, self.gate)
        op.traced = tracer is not None
        if result is not None:
            op.failure = self.check(result, self.gate)
        return op

    def check(self, result, gate: bool) -> str | None:
        rep = result.report
        if self.name == "stiff-fallback" and rep.method != "dense":
            return f"method {rep.method!r}, expected the dense fallback"
        if gate and not rep.residual_pass:
            return f"residual gate failed (pde {rep.residual_pde:.3e})"
        if not rep.converged:
            return f"not converged after {rep.iterations} iterations"
        import numpy as np

        xx, yy = result.grid.meshgrid()
        err = max(float(np.max(np.abs(getattr(result.bundle, key).values
                                      - u_star(i, j, xx, yy, np))))
                  for key, (i, j) in checked_grids(self.name).items())
        tol = tolerance(result.grid.shape[0])
        if not err <= tol:
            return f"sup error {err:.3e} > {tol:.3e}"
        return None

    def probe(self) -> Op:
        """Gate-on ``auto`` solve above the dense limit (known defect)."""
        import mangeron

        grid = mangeron.build_grid(mangeron.Domain(1.0, 1.0), PROBE_N, PROBE_N)
        op, result = self._solve(make_problem(self.name, self.seed, "probe"), grid,
                                 "auto", gate=True)
        if result is not None:
            op.failure = self.check(result, gate=True)
        return op


def _installed(tracer: Tracer | None):
    return tracer.installed() if tracer is not None else nullcontext()


class CliWorkload:
    """A fresh ``mangeron solve`` process per operation."""

    def __init__(self, name: str, seed: int, workdir: Path):
        self.name, self.seed, self.workdir = name, seed, workdir
        self.n = SHAPES[name].n

    def setup(self, tracer: Tracer | None = None):
        """A cold import of ``mangeron.cli`` in a fresh interpreter; it also
        loads the libraries into the OS file cache before the first op."""
        subprocess.run([sys.executable, "-c", "import mangeron.cli"], env=child_env(),
                       cwd=ROOT, check=True, timeout=120)

    def op(self, k: int, tracer: Tracer | None = None) -> Op:
        d = self.workdir / f"op{k}"
        out = d / "out"
        out.mkdir(parents=True)
        cfg = d / "config.cfg"
        cfg.write_text(make_config(self.name, self.seed, k))
        args = ["solve", "--config", str(cfg), "--out", str(out)]
        spans = d / "spans.json"
        if tracer is None:
            cmd = [sys.executable, "-c", CLI_ENTRY, *args]
        else:
            cmd = [sys.executable, str(ROOT / "perfbench" / "cli_shim.py"), str(spans), *args]
        with open(d / "log.txt", "w") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    env=child_env(), cwd=ROOT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
            end = time.perf_counter()
        op = Op((start, end), traced=tracer is not None, rss_mb=usage.ru_maxrss / 1024.0)
        if tracer is not None and spans.exists():
            tracer.extend(load_spans(str(spans)), k)
        op.failure = self.check(proc.returncode, out, d / "log.txt")
        if (out / "solution.csv").exists():
            op.csv_mb = (out / "solution.csv").stat().st_size / 1e6
        shutil.rmtree(d)
        return op

    def check(self, code: int, out: Path, log: Path) -> str | None:
        if code != 0:
            tail = log.read_text().strip().splitlines()[-1:] or [""]
            return f"exit code {code}: {tail[0]}"
        try:
            report = json.loads((out / "report.json").read_text())
            with open(out / "solution.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            grids = checked_grids(self.name).items()
            err = max(abs(float(r[key]) - u_star(i, j, float(r["x"]), float(r["y"]), math))
                      for r in rows for key, (i, j) in grids)
        except (OSError, ValueError, KeyError) as exc:
            return f"unreadable output: {exc}"
        if report.get("residual_pass") is not True:
            return f"residual gate failed (pde {report.get('residual_pde')})"
        if len(rows) != self.n * self.n:
            return f"solution.csv has {len(rows)} rows, expected {self.n * self.n}"
        tol = tolerance(self.n)
        if not err <= tol:
            return f"sup error {err:.3e} > {tol:.3e}"
        return None


def make_workload(name: str, seed: int, workdir: Path):
    if name == "cli-cold":
        return CliWorkload(name, seed, workdir)
    return LibraryWorkload(name, seed)
