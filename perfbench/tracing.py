"""Layer spans recorded from outside the program.

`Tracer.installed()` wraps the public functions of every benchmarked
``mangeron`` module, plus the few methods where the work happens, and
patches each wrapper into every ``mangeron`` module that looks the
original up by name (``solver`` imports ``assemble_eliminated``,
``sobolev_norm`` and others into its own namespace).  Each call records a
span: name, start, end, parent and operation id, kept in memory until
`dump`.  The program itself carries no tracing code.

This module imports nothing outside the standard library at import time,
so a fresh process can load it before ``mangeron``.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

#: benchmarked modules; ``mms`` is a verification oracle and is left alone
LAYERS = ("grids", "fields", "problem", "reduction", "solver", "norms",
          "exprlang", "config", "cli")

#: methods wrapped besides the module-level functions: (layer, class, method)
METHODS = (("fields", "Field1D", "sample"), ("fields", "Field2D", "sample"),
           ("problem", "Coefficients", "sample_all"),
           ("reduction", "DiscreteOperator", "matvec"),
           ("reduction", "DiscreteOperator", "dense"),
           ("reduction", "CoupledSystem", "solve"))

#: what an operation calls: the timed ``solve_problem`` on the library
#: workloads, ``main`` in the solve process on ``cli-cold``
ENTRY_POINTS = {"solver.solve_problem", "cli.main"}

#: the per-cell CSV formatter runs ~26k times per 49x49 solve; its time stays
#: inside the cli.write_solution_csv span instead of costing a span per cell
SKIP = {"cli.fmt"}


@dataclass
class Span:
    name: str                       # "<layer>.<function>"
    start: float
    end: float
    parent: int | None              # index of the enclosing span
    op: object                      # operation id, or "setup"
    info: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _note(name: str, result) -> dict:
    """Counts recorded at the boundary where the work happens."""
    if name == "solver.solve_neumann":
        info = result[1]
        return {"iterations": info.iterations, "converged": bool(info.converged)}
    if name == "reduction.DiscreteOperator.dense":
        return {"mb": result.size * result.itemsize / 1e6}
    if name == "grids.build_grid":
        n1, n2 = result.shape
        return {"table_mb": 2 * (n1 * n1 + n2 * n2) * 8 / 1e6}   # cum0, cum1 per axis
    return {}


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: object = None
        self._stack: list[int] = []

    def call(self, name: str, fn, args, kwargs):
        # a function that calls itself (exprlang.evaluate walks the syntax
        # tree recursively) gets one span for the outermost call
        if self._stack and self.spans[self._stack[-1]].name == name:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        span = Span(name, time.perf_counter(), math.nan,
                    self._stack[-1] if self._stack else None, self.op)
        self.spans.append(span)
        self._stack.append(idx)
        try:
            result = fn(*args, **kwargs)
            span.info = _note(name, result)
            return result
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def record(self, name: str, start: float, end: float):
        """Add a span timed by the caller (an import, for example)."""
        self.spans.append(Span(name, start, end,
                               self._stack[-1] if self._stack else None, self.op))

    def extend(self, spans: list[Span], op):
        """Append spans recorded by another process, re-tagged with `op`."""
        base = len(self.spans)
        for s in spans:
            parent = None if s.parent is None else s.parent + base
            self.spans.append(Span(s.name, s.start, s.end, parent, op, s.info))

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return wrapper

    @contextmanager
    def installed(self):
        """Patch wrappers into the loaded ``mangeron`` modules; restore on exit."""
        undo = _install(self)
        try:
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def dump(self, path: str, **meta):
        with open(path, "w") as fh:
            json.dump({"meta": meta, "spans": [asdict(s) for s in self.spans]}, fh)


def load_spans(path: str) -> list[Span]:
    with open(path) as fh:
        return [Span(**d) for d in json.load(fh)["spans"]]


def _targets():
    """(layer, owner, attribute, original) for every function to wrap."""
    for layer in LAYERS:
        mod = sys.modules[f"mangeron.{layer}"]
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_") and f"{layer}.{attr}" not in SKIP):
                yield f"{layer}.{attr}", mod, attr, obj
    for layer, cls_name, attr in METHODS:
        cls = getattr(sys.modules[f"mangeron.{layer}"], cls_name)
        yield f"{layer}.{cls_name}.{attr}", cls, attr, vars(cls)[attr]


class _Namespace:
    """Attribute proxy: the given overrides, everything else from `base`."""

    def __init__(self, base, **overrides):
        self._base = base
        self.__dict__.update(overrides)

    def __getattr__(self, attr):
        return getattr(self._base, attr)


def _install(tracer: Tracer) -> list[tuple]:
    import mangeron  # noqa: F401  (loads every layer module)
    import mangeron.cli  # noqa: F401
    import numpy

    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "mangeron" or name.startswith("mangeron."))]
    undo = []
    for name, owner, attr, original in _targets():
        wrapper = tracer.wrap(name, original)
        if inspect.isclass(owner):
            undo.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            continue
        # patch the name wherever a caller looks it up
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, key, original))
                    setattr(mod, key, wrapper)
    # the dense route's conditioning and LU: numpy calls made by solver only
    solver = sys.modules["mangeron.solver"]
    linalg = _Namespace(numpy.linalg,
                        cond=tracer.wrap("solver.linalg.cond", numpy.linalg.cond),
                        solve=tracer.wrap("solver.linalg.solve", numpy.linalg.solve))
    undo.append((solver, "np", solver.np))
    solver.np = _Namespace(numpy, linalg=linalg)
    return undo


# ---------------------------------------------------------------- analysis

def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [s.duration - _covered(children[i], s.start, s.end)
            for i, s in enumerate(spans)]


def uncovered(spans: list[Span], window: tuple[float, float]) -> float:
    """Time in `window` outside every named layer span below the entry point.

    A top-level span of an `ENTRY_POINTS` function does not count as
    coverage: its self time is work that no wrapped layer function accounts
    for, and the call itself spans the whole timed window.
    """
    lo, hi = window
    named = [(s.start, s.end) for s in spans
             if s.parent is not None or s.name not in ENTRY_POINTS]
    return (hi - lo) - _covered(named, lo, hi)


def layer_metrics(spans: list[Span], ops: list) -> dict[str, float]:
    """Per-layer metrics over the traced operations `ops`.

    Times and counts are per operation unless the name says otherwise;
    `grids.*` are per grid build and include the set-up phase.
    """
    n = max(len(ops), 1)
    op_set = set(ops)
    selfs = self_times(spans)
    in_ops = [(s, t) for s, t in zip(spans, selfs) if s.op in op_set]

    def spans_named(*names):
        return [s for s, _ in in_ops if s.name in names]

    def per_op(*names):
        return sum(s.duration for s in spans_named(*names)) / n

    def count(*names):
        return len(spans_named(*names)) / n

    builds = [s for s in spans if s.name == "grids.build_grid"]
    matvecs = spans_named("reduction.DiscreteOperator.matvec")
    neumann = spans_named("solver.solve_neumann")
    # a calibration that found its grid in the cache makes no calls
    has_child = {s.parent for s in spans if s.parent is not None}
    calib_misses = sum(i in has_child for i, s in enumerate(spans)
                       if s.name == "solver.calibrate_residual_threshold" and s.op in op_set)
    samples = ("fields.Field1D.sample", "fields.Field2D.sample")

    m = {
        "grids.build_s": sum(s.duration for s in builds) / max(len(builds), 1),
        "grids.table_mb": max((s.info.get("table_mb", 0.0) for s in builds), default=0.0),
        "fields.sample_calls": count(*samples),
        "fields.sample_s": per_op(*samples),
        "problem.sample_data_calls": count("problem.sample_data"),
        "problem.constraints_s": per_op("problem.check_data_constraints"),
        "reduction.assemble_s": per_op("reduction.assemble_eliminated"),
        "reduction.matvec_calls": len(matvecs) / n,
        "reduction.matvec_s": (sum(s.duration for s in matvecs) / len(matvecs)
                               if matvecs else 0.0),
        "reduction.dense_s": per_op("reduction.DiscreteOperator.dense"),
        "reduction.dense_mb": sum(s.info.get("mb", 0.0) for s in
                                  spans_named("reduction.DiscreteOperator.dense")) / n,
        "solver.neumann_s": per_op("solver.solve_neumann"),
        "solver.neumann_iters": sum(s.info.get("iterations", 0) for s in neumann) / n,
        "solver.neumann_useful": (sum(bool(s.info.get("converged")) for s in neumann)
                                  / len(neumann) if neumann else 0.0),
        "solver.cond_s": per_op("solver.linalg.cond"),
        "solver.lu_s": per_op("solver.linalg.solve"),
        "solver.calibrate_s": per_op("solver.calibrate_residual_threshold"),
        "solver.calibrate_misses": calib_misses / n,
        "solver.reconstruct_s": per_op("solver.reconstruct_lower", "solver.assemble_solution"),
        "solver.residual_s": per_op("solver.residual_report"),
        "norms.s": sum(s.duration for s, _ in in_ops if s.layer == "norms"
                       and (s.parent is None or spans[s.parent].layer != "norms")) / n,
        "config.load_s": per_op("config.load_config"),
        "exprlang.evaluate_calls": count("exprlang.evaluate"),
        "exprlang.evaluate_s": per_op("exprlang.evaluate"),
        "cli.import_s": per_op("cli.import"),
        "cli.write_s": per_op("cli.write_solution_csv", "cli.write_json"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(t for s, t in in_ops if s.layer == layer) / n
    return m
