"""Benchmark of the mangeron solver.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (``cli-cold``, ``large-neumann`` or ``stiff-fallback``,
described in BENCHMARK.json and perfbench/README.md; ``all`` runs each in
turn in a fresh process) as a closed loop
with one client for S seconds, checks every operation, and prints the
environment, one line per metric, and as its last line one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
every other operation runs with the layer wrappers installed and the
metrics are the per-layer ones.  The program is taken from ``src/`` of the
checkout.  Exit code 0 when every operation passed its checks, 1 when one
failed, 2 when the program cannot be found.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cli-cold", "large-neumann", "stiff-fallback")
#: set-ups measured per run (this process and fresh ones); setup_s is their
#: median, which spreads less from run to run than a single set-up
SETUP_REPEATS = 3


def _pin_blas_threads():
    """BLAS threads = the CPUs this process may run on, set before numpy loads."""
    n = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = n


def _find_program() -> bool:
    """Put the checkout's ``src`` first on the path; is the program there?"""
    import importlib.util

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    spec = importlib.util.find_spec("mangeron")
    expected = ROOT / "src" / "mangeron" / "__init__.py"
    return spec is not None and Path(spec.origin).resolve() == expected


def tail(samples: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it.

    Never reported below the median: with fewer than about twenty samples no
    percentile above the median has ten beyond it, and the median stands in.
    """
    xs = sorted(samples)
    n = len(xs)
    med = statistics.median(xs)
    if n > 10 and xs[n - 11] >= med:
        return xs[n - 11], f"p{100.0 * (n - 10) / n:.0f} of N={n}, 10 samples beyond"
    return med, f"= median: N={n} leaves no higher percentile with 10 samples beyond"


def _setup_elsewhere(args) -> list[float]:
    """Set-up times of fresh processes running ``--setup-only``."""
    out = []
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, check=True, timeout=150, cwd=ROOT)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def _print_metric(name: str, value: float, unit: str, note: str = ""):
    print(f"{name:<26} {value:>12.6g} {unit:<6} {note}".rstrip())


def _metric_units(kind: str) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _end_to_end(ops, setups, rss) -> dict[str, float]:
    secs = [op.seconds for op in ops]
    tail_value, tail_note = tail(secs)
    children = [op.rss_mb for op in ops if op.rss_mb is not None]
    m = {"solve_s.p50": statistics.median(secs),
         "solve_s.tail": tail_value,
         "setup_s": statistics.median(setups),
         "peak_rss_mb": statistics.median(children) if children else rss}
    _print_metric("solve_s.p50", m["solve_s.p50"], "s", f"N={len(secs)}")
    _print_metric("solve_s.tail", tail_value, "s", tail_note)
    _print_metric("setup_s", m["setup_s"], "s", f"median of {len(setups)} set-ups: "
                  + ", ".join(f"{s:.3f}" for s in setups))
    _print_metric("peak_rss_mb", m["peak_rss_mb"], "MB",
                  "median over solve processes" if children else "this process")
    return m


def _per_layer(ops, tracer, spans_path: Path, env: dict) -> dict[str, float]:
    from perfbench import tracing

    traced = [k for k, op in enumerate(ops) if op.traced]
    m = tracing.layer_metrics(tracer.spans, traced)
    m["cli.csv_mb"] = statistics.mean(op.csv_mb for op in ops)
    by_op: dict = {}
    for s in tracer.spans:
        by_op.setdefault(s.op, []).append(s)
    m["trace.uncovered_share"] = (
        sum(tracing.uncovered(by_op.get(k, []), ops[k].window) for k in traced)
        / sum(ops[k].seconds for k in traced))
    plain = [op.seconds for op in ops if not op.traced]
    m["trace.overhead_s"] = (statistics.median(ops[k].seconds for k in traced)
                             - statistics.median(plain))
    print(f"traced ops {len(traced)}, untraced ops {len(plain)}; "
          "per traced operation unless the README says otherwise")
    for name, unit in _metric_units("per_layer").items():
        _print_metric(name, m[name], unit)
    tracer.dump(str(spans_path), env=env)
    print(f"spans written to {spans_path.relative_to(ROOT)}")
    return m


def run(args) -> int:
    from perfbench import environment, tracing
    from perfbench.workloads import PROBE_N, make_workload, peak_rss_mb

    work = ROOT / ".perfbench" / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        wl = make_workload(args.workload, args.seed, work)
        tracer = tracing.Tracer() if args.trace else None
        wl.setup(tracer)
        setup_s = time.perf_counter() - PROCESS_START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        ops = []
        min_ops = 2 if args.trace else 1      # a traced run needs one op of each kind
        loop_start = time.perf_counter()
        while len(ops) < min_ops or time.perf_counter() - loop_start < args.seconds:
            k = len(ops)
            ops.append(wl.op(k, tracer if k % 2 == 1 else None))
        rss = peak_rss_mb()
        probe = wl.probe() if args.workload == "large-neumann" else None
        setups = [setup_s] + ([] if args.trace else _setup_elsewhere(args))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"env {json.dumps(environment.describe())}")
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    failed = [k for k, op in enumerate(ops) if op.failure]
    for k in failed:
        print(f"FAILED op {k}: {ops[k].failure}")
    attempted_all, failed_all = len(ops), len(failed)
    if probe is not None:
        attempted_all += 1
        failed_all += probe.failure is not None
        state = f"failed: {probe.failure}" if probe.failure else "passed"
        print(f"probe: gate-on auto solve at {PROBE_N}x{PROBE_N} "
              f"(known defect, untimed) {state}")

    if args.trace:
        spans_path = ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.json"
        metrics = _per_layer(ops, tracer, spans_path, environment.describe())
    else:
        metrics = _end_to_end(ops, setups, rss)
    _print_metric("ops_failed_share", failed_all / attempted_all, "ratio",
                  f"{failed_all} failed of {attempted_all} attempted"
                  + (" (probe included)" if probe is not None else ""))

    units = _metric_units("per_layer" if args.trace else "end_to_end")
    print(json.dumps({"correct": not failed, "attempted": len(ops), "failed": len(failed),
                      "metrics": {name: {"value": metrics[name], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0 if not failed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=33.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="perform the workload's set-up, print its time and exit")
    args = parser.parse_args(argv)
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, str(Path(__file__).resolve()),
                                 "--workload", name, "--seed", str(args.seed),
                                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                                cwd=ROOT).returncode for name in WORKLOADS]
        return max(codes)
    _pin_blas_threads()
    if not _find_program():
        print(f"error: no program at {ROOT / 'src' / 'mangeron'}", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
