"""Compare what the command line interface of two source trees prints and
writes, byte for byte.

    python tools/compare_outputs.py PARENT_SRC CHANGE_SRC

Each argument is the `src` directory of a checkout, the one that holds the
`mangeron` package.  Both trees make the same runs on the configs in this
repository's `configs/`:

- `solve` of each config on `auto`, `neumann` and `dense`, and on `auto`
  with `--p 1` and with `--p inf`;
- `check` of each config;
- `convert` of each config, in the direction its boundary data allows;
- the three `verify` suites.

Each run is a fresh interpreter that writes no bytecode, so both trees are
left as they were.  A run writes into the same output
directory on both sides, emptied before each run, so its path reads the
same in both stdouts.  Two runs agree when their exit codes, stdout, stderr
and every file they write are identical.  The runs that differ are listed
with what differs; the exit code is 1 if any run differs, else 0.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SUITES = ("smooth-basic", "exact-bilinear", "piecewise")
ENTRY = "import sys; from mangeron.cli import main; sys.exit(main(sys.argv[1:]))"


def runs():
    """(name, command-line arguments without `--out`) of every run."""
    for cfg in sorted(CONFIGS.glob("*.cfg")):
        config = ["--config", str(cfg)]
        for method in ("auto", "neumann", "dense"):
            yield f"solve {cfg.stem} {method}", ["solve", *config, "--method", method]
        for p in ("1", "inf"):
            yield (f"solve {cfg.stem} auto p={p}",
                   ["solve", *config, "--method", "auto", "--p", p])
        yield f"check {cfg.stem}", ["check", *config]
        classical = "[data.classical]" in cfg.read_text()
        direction = "to-nonclassical" if classical else "to-classical"
        yield f"convert {cfg.stem} {direction}", ["convert", *config, "--direction", direction]
    for suite in SUITES:
        yield f"verify {suite}", ["verify", "--suite", suite]


def outcome(src: Path, args: list[str], out: Path):
    """(exit code, stdout, stderr, {file name: bytes}) of one run of the tree
    at `src`, writing into `out`."""
    shutil.rmtree(out, ignore_errors=True)
    # no run writes a __pycache__ into either compared tree
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", ENTRY, *args, "--out", str(out)],
                          cwd=out.parent, env=env, capture_output=True)
    files = {path.relative_to(out).as_posix(): path.read_bytes()
             for path in sorted(out.rglob("*")) if path.is_file()}
    return proc.returncode, proc.stdout, proc.stderr, files


def differences(parent, change) -> list[str]:
    """What differs between two outcomes, one phrase each."""
    found = []
    if parent[0] != change[0]:
        found.append(f"exit {parent[0]} -> {change[0]}")
    for part, a, b in (("stdout", parent[1], change[1]), ("stderr", parent[2], change[2])):
        if a != b:
            found.append(part)
    for name in sorted(parent[3].keys() | change[3].keys()):
        if parent[3].get(name) != change[3].get(name):
            found.append(f"file {name}")
    return found


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/compare_outputs.py PARENT_SRC CHANGE_SRC", file=sys.stderr)
        return 2
    trees = [Path(a).resolve() for a in argv]
    for tree in trees:
        if not (tree / "mangeron" / "cli.py").is_file():
            print(f"{tree} holds no mangeron package", file=sys.stderr)
            return 2
    planned = list(runs())
    differing = 0
    with tempfile.TemporaryDirectory() as work:
        out = Path(work) / "out"
        for name, args in planned:
            found = differences(*(outcome(tree, args, out) for tree in trees))
            if found:
                differing += 1
                print(f"DIFFERS {name}: {', '.join(found)}")
    print(f"{len(planned)} runs, {differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
