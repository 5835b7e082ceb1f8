"""Seeded input generator: one problem per (workload, seed, operation).

Every problem is manufactured from the known solution u* = sin(x) sin(y) on
the unit square: its forcing is u*_xxyy plus each coefficient times the
derivative of u* it multiplies, and its boundary data is that of u* (the
data of ``configs/trig.cfg``).  The same parameters are written either as
config text in the expression language (`make_config`, what ``cli-cold``
hands to a fresh ``mangeron solve``) or as a `PdeProblem` of numpy closures
(`make_problem`, what the library workloads hand to ``solve_problem``).
Parameters come from the standard library's generator seeded with a
string, so they do not depend on numpy's version or on PYTHONHASHSEED.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: derivative of u* that each coefficient multiplies, as (text, d/dx order, d/dy order)
U_STAR_DERIVATIVES = {
    "c_xxy": ("-sin(x) * cos(y)", 2, 1),
    "c_xyy": ("-cos(x) * sin(y)", 1, 2),
    "c_xx": ("-sin(x) * sin(y)", 2, 0),
    "c_yy": ("-sin(x) * sin(y)", 0, 2),
    "c_xy": ("cos(x) * cos(y)", 1, 1),
    "c_x": ("cos(x) * sin(y)", 1, 0),
    "c_y": ("sin(x) * cos(y)", 0, 1),
    "c_u": ("sin(x) * sin(y)", 0, 0),
}

U_STAR = "sin(x) * sin(y)"

#: the nine grids of a solution bundle, as (d/dx order, d/dy order)
BUNDLE_GRIDS = {"u": (0, 0), "ux": (1, 0), "uy": (0, 1), "uxx": (2, 0), "uyy": (0, 2),
                "uxy": (1, 1), "uxxy": (2, 1), "uxyy": (1, 2), "uxxyy": (2, 2)}


def u_star(i: int, j: int, x, y, lib):
    """d^i/dx^i d^j/dy^j of sin(x) sin(y), with `lib` = math or numpy."""
    f = (lib.sin, lib.cos, lambda t: -lib.sin(t))
    return f[i](x) * f[j](y)


DATA_SECTION = """[data.nonclassical]
u00 = 0
ux00 = 0
uy00 = 0
uxx_bottom = zero
uyy_left = zero
u10 = 0
uy10 = sin(1)
uyy_right = -sin(1) * sin(y)
u01 = 0
ux01 = sin(1)
uxx_top = -sin(x) * sin(1)
"""


@dataclass(frozen=True)
class Shape:
    """What a workload's generated problems look like."""

    n: int                 # nodes per axis
    method: str            # solver method
    coefficients: str      # "smooth" (variable, |c| <= 0.3) or "stiff" (c_xy in [50, 60])


SHAPES = {
    "cli-cold": Shape(49, "auto", "smooth"),
    "large-neumann": Shape(513, "neumann", "smooth"),
    "stiff-fallback": Shape(49, "auto", "stiff"),
}

#: bound on |c| over the unit square for the smooth coefficient family
SMOOTH_BOUND = 0.3


def coefficients(workload: str, seed: int, op) -> dict[str, tuple[float, ...]]:
    """(a0, a1, a2, a3) of c = a0 + a1 x + a2 y + a3 x y for each nonzero coefficient.

    Smooth: all eight coefficients with |a0| + |a1| + |a2| + |a3| = 0.3, so
    |c| <= 0.3 on the unit square.  Stiff: a constant c_xy drawn from
    [50, 60]; at 40 the auto route flips and the error jumps.  Values are
    rounded to the six decimals the config text carries.
    """
    rng = random.Random(f"{workload}/{seed}/{op}")
    if SHAPES[workload].coefficients == "stiff":
        return {"c_xy": (round(rng.uniform(50.0, 60.0), 6), 0.0, 0.0, 0.0)}
    out = {}
    for key in U_STAR_DERIVATIVES:
        a = [rng.uniform(-1.0, 1.0) for _ in range(4)]
        scale = SMOOTH_BOUND / sum(abs(v) for v in a)
        out[key] = tuple(round(v * scale, 6) for v in a)
    return out


def _expr(a: tuple[float, ...]) -> str:
    return f"{a[0]:.6f} {a[1]:+.6f} * x {a[2]:+.6f} * y {a[3]:+.6f} * x * y"


def make_config(workload: str, seed: int, op) -> str:
    """Config text of operation `op` of a workload run."""
    shape = SHAPES[workload]
    coeffs = coefficients(workload, seed, op)
    forcing = " + ".join([U_STAR] + [f"({_expr(a)}) * ({U_STAR_DERIVATIVES[key][0]})"
                                     for key, a in coeffs.items()])
    lines = ["[domain]", "h1 = 1.0", "h2 = 1.0", "",
             "[grid]", f"n1 = {shape.n}", f"n2 = {shape.n}", "",
             "[coefficients]"]
    lines += [f"{key} = {_expr(a)}" for key, a in coeffs.items()]
    lines += ["", "[forcing]", f"z = {forcing}", "", DATA_SECTION,
              "[solver]", f"method = {shape.method}", "",
              "[reference]", f"u = {U_STAR}", ""]
    return "\n".join(lines)


def make_problem(workload: str, seed: int, op):
    """The problem of `make_config` as a `PdeProblem` of numpy closures."""
    import math

    import numpy as np
    from mangeron import Coefficients, Domain, NonclassicalData, PdeProblem
    from mangeron.fields import Field1D, Field2D

    coeffs = coefficients(workload, seed, op)

    def linear(a):
        return lambda x, y: a[0] + a[1] * x + a[2] * y + a[3] * x * y

    def forcing(x, y):
        out = u_star(2, 2, x, y, np)
        for key, a in coeffs.items():
            _, i, j = U_STAR_DERIVATIVES[key]
            out = out + linear(a)(x, y) * u_star(i, j, x, y, np)
        return out

    s1 = math.sin(1.0)
    zero = Field1D(lambda t: 0.0 * t)
    data = NonclassicalData(
        u00=0.0, ux00=0.0, uy00=0.0, uxx_bottom=zero, uyy_left=zero,
        u10=0.0, uy10=s1, uyy_right=Field1D(lambda t: -s1 * np.sin(t)),
        u01=0.0, ux01=s1, uxx_top=Field1D(lambda t: -np.sin(t) * s1))
    return PdeProblem(Domain(1.0, 1.0),
                      Coefficients(**{key: Field2D(linear(a)) for key, a in coeffs.items()}),
                      Field2D(forcing), data)
