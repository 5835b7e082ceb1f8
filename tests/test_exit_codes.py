"""The exit-code contract under property testing: whatever config is drawn,
`mangeron solve` exits 0, 2, 3 or 4, writes one stderr line on failure and
none on success, and a configuration error names the key that caused it."""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from mangeron import NonclassicalData
from mangeron.cli import main
from mangeron.config import NONCLASSICAL_TRACES, SECTIONS
from mangeron.solver import METHODS

#: configs/zero.cfg as sections: zero coefficients, forcing and data
ZERO = {"domain": {"h1": "1.0", "h2": "1.0"}, "grid": {"n1": "9", "n2": "9"},
        "forcing": {"z": "zero"},
        "data.nonclassical": {key: "0" for key in NonclassicalData.SCALAR_KEYS},
        "solver": {"method": "auto"}}


def with_values(**changes):
    """ZERO with the keys of `changes` ({section: {key: text}}) set; a
    section that ZERO lacks is added."""
    return {name: {**ZERO.get(name, {}), **changes.get(name, {})}
            for name in {**ZERO, **changes}}


def leaves(obj):
    """Every value of a JSON document that is not an object or an array."""
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        for v in obj:
            yield from leaves(v)
    else:
        yield obj


def expressions(variables):
    """Expressions in `variables`, with an integrable singularity among the leaves."""
    leaves = st.sampled_from(["1", "1/3", "pi", "zero", *variables,
                              f"(({variables[0]} - 1/3)^2)^(-0.25)"])
    return st.recursive(leaves, lambda inner: st.one_of(
        st.builds("{}({})".format, st.sampled_from(["sin", "cos", "exp"]), inner),
        st.builds("({} {} {})".format, inner, st.sampled_from("+-*/^"), inner)),
        max_leaves=4)


def scaled(variables):
    """`scale * (expression)`, the scale drawn over the float range."""
    return st.builds("{} * {}".format, SCALES, expressions(variables))


#: a finite double anywhere in the float range, as the text the config reads
SCALES = st.floats(allow_nan=False, allow_infinity=False).map(repr)
#: a side near 1, one from 1e-300 to 1e300, or 710, the first integer side
#: on which exp(y) overflows
SIDES = st.one_of(st.floats(0.1, 10.0), st.floats(-300, 300).map(lambda e: 10.0 ** e),
                  st.just(710.0)).map(repr)

#: where a breakpoint lies, as a fraction of its side: inside it, or at 0,
#: at its end or beyond it, where it is refused
INSIDE, OUTSIDE = st.floats(0.05, 0.95), st.sampled_from([0.0, 1.0, 1.5])


@st.composite
def configs(draw):
    """Sections of a config: drawn sides, grid, breakpoints, coefficients,
    forcing, data and solver keys over the zero problem."""
    sides = {"h1": draw(SIDES), "h2": draw(SIDES)}
    grid = {"n1": str(draw(st.integers(3, 17))), "n2": str(draw(st.integers(3, 17)))}
    for key, side, fraction in (("x_breakpoints", "h1", INSIDE | OUTSIDE),
                                ("y_breakpoints", "h2", INSIDE)):
        fractions = draw(st.lists(fraction, max_size=2))
        if fractions:
            grid[key] = ", ".join(repr(f * float(sides[side])) for f in fractions)
    coefficients = draw(st.dictionaries(st.sampled_from(tuple(SECTIONS["coefficients"][1])),
                                        scaled("xy"), max_size=2))
    data = dict(ZERO["data.nonclassical"])
    key = draw(st.sampled_from(tuple(SECTIONS["data.nonclassical"][1])))
    data[key] = draw(scaled(NONCLASSICAL_TRACES[key]) if key in NONCLASSICAL_TRACES else SCALES)
    sections = with_values(domain=sides, grid=grid, forcing={"z": draw(scaled("xy"))},
                           solver={"method": draw(st.sampled_from(METHODS))})
    sections["data.nonclassical"] = data
    if coefficients:
        sections["coefficients"] = coefficients
    return sections


def solve(sections):
    """`mangeron solve` on a config of `sections`: the exit code and what it
    wrote on stderr and in report.json."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.cfg"
        path.write_text("".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                                for name, keys in sections.items()))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["solve", "--config", str(path), "--out", str(Path(tmp) / "out")])
        report = Path(tmp) / "out" / "report.json"
        return code, err.getvalue(), json.loads(report.read_text()) if report.exists() else None


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(configs())
@example(with_values(domain={"h2": "710"}))        # the gate's reference forcing overflows
@example(with_values(domain={"h1": "5e-324"}, grid={"n1": "21"}))   # nodes repeat a float
@example(with_values(solver={"method": "bogus"}))
@example(with_values(solver={"mehtod": "dense"}))  # a misspelt key, not its default
@example(with_values(domain={"h1": "710"}, grid={"n1": "3", "n2": "16"}, forcing={"z": "1"},
                     coefficients={"c_xxy": "1.204283135020087e+52"}))  # the iterates overflow
def test_every_config_exits_with_a_documented_code(sections):
    code, err, report = solve(sections)
    assert code in (0, 2, 3, 4), err
    assert err.count("\n") == (code != 0) and err.endswith("\n" if code else ""), err
    if code == 0:
        assert report["residual_pass"] is True and math.isfinite(report["residual_threshold"])
        # report.json writes a non-finite number as the string "inf", "-inf" or "nan"
        assert not [v for v in leaves(report) if v in ("inf", "-inf", "nan")
                    or isinstance(v, float) and not math.isfinite(v)], report
    if code == 2:
        given = [(name, key) for name, keys in sections.items() for key in keys]
        assert any(err.startswith(f"config error: [{name}] {key}")
                   if key in SECTIONS[name][1] else
                   err.startswith(f"config error: unknown key {key!r} in [{name}]")
                   for name, key in given), err
