import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mangeron.exprlang import (Bin, ExprError, Num, Var, constant, diff, evaluate, parse,
                               to_string)
from unfolded_diff import unfolded_diff


def ev(text, variables=("x", "y"), **env):
    node = parse(text, variables)
    return evaluate(node, {k: np.asarray(v, dtype=float) for k, v in env.items()})


def test_numbers_and_arithmetic():
    assert ev("2 + 3 * 4", ()) == 14.0
    assert ev("(2 + 3) * 4", ()) == 20.0
    assert ev("7 / 2 - 1", ()) == 2.5
    assert ev("-3 + 1", ()) == -2.0
    assert ev("2 ^ 3 ^ 1", ()) == 8.0
    assert ev("2 ** 3", ()) == 8.0
    assert ev("1e-2 + 0.5", ()) == pytest.approx(0.51)


def test_variables_and_functions():
    x = np.linspace(0, 1, 5)
    np.testing.assert_allclose(ev("sin(x) * 2", ("x",), x=x), 2 * np.sin(x))
    np.testing.assert_allclose(ev("exp(x) + cos(x)", ("x",), x=x),
                               np.exp(x) + np.cos(x))
    assert ev("pi", ()) == pytest.approx(np.pi)
    assert ev("zero", ()) == 0.0


def test_two_variable_expressions():
    x = np.array([0.0, 0.5, 1.0])
    y = np.array([1.0, 2.0, 3.0])
    np.testing.assert_allclose(ev("x^2 * y - y / 2", x=x, y=y),
                               x**2 * y - y / 2)


def test_unknown_names_rejected():
    with pytest.raises(ExprError):
        parse("q + 1", ("x",))
    with pytest.raises(ExprError):
        parse("sin(x", ("x",))
    with pytest.raises(ExprError):
        parse("", ("x",))
    with pytest.raises(ExprError):
        parse("1 + * 2", ())
    with pytest.raises(ExprError):
        parse("x $ 2", ("x",))
    with pytest.raises(ExprError, match="trailing input starting at '2'"):
        parse("1 2", ())
    with pytest.raises(ExprError, match="expected ';' or '\\)' in piecewise, found ','"):
        parse("piecewise((0, 1): 1, (1, 2): 2)", ("x",))


def test_piecewise_one_variable():
    f = parse("piecewise((0, 0.5): 1; (0.5, 1): 3)", ("x",))
    x = np.array([0.1, 0.5, 0.9])
    np.testing.assert_allclose(evaluate(f, {"x": x}), [1.0, 1.0, 3.0])
    f = parse("piecewise((-1, 0): x; (0, 1): 1)", ("x",))
    assert f.pieces[0][0] == (-1.0, 0.0)
    np.testing.assert_allclose(evaluate(f, {"x": np.array([-0.5, 0.5])}), [-0.5, 1.0])


def test_piecewise_two_variables():
    text = "piecewise((0, 0.5, 0, 1): x; (0.5, 1, 0, 1): 10 + y)"
    f = parse(text, ("x", "y"))
    x = np.array([0.2, 0.8])
    y = np.array([0.3, 0.3])
    np.testing.assert_allclose(evaluate(f, {"x": x, "y": y}), [0.2, 10.3])


def test_piecewise_uncovered_point_rejected():
    f = parse("piecewise((0, 0.4): 1; (0.6, 1): 2)", ("x",))
    with pytest.raises(ExprError, match=r"\(0\.5\)"):
        evaluate(f, {"x": np.array([0.5])})


def test_derivatives():
    x = np.linspace(0.1, 1.0, 7)
    d = diff(parse("x^3", ("x",)), "x")
    np.testing.assert_allclose(evaluate(d, {"x": x}), 3 * x**2, rtol=1e-12)
    d = diff(parse("sin(2*x)", ("x",)), "x")
    np.testing.assert_allclose(evaluate(d, {"x": x}), 2 * np.cos(2 * x), rtol=1e-12)
    d = diff(parse("exp(x) / x", ("x",)), "x")
    np.testing.assert_allclose(evaluate(d, {"x": x}),
                               np.exp(x) / x - np.exp(x) / x**2, rtol=1e-12)
    d2 = diff(diff(parse("x^2 * y", ("x", "y")), "x"), "x")
    np.testing.assert_allclose(evaluate(d2, {"x": x, "y": 3.0}), 6.0, rtol=1e-12)


@pytest.mark.parametrize("text, p", [("(1+x)^(-1)", -1.0), ("(1+x)^-2", -2.0),
                                     ("(1+x)^(1/2)", 0.5), ("(1+x)^(2*pi)", 2 * np.pi)])
def test_derivative_of_constant_power(text, p):
    # an exponent that holds no variable is a constant, however it is written
    x = np.linspace(0.0, 1.0, 7)
    d = diff(parse(text, ("x",)), "x")
    np.testing.assert_allclose(evaluate(d, {"x": x}), p * (1 + x) ** (p - 1), rtol=1e-12)


def test_derivative_of_general_power_rejected():
    for text in ("x^x", "2^x", "(1+x)^piecewise((0, 0.5): 1; (0.5, 1): 2)"):
        with pytest.raises(ExprError, match="non-constant exponent"):
            diff(parse(text, ("x",)), "x")


def test_constant_reads_bounds_and_exponents():
    # a bound is a constant expression, read to the double its literal gives
    node = parse("piecewise((0, 1/3): 1; (1/3, -(-2)/2): 2)", ("x",))
    assert [bounds for bounds, _ in node.pieces] == [(0.0, 0.3333333333333333), (1 / 3, 1.0)]
    assert constant(parse("2^-1 * 3 + cos(pi)", ())) == 0.5
    for text, message in (("x + 1", r"not a constant: \(x \+ 1\.0\)"),
                          ("piecewise((0, 1): 1)", r"not a constant: piecewise\("),
                          ("1/0", "value inf is not finite")):
        with pytest.raises(ExprError, match=f"^{message}"):
            constant(parse(text, ("x",)))
    with pytest.raises(ExprError, match="non-constant exponent .*value inf is not finite"):
        diff(parse("x^(1/0)", ("x",)), "x")


def test_round_trip_through_to_string():
    for text in ("1 + x*y - sin(x)^2", "piecewise((0,1,0,1): exp(x)+y)", "-x^-1.5 - -y"):
        node = parse(text, ("x", "y"))
        again = parse(to_string(node), ("x", "y"))
        x = np.array([0.2, 0.7])
        y = np.array([0.4, 0.9])
        np.testing.assert_allclose(evaluate(again, {"x": x, "y": y}),
                                   evaluate(node, {"x": x, "y": y}), rtol=1e-15)


def test_parser_folds_numbers_only():
    assert parse("2 * 3 + x", ("x",)) == Bin("+", Num(6.0), Var("x"))
    assert parse("sin(pi / 2) - -1", ()) == Num(2.0)
    # 0 * x keeps its meaning: nan at x = inf
    assert parse("0 * x", ("x",)) == Bin("*", Num(0.0), Var("x"))
    # a constant is a number; no tree is evaluated to find one
    with pytest.raises(ExprError, match=r"^not a constant: \(1\.0 \+ 2\.0\)$"):
        constant(Bin("+", Num(1.0), Num(2.0)))


def test_negation_is_ieee_negation():
    node = parse("-x", ("x",))
    assert node == Bin("*", Num(-1.0), Var("x"))
    x = np.array([0.0, -0.0, np.inf, -np.inf, 1.5, -2.0, 5e-324, 1.7976931348623157e308])
    got = evaluate(node, {"x": x})
    assert got.tobytes() == np.negative(x).tobytes()
    assert to_string(node) == "(-1.0 * x)"
    assert parse(to_string(node), ("x",)) == node
    assert parse("-0", ()).value.hex() == "-0x0.0p+0"


def test_renderings_of_numbers_parse_back():
    # a value that is not finite, and a negative base, re-parse to themselves
    for text in ("1/(x + 1/0)", "x - 1/0", "(-2)^x", "x^-1.5"):
        node = parse(text, ("x",))
        assert parse(to_string(node), ("x",)) == node, text
    again = parse(to_string(parse("x * (0/0)", ("x",))), ("x",))
    assert np.isnan(again.b.value)


@pytest.mark.parametrize("text, var, rendered", [
    ("1/(1+x)", "x", "((2.0 * ((1.0 + x) ^ 1.0)) / (((1.0 + x) ^ 2.0) ^ 2.0))"),
    ("(1 + y) / 2", "y", "0.0"),
    ("-cos(y)", "y", "cos(y)"),
])
def test_second_derivatives_are_folded(text, var, rendered):
    # unfolded, the first two render in 233 and 207 characters
    node = parse(text, (var,))
    assert to_string(diff(diff(node, var), var)) == rendered


# the grammar in x: numbers (0, 1 and -1 among them), + - * /, constant
# powers, sin, cos, exp and prefix minus
NUMBERS = st.sampled_from(["0", "1", "-1", "2", "0.5", "3", "pi"])
EXPONENTS = st.sampled_from(["0", "1", "2", "3", "-1", "-2", "0.5", "(1/3)"])


def _compound(sub):
    return st.one_of(
        st.tuples(sub, st.sampled_from("+-*/"), sub).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(sub, EXPONENTS).map(lambda t: f"({t[0]})^{t[1]}"),
        st.tuples(st.sampled_from(["sin", "cos", "exp"]), sub).map(lambda t: f"{t[0]}({t[1]})"),
        sub.map(lambda s: f"-{s}"))


EXPRESSIONS = st.recursive(st.one_of(st.just("x"), NUMBERS), _compound, max_leaves=10)
POINTS = np.array([-2.0, -1.0, -0.5, 0.0, 1e-3, 0.25, 0.5, 1.0, 1.5, 3.0])


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(EXPRESSIONS)
def test_folded_derivatives_equal_the_unfolded_ones(text):
    # equal wherever the unfolded derivative is finite, up to the sign of a
    # zero; and each folded derivative renders as text that reads back to it
    folded = unfolded = parse(text, ("x",))
    for _ in range(2):
        folded, unfolded = diff(folded, "x"), unfolded_diff(unfolded, "x")
        with np.errstate(all="ignore"):
            got, want, again = (np.broadcast_to(evaluate(n, {"x": POINTS}), POINTS.shape)
                                for n in (folded, unfolded, parse(to_string(folded), ("x",))))
        finite = np.isfinite(want)
        np.testing.assert_array_equal(got[finite], want[finite], err_msg=text)
        np.testing.assert_array_equal(again, got, err_msg=text)
