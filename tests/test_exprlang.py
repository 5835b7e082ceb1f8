import numpy as np
import pytest

from mangeron.exprlang import ExprError, constant, diff, evaluate, parse, to_string


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
