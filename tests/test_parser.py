import random

import pytest

from pptlab.errors import InputError, ParseError, UnknownVariableError
from pptlab.parser import expand_var_spec, parse_poly
from pptlab.ring import Context, LiftPoly, render

from oracles import random_int_poly


def test_parse_basic_sum():
    ctx = Context(2, ["x", "y"])
    assert parse_poly("x^2 + y^2", ctx) == LiftPoly(ctx, {(2, 0): 1, (0, 2): 1})


def test_parse_prime_token():
    ctx = Context(2, ["x1", "x2", "x3", "x4"])
    f = parse_poly("x1^4 + x2^4 + x3^4 + x4^4 + p*x1*x2*x3*x4", ctx)
    assert f.coefficient((1, 1, 1, 1)) == 2
    assert f.coefficient((4, 0, 0, 0)) == 1


def test_parse_zero():
    ctx = Context(2, ["x"])
    assert parse_poly("0", ctx).is_zero()


def test_parse_negative_coefficients():
    ctx = Context(3, ["x", "y"])
    f = parse_poly("x^2 - y^2", ctx)
    assert f == LiftPoly(ctx, {(2, 0): 1, (0, 2): 8})
    assert parse_poly("-x", ctx) == LiftPoly(ctx, {(1, 0): 8})
    assert parse_poly("-3", ctx) == LiftPoly.constant(ctx, 6)


def test_parse_parentheses_and_powers():
    ctx = Context(2, ["x", "y"])
    f = parse_poly("(x + y)^2", ctx)
    assert f == LiftPoly(ctx, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
    g = parse_poly("x*(x + y) + y^2", ctx)
    assert g == LiftPoly(ctx, {(2, 0): 1, (1, 1): 1, (0, 2): 1})


def test_parse_coefficients_reduce_mod_p_squared():
    ctx = Context(2, ["x"])
    assert parse_poly("5*x", ctx) == LiftPoly(ctx, {(1,): 1})
    assert parse_poly("4*x", ctx).is_zero()


def test_implicit_multiplication_rejected():
    ctx = Context(2, ["x", "y"])
    with pytest.raises(ParseError) as err:
        parse_poly("2x", ctx)
    assert err.value.position == 1
    with pytest.raises(ParseError):
        parse_poly("x y", ctx)


def test_unknown_variable_carries_position():
    ctx = Context(2, ["x", "y"])
    with pytest.raises(UnknownVariableError) as err:
        parse_poly("x + z^2", ctx)
    assert err.value.name == "z"
    assert err.value.position == 4


def test_syntax_errors_carry_position():
    ctx = Context(2, ["x"])
    with pytest.raises(ParseError):
        parse_poly("x +", ctx)
    with pytest.raises(ParseError):
        parse_poly("(x", ctx)
    with pytest.raises(ParseError):
        parse_poly("x ^ y", ctx)
    with pytest.raises(ParseError):
        parse_poly("x ^ -2", ctx)
    with pytest.raises(ParseError):
        parse_poly("x @ y", ctx)
    with pytest.raises(ParseError):
        parse_poly("", ctx)


def test_render_parse_round_trip():
    rng = random.Random(500)
    for _ in range(300):
        p = rng.choice([2, 3, 5])
        n = rng.randrange(1, 4)
        ctx = Context(p, [f"x{i}" for i in range(n)])
        f = LiftPoly(ctx, random_int_poly(rng, n))
        assert parse_poly(render(f), ctx) == f


def test_expand_var_spec():
    assert expand_var_spec("x,y,z") == ["x", "y", "z"]
    assert expand_var_spec("x1..x5") == ["x1", "x2", "x3", "x4", "x5"]
    assert expand_var_spec("a, b1..b3") == ["a", "b1", "b2", "b3"]
    with pytest.raises(InputError):
        expand_var_spec("x3..x1")
    with pytest.raises(InputError):
        expand_var_spec("x1..y5")
    with pytest.raises(InputError):
        expand_var_spec("")
    with pytest.raises(InputError, match=r"x1\.\.x7"):
        expand_var_spec("x1..x7")
