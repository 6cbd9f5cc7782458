import random
import threading

import pytest

from pptlab.delta import Hypersurface, delta, validate
from pptlab.errors import FDivisibleByPError, FIsUnitError, InputError
from pptlab.ring import Context, LiftPoly, ResPoly

from oracles import delta_int, random_int_poly


def ctx2():
    return Context(2, ["x", "y"])


def test_delta_of_a_variable_vanishes():
    ctx = ctx2()
    assert delta(LiftPoly.variable(ctx, "x")).is_zero()


def test_delta_sum_of_variables():
    ctx = ctx2()
    f = LiftPoly.variable(ctx, "x") + LiftPoly.variable(ctx, "y")
    assert delta(f) == ResPoly(ctx, {(1, 1): 1})


def test_delta_sum_of_squares():
    ctx = ctx2()
    f = LiftPoly(ctx, {(2, 0): 1, (0, 2): 1})
    assert delta(f) == ResPoly(ctx, {(2, 2): 1})


def test_delta_constants_match_fermat_quotient():
    for p in (2, 3, 5, 7):
        ctx = Context(p, ["x"])
        for c in range(p * p):
            got = delta(LiftPoly.constant(ctx, c))
            want = ((c**p - c) // p) % p
            assert got == ResPoly.constant(ctx, want), (p, c)


def test_delta_matches_integer_oracle():
    rng = random.Random(200)
    for _ in range(200):
        p = rng.choice([2, 3, 5])
        n = rng.randrange(1, 3)
        ctx = Context(p, [f"x{i}" for i in range(n)])
        a = random_int_poly(rng, n, max_terms=4, max_exp=3)
        assert delta(LiftPoly(ctx, a)) == ResPoly(ctx, delta_int(a, p, n))


def test_validate_accepts_sum_of_squares():
    ctx = ctx2()
    h = validate(ctx, LiftPoly(ctx, {(2, 0): 1, (0, 2): 1}))
    assert isinstance(h, Hypersurface)
    assert h.f_res == ResPoly(ctx, {(2, 0): 1, (0, 2): 1})
    assert h.delta_f == ResPoly(ctx, {(2, 2): 1})


def test_validate_rejects_multiple_of_p():
    ctx = ctx2()
    with pytest.raises(FDivisibleByPError):
        validate(ctx, LiftPoly(ctx, {(1, 0): 2}))
    with pytest.raises(FDivisibleByPError):
        validate(ctx, LiftPoly.zero(ctx))


def test_validate_rejects_units():
    ctx = ctx2()
    with pytest.raises(FIsUnitError):
        validate(ctx, LiftPoly(ctx, {(0, 0): 1, (1, 0): 1}))


def test_validate_accepts_constant_term_p():
    ctx = Context(3, ["x"])
    validate(ctx, LiftPoly(ctx, {(0,): 3, (2,): -1}))


def test_delta_power_memoization_and_range():
    ctx = Context(3, ["x", "y", "z"])
    f = LiftPoly(ctx, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})
    h = validate(ctx, f)
    assert h.delta_power(0) == ResPoly.one(ctx)
    assert h.delta_power(1) == h.delta_f
    assert h.delta_power(2) == h.delta_f * h.delta_f
    with pytest.raises(InputError):
        h.delta_power(3)
    with pytest.raises(InputError):
        h.delta_power(-1)


def test_delta_power_squares_the_fermat_cubic_quotient():
    # delta for x^3+y^3+z^3 at p=3 computed by independent integer expansion
    ctx = Context(3, ["x", "y", "z"])
    a = {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1}
    h = validate(ctx, LiftPoly(ctx, a))
    d = ResPoly(ctx, delta_int(a, 3, 3))
    assert h.delta_power(2) == d * d


def test_f_power_memo_range():
    ctx = ctx2()
    h = validate(ctx, LiftPoly(ctx, {(2, 0): 1, (0, 2): 1}))
    assert h.f_res_power(2) == h.f_res * h.f_res
    with pytest.raises(InputError):
        h.f_res_power(3)


def test_memo_is_thread_safe():
    ctx = Context(3, ["x", "y"])
    h = validate(ctx, LiftPoly(ctx, {(3, 0): 1, (1, 1): 1, (0, 3): 1}))
    results = []

    def worker():
        results.append(h.delta_power(2))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r == results[0] for r in results)
