"""Corner-of-the-envelope checks: extreme supported parameters,
degenerate inputs, and concurrent use."""

import threading
from fractions import Fraction

from pptlab import ladder
from pptlab.delta import validate
from pptlab.ladder import next_s, splitting_sequence
from pptlab.parser import expand_var_spec, parse_poly
from pptlab.pipeline import analyze
from pptlab.ring import Context
from pptlab.verdict import nu_table, ppt_partial


def prepare(p, vars_spec, expr):
    ctx = Context(p, expand_var_spec(vars_spec))
    return validate(ctx, parse_poly(expr, ctx))


def test_six_variables_at_p2():
    # s_1 = 1 is forced: the reduction (x1+...+x6)^2 lies in m^[2] while
    # the unit ideal does not; the rest is a frozen regression value and
    # matches the four-variable quadric cone entrywise
    h = prepare(2, "x1..x6", "x1^2 + x2^2 + x3^2 + x4^2 + x5^2 + x6^2")
    a = analyze(h, 4)
    assert a.seq.values == (0, 1, 0, 0, 0)
    assert a.qfs.height == 2
    h4 = prepare(2, "x1..x4", "x1^2 + x2^2 + x3^2 + x4^2")
    assert splitting_sequence(h4, 4).values == a.seq.values


def test_big_prime_upward_scan(monkeypatch):
    # p = 11 and 13 walk the capped scan upward from s = 0 with no interval
    # check, which is for p <= 5 only.  These inputs stay on theta, so the
    # drop-back is forced, and each entry must still satisfy the nu identity
    scans = []
    scan_next = ladder._scan_next

    def counted(ws):
        scans.append(ws.prefix)
        return scan_next(ws)

    monkeypatch.setattr(ladder, "_theta_next", lambda ws, front: None)
    monkeypatch.setattr(ladder, "_scan_next", counted)
    for p, expr, depth in ((11, "11 - x^2", 3), (13, "13 - x^3", 2)):
        scans.clear()
        h = prepare(p, "x", expr)
        seq = splitting_sequence(h, depth)
        assert len(scans) == len(seq.computed_values()) - 1, (p, scans)
        table = nu_table(h.f_res, depth)
        for n in range(1, depth + 1):
            partial = sum(
                Fraction(p - 1 - s, p**i) for i, s in enumerate(seq.values[1 : n + 1], 1)
            )
            assert partial == Fraction(table[n], p**n)


def test_monomial_input_with_vanishing_delta():
    # delta(x^2) = 0 at p = 2, so the root images vanish along the chain
    h = prepare(2, "x,y", "x^2")
    seq = splitting_sequence(h, 3)
    assert seq.values == (0, 1, 2, 2)
    a = analyze(h, 3)
    assert a.verdict.kind == "not_perfectoid_pure"


def test_linear_input_is_fully_split():
    h = prepare(5, "x,y", "x")
    seq = splitting_sequence(h, 3)
    assert seq.values == (0, 0, 0, 0)
    assert ppt_partial(seq) == Fraction(124, 125)


def test_deep_run_at_max_depth():
    h = prepare(2, "x,y,z", "x^3 + y^3 + z^3")
    seq = splitting_sequence(h, 24)
    assert seq.values == tuple(0 if i % 2 == 0 else 1 for i in range(25))


def test_concurrent_sequence_runs_share_one_input():
    h = prepare(3, "x1..x4", "x1^4 + x2^4 + x3^4 + x4^4")
    results = []

    def worker():
        results.append(splitting_sequence(h, 4).values)

    threads = [threading.Thread(target=worker) for _ in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results == [(0, 2, 0, 2, 0)] * 6


def test_next_s_agrees_with_sequence_entries():
    h = prepare(3, "x,y", "x^3 + x^2*y + y^3")
    seq = splitting_sequence(h, 3)
    prefix = ()
    for n in range(1, 4):
        assert next_s(h, prefix) == seq.values[n]
        if seq.values[n] == 3:
            break
        prefix += (seq.values[n],)


def test_coefficients_divisible_by_p_in_nonconstant_terms():
    # p-multiples vanish mod p but still shape delta
    ctx = Context(2, ["x", "y"])
    f = parse_poly("x^2 + 2*x*y + y^2", ctx)
    h = validate(ctx, f)
    assert h.f_res == validate(ctx, parse_poly("x^2 + y^2", ctx)).f_res
    # (x+y)^2 = x^2 + 2xy + y^2 is a perfect square lift; its sequence
    # differs from the x^2 + y^2 one in general, so just exercise it
    seq = splitting_sequence(h, 4)
    assert seq.values[0] == 0
