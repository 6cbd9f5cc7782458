import random
from fractions import Fraction
from math import ceil

import pytest

from pptlab.delta import delta, validate
from pptlab.errors import InputError, PNotGreaterThanNError, SequenceHitPError
from pptlab.ladder import SplitSequence, splitting_sequence
from pptlab.parser import parse_poly
from pptlab.ring import Context, LiftPoly, ResPoly
from pptlab import verdict
from pptlab.verdict import (
    QFS_EXCEEDS_DEPTH,
    QFS_HEIGHT,
    QFS_NOT_SPLIT,
    VERDICT_INCONCLUSIVE,
    VERDICT_NOT_PERFECTOID_PURE,
    VERDICT_PERFECTOID_PURE,
    check_quick_criteria,
    classify,
    criterion_pattern,
    detect_period,
    fermat_block,
    fermat_degree,
    fermat_predict,
    fpt_approx,
    nu,
    nu_table,
    ppt_closed_form,
    ppt_partial,
    qfs_height,
    regularity_test,
    series,
    unroll,
)

from oracles import capped_power_nu_table, random_int_poly, reduce_mod


def seq_of(p, values, terminated=None):
    return SplitSequence(
        p=p, depth=len(values) - 1, values=tuple(values), terminated_at_p=terminated
    )


def hypersurface(p, names, expr):
    ctx = Context(p, names)
    return validate(ctx, parse_poly(expr, ctx))


# -- classify ----------------------------------------------------------------


def test_classify_all_bounded_is_pure_up_to_depth():
    v = classify(seq_of(2, (0, 1, 1, 1)))
    assert v.kind == VERDICT_PERFECTOID_PURE
    assert v.basis == "all_bounded"
    assert v.up_to_depth == 3
    assert not v.certified


def test_classify_certificate_removes_depth_qualifier():
    v = classify(seq_of(2, (0, 1, 1, 1)), certificate="C3")
    assert v.kind == VERDICT_PERFECTOID_PURE
    assert v.basis == "C3"
    assert v.certified


def test_classify_r1_pattern_flagged_by_default():
    v = classify(seq_of(2, (0, 1, 2, 2), terminated=2))
    assert v.kind == VERDICT_NOT_PERFECTOID_PURE
    assert v.r == 1
    assert v.flagged_r1


def test_classify_r1_pattern_strict_mode():
    v = classify(seq_of(2, (0, 1, 2, 2), terminated=2), strict_r1=True)
    assert v.kind == VERDICT_INCONCLUSIVE


def test_classify_long_run_not_flagged():
    v = classify(seq_of(3, (0, 2, 2, 3, 3), terminated=3))
    assert v.kind == VERDICT_NOT_PERFECTOID_PURE
    assert v.r == 2
    assert not v.flagged_r1


def test_classify_unclassified_pattern():
    v = classify(seq_of(3, (0, 3, 3), terminated=1))
    assert v.kind == VERDICT_INCONCLUSIVE
    v = classify(seq_of(3, (0, 1, 3, 3), terminated=2))
    assert v.kind == VERDICT_INCONCLUSIVE


# -- threshold arithmetic ------------------------------------------------------


def test_ppt_partial_constant_tail_of_ones():
    assert ppt_partial(seq_of(2, (0, 1, 1, 1, 1))) == 0


def test_ppt_partial_alternating():
    # contributions 1/4 + 1/16 + 1/64 summed by hand
    assert ppt_partial(seq_of(2, (0, 1, 0, 1, 0, 1, 0))) == Fraction(21, 64)


def test_ppt_partial_all_zero():
    assert ppt_partial(seq_of(3, (0, 0, 0, 0, 0))) == Fraction(80, 81)


def test_ppt_partial_rejects_p():
    with pytest.raises(SequenceHitPError):
        ppt_partial(seq_of(2, (0, 1, 2, 2), terminated=2))


def test_detect_period_examples():
    assert detect_period(seq_of(2, (0, 1, 0, 1, 0, 1, 0, 1))) == (0, 2)
    assert detect_period(seq_of(3, (0, 2, 0, 2, 0, 2))) == (0, 2)
    assert detect_period(seq_of(2, (0, 1, 1, 1, 1))) == (0, 1)
    assert detect_period(seq_of(2, (0, 0, 1, 1, 1, 1))) == (1, 1)
    assert detect_period(seq_of(5, (0, 1, 2, 3, 4))) is None


def test_ppt_closed_form_values():
    assert ppt_closed_form(seq_of(2, (0, 1, 0, 1, 0, 1)), 0, 2) == Fraction(1, 3)
    assert ppt_closed_form(seq_of(3, (0, 2, 0, 2, 0, 2)), 0, 2) == Fraction(1, 4)
    assert ppt_closed_form(seq_of(2, (0, 1, 1, 1)), 0, 1) == 0
    # p=7 alternating (0,2): (p^2-2p-1)/(p^2-1) = 34/48 = 17/24
    assert ppt_closed_form(seq_of(7, (0, 2, 0, 2, 0)), 0, 2) == Fraction(17, 24)


def test_ppt_closed_form_with_preperiod():
    # p=3, values (0, 1, 2, 0, 2, 0): preperiod 1, period 2
    got = ppt_closed_form(seq_of(3, (0, 1, 2, 0, 2, 0)), 1, 2)
    want = Fraction(1, 3) + Fraction(1, 3) * (
        Fraction(0, 3) + Fraction(2, 9)
    ) * Fraction(9, 8)
    assert got == want


def test_closed_form_bounds_partial():
    seq = seq_of(2, (0, 1, 0, 1, 0, 1))
    assert ppt_partial(seq) <= ppt_closed_form(seq, 0, 2) <= 1


DIGIT_CHARS = "0123456789abc"


def base_p_fraction(p, head, block):
    """The repeating base-p fraction 0.(head digits)(block digits)(block
    digits)... with digits p-1-s, read through int(text, p)."""

    def number(values):
        text = "".join(DIGIT_CHARS[p - 1 - s] for s in values)
        return int(text, p) if text else 0

    a = len(head)
    value = Fraction(number(head), p**a)
    if block:
        value += Fraction(number(block), (p ** len(block) - 1) * p**a)
    return value


def test_series_matches_the_repeating_base_p_fraction():
    rng = random.Random(20260)
    for _ in range(320):
        p = rng.choice((2, 3, 5, 7, 11, 13))
        head = tuple(rng.randrange(p) for _ in range(rng.randrange(6)))
        block = tuple(rng.randrange(p) for _ in range(rng.randrange(1, 5)))
        want = base_p_fraction(p, head, block)
        assert series(p, head, block) == want
        assert series(p, head) == base_p_fraction(p, head, ())
        # the window of D entries falls short of the full series by at most p^-D
        d = rng.randrange(1, 16)
        gap = want - series(p, unroll(head, block, d)[1:])
        assert 0 <= gap <= Fraction(1, p**d)


def test_series_rejects_entries_outside_the_digit_range():
    with pytest.raises(SequenceHitPError):
        series(2, (1, 2))
    with pytest.raises(SequenceHitPError):
        series(3, (), (0, -1))


def test_unroll_needs_a_block_past_the_head():
    assert unroll((1, 2), (), 2) == (0, 1, 2)
    assert unroll((1,), (0, 2), 5) == (0, 1, 0, 2, 0, 2)
    with pytest.raises(InputError):
        unroll((1, 2), (), 3)


def certified_patterns():
    """Every C1/C3 pattern for p <= 13 and every Fermat pattern for N <= 6."""
    primes = (2, 3, 5, 7, 11, 13)
    for p in primes:
        for criterion in ("C1", "C3"):
            yield p, criterion_pattern(criterion, p)
        for n in range(2, min(p, 7)):
            yield p, ((), fermat_block(n, p))


def test_detect_period_on_certified_patterns_finds_the_pattern_or_nothing():
    cases = 0
    for p, (head, block) in certified_patterns():
        for depth in range(1, 31):
            found = detect_period(seq_of(p, unroll(head, block, depth)))
            assert found in (None, (len(head), len(block))), (p, head, block, depth)
            cases += 1
    assert cases == 930


# -- qfs height ---------------------------------------------------------------


def test_qfs_examples():
    assert qfs_height(seq_of(2, (0, 0, 1, 0))).height == 1
    r = qfs_height(seq_of(2, (0, 1, 0, 0)))
    assert r.kind == QFS_HEIGHT and r.height == 2
    assert qfs_height(seq_of(3, (0, 2, 0))).kind == QFS_NOT_SPLIT
    r = qfs_height(seq_of(2, (0, 1, 1, 1)))
    assert r.kind == QFS_EXCEEDS_DEPTH and r.depth == 3
    assert qfs_height(seq_of(2, (0, 1, 2, 2), terminated=2)).kind == QFS_NOT_SPLIT


# -- nu functions -------------------------------------------------------------


def test_nu_single_variable():
    for p in (2, 3, 5):
        ctx = Context(p, ["x"])
        x = ResPoly.variable(ctx, "x")
        for e in (1, 2, 3):
            assert nu(x, e) == p**e - 1


def test_nu_square_at_p3():
    ctx = Context(3, ["x"])
    f = ResPoly(ctx, {(2,): 2})  # reduction of 3 - x^2
    for e in (1, 2, 3, 4):
        assert nu(f, e) == (3**e - 1) // 2


def test_nu_sum_of_squares_p2():
    ctx = Context(2, ["x", "y"])
    f = ResPoly(ctx, {(2, 0): 1, (0, 2): 1})
    assert nu(f, 1) == 0
    assert nu(f, 2) == 1
    assert nu(f, 3) == 3
    table = nu_table(f, 4)
    assert table == {1: 0, 2: 1, 3: 3, 4: 7}


def test_fpt_approx_line():
    ctx = Context(2, ["x", "y"])
    f = ResPoly(ctx, {(1, 0): 1, (0, 3): 1})
    assert fpt_approx(f, 5) == Fraction(31, 32)


def test_nu_rejects_zero():
    ctx = Context(2, ["x"])
    with pytest.raises(InputError):
        nu(ResPoly.zero(ctx), 1)
    # a unit never enters the ideal, so the climb would not end
    unit = ResPoly(Context(3, ["x"]), {(0,): 1, (1,): 1})
    for call in (lambda: nu(unit, 1), lambda: nu_table(unit, 2), lambda: fpt_approx(unit, 2)):
        with pytest.raises(InputError):
            call()



def test_nu_table_matches_capped_power_climb():
    # the root chains against the climb through capped powers of fbar; the
    # capped powers grow quickly with N, so p^e_max shrinks as N grows
    max_q = {1: 10**5, 2: 1000, 3: 200}
    rng = random.Random(808)
    cases = 0
    while cases < 320:
        p = rng.choice([2, 3, 5, 7, 11, 13])
        n = rng.randrange(1, 4)
        e_max = max([e for e in range(1, 20) if p**e <= max_q[n]] or [1])
        f = reduce_mod(random_int_poly(rng, n, max_terms=4, max_exp=3, max_coeff=8), p)
        f.pop((0,) * n, None)
        if not f:
            continue
        cases += 1
        f_res = ResPoly(Context(p, [f"x{i}" for i in range(n)]), f)
        want = capped_power_nu_table(f_res, e_max)
        assert nu_table(f_res, e_max) == want, (p, n, f, want)


@pytest.mark.parametrize(
    "p, names, expr, e_max, fpt",
    [
        (7, ["x", "y", "z"], "x^3 + y^3 + z^3", 6, Fraction(1)),
        (2, ["x", "y", "z"], "x^3 + y^3 + z^3", 20, Fraction(1, 2)),
        (5, ["x", "y"], "x^2 + y^3", 10, Fraction(4, 5)),
    ],
)
def test_nu_table_past_the_capped_climb_reach(p, names, expr, e_max, fpt):
    # nu(p^e) = ceil(fpt * p^e) - 1 for the known F-pure thresholds:
    # 7^e - 1, 2^(e-1) - 1 and 4 * 5^(e-1) - 1
    f = hypersurface(p, names, expr).f_res
    want = {e: ceil(fpt * p**e) - 1 for e in range(1, e_max + 1)}
    assert nu_table(f, e_max) == want
    assert nu(f, e_max) == want[e_max]


def test_nu_never_forms_large_powers(monkeypatch):
    # the capped power of the p = 2 Fermat cubic holds 101,268 terms at
    # e = 12; the root chains multiply small ideal generators by fbar^d, d < p
    full = verdict.mul_terms
    sizes = []

    def guarded(a, b, *args):
        sizes.append(max(len(a), len(b)))
        return full(a, b, *args)

    monkeypatch.setattr(verdict, "mul_terms", guarded)
    f = hypersurface(2, ["x", "y", "z"], "x^3 + y^3 + z^3").f_res
    assert nu_table(f, 12)[12] == 2**11 - 1
    assert sizes and max(sizes) <= 200, max(sizes, default=None)


def test_nu_chain_roots_keep_the_ideal_not_its_span(monkeypatch):
    # the E8 surface at p = 5, a frozen table (4 * 5^(e-1) - 1).  Each root
    # step keeps generators of its ideal, so the chain makes 4 products for
    # the powers fbar^d and 10 for its steps; keeping the whole F_p-span of
    # every root made 56
    full = verdict.mul_terms
    calls = []

    def counted(a, b, *args):
        calls.append(1)
        return full(a, b, *args)

    monkeypatch.setattr(verdict, "mul_terms", counted)
    f = hypersurface(5, ["x", "y", "z"], "x^2 + y^3 + z^5").f_res
    assert nu_table(f, 4) == {1: 3, 2: 19, 3: 99, 4: 499}
    assert len(calls) <= 14, len(calls)


# -- regularity ---------------------------------------------------------------


def test_regularity_examples():
    assert regularity_test(hypersurface(2, ["x", "y"], "x + x^3"))
    assert regularity_test(hypersurface(3, ["x"], "3 - x^2"))
    assert not regularity_test(hypersurface(2, ["x", "y"], "x^2 + y^2"))
    assert not regularity_test(hypersurface(2, ["x", "y"], "x^2 + x*y + y^3"))


# -- quick criteria -----------------------------------------------------------


def test_criteria_c2_fires_for_fermat_quartic_p2():
    h = hypersurface(2, ["x1", "x2", "x3", "x4"], "x1^4 + x2^4 + x3^4 + x4^4")
    crit = check_quick_criteria(h)
    assert crit.hypothesis_met
    assert crit.fired == frozenset({"C2"})


def test_criteria_c3_fires_for_deformed_quartic_p2():
    h = hypersurface(
        2, ["x1", "x2", "x3", "x4"], "x1^4 + x2^4 + x3^4 + x4^4 + p*x1*x2*x3*x4"
    )
    crit = check_quick_criteria(h)
    assert "C3" in crit.fired
    assert series(2, *criterion_pattern("C3", 2)) == 0


def test_criteria_c1_fires_for_fermat_cubic_p2():
    h = hypersurface(2, ["x", "y", "z"], "x^3 + y^3 + z^3")
    crit = check_quick_criteria(h)
    assert crit.fired == frozenset({"C1"})
    assert series(2, *criterion_pattern("C1", 2)) == Fraction(1, 3)
    assert unroll(*criterion_pattern("C1", 2), 4) == (0, 1, 0, 1, 0)


def test_criteria_hypothesis_gate():
    # xy is not inside (x^2, y^2), so the criteria do not apply
    h = hypersurface(2, ["x", "y"], "x*y")
    crit = check_quick_criteria(h)
    assert not crit.hypothesis_met
    assert crit.fired == frozenset()
    assert crit.note


def test_criteria_match_ladder_predictions():
    cases = [
        (2, ["x", "y"], "x^2 + y^2", "C3", (0, 1, 1, 1, 1)),
        (2, ["x", "y", "z"], "x^3 + y^3 + z^3", "C1", (0, 1, 0, 1, 0)),
    ]
    for p, names, expr, criterion, values in cases:
        h = hypersurface(p, names, expr)
        crit = check_quick_criteria(h)
        assert criterion in crit.fired
        assert unroll(*criterion_pattern(criterion, p), 4) == values
        assert splitting_sequence(h, 4).values == values


def full_power_criteria(h):
    """Fired set and hypothesis of the quick criteria, from the full powers
    of fbar and delta, truncated afterwards by their decoded exponents."""
    ctx = h.ctx
    p = ctx.p
    q = p * p

    def below(g, bound):
        return {m for m in g.terms if all(e < bound for e in ctx.decode_monomial(m))}

    if below(h.f_res, p):
        return frozenset(), False
    fired = set()
    d = h.delta_power(p - 1)
    if below(h.f_res_power(p - 1) * d, q) == {ctx.encode_monomial((q - 1,) * ctx.n_vars)}:
        fired.add("C1")
    if not below(d, q):
        fired.add("C2")
    f_prime = h.f_lift - LiftPoly.monomial(ctx, (1,) * ctx.n_vars, p)
    if not below(delta(f_prime), q):
        fired.add("C3")
    return frozenset(fired), True


def test_criteria_on_truncated_powers_match_full_powers():
    # the criteria build fbar^(p-1) and delta^(p-1) truncated mod (x_i^(p^2));
    # random inputs meet the hypothesis by scaling every term of f with all
    # exponents below p by p
    fixed = [
        (2, ["x", "y", "z"], "x^3 + y^3 + z^3"),
        (2, ["x1", "x2", "x3", "x4"], "x1^4 + x2^4 + x3^4 + x4^4"),
        (2, ["x1", "x2", "x3", "x4"], "x1^4 + x2^4 + x3^4 + x4^4 + p*x1*x2*x3*x4"),
        (2, ["x", "y"], "x^2 + y^2"),
    ]
    cases = [hypersurface(p, names, expr) for p, names, expr in fixed]
    rng = random.Random(413)
    while len(cases) < len(fixed) + 320:
        p = rng.choice([2, 3, 5])
        n = rng.randrange(1, 3 if p == 5 else 4)
        f = {}
        for _ in range(rng.randrange(1, 4)):
            e = tuple(rng.randrange(p + 2) for _ in range(n))
            f[e] = rng.randrange(1, 8) * (p if max(e) < p else 1)
        if any(c % p for c in f.values()):
            ctx = Context(p, [f"x{i}" for i in range(n)])
            cases.append(validate(ctx, LiftPoly(ctx, f)))
    fired = set()
    for h in cases:
        crit = check_quick_criteria(h)
        assert (crit.fired, crit.hypothesis_met) == full_power_criteria(h), h
        assert crit.hypothesis_met
        fired |= crit.fired
    assert fired == {"C1", "C2", "C3"}


# -- fermat predictor ---------------------------------------------------------


def test_fermat_predict_values():
    assert fermat_predict(4, 5, 5) == (0, 0, 0, 0, 0, 0)
    assert fermat_predict(4, 7, 4) == (0, 2, 0, 2, 0)
    assert fermat_predict(3, 5, 4) == (0, 1, 0, 1, 0)


def test_fermat_block_is_one_period_of_the_per_e_formula():
    for p in (3, 5, 7, 11, 13):
        for n in range(2, p):
            block = fermat_block(n, p)
            # s_e + 1 = p^e mod N, one period long: the order of p mod N
            assert block == tuple(pow(p, e, n) - 1 for e in range(1, len(block) + 1))
            assert len(block) == min(k for k in range(1, n + 1) if pow(p, k, n) == 1)
            per_e = tuple((pow(p, e, n) - 1) % n for e in range(1, 31))
            assert fermat_predict(n, p, 30) == (0,) + per_e
    # p = 6 shares a factor with N = 4, so p^e mod N never returns to 1
    with pytest.raises(InputError):
        fermat_block(4, 6)


def test_fermat_predict_requires_p_greater_than_n():
    with pytest.raises(PNotGreaterThanNError):
        fermat_predict(4, 3, 4)
    with pytest.raises(PNotGreaterThanNError):
        fermat_predict(1, 5, 4)


def test_fermat_degree_recognition():
    h = hypersurface(5, ["x1", "x2", "x3", "x4"], "x1^4 + x2^4 + x3^4 + x4^4")
    assert fermat_degree(h) == 4
    # wrong variable count vs degree
    h = hypersurface(5, ["x", "y"], "x^3 + y^3")
    assert fermat_degree(h) is None
    # non-unit coefficient
    h = hypersurface(5, ["x", "y"], "x^2 + 2*y^2")
    assert fermat_degree(h) is None
    # p <= N
    h = hypersurface(3, ["x1", "x2", "x3", "x4"], "x1^4 + x2^4 + x3^4 + x4^4")
    assert fermat_degree(h) is None
