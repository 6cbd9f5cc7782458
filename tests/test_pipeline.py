import random
from fractions import Fraction

import pytest

import pptlab.pipeline
from pptlab import cli
from pptlab.delta import validate
from pptlab.errors import CrossCheckFailureError, InternalCheckError
from pptlab.ladder import next_s
from pptlab.parser import expand_var_spec, parse_poly
from pptlab.pipeline import analyze
from pptlab.ring import Context, LiftPoly
from pptlab.verdict import minimal_pattern, unroll

import property_suites as ps
from oracles import random_int_poly


def prepare(p, vars_spec, expr):
    ctx = Context(p, expand_var_spec(vars_spec))
    return validate(ctx, parse_poly(expr, ctx))


def test_certificate_priority_quick_criterion_over_all_bounded():
    a = analyze(prepare(2, "x,y", "x^2 + y^2"), 5)
    # a named certificate keeps its basis over the run's repeat
    assert a.seq.repeat is not None
    assert a.certificate == "C3"
    assert a.verdict.certified
    assert a.verdict.up_to_depth is None


def test_fermat_certificate_when_no_criterion_fires():
    a = analyze(prepare(5, "x1..x4", "x1^4 + x2^4 + x3^4 + x4^4"), 3)
    assert a.seq.repeat == (0, 1)  # an F-pure fibre, certified as fermat
    assert a.certificate == "fermat"
    assert a.verdict.basis == "fermat"
    assert a.exact == Fraction(1)


def test_uncertified_purity_is_depth_qualified():
    # no quick criterion, not of Fermat shape, and no repeat through depth 12
    a = analyze(prepare(2, "x,y", "3*x*y^2 + 2"), 12)
    assert a.seq.repeat is None
    assert a.certificate is None
    assert a.verdict.kind == "perfectoid_pure"
    assert a.verdict.up_to_depth == 12
    assert (a.preperiod, a.period) == (1, 1)
    assert a.exact == Fraction(1, 2)
    assert a.conjectural is True


@pytest.mark.parametrize(
    "p, vars_spec, expr, depth, repeat, basis, pattern, exact",
    [
        # theta_1 is a multiple of theta_0: s = (0, 1, 1, ...)
        (3, "x", "3 - x^2", 4, (0, 1), "repeat", (0, 1), Fraction(1, 2)),
        # s_1 = 0: an F-pure fibre
        (2, "x,y", "x + y^3", 5, (0, 1), "fpure", (0, 1), Fraction(1)),
        # theta_3 is a multiple of theta_2, but the proven sequence (0, 2, 0, 0, ...) has the minimal pattern (1, 1)
        (3, "x", "4*x^3 + 6*x^2 + 6*x + 3", 6, (2, 3), "repeat", (1, 1), Fraction(1, 3)),
    ],
)
def test_a_proven_repeat_is_a_certificate(p, vars_spec, expr, depth, repeat, basis, pattern, exact):
    a = analyze(prepare(p, vars_spec, expr), depth)
    assert a.seq.repeat == repeat and not a.criteria.fired
    assert a.certificate == a.verdict.basis == basis
    assert a.verdict.certified and a.verdict.up_to_depth is None
    assert (a.preperiod, a.period) == pattern
    assert a.exact == exact and a.conjectural is False


def test_minimal_pattern_is_the_shortest_that_writes_the_sequence():
    # heads and blocks of at most 4 entries: two such patterns that agree
    # on s_1..s_16 agree forever, so depth 24 decides "writes the same
    # sequence"; every (head, block) cut from that sequence that writes it
    # must be at least as long as the minimal one, in head and in block
    rng = random.Random(39)
    moved = 0
    for _ in range(400):
        p = rng.choice((2, 3, 5))
        head = tuple(rng.randrange(p) for _ in range(rng.randrange(5)))
        block = tuple(rng.randrange(p) for _ in range(rng.randrange(1, 5)))
        values = unroll(head, block, 24)
        got = minimal_pattern(head, block)
        assert unroll(*got, 24) == values, (head, block, got)
        for a in range(len(head) + 1):
            for pi in range(1, len(block) + 1):
                if unroll(values[1 : a + 1], values[a + 1 : a + pi + 1], 24) == values:
                    assert a >= len(got[0]) and pi >= len(got[1]), (head, block, got, a, pi)
        moved += got != (head, block)
    assert moved >= 100, moved


def test_family_period_fills_in_short_windows():
    # depth 2 is too short to observe the alternating period twice, but the
    # quick-criterion certificate supplies it
    a = analyze(prepare(2, "x,y,z", "x^3 + y^3 + z^3"), 2)
    assert a.seq.values == (0, 1, 0)
    assert (a.preperiod, a.period) == (0, 2)
    assert a.exact == Fraction(1, 3)
    assert a.conjectural is False
    assert a.exact >= a.partial


def test_terminated_sequence_has_no_threshold_block():
    a = analyze(prepare(2, "x1..x4", "x1^4 + x2^4 + x3^4 + x4^4"), 3)
    assert a.seq.terminated_at_p == 2
    assert a.partial is None and a.exact is None
    assert a.period is None and a.conjectural is None


def test_strict_r1_flows_through():
    a = analyze(prepare(2, "x1..x4", "x1^4 + x2^4 + x3^4 + x4^4"), 3, strict_r1=True)
    assert a.verdict.kind == "inconclusive"


def test_exact_bounds_partial_on_certified_families():
    for p, vars_spec, expr, depth in [
        (2, "x,y,z", "x^3 + y^3 + z^3", 5),
        (3, "x1..x4", "x1^4 + x2^4 + x3^4 + x4^4", 4),
        (5, "x1..x3", "x1^3 + x2^3 + x3^3", 4),
    ]:
        a = analyze(prepare(p, vars_spec, expr), depth)
        assert a.partial is not None and a.exact is not None
        assert 0 <= a.partial <= a.exact <= 1


def test_threshold_bounds_raise_internal_check(monkeypatch):
    monkeypatch.setattr(pptlab.pipeline, "ppt_partial", lambda seq: Fraction(2))
    with pytest.raises(InternalCheckError):
        analyze(prepare(2, "x,y,z", "x^3 + y^3 + z^3"), 3)


WRONG_PREDICTIONS = [
    # C1 fires; the patched pattern predicts (0, 1, 1, 1) against (0, 1, 0, 1)
    pytest.param(
        "criterion_pattern",
        lambda criterion, p: ((), (p - 1,)),
        2, "x,y,z", "x^3 + y^3 + z^3", "C1",
        id="criterion_pattern",
    ),
    # Fermat shape; the patched block predicts (0, 1, 1, 1) against (0, 0, 0, 0)
    pytest.param(
        "fermat_block",
        lambda n, p: (1,),
        5, "x1..x4", "x1^4 + x2^4 + x3^4 + x4^4", "fermat",
        id="fermat_block",
    ),
    # C1 fires; the patched pattern writes the window (0, 1, 0, 1) but then
    # 1, 1, ..., against the block (1, 0) that the run's repeat (0, 2) proves
    pytest.param(
        "criterion_pattern",
        lambda criterion, p: ((1, 0, 1), (1,)),
        2, "x,y,z", "x^3 + y^3 + z^3", "C1",
        id="criterion_pattern_past_the_window",
    ),
]


@pytest.mark.parametrize("name, wrong, p, vars_spec, expr, label", WRONG_PREDICTIONS)
def test_wrong_prediction_is_a_cross_check_failure(
    monkeypatch, capsys, name, wrong, p, vars_spec, expr, label
):
    monkeypatch.setattr(pptlab.pipeline, name, wrong)
    with pytest.raises(CrossCheckFailureError, match=f"^{label} predicts"):
        analyze(prepare(p, vars_spec, expr), 3)
    argv = ["sequence", "--p", str(p), "--vars", vars_spec, "--f", expr, "--depth", "3"]
    assert cli.main(argv) == 4
    assert "ladder computed" in capsys.readouterr().err


def test_certified_repeats_match_next_s():
    # next_s takes no read-off, so chaining it checks each pattern a run's
    # repeat certifies past the window that proved it, to k + 2 periods
    # + 2.  Half the inputs have constant term p times a unit, so delta is
    # a unit and theta repeats are common
    rng = random.Random(5)
    shapes = set()
    for case in range(300):
        p = rng.choice((2, 3, 5, 7))
        ctx = Context(p, [f"x{i}" for i in range(rng.randrange(1, 3))])
        if case % 2:
            h = ps.random_hypersurface(rng, ctx)
        else:
            terms = {}
            while not any(c % p for c in terms.values()):
                terms = random_int_poly(rng, ctx.n_vars, max_terms=3, max_exp=3)
                terms[(0,) * ctx.n_vars] = p * (rng.randrange(1, p) + p * rng.randrange(5))
            h = validate(ctx, LiftPoly(ctx, terms))
        a = analyze(h, 8)
        if a.seq.repeat is None:
            continue
        j, k = a.seq.repeat
        values, pre = a.seq.values, a.preperiod
        depth = k + 2 * a.period + 2
        prefix = ()
        while len(prefix) < depth:
            prefix += (next_s(h, prefix),)
        head, block = values[1 : pre + 1], values[pre + 1 : pre + a.period + 1]
        assert (0,) + prefix == unroll(head, block, depth), (p, h.f_lift, a.seq.repeat)
        shapes.add((a.verdict.basis, k - j > 1, pre < j))
    # both read-offs, a block longer than one entry, a head shorter than j
    assert {basis for basis, _, _ in shapes} >= {"repeat", "fpure"}, shapes
    assert any(long for _, long, _ in shapes) and any(short for _, _, short in shapes), shapes
