from fractions import Fraction

import pytest

import pptlab.pipeline
from pptlab import cli
from pptlab.delta import validate
from pptlab.errors import CrossCheckFailureError, InternalCheckError
from pptlab.parser import expand_var_spec, parse_poly
from pptlab.pipeline import analyze
from pptlab.ring import Context


def prepare(p, vars_spec, expr):
    ctx = Context(p, expand_var_spec(vars_spec))
    return validate(ctx, parse_poly(expr, ctx))


def test_certificate_priority_quick_criterion_over_all_bounded():
    a = analyze(prepare(2, "x,y", "x^2 + y^2"), 5)
    assert a.certificate == "C3"
    assert a.verdict.certified
    assert a.verdict.up_to_depth is None


def test_fermat_certificate_when_no_criterion_fires():
    a = analyze(prepare(5, "x1..x4", "x1^4 + x2^4 + x3^4 + x4^4"), 3)
    assert a.certificate == "fermat"
    assert a.verdict.basis == "fermat"
    assert a.exact == Fraction(1)


def test_uncertified_purity_is_depth_qualified():
    # regular input, no quick criterion, not of Fermat shape
    a = analyze(prepare(3, "x", "3 - x^2"), 4)
    assert a.certificate is None
    assert a.verdict.kind == "perfectoid_pure"
    assert a.verdict.up_to_depth == 4
    assert a.exact == Fraction(1, 2)
    assert a.conjectural is True


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
    (
        "criterion_pattern",
        lambda criterion, p: ((), (p - 1,)),
        2, "x,y,z", "x^3 + y^3 + z^3", "C1",
    ),
    # Fermat shape; the patched block predicts (0, 1, 1, 1) against (0, 0, 0, 0)
    (
        "fermat_block",
        lambda n, p: (1,),
        5, "x1..x4", "x1^4 + x2^4 + x3^4 + x4^4", "fermat",
    ),
]


@pytest.mark.parametrize(
    "name, wrong, p, vars_spec, expr, label",
    WRONG_PREDICTIONS,
    ids=[case[0] for case in WRONG_PREDICTIONS],
)
def test_wrong_prediction_is_a_cross_check_failure(
    monkeypatch, capsys, name, wrong, p, vars_spec, expr, label
):
    monkeypatch.setattr(pptlab.pipeline, name, wrong)
    with pytest.raises(CrossCheckFailureError, match=f"^{label} predicts"):
        analyze(prepare(p, vars_spec, expr), 3)
    argv = ["sequence", "--p", str(p), "--vars", vars_spec, "--f", expr, "--depth", "3"]
    assert cli.main(argv) == 4
    assert "ladder computed" in capsys.readouterr().err
