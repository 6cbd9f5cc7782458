"""End-to-end analysis of one hypersurface: sequence, verdict,
certificates, exact threshold data, quasi-F-split height.

Every proof the run has predicts a pattern (head, block): s_0 = 0, then
``head``, then ``block`` repeated forever.  The proofs are each fired
quick criterion, the Fermat predictor, and the run's own repeat
(``SplitSequence.repeat``, whose block the ladder module docstring
proves), named ``"repeat"``, or ``"fpure"`` when s_1 = 0.  Each pattern is
cross-checked against the computed sequence, and all of them must be
the same infinite sequence, compared as ``minimal_pattern``s; a
disagreement is an internal error, never a reportable result.  When
nothing proves the tail of a run that stays below p, the period the
window shows (``detect_period``) is added last as one more pattern,
named None: it is never a certificate.

On a sequence that never reaches p, the first pattern, if any, gives
everything, unless it is C2's: that one reaches p at step 2, so it
agrees only with a depth-1 window and has no series.  The pattern's
name is the certificate, so a named certificate keeps its basis over
the run's repeat and the purity verdict stops being depth-qualified.
The threshold is the series of the pattern, with (preperiod, period)
the lengths of its minimal head and block, and it is conjectural
exactly when the name is None.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .delta import Hypersurface
from .errors import CrossCheckFailureError, InternalCheckError
from .ladder import SplitSequence, splitting_sequence
# The threshold is the series of a pattern; ppt_closed_form stays bound
# here only because perfbench also wraps pipeline.ppt_closed_form by name.
from .verdict import (
    QfsResult,
    QuickCriteria,
    Verdict,
    check_quick_criteria,
    classify,
    criterion_pattern,
    detect_period,
    fermat_block,
    fermat_degree,
    minimal_pattern,
    ppt_closed_form,
    ppt_partial,
    qfs_height,
    series,
    unroll,
)


@dataclass(frozen=True)
class Analysis:
    seq: SplitSequence
    verdict: Verdict
    criteria: QuickCriteria
    certificate: str | None
    qfs: QfsResult
    partial: Fraction | None
    exact: Fraction | None
    preperiod: int | None
    period: int | None
    conjectural: bool | None


def _predictions(h: Hypersurface, criteria: QuickCriteria, seq: SplitSequence) -> list[tuple]:
    """(name, head, block) of every fired criterion, then of the Fermat
    predictor when f has Fermat shape, then of the run's repeat, each
    pattern minimal.  When none of these proves the tail of a run that
    stays below p, the window's period, if ``detect_period`` finds one,
    is the one entry: name None, head s_1..s_a and block
    s_(a+1)..s_(a+pi).  It is never a certificate."""
    p = h.ctx.p
    values = seq.values
    out = [(c, *criterion_pattern(c, p)) for c in sorted(criteria.fired)]
    n = fermat_degree(h)
    if n is not None:
        out.append(("fermat", (), fermat_block(n, p)))
    if seq.repeat is not None:
        j, k = seq.repeat
        basis = "repeat" if values[1] else "fpure"
        out.append((basis, values[1 : j + 1], values[j + 1 : k + 1]))
    elif not out and seq.terminated_at_p is None and (found := detect_period(seq)) is not None:
        a, pi = found
        out.append((None, values[1 : a + 1], values[a + 1 : a + pi + 1]))
    return [(name, *minimal_pattern(head, block)) for name, head, block in out]


def analyze(h: Hypersurface, depth: int, *, strict_r1: bool = False) -> Analysis:
    seq = splitting_sequence(h, depth)
    criteria = check_quick_criteria(h)
    predictions = _predictions(h, criteria, seq)
    for name, head, block in predictions:
        predicted = unroll(head, block, seq.depth)
        if seq.values != predicted:
            raise CrossCheckFailureError(
                f"{name} predicts {predicted} but the ladder computed {seq.values}"
            )
        if (head, block) != (ref := predictions[-1])[1:]:
            raise CrossCheckFailureError(
                f"{name} predicts {head} then {block} repeated but {ref[0]} predicts {ref[1]} "
                f"then {ref[2]} past the window the ladder computed, {seq.values}"
            )
    certificate = partial = exact = None
    preperiod = period = conjectural = None
    if seq.terminated_at_p is None:
        partial = ppt_partial(seq)
        # C2's pattern reaches p at step 2, just past a depth-1 window
        if predictions and seq.p not in predictions[0][2]:
            certificate, head, block = predictions[0]
            preperiod, period = len(head), len(block)
            exact = series(h.ctx.p, head, block)
            conjectural = certificate is None
        if not 0 <= partial <= 1 or (exact is not None and exact < partial):
            raise InternalCheckError(
                f"threshold out of order: partial {partial}, exact {exact}"
            )
    return Analysis(
        seq=seq,
        verdict=classify(seq, strict_r1=strict_r1, certificate=certificate),
        criteria=criteria,
        certificate=certificate,
        qfs=qfs_height(seq),
        partial=partial,
        exact=exact,
        preperiod=preperiod,
        period=period,
        conjectural=conjectural,
    )
