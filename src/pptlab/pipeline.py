"""End-to-end analysis of one hypersurface: sequence, verdict,
certificates, exact threshold data, quasi-F-split height.

Every fired quick criterion and the Fermat predictor predict a pattern
(head, block): s_0 = 0, then ``head``, then ``block`` repeated forever.
Each prediction is cross-checked against the computed sequence; one that
disagrees with the ladder is an internal error, never a reportable
result.  On a sequence that never reaches p, the first prediction named
in ``CERTIFICATES`` is the certificate: the purity verdict stops being
depth-qualified, and the threshold is the series of its pattern, with
(preperiod, period) = (len(head), len(block)).  Without a certificate a
period detected in the window gives a conjectural closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .delta import Hypersurface
from .errors import CrossCheckFailureError, InternalCheckError
from .ladder import SplitSequence, splitting_sequence
from .verdict import (
    CERTIFICATES,
    QfsResult,
    QuickCriteria,
    Verdict,
    check_quick_criteria,
    classify,
    criterion_pattern,
    detect_period,
    fermat_block,
    fermat_degree,
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


def _predictions(h: Hypersurface, criteria: QuickCriteria) -> list[tuple[str, tuple, tuple]]:
    """(name, head, block) of every fired criterion, then of the Fermat
    predictor when f has Fermat shape."""
    p = h.ctx.p
    out = [(c, *criterion_pattern(c, p)) for c in sorted(criteria.fired)]
    n = fermat_degree(h)
    if n is not None:
        out.append(("fermat", (), fermat_block(n, p)))
    return out


def analyze(h: Hypersurface, depth: int, *, strict_r1: bool = False) -> Analysis:
    seq = splitting_sequence(h, depth)
    criteria = check_quick_criteria(h)
    predictions = _predictions(h, criteria)
    for name, head, block in predictions:
        predicted = unroll(head, block, seq.depth)
        if seq.values != predicted:
            raise CrossCheckFailureError(
                f"{name} predicts {predicted} but the ladder computed {seq.values}"
            )
    cert = None
    if seq.terminated_at_p is None:
        cert = next((entry for entry in predictions if entry[0] in CERTIFICATES), None)
    certificate = cert[0] if cert else None
    verdict = classify(seq, strict_r1=strict_r1, certificate=certificate)

    partial = exact = None
    preperiod = period = None
    conjectural = None
    if seq.terminated_at_p is None:
        partial = ppt_partial(seq)
        if cert is not None:
            _, head, block = cert
            preperiod, period = len(head), len(block)
            exact = series(h.ctx.p, head, block)
            conjectural = False
        elif (found := detect_period(seq)) is not None:
            preperiod, period = found
            exact = ppt_closed_form(seq, preperiod, period)
            conjectural = True
        if not 0 <= partial <= 1 or (exact is not None and exact < partial):
            raise InternalCheckError(
                f"threshold out of order: partial {partial}, exact {exact}"
            )
    return Analysis(
        seq=seq,
        verdict=verdict,
        criteria=criteria,
        certificate=certificate,
        qfs=qfs_height(seq),
        partial=partial,
        exact=exact,
        preperiod=preperiod,
        period=period,
        conjectural=conjectural,
    )
