"""End-to-end analysis of one hypersurface: sequence, verdict,
certificates, exact threshold data, quasi-F-split height.

The quick criteria and the Fermat predictor double as certificates: when
one of them fires and the computed sequence matches its predicted
pattern, the purity verdict and the detected period stop being
depth-qualified.  A fired criterion whose prediction disagrees with the
ladder is an internal error, never a reportable result.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .delta import Hypersurface
from .errors import CrossCheckFailureError, InternalCheckError
from .ladder import SplitSequence, splitting_sequence
from .verdict import (
    QfsResult,
    QuickCriteria,
    Verdict,
    check_quick_criteria,
    classify,
    detect_period,
    fermat_degree,
    fermat_predict,
    ppt_closed_form,
    ppt_partial,
    qfs_height,
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


def _values_match(seq: SplitSequence, predicted: tuple[int, ...]) -> bool:
    return seq.values == predicted[: len(seq.values)]


def _cross_check(h: Hypersurface, seq: SplitSequence, criteria: QuickCriteria) -> None:
    p = h.ctx.p
    for criterion in sorted(criteria.fired):
        predicted = criteria.predicted_values(criterion, p, seq.depth)
        if not _values_match(seq, predicted):
            raise CrossCheckFailureError(
                f"criterion {criterion} predicts {predicted} but the ladder "
                f"computed {seq.values}"
            )
    n = fermat_degree(h)
    if n is not None and seq.values != fermat_predict(n, p, seq.depth):
        raise CrossCheckFailureError(
            f"Fermat predictor gives {fermat_predict(n, p, seq.depth)} but "
            f"the ladder computed {seq.values}"
        )


def _certificate(h: Hypersurface, seq: SplitSequence, criteria: QuickCriteria) -> str | None:
    if seq.terminated_at_p is not None:
        return None
    p = h.ctx.p
    for criterion in ("C1", "C3"):
        if criterion in criteria.fired and _values_match(
            seq, criteria.predicted_values(criterion, p, seq.depth)
        ):
            return criterion
    if fermat_degree(h) is not None:
        return "fermat"
    return None


def _family_period(h: Hypersurface, certificate: str) -> tuple[int, int]:
    p = h.ctx.p
    if certificate == "C1":
        return 0, 2
    if certificate == "C3":
        return 0, 1
    n = fermat_degree(h)
    order = 1
    power = p % n
    while power != 1:
        power = power * p % n
        order += 1
    return 0, order


def analyze(h: Hypersurface, depth: int, *, strict_r1: bool = False) -> Analysis:
    seq = splitting_sequence(h, depth)
    criteria = check_quick_criteria(h)
    _cross_check(h, seq, criteria)
    certificate = _certificate(h, seq, criteria)
    verdict = classify(seq, strict_r1=strict_r1, certificate=certificate)

    partial = exact = None
    preperiod = period = None
    conjectural = None
    if seq.terminated_at_p is None:
        partial = ppt_partial(seq)
        found = detect_period(seq)
        if found is None and certificate is not None:
            preperiod, period = _family_period(h, certificate)
            predicted = _predicted_tail(h, certificate, criteria, preperiod + 2 * period)
            tail = SplitSequence(
                p=h.ctx.p, depth=len(predicted) - 1, values=predicted, terminated_at_p=None
            )
            exact = ppt_closed_form(tail, preperiod, period)
        elif found is not None:
            preperiod, period = found
            exact = ppt_closed_form(seq, preperiod, period)
        if exact is not None:
            conjectural = certificate is None
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


def _predicted_tail(
    h: Hypersurface, certificate: str, criteria: QuickCriteria, depth: int
) -> tuple[int, ...]:
    p = h.ctx.p
    if certificate in ("C1", "C3"):
        return criteria.predicted_values(certificate, p, depth)
    return fermat_predict(fermat_degree(h), p, depth)
