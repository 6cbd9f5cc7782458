"""Splitting-order sequences and perfectoid pure thresholds for
hypersurfaces over the unramified base, exactly and at desk scale.

Given a prime p and a hypersurface element f presented mod p^2, the
package computes the splitting-order sequence s(f) by the ideal-ladder
criterion, classifies perfectoid purity where the sequence decides it,
and evaluates the perfectoid pure threshold as an exact rational, with
independent cross-checks through F-pure-threshold nu-functions.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .delta import Hypersurface, delta, validate
from .errors import (
    ContextMismatchError,
    CorpusMismatchError,
    CrossCheckFailureError,
    ExponentOverflowError,
    FDivisibleByPError,
    FIsUnitError,
    InputError,
    InternalCheckError,
    InvalidIndexError,
    MonotonicityViolationError,
    NotDivisibleError,
    ParseError,
    PNotGreaterThanNError,
    PptlabError,
    ResourceLimitError,
    SequenceHitPError,
    UnknownVariableError,
    UsageError,
)
from .ideals import (
    Echelon,
    ResIdeal,
    echelon_reduce,
    ideal_in_frobenius_power,
    member_frobenius_power,
    principal_ideal,
    u_image,
    u_single,
)
from .ladder import SplitSequence, compute_ladder, next_s, splitting_sequence
from .parser import expand_var_spec, parse_poly
from .pipeline import Analysis, analyze
from .ring import (
    Context,
    LiftPoly,
    Poly,
    ResPoly,
    exact_div_p,
    frobenius_substitute,
    lift_of,
    project_mod_p,
    render,
)
from .verdict import (
    QfsResult,
    QuickCriteria,
    Verdict,
    check_quick_criteria,
    classify,
    detect_period,
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
)
