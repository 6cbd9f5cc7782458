"""The package's public surface: every entry point README names imports
from ``pptlab`` itself, so dropping or renaming one fails here."""

import dataclasses

from pptlab import (
    Analysis,
    Context,
    QfsResult,
    QuickCriteria,
    SplitSequence,
    Verdict,
    analyze,
    check_quick_criteria,
    compute_ladder,
    delta,
    echelon_reduce,
    fermat_predict,
    fpt_approx,
    member_frobenius_power,
    next_s,
    nu_table,
    parse_poly,
    series,
    splitting_sequence,
    u_image,
    u_single,
    validate,
)


def test_readme_entry_points_import_from_the_package():
    # the quick start's names, then README's "Lower-level entry points"
    entry_points = [
        Context, parse_poly, validate, analyze,
        splitting_sequence, compute_ladder, next_s,
        u_single, u_image, echelon_reduce, member_frobenius_power,
        delta, nu_table, fpt_approx, check_quick_criteria, fermat_predict,
        series,
    ]
    for obj in entry_points:
        assert callable(obj), obj


def test_split_sequence_fields_are_pinned():
    # the result type's fields, in order: a later field is added on purpose
    names = [f.name for f in dataclasses.fields(SplitSequence)]
    assert names == ["p", "depth", "values", "terminated_at_p", "per_depth_ms", "repeat"]


def test_record_source_fields_are_pinned():
    # cli.build_record and perfbench's analysis_output read these fields,
    # and the vars() of the last three are record blocks
    pinned = {
        Analysis: [
            "seq", "verdict", "criteria", "certificate", "qfs",
            "partial", "exact", "preperiod", "period", "conjectural",
        ],
        Verdict: ["kind", "basis", "up_to_depth", "r", "flagged_r1", "reason"],
        QfsResult: ["kind", "height", "depth"],
        QuickCriteria: ["fired", "hypothesis_met", "note"],
    }
    for cls, names in pinned.items():
        assert [f.name for f in dataclasses.fields(cls)] == names, cls
