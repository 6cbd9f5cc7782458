"""The package's public surface: every entry point README names imports
from ``pptlab`` itself, so dropping or renaming one fails here."""

from pptlab import (
    Context,
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
