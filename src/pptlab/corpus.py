"""Built-in example corpus with frozen expected values.

Each row is re-run on demand and diffed against what is recorded here;
any disagreement is an internal failure of the tool, not of the row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .delta import validate
from .parser import expand_var_spec, parse_poly
from .pipeline import Analysis, analyze
from .ring import Context
from .verdict import nu_table, series

K3_CROSS = (
    "x1^4 + x2^4 + x3^4 + x4^4 + x1^2*x2^2 + x1^2*x3^2 + x2^2*x3^2"
    " + x1*x2*x3*(x1 + x2 + x3)"
)


@dataclass(frozen=True)
class CorpusRow:
    name: str
    p: int
    vars: str
    f: str
    depth: int
    expect: dict
    annotation: str | None = None
    tags: tuple[str, ...] = ()


CORPUS: tuple[CorpusRow, ...] = (
    CorpusRow(
        name="sum-of-squares-p2",
        p=2,
        vars="x,y",
        f="x^2 + y^2",
        depth=7,
        expect={
            "values": (0, 1, 1, 1, 1, 1, 1, 1),
            "verdict": "perfectoid_pure",
            "basis": "C3",
            "fired": ("C3",),
            "exact": Fraction(0),
        },
        tags=("pure", "quick-criteria"),
    ),
    CorpusRow(
        name="fermat-cubic-p2",
        p=2,
        vars="x,y,z",
        f="x^3 + y^3 + z^3",
        depth=7,
        expect={
            "values": (0, 1, 0, 1, 0, 1, 0, 1),
            "verdict": "perfectoid_pure",
            "basis": "C1",
            "fired": ("C1",),
            "exact": Fraction(1, 3),
            "period": (0, 2),
        },
        tags=("pure", "fermat", "quick-criteria"),
    ),
    CorpusRow(
        name="fermat-quartic-p3",
        p=3,
        vars="x1..x4",
        f="x1^4 + x2^4 + x3^4 + x4^4",
        depth=6,
        expect={
            "values": (0, 2, 0, 2, 0, 2, 0),
            "verdict": "perfectoid_pure",
            "basis": "C1",
            "fired": ("C1",),
            "exact": Fraction(1, 4),
            "period": (0, 2),
        },
        tags=("pure", "fermat", "k3"),
    ),
    CorpusRow(
        name="fermat-quintic-p2",
        p=2,
        vars="x1..x5",
        f="x1^5 + x2^5 + x3^5 + x4^5 + x5^5",
        depth=3,
        expect={
            "values": (0, 1, 2, 2),
            "verdict": "not_perfectoid_pure",
            "flagged_r1": True,
            "fired": ("C2",),
        },
        tags=("not-pure", "fermat", "quick-criteria"),
    ),
    CorpusRow(
        name="fermat-quintic-p2-deformed",
        p=2,
        vars="x1..x5",
        f="x1^5 + x2^5 + x3^5 + x4^5 + x5^5 + p*x1*x2*x3*x4*x5",
        depth=4,
        expect={
            "values": (0, 1, 1, 1, 1),
            "verdict": "perfectoid_pure",
            "basis": "C3",
            "fired": ("C3",),
            "exact": Fraction(0),
        },
        tags=("pure", "quick-criteria"),
    ),
    CorpusRow(
        name="k3-cross-quartic-p2",
        p=2,
        vars="x1..x4",
        f=K3_CROSS,
        depth=3,
        expect={
            "values": (0, 1, 2, 2),
            "verdict": "not_perfectoid_pure",
            "flagged_r1": True,
            "fired": ("C2",),
        },
        tags=("not-pure", "k3", "quick-criteria"),
    ),
    CorpusRow(
        name="k3-cross-quartic-p2-deformed",
        p=2,
        vars="x1..x4",
        f=K3_CROSS + " + p*x1*x2*x3*x4",
        depth=4,
        expect={
            "values": (0, 1, 1, 1, 1),
            "verdict": "perfectoid_pure",
            "basis": "C3",
            "fired": ("C3",),
            "exact": Fraction(0),
        },
        tags=("pure", "k3", "quick-criteria"),
    ),
    CorpusRow(
        name="fermat-quartic-p2",
        p=2,
        vars="x1..x4",
        f="x1^4 + x2^4 + x3^4 + x4^4",
        depth=3,
        expect={
            "values": (0, 1, 2, 2),
            "verdict": "not_perfectoid_pure",
            "flagged_r1": True,
            "fired": ("C2",),
        },
        tags=("not-pure", "fermat", "k3"),
    ),
    CorpusRow(
        name="fermat-quartic-p2-deformed",
        p=2,
        vars="x1..x4",
        f="x1^4 + x2^4 + x3^4 + x4^4 + p*x1*x2*x3*x4",
        depth=4,
        expect={
            "values": (0, 1, 1, 1, 1),
            "verdict": "perfectoid_pure",
            "basis": "C3",
            "fired": ("C3",),
            "exact": Fraction(0),
        },
        tags=("pure", "fermat", "k3"),
    ),
    CorpusRow(
        name="fermat-cubic-p5",
        p=5,
        vars="x1..x3",
        f="x1^3 + x2^3 + x3^3",
        depth=4,
        expect={
            "values": (0, 1, 0, 1, 0),
            "verdict": "perfectoid_pure",
            "basis": "fermat",
            "exact": Fraction(19, 24),
            "period": (0, 2),
        },
        tags=("pure", "fermat"),
    ),
    CorpusRow(
        name="fermat-quartic-p5",
        p=5,
        vars="x1..x4",
        f="x1^4 + x2^4 + x3^4 + x4^4",
        depth=4,
        expect={
            "values": (0, 0, 0, 0, 0),
            "verdict": "perfectoid_pure",
            "basis": "fermat",
            "partial": Fraction(624, 625),
            "exact": Fraction(1),
            "period": (0, 1),
        },
        tags=("pure", "fermat"),
    ),
    CorpusRow(
        name="fermat-cubic-p7",
        p=7,
        vars="x1..x3",
        f="x1^3 + x2^3 + x3^3",
        depth=4,
        expect={
            "values": (0, 0, 0, 0, 0),
            "verdict": "perfectoid_pure",
            "basis": "fermat",
            "exact": Fraction(1),
            "period": (0, 1),
        },
        tags=("pure", "fermat"),
    ),
    CorpusRow(
        name="fermat-quartic-p7",
        p=7,
        vars="x1..x4",
        f="x1^4 + x2^4 + x3^4 + x4^4",
        depth=4,
        expect={
            "values": (0, 2, 0, 2, 0),
            "verdict": "perfectoid_pure",
            "basis": "fermat",
            "exact": Fraction(17, 24),
            "period": (0, 2),
        },
        annotation=(
            "discrepancy: the closed form 2/(p^2-1) quoted for this family "
            "is correct at p=3 only; the threshold series of the sequence "
            "(0,2,0,2,...) evaluates to (p^2-2p-1)/(p^2-1) = 17/24 at p=7, "
            "which is the value reported here"
        ),
        tags=("pure", "fermat", "k3", "discrepancy"),
    ),
    CorpusRow(
        name="regular-parabola-p3",
        p=3,
        vars="x",
        f="3 - x^2",
        depth=4,
        expect={
            "values": (0, 1, 1, 1, 1),
            "verdict": "perfectoid_pure",
            "partial": Fraction(40, 81),
            "nu_identity": True,
            "fpt": Fraction(40, 81),
        },
        tags=("pure", "regular"),
    ),
    CorpusRow(
        name="regular-line-cube-p2",
        p=2,
        vars="x,y",
        f="x + y^3",
        depth=5,
        expect={
            "values": (0, 0, 0, 0, 0, 0),
            "verdict": "perfectoid_pure",
            "partial": Fraction(31, 32),
            "nu_identity": True,
            "fpt": Fraction(31, 32),
        },
        tags=("pure", "regular"),
    ),
    CorpusRow(
        name="regular-line-cube-p3",
        p=3,
        vars="x,y",
        f="x + y^3",
        depth=5,
        expect={
            "values": (0, 0, 0, 0, 0, 0),
            "verdict": "perfectoid_pure",
            "partial": Fraction(242, 243),
            "nu_identity": True,
            "fpt": Fraction(242, 243),
        },
        tags=("pure", "regular"),
    ),
)


@dataclass
class RowOutcome:
    row: CorpusRow
    analysis: Analysis
    mismatches: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.mismatches


def run_row(row: CorpusRow) -> RowOutcome:
    ctx = Context(row.p, expand_var_spec(row.vars))
    h = validate(ctx, parse_poly(row.f, ctx))
    analysis = analyze(h, row.depth)
    outcome = RowOutcome(row=row, analysis=analysis)
    expect = row.expect
    seq = analysis.seq
    v = analysis.verdict

    def bad(what, want, got):
        outcome.mismatches.append(f"{row.name}: {what}: expected {want}, got {got}")

    observed = {  # expect key: (label, value computed)
        "values": ("sequence", seq.values),
        "verdict": ("verdict", v.kind),
        "basis": ("basis", v.basis),
        "flagged_r1": ("flagged_r1", v.flagged_r1),
        "fired": ("criteria", tuple(sorted(analysis.criteria.fired))),
        "partial": ("partial threshold", analysis.partial),
        "exact": ("exact threshold", analysis.exact),
        "period": ("period", (analysis.preperiod, analysis.period)),
    }
    for key, (label, got) in observed.items():
        if key in expect and got != expect[key]:
            bad(label, expect[key], got)
    p = row.p
    if expect.get("nu_identity") or "fpt" in expect:
        table = nu_table(h.f_res, row.depth)
    if expect.get("nu_identity"):
        for n in range(1, row.depth + 1):
            lhs = series(p, seq.values[1 : n + 1])
            rhs = Fraction(table[n], p**n)
            if lhs != rhs:
                bad(f"nu identity at n={n}", rhs, lhs)
    if "fpt" in expect:
        got = Fraction(table[row.depth], p**row.depth)
        if got != expect["fpt"]:
            bad("fpt approximant", expect["fpt"], got)
    return outcome


def run_corpus(filter_text: str | None = None) -> list[RowOutcome]:
    """Run every row whose name or tags contain ``filter_text``."""
    selected = []
    for row in CORPUS:
        if filter_text and filter_text not in row.name and filter_text not in row.tags:
            continue
        selected.append(row)
    return [run_row(row) for row in selected]
