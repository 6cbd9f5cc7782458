"""Frobenius roots of ideals, echelon-compressed generator sets, and
membership in Frobenius powers of the maximal ideal.

Ideals of F_p[x_1..x_N] are stored as finite generator lists kept in
reduced row echelon form over F_p, with monomials (graded-lex order) as
the coordinates.  Echelon reduction preserves the F_p-span of the
generators, hence the generated ideal, and the reduced basis is the
unique canonical one for that span, so results are independent of the
order work arrives in.  Full ideal equality is deliberately not offered;
equality of ``ResIdeal`` values means equality of generator spans.

The operator ``u_single`` is the dual-basis component attached to the
Frobenius basis element (x_1...x_N)^(p-1): it keeps exactly the monomials
that are congruent to (p-1, ..., p-1) mod p and divides their shifted
exponents by p.  ``u_image`` pushes a whole ideal through it.  Because
u(F_*(a^p g)) = a * u(F_* g), the images of x^e * g for the p^N shift
multipliers e in {0..p-1}^N generate the image ideal; each monomial of g
is selected by exactly one multiplier, so the fan-out is computed by
bucketing the support by residue class instead of enumerating all p^N
multipliers; that split reads packed fields, so it is ``ring.u_buckets``.

``u_image`` spans, ``root_generators`` keeps the ideal.  Both read the
same buckets.  ``u_image`` is the ``ResIdeal`` of all of them, their RREF
span, which the exact ladder (``ladder.compute_ladder``, behind
``--trace``) prints; u is F_p-linear, so that span is the same for any
generators of the span of J.  Its fan-out guard is ``echelon_reduce``'s
generator cap, checked on the whole bucket list before any row is
reduced.  ``root_generators`` keeps only the ideal the buckets generate,
in a ``MonomialAntichain``, whose generating set is not a span: the
capped scan's u step and the nu chains (``verdict.nu``) ask only
ideal-level questions of it.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .errors import ContextMismatchError, InputError, ResourceLimitError
# perfbench times the u-bucket split as ideals._u_buckets
from .ring import (
    Context,
    ResPoly,
    exponent_cap,
    exponent_guard,
    truncate_terms,
    u_buckets as _u_buckets,
)


class Echelon:
    """Incremental reduced row echelon accumulator over F_p.

    Rows are term dicts (packed monomial -> coefficient), each normalized
    so its pivot (graded-lex leading monomial) has coefficient 1, and no
    row contains another row's pivot.  ``insert`` reduces a new row
    against the basis and absorbs any remainder; the resulting basis is
    the unique RREF of the span regardless of insertion order.
    """

    __slots__ = ("ctx", "p", "_rows", "_seen")

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.p = ctx.p
        self._rows: dict[int, dict[int, int]] = {}
        self._seen: set[int] = set()

    def __len__(self) -> int:
        return len(self._rows)

    def reduce(self, terms: dict[int, int]) -> dict[int, int]:
        """Remainder of a term dict after reduction against the basis.

        Only pivots that ``terms`` already holds are ever hit: a stored row
        has coefficient 1 at its own pivot and 0 at every other pivot, so
        subtracting it clears that one pivot and leaves the coefficients
        of all others as they were in ``terms``.
        """
        p = self.p
        rows = self._rows
        h = dict(terms)
        for pivot in [m for m in terms if m in rows]:
            c = terms[pivot]
            for m, rc in rows[pivot].items():
                v = (h.get(m, 0) - c * rc) % p
                if v:
                    h[m] = v
                else:
                    h.pop(m, None)
        return h

    def spans(self, terms: dict[int, int]) -> bool:
        return not self.reduce(terms)

    def insert(self, terms: dict[int, int]) -> bool:
        """Absorb a row; returns True when the rank grew."""
        h = self.reduce(terms)
        if not h:
            return False
        p = self.p
        pivot = max(h)
        inv = pow(h[pivot], -1, p)
        if inv != 1:
            h = {m: c * inv % p for m, c in h.items()}
        # keep reduced form: clear the new pivot from every stored row
        for other_pivot, row in self._rows.items():
            c = row.get(pivot)
            if not c:
                continue
            for m, rc in h.items():
                v = (row.get(m, 0) - c * rc) % p
                if v:
                    row[m] = v
                else:
                    row.pop(m, None)
        self._rows[pivot] = h
        self._note_monomials(h)
        return True

    def _note_monomials(self, terms: Iterable[int]) -> None:
        self._seen.update(terms)
        if len(self._seen) > self.ctx.max_workspace_monomials:
            raise ResourceLimitError(
                f"echelon workspace exceeded {self.ctx.max_workspace_monomials} "
                f"distinct monomials; raise max_workspace_monomials (--max-monomials)"
            )

    def basis_terms(self) -> list[dict[int, int]]:
        """Rows in descending pivot order (copies)."""
        rows = self._rows
        return [dict(rows[pivot]) for pivot in sorted(rows, reverse=True)]

    def basis_polys(self) -> list[ResPoly]:
        return [ResPoly._raw(self.ctx, row) for row in self.basis_terms()]


class MonomialAntichain:
    """Minimal generators of a monomial ideal M, kept beside an ``Echelon``.

    No member divides another.  ``reduce`` drops the terms of a row that
    lie in M; membership in a monomial ideal is decided term by term, so
    the ideals (M, r) and (M, reduce(r)) agree for every row r.

    Divisibility is the one packed-monomial test ``ring.exponent_guard``.
    Members keep their insertion order and count against the workspace
    cap of the echelon they sit beside.
    """

    __slots__ = ("_ech", "_guard", "_members")

    def __init__(self, ech: Echelon):
        self._ech = ech
        self._guard = exponent_guard(ech.ctx.n_vars)
        self._members: list[int] = []

    def __iter__(self) -> Iterator[int]:
        return iter(self._members)

    def divides(self, m: int) -> bool:
        """Whether some member divides the packed monomial m."""
        guard = self._guard
        b = m + guard
        for a in self._members:
            if (b - a) & guard == guard:
                return True
        return False

    def add(self, m: int) -> bool:
        """Add the monomial m unless a member divides it, dropping the
        members it divides; True when m was added."""
        if self.divides(m):
            return False
        guard = self._guard
        shift = guard - m
        self._members = [e for e in self._members if (e + shift) & guard != guard]
        self._members.append(m)
        self._ech._note_monomials((m,))
        return True

    def absorb(self, terms: dict[int, int]) -> None:
        """Add a row to the ideal of M and the echelon rows: what ``reduce``
        leaves of it joins M if it is one term, the echelon if it is more."""
        row = self.reduce(terms)
        if len(row) > 1:
            self._ech.insert(row)
        elif row:
            self.add(*row)

    def generators(self) -> list[dict[int, int]]:
        """The members of M, then the echelon rows reduced once more, as M
        may have grown since they went in."""
        rows = map(self.reduce, self._ech.basis_terms())
        return [{m: 1} for m in self._members] + [r for r in rows if r]

    def reduce(self, terms: dict[int, int]) -> dict[int, int]:
        """The terms of ``terms`` that no member divides."""
        members = self._members
        if not members:
            return terms
        guard = self._guard
        out = {}
        for m, c in terms.items():
            b = m + guard
            for a in members:
                if (b - a) & guard == guard:
                    break
            else:
                out[m] = c
        return out


def echelon_reduce(ctx: Context, gens: Sequence[ResPoly]) -> list[ResPoly]:
    """Row-echelon basis of the F_p-span of ``gens``: same span, same ideal."""
    if len(gens) > ctx.max_generators:
        raise ResourceLimitError(
            f"{len(gens)} generators exceed the cap {ctx.max_generators}; "
            f"raise max_generators (--max-generators)"
        )
    ech = Echelon(ctx)
    for g in gens:
        if not isinstance(g, ResPoly):
            raise ContextMismatchError("echelon_reduce expects ResPoly generators")
        ctx.check_same(g.ctx)
        ech.insert(g.terms)
    return ech.basis_polys()


class ResIdeal:
    """Finitely generated ideal given by an echelon-reduced generator list.

    ``gens`` is the canonical RREF basis of the span of whatever
    generators the ideal was built from, in descending leading-monomial
    order.
    """

    __slots__ = ("ctx", "gens")

    def __init__(self, ctx: Context, gens: Sequence[ResPoly]):
        self.ctx = ctx
        self.gens = tuple(echelon_reduce(ctx, list(gens)))

    @classmethod
    def unit(cls, ctx: Context) -> "ResIdeal":
        return cls(ctx, [ResPoly.one(ctx)])

    def is_zero(self) -> bool:
        return not self.gens

    def __eq__(self, other: object) -> bool:
        # equality of canonical generator spans, not full ideal equality
        return (
            isinstance(other, ResIdeal)
            and self.ctx == other.ctx
            and self.gens == other.gens
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        inside = ", ".join(str(g) for g in self.gens) or "0"
        return f"ResIdeal({inside})"


def principal_ideal(g: ResPoly) -> ResIdeal:
    return ResIdeal(g.ctx, [g])


def u_single(g: ResPoly) -> ResPoly:
    """Dual-basis component of F_* g along (x_1...x_N)^(p-1).

    Keeps monomials x^a with a = (p-1,...,p-1) mod p componentwise and
    sends them to x^((a-(p-1,...,p-1))/p); everything else dies.  Over F_p
    the coefficient p-th root is the identity.  These are the monomials
    the multiplier e = 0 selects, bucket 0 of ``_u_buckets``.
    """
    return ResPoly._raw(g.ctx, _u_buckets(g.ctx, g.terms).get(0, {}))


def root_generators(ctx: Context, products: Iterable[dict[int, int]]) -> list[dict[int, int]]:
    """Generators of the p-th-root ideal I_1(J) of the ideal J that
    ``products`` generate, kept as an ideal rather than a span.

    The root I_1(J) is the smallest ideal K with J inside K^[p].  Writing
    a generator as g = sum_r x^r * g_r^p over residues r in {0..p-1}^N,
    I_1((g)) is generated by the g_r, and I_1 of a sum of ideals is the
    sum of the roots (Blickle-Mustata-Smith).  Over F_p, g_r is the
    bucket of ``_u_buckets`` for the residue class r, so the buckets
    generate I_1(J), the u-image of J.  Each is absorbed, in sorted
    order, into one ``MonomialAntichain``, which keeps the ideal they
    generate but not their F_p-span.  Whether the root is zero, and
    whether it lies in the maximal ideal, are facts about the ideal, so
    any generating set answers them alike.
    """
    image = MonomialAntichain(Echelon(ctx))
    for terms in products:
        buckets = _u_buckets(ctx, terms)
        for key in sorted(buckets):
            image.absorb(buckets[key])
    return image.generators()


def u_image(ideal: ResIdeal) -> ResIdeal:
    """Image ideal u(F_* J), echelon-reduced.

    Generated by u(F_*(x^e g)) over generators g and multipliers e in
    {0..p-1}^N; each nonzero image is one bucket of ``_u_buckets``, so
    the multipliers whose image is zero are never formed.  Each distinct
    bucket is passed once, as a repeated row adds nothing to the span, and
    more distinct buckets than ``max_generators`` raise before any is
    reduced.
    """
    ctx = ideal.ctx
    buckets = [_u_buckets(ctx, g.terms) for g in ideal.gens]
    distinct = {frozenset(b[key].items()): b[key] for b in buckets for key in sorted(b)}
    return ResIdeal(ctx, [ResPoly._raw(ctx, row) for row in distinct.values()])


def member_frobenius_power(g: ResPoly, e: int) -> bool:
    """Exact membership of g in (x_1^(p^e), ..., x_N^(p^e)).

    Membership in a monomial ideal is monomial by monomial: true iff every
    monomial of g has some exponent >= p^e.  p >= 2, so for e >= 31 no
    exponent, each below 2^31, reaches p^e, and p^31 serves as the bound
    without forming p^e.
    """
    if e < 1:
        raise InputError(f"Frobenius power exponent must be >= 1, got {e}")
    return not truncate_terms(g.terms, *exponent_cap(g.ctx, g.ctx.p ** min(e, 31)))


def ideal_in_frobenius_power(ideal: ResIdeal, e: int) -> bool:
    """True iff every generator lies in (x_1^(p^e), ..., x_N^(p^e))."""
    return all(member_frobenius_power(g, e) for g in ideal.gens)
