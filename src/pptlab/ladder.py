"""The ideal ladder and the splitting-order sequence engine.

The ladder ideal for an index (l_1, ..., l_n) is built inside-out:
start from the principal ideal (fbar^(p - l_n)) and, for i = n-1 down
to 1, replace K by

    fbar^(p-l_i-1) * u(F_*(delta(f)^(l_i) * K))  +  (fbar^(p-l_i)).

The sequence entry s_n is the largest s in 0..p whose ladder ideal for
(s_1, ..., s_(n-1), s) lies in (x_1^p, ..., x_N^p).  Containment is
downward-closed in s because the base ideal grows with the last slot and
every recursion step preserves inclusions; the scan asserts that.

Two loops run that recursion.  ``compute_ladder`` runs it exactly, on
F_p-spans and with every added generator; that is the ideal ``--trace``
prints.  The scan inside ``next_s`` tests only what the last slot adds,
the linear chain applied to (fbar^(p - s)), since every stage is additive
and the prefix's own ladder ideal is already known to be contained.
``_new_part_contained`` runs that chain as one capped product and one u
step per live box: between two u steps it multiplies once, by
fbar^k * delta^l truncated to the box, which keeps only the monomials
that can still reach a final monomial with every exponent below p, and
each u step keeps the ideal of its rows rather than their F_p-span
(``ideals.MonomialAntichain``); its docstring says why this is exact.
Every cap is one ``ring.exponent_cap`` test, and the capped delta^l and
fbar^k are built from capped factors inside their box (``_Workspace``),
never in full.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

from .delta import Hypersurface
from .errors import (
    InputError,
    InvalidIndexError,
    MonotonicityViolationError,
)
from .ideals import Echelon, MonomialAntichain, ResIdeal, _u_buckets, frobenius_root
# ladder-level names: perfbench times the scan's products as ladder._mul_terms
from .ring import exponent_cap, mul_terms as _mul_terms, truncate_terms as _truncate


@dataclass(frozen=True)
class SplitSequence:
    """Computed sequence s_0, ..., s_depth with s_0 = 0.

    Once an entry equals p, all later entries are p; ``terminated_at_p``
    records the first such index, and is None when no entry is p.
    ``per_depth_ms`` holds the scan time of each computed depth and takes
    no part in comparisons.
    """

    p: int
    depth: int
    values: tuple[int, ...]
    terminated_at_p: int | None
    per_depth_ms: tuple[float, ...] | None = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self):
        if self.depth < 1 or len(self.values) != self.depth + 1:
            raise InputError("sequence length must be depth + 1")
        if self.values[0] != 0:
            raise InputError("s_0 must be 0")
        for i, s in enumerate(self.values):
            if not 0 <= s <= self.p:
                raise InputError(f"s_{i} = {s} outside 0..{self.p}")
        first = self.values.index(self.p) if self.p in self.values else None
        if first is not None and set(self.values[first:]) != {self.p}:
            raise InputError("entries after the first p must all be p")
        if self.terminated_at_p != first:
            raise InputError(f"terminated_at_p must be {first}, the index of the first p")

    def computed_values(self) -> tuple[int, ...]:
        """Values up to and including the first p (drops the p-fill)."""
        if self.terminated_at_p is None:
            return self.values
        return self.values[: self.terminated_at_p + 1]


def _check_index(p: int, entries: Sequence[int]) -> tuple[int, ...]:
    entries = tuple(entries)
    if not entries:
        raise InvalidIndexError("ladder index must have at least one slot")
    for i, l in enumerate(entries):
        last = i == len(entries) - 1
        top = p if last else p - 1
        if not 0 <= l <= top:
            raise InvalidIndexError(
                f"slot {i + 1} value {l} outside 0..{top}"
                + ("" if last else " (only the last slot may reach p)")
            )
    return entries


class _Workspace:
    """Per-run memo of capped delta- and f-power term dicts and of live
    boxes.

    A capped power is built from capped factors, inside the cap it is
    truncated to, and never in full: dropping the monomials at or past a
    box is reduction modulo a monomial ideal, which is a ring map, so
    trunc(a * b) = trunc(trunc(a) * trunc(b)) and by induction
    trunc(g^k) = trunc(trunc(g^(k-1)) * trunc(g)).  Only k <= 1 and the
    uncapped (0, 0) read the full powers from ``Hypersurface``, once per
    run.
    """

    __slots__ = ("h", "_cache")

    def __init__(self, h: Hypersurface):
        self.h = h
        self._cache: dict[tuple, dict[int, int] | tuple[int, ...]] = {}

    def live_box(self, k: int, out: tuple[int, ...]) -> tuple[int, ...]:
        """Per-variable bounds U with x^b * fbar^k inside the monomial ideal
        (x_1^out_1, ..., x_N^out_N) as soon as some b_i >= U_i.

        U_i = max(out_i - m_i) over the monomials m of fbar^k with m < out
        componentwise; all zeros when fbar^k has no such monomial.
        """
        key = ("u", k, out)
        got = self._cache.get(key)
        if got is None:
            ctx = self.h.ctx
            below = [ctx.decode_monomial(m) for m in self.f_terms(k, exponent_cap(ctx, out))]
            got = tuple(
                max((b - e[i] for e in below), default=0) for i, b in enumerate(out)
            )
            self._cache[key] = got
        return got

    def delta_terms(self, l: int, cap: tuple[int, int]) -> dict[int, int]:
        return self._power("d", l, cap)

    def f_terms(self, k: int, cap: tuple[int, int]) -> dict[int, int]:
        return self._power("f", k, cap)

    def _power(self, kind: str, k: int, cap: tuple[int, int]) -> dict[int, int]:
        """delta^k (kind "d") or fbar^k (kind "f"), truncated by ``cap``."""
        key = (kind, k, cap)
        got = self._cache.get(key)
        if got is None:
            if k <= 1 or not cap[1]:
                h = self.h
                full = h.delta_power(k) if kind == "d" else h.f_res_power(k)
                got = _truncate(full.terms, *cap)
            else:
                got = _mul_terms(
                    self._power(kind, k - 1, cap),
                    self._power(kind, 1, cap),
                    self.h.ctx.p,
                    *cap,
                )
            self._cache[key] = got
        return got


def compute_ladder(h: Hypersurface, entries: Sequence[int]) -> ResIdeal:
    """Exact ladder ideal for the given index, echelon-reduced: the span
    of every stage's generators, fbar^(p-l) included, with the u step's
    fan-out bounded by ``max_generators`` (``ideals.frobenius_root``)."""
    entries = _check_index(h.ctx.p, entries)
    ctx = h.ctx
    p = ctx.p
    ws = _Workspace(h)
    no_cap = (0, 0)
    ech = Echelon(ctx)
    ech.insert(ws.f_terms(p - entries[-1], no_cap))
    for l in reversed(entries[:-1]):
        prods = ech.basis_terms()
        if l:
            w = ws.delta_terms(l, no_cap)
            reduced = Echelon(ctx)
            for g in prods:
                reduced.insert(_mul_terms(g, w, p))
            prods = reduced.basis_terms()
        rows = frobenius_root(ctx, prods, ctx.max_generators).basis_terms()
        fmul = ws.f_terms(p - l - 1, no_cap)
        ech = Echelon(ctx)
        for row in rows:
            ech.insert(_mul_terms(row, fmul, p))
        ech.insert(ws.f_terms(p - l, no_cap))
    return ResIdeal._from_echelon(ctx, ech)


# -- the scan -----------------------------------------------------------------


def _new_part_contained(ws: _Workspace, entries: tuple[int, ...]) -> bool:
    """Whether the new part of the ladder ideal for ``entries`` lies in
    (x_1^p, ..., x_N^p).

    Write the index as (l_0, ..., l_(n-2), s) and the linear part of stage
    j as T_j(K) = fbar^(p-l_j-1) * u(F_*(delta^(l_j) * K)), so stage j maps
    K to T_j(K) + (fbar^(p-l_j)).  T_j is additive in K, because the
    u-image of a sum of ideals is the sum of the u-images, so

        L(l_0, ..., l_(n-2), s) = T_0 ... T_(n-2) (fbar^(p-s))
                                  + L(l_0, ..., l_(n-2)).

    The new part is the first summand.  A sum of ideals lies in a monomial
    ideal iff each summand does, so once the prefix's ladder ideal is known
    to be contained, the new part alone decides containment, and this
    chain never forms the generators fbar^(p-l_j).

    Write D(B) for the monomial ideal (x_1^B_1, ..., x_N^B_N), take
    B_0 = (p, ..., p) and B_(j+1) = p * U_j with U_j =
    ``live_box(p-l_j-1, B_j)``, so x^b * fbar^(p-l_j-1) lies in D(B_j) once
    some b_i >= U_j,i.  Then u(F_* D(p * U_j)) lies in D(U_j), as
    u(F_*(x^(p*c) g)) = x^c * u(F_* g); fbar^(p-l_j-1) * D(U_j) lies in
    D(B_j); and delta^(l_j) * D(B_(j+1)) lies in D(B_(j+1)).  So
    T_j(K) + D(B_j) depends only on K + D(B_(j+1)), and every product may
    drop what reaches the box it lands in.  With k_j = p-l_j-1 for j < n-1
    and k_(n-1) = p-s, the chain is one product and one u step per box:

        I_(n-1) = (1),   I_(j-1) = u(F_*(I_j * w_j mod D(B_j)))  (j = n-1..1),
        w_j = fbar^(k_j) * delta^(l_(j-1)) mod D(B_j),

    and the new part modulo D(B_0) is I_0 * fbar^(k_0).  Three facts make
    that equal to multiplying by each power in turn, as the ladder does:

    - fused products: truncation modulo D(B_j) is a ring map, so
      trunc(trunc(g * a) * b) = trunc(g * trunc(a * b));
    - no reduction in between: (K * a) * b = K * (a * b), and reducing the
      rows of K * a on their own could only ever keep that ideal;
    - no cap on the u-image: an exponent a_i < p * U_i has u-image exponent
      ((a_i + e_i) - (p-1)) / p <= U_i - 1, so a cap at U drops nothing.

    Each u step keeps the ideal of its rows, not their F_p-span
    (``MonomialAntichain.absorb``, whose class says why that is sound): the
    bucket rows u(F_*(x^e * g * w_j)) over generators g of I_j generate the
    u-image.  Every monomial below B_0 lies outside the target, and a
    generator lies in a monomial ideal iff each of its monomials does, so
    the new part is contained iff I_0 * fbar^(k_0) is empty mod D(B_0).
    """
    ctx = ws.h.ctx
    p = ctx.p
    *ls, s = entries
    boxes = [(p,) * ctx.n_vars]
    for l in ls:
        boxes.append(tuple(p * b for b in ws.live_box(p - l - 1, boxes[-1])))
    caps = [exponent_cap(ctx, box) for box in boxes]
    gens = [{0: 1}]  # the unit ideal: the monomial 1 packs to 0
    k = p - s
    for j in range(len(ls), 0, -1):
        cap = caps[j]
        w = _mul_terms(ws.f_terms(k, cap), ws.delta_terms(ls[j - 1], cap), p, *cap)
        image = MonomialAntichain(Echelon(ctx))
        for g in gens:
            buckets = _u_buckets(ctx, _mul_terms(g, w, p, *cap))
            for key in sorted(buckets):
                image.absorb(buckets[key])
        gens = image.generators()
        if not gens:
            return True
        k = p - ls[j - 1] - 1
    fmul = ws.f_terms(k, caps[0])
    return not any(_mul_terms(g, fmul, p, *caps[0]) for g in gens)


def _truncated_contained(ws: _Workspace, entries: tuple[int, ...]) -> bool:
    """Whether the ladder ideal for ``entries`` lies in (x_1^p, .., x_N^p).

    Unwinding the split in ``_new_part_contained``, the ladder ideal is the
    sum of the new parts of the prefixes entries[:k], k = 1..n, so it is
    contained iff each of them is.
    """
    return all(_new_part_contained(ws, entries[:k]) for k in range(1, len(entries) + 1))


def _scan_next(ws: _Workspace, prefix: tuple[int, ...]) -> int:
    """Largest s with the ladder ideal for prefix + (s,) contained.

    The prefix's own ladder ideal must be contained; then the new part
    decides containment (``_new_part_contained``).  For small p every
    candidate is evaluated and the containment set is asserted to be an
    interval [0, s]; for larger p a binary search rides the monotonicity
    instead.
    """
    p = ws.h.ctx.p

    def contained(s: int) -> bool:
        return _new_part_contained(ws, prefix + (s,))

    if p <= 5:
        results = {s: contained(s) for s in range(p, -1, -1)}
        hits = [s for s, ok in results.items() if ok]
        if not hits:
            raise MonotonicityViolationError(
                f"no candidate in 0..{p} satisfies containment after prefix "
                f"{prefix}; the containment set must contain 0"
            )
        smax = max(hits)
        if sorted(hits) != list(range(smax + 1)):
            raise MonotonicityViolationError(
                f"containment set {sorted(hits)} after prefix {prefix} is not "
                f"the interval [0, {smax}]"
            )
        return smax
    lo, hi = 0, p
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if contained(mid):
            lo = mid
        else:
            hi = mid - 1
    if lo == 0 and not contained(0):
        raise MonotonicityViolationError(
            f"containment fails at s = 0 after prefix {prefix}"
        )
    return lo


def next_s(h: Hypersurface, prefix: Sequence[int]) -> int:
    """The next sequence entry after a committed prefix s_1..s_(n-1).

    The prefix's ladder ideal must lie in (x_1^p, ..., x_N^p), as every
    committed prefix's does; the scan only tests what the last slot adds.
    """
    p = h.ctx.p
    prefix = tuple(prefix)
    for i, l in enumerate(prefix):
        if not 0 <= l <= p - 1:
            raise InvalidIndexError(f"prefix entry s_{i + 1} = {l} outside 0..{p - 1}")
    ws = _Workspace(h)
    if not _truncated_contained(ws, prefix):
        raise InvalidIndexError(
            f"the ladder ideal of prefix {prefix} is not inside (x_1^p, ..., x_N^p)"
        )
    return _scan_next(ws, prefix)


def splitting_sequence(h: Hypersurface, depth: int) -> SplitSequence:
    """Compute s_0..s_depth by the capped scan, timing each depth; once an
    entry hits p the tail is filled with p.

    The exact ladder ideal of a step n is ``compute_ladder(h,
    values[1:n+1])``; ``cli`` builds ``--trace`` from it.
    """
    if depth < 1:
        raise InputError(f"depth must be >= 1, got {depth}")
    p = h.ctx.p
    ws = _Workspace(h)
    values = [0]
    timings = []
    terminated = None
    prefix: tuple[int, ...] = ()
    for n in range(1, depth + 1):
        t0 = time.perf_counter()
        s = _scan_next(ws, prefix)
        timings.append((time.perf_counter() - t0) * 1000.0)
        values.append(s)
        if s == p:
            terminated = n
            break
        prefix = prefix + (s,)
    while len(values) < depth + 1:
        values.append(p)
    return SplitSequence(
        p=p,
        depth=depth,
        values=tuple(values),
        terminated_at_p=terminated,
        per_depth_ms=tuple(timings),
    )
