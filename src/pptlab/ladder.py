"""The ideal ladder and the splitting-order sequence engine.

The ladder.  The ladder ideal for an index (l_1, ..., l_n) is built
inside-out: start from the principal ideal (fbar^(p - l_n)) and, for
i = n-1 down to 1, replace K by

    fbar^(p-l_i-1) * u(F_*(delta(f)^(l_i) * K))  +  (fbar^(p-l_i)).

The sequence entry s_n is the largest s in 0..p whose ladder ideal for
(s_1, ..., s_(n-1), s) lies in m^[p] = (x_1^p, ..., x_N^p), where
m = (x_1, ..., x_N).  Containment is downward-closed in s because the
base ideal grows with the last slot and every recursion step preserves
inclusions.  ``compute_ladder`` runs the recursion exactly.

The dual element.  Write the linear part of stage j as
T_j(K) = fbar^(p-l_j-1) * u(F_*(delta^(l_j) * K)), which is additive in K
(``_new_part_contained``), and for a committed prefix (l_0, ..., l_(k-1))

    P_k = {g : T_0 ... T_(k-1)(g) lies in m^[p]},

an ideal; s_(k+1) is the largest s with fbar^(p-s) in P_k.  The
adjunction u(F_* I) in J <=> I in J^[p] (Fedder; Blickle-Mustata-Smith)
gives

    P_(k+1) = ((P_k : fbar^(p-l_k-1))^[p] : delta^(l_k)).

Every P_k contains a power of m, as m^[p] does and colons and Frobenius
powers keep that.  In the inverse system E = F_p[y_1..y_N], where y^b
pairs with x^b and x^t ⌟ y^b = y^(b-t) when t <= b (0 otherwise), Matlis
duality then gives Ann_E(J : g) = g ⌟ Ann_E(J) and
Ann_E(J^[p]) = R * F(Ann_E(J)) for the Frobenius F(y^b) = y^(p*b + p-1)
of E (Katzman-Schwede), and R * F(R * theta) = R * F(theta).
Ann_E(P_0) is generated by theta_0 = y^(p-1, ..., p-1), so
Ann_E(P_k) = R * theta_k stays cyclic,

    theta_(k+1) = delta ⌟ ... ⌟ delta ⌟ F(fbar^(p-l_k-1) ⌟ theta_k)

with l_k contractions by delta, and g lies in P_k iff g ⌟ theta_k = 0.
As delta ⌟ (delta ⌟ theta) = delta^2 ⌟ theta, a step may take the first
two in one contraction by delta^2 (``_advance`` says when).

The chain.  s_(k+1) is the largest s with fbar^(p-s) ⌟ theta_k = 0.  E is
an R-module, so psi_j = fbar^j ⌟ theta_k is one chain,
psi_(j+1) = fbar ⌟ psi_j, and psi_j = 0 makes every later psi 0:
s_(k+1) = p - j for the first j with psi_j = 0 (``_theta_next``).  The
chain decides every candidate, so its contained set is the interval
[0, s] by construction.  It starts past ``_leading_bound``, and its last
nonzero psi is the first contraction of the step to theta_(k+1).

Drop-back.  theta grows about p-fold per depth on some inputs, so a step
gives up, and the run holds no theta for the rest of the run, when

- the kept theta would have more than p^N terms, the size of the capped
  scan's base box (p, ..., p);
- an intermediate of the step, or of the chain that reads the entry,
  would have more than ``max_workspace_monomials`` terms;
- F would push an exponent to 2^31 or beyond, past what a packed
  monomial holds (``ring.dual_frobenius`` returns None).

These contractions stop as soon as they have reached more monomials than
the bounds let them keep (``ring.contract_terms``'s limit), and a step
forms delta^2 only when its products fit under ``max_workspace_monomials``,
so a drop-back costs no more than the bound.  Terms reached so far may still
cancel, so this can send a step to the scan where the whole contraction
would have fitted; both paths are exact, so only the path can change,
never an entry.  After a drop-back each read runs the capped scan over
the whole prefix (``_scan_next``).

A repeat.  s_(k+1) and P_(k+1) depend only on P_k, and P_k is the
annihilator of R * theta_k.  So theta_k = c * theta_j with j < k and
c != 0 gives R * theta_k = R * theta_j, hence P_k = P_j, and every later
entry repeats the block s_(j+1)..s_k (the finiteness argument of
Blickle-Mustata-Smith).  theta = 0 makes the next entry p, so every
block entry is below p.

An F-pure fibre.  s_1 = 0 proves every later entry 0.  With l = 0, delta
takes no part: P_(k+1) = (P_k : fbar^(p-1))^[p].  Frobenius is flat on
F_p[x] (Kunz), so (I : g)^[p] = (I^[p] : g^p), and while s_1, ..., s_k
are 0, induction from P_0 = m^[p] gives P_k = (m^[q] : fbar^(q-p)) with
q = p^(k+1).  So s_(k+1) is the largest s with fbar^(q-s) in m^[q]; s = 0
always qualifies, as fbar lies in m (``validate``), and s_(k+1) = 0 iff
fbar^(q-1) is not in m^[q].  For q = p that is s_1 = 0, and it carries
from q to p*q (Fedder): if fbar^(q-1) is not in m^[q], the colon
(m^[q] : fbar^(q-1)) is a proper ideal that contains m^[q], so it lies
in m, the only maximal ideal over m^[q], and fbar^(pq-1) =
fbar^(p-1) * (fbar^(q-1))^p in m^[pq] = (m^[q])^[p] would put
fbar^(p-1) in (m^[q] : fbar^(q-1))^[p], inside m^[p], against s_1 = 0.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

from .delta import Hypersurface
from .errors import InputError, InvalidIndexError, MonotonicityViolationError
from .ideals import ResIdeal, principal_ideal, root_generators, u_image
# ladder-level names: perfbench times the scan's products as ladder._mul_terms;
# the full powers of _Workspace.power call mul_terms under its ring name.
# The scan splits buckets in ideals.root_generators; _u_buckets stays bound
# here only because perfbench also wraps ladder._u_buckets by name.
from .ring import (
    check_exponent_range,
    contract_terms as _contract,
    dual_frobenius,
    exponent_box,
    exponent_cap,
    exponent_floor,
    exponent_quotient,
    frobenius_terms,
    mul_terms,
    mul_terms as _mul_terms,
    truncate_terms as _truncate,
    u_buckets as _u_buckets,
)


@dataclass(frozen=True)
class SplitSequence:
    """Computed sequence s_0, ..., s_depth with s_0 = 0.

    Once an entry equals p, all later entries are p; ``terminated_at_p``
    records the first such index, and is None when no entry is p.
    ``repeat`` is (j, k) when the carried theta_k is a multiple of theta_j,
    or (0, 1) when s_1 = 0: s_(k+1), s_(k+2), ... repeat the block
    s_(j+1)..s_k (module docstring), and were read off it, not scanned.
    That proves the whole sequence, so ``pipeline.analyze`` certifies its
    pattern (basis ``"repeat"``, or ``"fpure"`` when s_1 = 0).
    ``per_depth_ms`` holds the time of each depth, read-off depths
    included; depth n commits s_(n-1), so its time includes the theta
    step past s_(n-1).  Neither takes part in comparisons.
    """

    p: int
    depth: int
    values: tuple[int, ...]
    terminated_at_p: int | None
    per_depth_ms: tuple[float, ...] | None = field(
        default=None, compare=False, repr=False
    )
    repeat: tuple[int, int] | None = field(default=None, compare=False, repr=False)

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
        if self.repeat is not None:
            j, k = self.repeat
            if not 0 <= j < k <= self.depth or any(
                self.values[m] != self.values[m - (k - j)] for m in range(k + 1, self.depth + 1)
            ):
                raise InputError(
                    f"repeat {self.repeat}: entries after s_{k} must follow the block s_{j + 1}..s_{k}"
                )

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
    """One run of the sequence walk: ``read`` then ``commit``, once per
    entry.  It holds the committed prefix, which only ``commit`` extends;
    ``front``, the term dict of theta_k for that prefix (module
    docstring), {} when theta is 0 and None once the run has let theta go;
    and the run's powers of fbar and delta (``power``), with the degree
    bounds they are clamped by, each computed when a power or a scan stage
    first needs it (``degrees``).  A box is per-variable exponent bounds.

    Only the capped scan reads ``boxes``, its live boxes B_0 = (p, ..., p),
    B_1, ..., ``memo`` (``_new_part_contained``) and ``stages``
    (``_stage``).  A new workspace holds B_0 and two empty dicts; the scan
    builds the rest, its unit ideal included, once a run drops back.  A
    run that keeps theta builds theta_0, the powers of fbar its chains
    take and, once it commits an entry above 0, delta's degree bound and
    the capped delta its steps contract by.
    """

    __slots__ = ("h", "_cache", "_degrees", "prefix", "front", "_found", "boxes", "memo", "stages")

    def __init__(self, h: Hypersurface):
        self.h = h
        self._cache: dict[tuple, dict[int, int]] = {}
        self._degrees: dict[str, tuple[int, ...]] = {}
        self.prefix: tuple[int, ...] = ()
        self.front: dict[int, int] | None = _theta_0(h.ctx)
        self._found: tuple[int, dict[int, int] | None] | None = None
        self.boxes = [(h.ctx.p,) * h.ctx.n_vars]
        self.memo: dict[tuple, bool] = {}
        self.stages: dict[tuple, _Gens] = {}

    def read(self) -> int:
        """The entry after the committed prefix: off theta's chain
        (``_theta_next``) while the run holds theta, else off the capped
        scan (``_scan_next``).  A chain that drops back lets theta go for
        the rest of the run."""
        found = self.front is not None and _theta_next(self, self.front)
        if not found:
            self.front = None
            found = _scan_next(self), None
        self._found = found
        return found[0]

    def commit(self, l: int) -> None:
        """Append the next entry l < p to the committed prefix and step
        theta past it (``_advance``), letting theta go on a drop-back.  The
        step gets the chain's last contraction only when l is the entry
        ``read`` just returned."""
        s, formed = self._found or (None, None)
        self._found = None
        self.prefix += (l,)
        if self.front is not None:
            self.front = _advance(self, self.front, l, formed if l == s else None)

    def live_box(self, k: int, out: tuple[int, ...]) -> tuple[int, ...]:
        """Per-variable bounds U with x^b * fbar^k inside the monomial ideal
        (x_1^out_1, ..., x_N^out_N) as soon as some b_i >= U_i.

        U_i = max(out_i - m_i) = out_i - min(m_i) over the monomials m of
        fbar^k with m < out componentwise, one ``ring.exponent_floor`` of
        the capped power, which the workspace memoizes; all zeros when
        fbar^k has no such monomial.
        """
        below = self.power("f", k, out)
        if not below:
            return (0,) * len(out)
        return tuple(o - m for o, m in zip(out, exponent_floor(below, len(out))))

    def degrees(self, kind: str) -> tuple[int, ...]:
        """Per-variable degrees, computed once per run: deg_(x_i) fbar for
        kind "f"; for kind "d" the bound p * deg_(x_i) f_lift on delta's, as
        delta = (f^p - phi(f))/p; for kind "delta" delta's actual degrees
        (-1 where delta is 0), which only the 2^31 test reads."""
        got = self._degrees.get(kind)
        if got is None:
            h = self.h
            g = {"f": h.f_res, "d": h.f_lift, "delta": h.delta_f}[kind]
            scale = h.ctx.p if kind == "d" else 1
            got = tuple([scale * (b - 1) for b in exponent_box(g.terms, h.ctx.n_vars)])
            self._degrees[kind] = got
        return got

    def _reach(self, kind: str, k: int) -> tuple[int, ...]:
        """The box past which delta^k (kind "d") or fbar^k (kind "f") has
        no monomial: R_i = k * d_i + 1."""
        return tuple([k * d + 1 for d in self.degrees(kind)])

    def power(self, kind: str, k: int, box: tuple[int, ...]) -> dict[int, int]:
        """g^k for g = delta (kind "d") or fbar (kind "f") without the
        monomials at or past ``box``, as a term dict memoized per run under
        (kind, k, box).  Every power the sequence engine uses comes from
        here: the capped scan's inside its live boxes, theta's inside
        theta's box.

        On a miss the box is clamped to the reach R_i = k * d_i + 1, where
        d_i bounds g's degree in x_i: deg_(x_i) fbar for fbar, and
        p * deg_(x_i) f_lift for delta, as delta = (f^p - phi(f))/p.  g^k
        has no monomial at or past R, so trunc_B(g^k) = trunc_min(B, R)(g^k),
        and every box that is >= R in each variable shares the power at the
        reach, which is the full power: {0: 1} for k = 0, and for k = 1 the
        terms of ``f_res`` or ``delta_f``, read in place.  A box below the
        reach in some variable builds its power inside the box, never in
        full; for k <= 1 that truncates g^k.

        Dropping the monomials at or past a box B is reduction modulo a
        monomial ideal, which is a ring map, so any split of k is exact:
        trunc(g^k) = trunc(trunc(g^a) * trunc(g^(k-a))).  So g^k, k >= 2, is
        g^(k//2) * g^(k - k//2), a product capped to the box below the reach
        and a plain ring product at it.  At an even k both halves are the
        one memoized dict, so ``ring.mul_terms`` squares it, forming each
        unordered pair of terms once.  At k = p there is no product: over
        F_p, g^p is the Frobenius image phi(g) of x_i -> x_i^p
        (``ring.frobenius_terms``), and p * m_i < B_i iff
        m_i < ceil(B_i / p), so trunc_B(phi(g)) = phi(trunc_ceil(B/p)(g)),
        whose exponents stay below B; at the reach, ceil(R / p) is g's own
        reach.

        Before g^k, k >= 2, is formed at its reach, its degree in each
        variable goes to ``ring.check_exponent_range``, the 2^31 test that
        ``Poly.__mul__`` also calls.  deg_(x_i)(g^k) is exactly
        k * deg_(x_i)(g): the top x_i-degree part of g^k is the k-th power
        of g's, which is nonzero because F_p[x] is a domain.  So the degrees
        come from g's actual terms, not from the bounds d (``degrees``).
        """
        key = (kind, k, box)
        got = self._cache.get(key)
        if got is None:
            reach = self._reach(kind, k)
            clamped = tuple(map(min, box, reach))
            full = clamped == reach
            ctx = self.h.ctx
            if clamped != box:
                got = self.power(kind, k, clamped)
            elif k <= 1:
                g = self.h.delta_f if kind == "d" else self.h.f_res
                got = g.terms if k else {0: 1}  # the monomial 1 packs to 0
                if not full:
                    got = _truncate(got, *exponent_cap(ctx, box))
            else:
                p = ctx.p
                if full:
                    tops = self.degrees("f" if kind == "f" else "delta")
                    check_exponent_range(ctx, [k * d for d in tops])
                if k == p:
                    # m_i < ceil(B_i / p) iff p * m_i < B_i
                    inner = tuple([-(-b // p) for b in box])
                    got = frobenius_terms(self.power(kind, 1, inner), p)
                else:
                    halves = self.power(kind, k // 2, box), self.power(kind, k - k // 2, box)
                    got = mul_terms(*halves, p) if full else _mul_terms(*halves, p, *exponent_cap(ctx, box))
            self._cache[key] = got
        return got


def compute_ladder(h: Hypersurface, entries: Sequence[int]) -> ResIdeal:
    """Exact ladder ideal for the given index: the recursion of the module
    docstring over ``ResIdeal`` spans, from (fbar^(p - l_n)) inward, each
    stage adding fbar^(p-l) to fbar^(p-l-1) times the ``u_image`` of the
    delta^l-multiples.  Every span is echelon-reduced under
    ``max_generators``, the u step's buckets included.  Each distinct
    power is formed once per call, when a stage first needs it."""
    entries = _check_index(h.ctx.p, entries)
    ctx = h.ctx
    p = ctx.p
    delta_power, f_res_power = functools.cache(h.delta_power), functools.cache(h.f_res_power)
    ideal = principal_ideal(f_res_power(p - entries[-1]))
    for l in reversed(entries[:-1]):
        if l:  # delta^0 = 1 leaves the span as it is
            d = delta_power(l)
            ideal = ResIdeal(ctx, [g * d for g in ideal.gens])
        root = u_image(ideal)
        fmul = f_res_power(p - l - 1)
        ideal = ResIdeal(ctx, [r * fmul for r in root.gens] + [f_res_power(p - l)])
    return ideal


# -- the sequence -------------------------------------------------------------


def _theta_0(ctx) -> dict[int, int]:
    """theta_0 = y^(p-1, ..., p-1), the dual element of the empty prefix,
    as packed y-monomials."""
    return {ctx.encode_monomial((ctx.p - 1,) * ctx.n_vars): 1}


def _theta_key(theta: dict[int, int], p: int) -> frozenset:
    """theta's terms scaled so that its largest monomial has coefficient 1:
    two nonzero elements share a key iff one is a scalar multiple of the
    other."""
    inverse = pow(theta[max(theta)], -1, p)
    return frozenset((m, c * inverse % p) for m, c in theta.items())


def _leading_bound(ctx, fbar: dict[int, int], theta: dict[int, int]) -> int:
    """The largest J <= p for which J * min(fbar) divides max(theta): then
    fbar^J ⌟ theta != 0 for every J' <= J, and none of them is formed.

    The packed order is graded-lex, a monomial order, so min(fbar^J) is
    J * t* for t* = min(fbar), with coefficient c*^J != 0, and b - t <=
    b* - t* for every t in fbar^J and b in theta, with equality only at
    t = J * t* and b* = max(theta).  When J * t* divides b*, y^(b* - J*t*)
    is a term of the contraction that no other pair reaches.  t* has a
    nonzero exponent, as fbar has no constant term.
    """
    if not fbar or not theta:
        return 0
    return exponent_quotient(min(fbar), max(theta), ctx.n_vars, ctx.p)


def _theta_next(
    ws: _Workspace, theta: dict[int, int]
) -> tuple[int, dict[int, int] | None] | None:
    """(s, last) for the entry s after ws.prefix, whose theta_k ``theta``
    is, read off the chain psi_j = fbar^j ⌟ theta_k (module docstring);
    ``last`` is its last nonzero psi, fbar^(p-s-1) ⌟ theta_k, when the chain
    formed one (for ``_advance``).  None on a drop-back.

    The first psi past ``_leading_bound`` comes from a capped power, the
    rest by contracting with fbar, all inside theta's box.  theta = 0
    gives s = p; psi_p != 0 would leave not even s = 0 contained, which
    only a fault can do.
    """
    ctx = ws.h.ctx
    p, n = ctx.p, ctx.n_vars
    if not theta:
        return p, None
    limit = ctx.max_workspace_monomials
    box = exponent_box(theta, n)
    fbar = ws.power("f", 1, box)
    j = _leading_bound(ctx, fbar, theta)
    last, psi = None, theta
    if j < p:
        j += 1
        psi = _contract(ws.power("f", j, box), theta, n, p, limit)
        while psi and j < p:
            j += 1
            last, psi = psi, _contract(fbar, psi, n, p, limit)
    if psi is None:
        return None
    if psi:
        raise MonotonicityViolationError(f"containment fails at s = 0 after prefix {ws.prefix}")
    return p - j, last


def _advance(
    ws: _Workspace, theta: dict[int, int], l: int, formed: dict[int, int] | None = None
) -> dict[int, int] | None:
    """theta_(k+1) = delta ⌟ ... ⌟ delta ⌟ F(fbar^(p-l-1) ⌟ theta_k) for
    the next entry l < p, or None when the step meets a drop-back trigger
    (module docstring).

    fbar^(p-l-1) is taken inside theta_k's box (``ring.exponent_box``), as
    x^t ⌟ theta_k = 0 once some t_i reaches it; F multiplies the box by p,
    and the delta contractions only shrink it, so one capped delta serves
    all of them.

    Every contraction takes the cap (``ring.contract_terms``'s limit):
    ``max_workspace_monomials``, or p^N for the first when no delta
    contraction follows.  ``formed``, when given, is that first
    contraction, as the chain that read l formed it (``_theta_next``); it
    is reused under the same size test.  A whole contraction may pass that
    test where the limited one gives up on terms that later cancel; both
    paths are exact, so this can change only the path, never an entry.

    When F(...) is one term and l >= 2, the first two delta contractions
    are one contraction by delta^2, taken inside the same box
    (``_Workspace.power``), as delta ⌟ (delta ⌟ theta) = delta^2 ⌟ theta;
    the other l - 2 stay single.  With n = |delta| inside the box, squaring
    forms n(n+1)/2 products and contracting a monomial by delta^2 at most
    as many, against n + n^2 for the two single contractions.  The
    square's products are not limited as a contraction is, so the path is
    taken only when n(n+1)/2 <= ``max_workspace_monomials``; otherwise
    the two single contractions run under their limit.
    """
    ctx = ws.h.ctx
    p, n = ctx.p, ctx.n_vars
    limit, keep = ctx.max_workspace_monomials, p**n
    # F keeps the term count: with no delta contraction this is the kept size
    first = limit if l else min(limit, keep)
    theta = formed or _contract(ws.power("f", p - l - 1, exponent_box(theta, n)), theta, n, p, first)
    if theta is None or len(theta) > first:
        return None
    theta = dual_frobenius(ctx, theta)
    if theta and l:
        box = exponent_box(theta, n)
        delta = ws.power("d", 1, box)
        if l > 1 and len(theta) == 1 and len(delta) * (len(delta) + 1) // 2 <= limit:
            theta = _contract(ws.power("d", 2, box), theta, n, p, limit)
            l -= 2
        while theta and l:  # None: a drop-back; {}: delta ⌟ 0 = 0
            theta = _contract(delta, theta, n, p, limit)
            l -= 1
    return None if theta is None or len(theta) > keep else theta


class _Gens(NamedTuple):
    """Generators of an ideal I_j of the capped chain, with ``key``, each
    generator as its sorted terms, and ``box``, 1 + their largest exponent
    in each variable."""

    gens: tuple[dict[int, int], ...]
    key: tuple
    box: tuple[int, ...]


def _gens(ctx, gens: list[dict[int, int]]) -> _Gens:
    return _Gens(
        tuple(gens),
        tuple(tuple(sorted(g.items())) for g in gens),
        exponent_box([m for g in gens for m in g], ctx.n_vars),
    )


def _stage(ws: _Workspace, ideal: _Gens, k: int, l: int, box: tuple[int, ...]) -> _Gens:
    """One stage of the capped chain (``_new_part_contained``): the
    generators of u(F_*(I * fbar^k * delta^l mod D(box))), where ``ideal``
    generates I.

    Every monomial of g * fbar^k * delta^l, for a generator g, lies below
    R = ideal.box + k * d_f + l * d_delta, with the degree bounds d of
    ``_Workspace.degrees``.  Dropping the monomials at or past ``box``
    drops the same ones as dropping those at or past c = min(box, R), and
    the powers taken inside c are the ones taken inside ``box``, as each
    power's own reach lies inside R.  So the products, hence the u step's
    rows and its generators, depend on ``box`` only through c.  The result
    is memoized on the workspace under (ideal.key, k, l, c): the top stages
    of a chain, whose live boxes are past R, are the same at every depth.
    """
    ctx = ws.h.ctx
    p = ctx.p
    degrees = zip(box, ideal.box, ws.degrees("f"), ws.degrees("d"))
    clamped = tuple(min(b, g + k * f + l * d) for b, g, f, d in degrees)
    key = (ideal.key, k, l, clamped)
    got = ws.stages.get(key)
    if got is None:
        cap = exponent_cap(ctx, clamped)
        w = ws.power("f", k, clamped)
        if l:  # delta^0 = 1
            w = _mul_terms(w, ws.power("d", l, clamped), p, *cap)
        got = _gens(ctx, root_generators(ctx, (_mul_terms(g, w, p, *cap) for g in ideal.gens)))
        ws.stages[key] = got
    return got


def _new_part_contained(ws: _Workspace, s: int) -> bool:
    """Whether the new part of the ladder ideal for the index ws.prefix +
    (s,) lies in (x_1^p, ..., x_N^p): the capped chain over the whole
    index, which the run uses once it holds no theta.

    Write the prefix as (l_0, ..., l_(m-2)); stage j maps K to
    T_j(K) + (fbar^(p-l_j)), with T_j of the module docstring.  T_j is
    additive in K, as the u-image of a sum of ideals is the sum of the
    u-images, so

        L(l_0, ..., l_(m-2), s) = T_0 ... T_(m-2) (fbar^(p-s))
                                  + L(l_0, ..., l_(m-2)).

    The new part is the first summand.  A sum of ideals lies in a monomial
    ideal iff each summand does, so once the prefix's ladder ideal is known
    to be contained, the new part alone decides containment, and this
    chain never forms the generators fbar^(p-l_j).

    Write D(B) for the monomial ideal (x_1^B_1, ..., x_N^B_N), take
    B_0 = (p, ..., p) and B_(j+1) = p * U_j with
    U_j = ``live_box(p-l_j-1, B_j)``, so x^b * fbar^(p-l_j-1) lies in D(B_j)
    once some b_i >= U_j,i.  Then u(F_* D(p * U_j)) lies in D(U_j), as
    u(F_*(x^(p*c) g)) = x^c * u(F_* g);
    fbar^(p-l_j-1) * D(U_j) lies in D(B_j); and delta^(l_j) * D(B_(j+1))
    lies in D(B_(j+1)).  So T_j(K) + D(B_j) depends only on
    K + D(B_(j+1)), and every product may drop what reaches the box it
    lands in.  With k_j = p-l_j-1 for j < m-1 and k_(m-1) = p-s, the chain
    is one product and one u step per box:

        I_(m-1) = (1),   I_(j-1) = u(F_*(I_j * w_j mod D(B_j)))  (j = m-1..1),
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
    (``ideals.root_generators``; ``MonomialAntichain`` says why that is
    sound): the bucket rows u(F_*(x^e * g * w_j)) over generators g of I_j
    generate the u-image.  So the new part is contained iff
    g * fbar^(k_0) mod D(B_0) is 0 for every generator g of I_0.

    The outcome is memoized on the workspace.  At the top of level j the
    rest of the chain reads the entries prefix[:j], which fix the boxes
    B_0..B_j and the powers delta^(l_0)..delta^(l_(j-1)) and
    fbar^(k_0)..fbar^(k_(j-1)); k_j; and the generators of I_j, nothing
    else.  prefix[:j] never changes within a run, as ``commit`` only
    appends, so "contained from here on" is a function of (j, k_j,
    generators), keyed exactly (each generator as its sorted terms),
    stored for every level below the top that a chain passes once its
    outcome is known, and read back by any later chain that reaches an
    equal key.  The top level is not stored: its key is (m-1, p-s, the
    unit ideal), and a run asks each candidate once per depth.  A hit
    skips only work that an equal key already ran to its end without
    tripping a cap.  Each stage j >= 1 is also memoized on its own, under
    its box clamped to the reach of its products (``_stage``), so the top
    stages, which no outcome key of an earlier depth matches, are formed
    once per run.
    """
    ctx = ws.h.ctx
    p = ctx.p
    prefix, boxes = ws.prefix, ws.boxes
    while len(boxes) <= len(prefix):
        l = prefix[len(boxes) - 1]
        boxes.append(tuple(p * b for b in ws.live_box(p - l - 1, boxes[-1])))
    memo = ws.memo
    visited = []
    ideal = _Gens(({0: 1},), (((0, 1),),), (1,) * ctx.n_vars)  # the unit ideal: 1 packs to 0
    k = p - s
    for j in range(len(prefix), -1, -1):
        key = (j, k, ideal.key)
        got = memo.get(key)
        if got is not None:
            break
        visited.append(key)
        if not j:
            fmul = ws.power("f", k, boxes[0])
            cap = exponent_cap(ctx, boxes[0])
            got = not any(_mul_terms(g, fmul, p, *cap) for g in ideal.gens)
            break
        ideal = _stage(ws, ideal, k, prefix[j - 1], boxes[j])
        if not ideal.gens:
            got = True
            break
        k = p - prefix[j - 1] - 1
    for key in visited[1:]:
        memo[key] = got
    return got


def _scan_next(ws: _Workspace) -> int:
    """Largest s with the ladder ideal for ws.prefix + (s,) contained,
    once the run holds no theta.

    The prefix's own ladder ideal must be contained; each candidate is
    one capped chain over prefix + (s,) (``_new_part_contained``).

    The walk rides the monotonicity upward: s = 0 must be contained, then
    s = 1, 2, ... are probed up to the first that is not, so an entry s
    takes s + 2 probes (p + 1 for s = p).

    For p <= 5 the candidates s + 2..p are evaluated after the walk, and
    any of them contained means the contained set is not the interval
    [0, s]: a check of the monotonicity the walk relies on.  The theta
    chain (``_theta_next``) decides every candidate, so it needs no such
    check.
    """
    p = ws.h.ctx.p
    if not _new_part_contained(ws, 0):
        raise MonotonicityViolationError(
            f"containment fails at s = 0 after prefix {ws.prefix}"
        )
    s = 0
    while s < p and _new_part_contained(ws, s + 1):
        s += 1
    if p <= 5:
        above = [t for t in range(s + 2, p + 1) if _new_part_contained(ws, t)]
        if above:
            raise MonotonicityViolationError(
                f"containment set {list(range(s + 1)) + above} after prefix {ws.prefix}"
                f" is not the interval [0, {s}]"
            )
    return s


def next_s(h: Hypersurface, prefix: Sequence[int]) -> int:
    """The next sequence entry after a committed prefix s_1..s_(n-1).

    The prefix's ladder ideal must lie in (x_1^p, ..., x_N^p), as every
    committed prefix's does.  The walk is the one ``splitting_sequence``
    makes: each given entry must be at most the entry the workspace reads
    there (``_Workspace.read``) before it is committed, and the answer is
    one last read.  It takes no read-off, neither a theta repeat nor an
    F-pure fibre: a given entry may be below the one read, and every read
    runs theta's chain or the capped scan, which makes ``next_s`` the
    reference that ``splitting_sequence``'s read-offs are checked against.

    An entry below the one read ends the ladder.  If the entry l at
    position k is below the entry s read there, s is the largest with
    fbar^(p-s) in P_k, so fbar^(p-l-1) = fbar^(s-l-1) * fbar^(p-s) lies in
    the ideal P_k; then (P_k : fbar^(p-l-1)) is the unit ideal, so is
    P_(k+1) = ((P_k : fbar^(p-l-1))^[p] : delta^(l)), and every later
    entry is p.
    """
    prefix = _check_index(h.ctx.p, (*prefix, 0))[:-1]
    ws = _Workspace(h)
    for k, l in enumerate(prefix):
        if l > ws.read():
            raise InvalidIndexError(
                f"the ladder ideal of prefix {prefix[: k + 1]} is not inside (x_1^p, ..., x_N^p)"
            )
        ws.commit(l)
    return ws.read()


def splitting_sequence(h: Hypersurface, depth: int) -> SplitSequence:
    """Compute s_0..s_depth on one workspace, timing each depth: depth n
    commits s_(n-1), which steps theta past it, and reads s_n, so no theta
    step is taken past the last entry.  Once an entry hits p the tail is
    filled with p.  Once a committed theta_k is a scalar multiple of an
    earlier theta_j (``_theta_key``), or s_1 = 0, the run lets theta go and
    reads the later entries off the block s_(j+1)..s_k, or (0,), which
    the module docstring proves they repeat.

    The exact ladder ideal of a step n is ``compute_ladder(h,
    values[1:n+1])``; ``cli`` builds ``--trace`` from it.
    """
    if depth < 1:
        raise InputError(f"depth must be >= 1, got {depth}")
    p = h.ctx.p
    ws = _Workspace(h)
    seen = {}
    repeat = None
    timings = []
    for n in range(1, depth + 1):
        t0 = time.perf_counter()
        if n > 1:
            ws.commit(s)
        # theta = 0 makes the next entry p
        if ws.front:
            key = _theta_key(ws.front, p)
            if key in seen:
                repeat, ws.front = (seen[key], n - 1), None
            seen[key] = n - 1
        s = ws.prefix[n - 1 - (repeat[1] - repeat[0])] if repeat else ws.read()
        if n == 1 and s == 0:  # an F-pure fibre: every later entry is 0
            repeat, ws.front = (0, 1), None
        timings.append((time.perf_counter() - t0) * 1000.0)
        if s == p:
            break
    values = ws.prefix + (s,)
    return SplitSequence(
        p=p,
        depth=depth,
        values=(0,) + values + (p,) * (depth - len(values)),
        terminated_at_p=len(values) if s == p else None,
        per_depth_ms=tuple(timings),
        repeat=repeat,
    )
