"""The ideal ladder and the splitting-order sequence engine.

The ladder ideal for an index (l_1, ..., l_n) is built inside-out:
start from the principal ideal (fbar^(p - l_n)) and, for i = n-1 down
to 1, replace K by

    fbar^(p-l_i-1) * u(F_*(delta(f)^(l_i) * K))  +  (fbar^(p-l_i)).

The sequence entry s_n is the largest s in 0..p whose ladder ideal for
(s_1, ..., s_(n-1), s) lies in (x_1^p, ..., x_N^p).  Containment is
downward-closed in s because the base ideal grows with the last slot and
every recursion step preserves inclusions; the scan asserts that.

``compute_ladder`` runs that recursion exactly, on F_p-spans and with
every added generator; that is the ideal ``--trace`` prints.  The
sequence tests only what the last slot adds, the linear chain applied
to (fbar^(p - s)), since every stage is additive and the prefix's own
ladder ideal is already known to be contained.

The sequence state is one dual element.  Write the linear part of stage
j as T_j(K) = fbar^(p-l_j-1) * u(F_*(delta^(l_j) * K)) and, for a
committed prefix (l_0, ..., l_(k-1)),

    P_k = {g : T_0 ... T_(k-1)(g) lies in (x_1^p, ..., x_N^p)},

an ideal because every stage is additive; s_(k+1) is the largest s with
fbar^(p-s) in P_k.  The adjunction u(F_* I) in J <=> I in J^[p] (Fedder;
Blickle-Mustata-Smith) gives

    P_(k+1) = ((P_k : fbar^(p-l_k-1))^[p] : delta^(l_k)).

Every P_k contains a power of (x_1, ..., x_N), as (x_i^p) does and
colons and Frobenius powers keep that.  In the inverse system
E = F_p[y_1..y_N], where y^b pairs with x^b and x^t ⌟ y^b = y^(b-t)
when t <= b (0 otherwise), Matlis duality then gives
Ann_E(J : g) = g ⌟ Ann_E(J) and Ann_E(J^[p]) = R * F(Ann_E(J)) for the
Frobenius F(y^b) = y^(p*b + p-1) of E (Katzman-Schwede), and
R * F(R * theta) = R * F(theta).  Ann_E(P_0) is generated by
theta_0 = y^(p-1, ..., p-1), so Ann_E(P_k) = R * theta_k stays cyclic,

    theta_(k+1) = delta ⌟ ... ⌟ delta ⌟ F(fbar^(p-l_k-1) ⌟ theta_k)

with l_k single contractions by delta, and g lies in P_k iff
g ⌟ theta_k = 0.  So ``splitting_sequence`` carries theta from depth to
depth (``_Frontier``, ``_advance``): each candidate s is one contraction
fbar^(p-s) ⌟ theta_k, and each depth one step of theta.  From theta_0
this is the capped scan's own final test: x^t ⌟ theta_0 is nonzero iff
every t_i < p, and distinct t give distinct y^(p-1-t), so g ⌟ theta_0 = 0
iff g is empty modulo (x_i^p).

theta grows about p-fold per depth on some inputs, so a step gives up,
and the run goes on from theta_0 with the whole prefix as the tail, when

- the kept theta would have more than p^N terms, the size of the
  theta_0 scan's base box;
- an intermediate of the step would have more than
  ``max_workspace_monomials`` terms;
- F would push an exponent to 2^31 or beyond, past what a packed
  monomial, its caps and the contraction's guard bits hold.

The first contraction of a step stops as soon as it has reached more
monomials than these bounds let it keep (``ring.contract_terms``'s
limit), so a step that drops back costs no more than the bound.  Terms
reached so far may still cancel, so this can send a step to the scan
where the whole contraction would have fitted; both paths are exact, so
only the path can change, never an entry.

From theta_0, ``_new_part_contained`` is the capped scan: one capped
product and one u step per live box, which keeps only the monomials that
can still reach a final monomial below theta's box, each u step keeping
the ideal of its rows rather than their F_p-span
(``ideals.root_generators``, the root kernel the nu chains share; the
``MonomialAntichain`` docstring says why this is exact).
Every cap is one ``ring.exponent_cap`` test, and the capped delta^l and
fbar^k are built from capped factors inside their box (``_Workspace``),
never in full.  The contraction, F, the products and the u-bucket split
are ``ring`` kernels, beside the packed monomial whose fields they read.

After a drop-back, every later depth runs the chain from theta_0 over
the whole tail, once per candidate s, and the tails of one run share
their stages.  At the top of its level j the rest of a chain reads only
theta, the entries tail[:j], k_j and the generators of I_j, so each
frontier memoizes the outcome under exactly that key
(``_new_part_contained``).  A chain that reaches a level some earlier
chain passed stops there, and each depth costs a few stages instead of
the whole tail: on p=13 x + y^3 the u-bucket splits fall from 252 to 48
at depth 12 and from 1,092 to 108 at depth 24.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

from .delta import Hypersurface
from .errors import (
    InputError,
    InvalidIndexError,
    MonotonicityViolationError,
)
from .ideals import Echelon, ResIdeal, frobenius_root, root_generators
# ladder-level names: perfbench times the scan's products as ladder._mul_terms.
# The scan splits buckets in ideals.root_generators; _u_buckets stays bound
# here only because perfbench also wraps ladder._u_buckets by name.
from .ring import (
    EXPONENT_LIMIT,
    contract_terms as _contract,
    dual_frobenius,
    exponent_box,
    exponent_cap,
    exponent_guard,
    mul_terms as _mul_terms,
    truncate_terms as _truncate,
    u_buckets as _u_buckets,
)


@dataclass(frozen=True)
class SplitSequence:
    """Computed sequence s_0, ..., s_depth with s_0 = 0.

    Once an entry equals p, all later entries are p; ``terminated_at_p``
    records the first such index, and is None when no entry is p.
    ``per_depth_ms`` holds the time of each computed depth, and
    ``frontier_depth`` the k of the deepest dual element theta_k the run
    kept: s_1..s_(k+1) were each read off contractions against one theta,
    later entries came from the theta_0 scan.  Neither takes part in
    comparisons.
    """

    p: int
    depth: int
    values: tuple[int, ...]
    terminated_at_p: int | None
    per_depth_ms: tuple[float, ...] | None = field(
        default=None, compare=False, repr=False
    )
    frontier_depth: int | None = field(default=None, compare=False, repr=False)

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
    boxes.  The capped scan takes its powers inside its live boxes, and
    theta's steps and contractions take fbar^k and delta inside theta's
    box.

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


# -- the sequence -------------------------------------------------------------


class _Frontier(NamedTuple):
    """The dual element theta_k of a committed prefix's first ``depth``
    entries, as packed y-monomials, and ``box``: 1 + its largest exponent
    in each variable, all zeros once theta is 0.  ``memo`` holds the
    results of chain suffixes against this theta
    (``_new_part_contained``), so it never serves another theta."""

    depth: int
    theta: dict[int, int]
    box: tuple[int, ...]
    memo: dict[tuple, bool]


def _theta_0(ctx) -> _Frontier:
    p = ctx.p
    return _Frontier(0, {ctx.encode_monomial((p - 1,) * ctx.n_vars): 1}, (p,) * ctx.n_vars, {})


def _kills(g: dict[int, int], theta: dict[int, int], ctx) -> bool:
    """Whether g ⌟ theta = 0.

    The packed order is graded-lex, a monomial order, so b - t <= b* - t*
    for every t in g and b in theta, with equality only at t* = min(g) and
    b* = max(theta).  When t* divides b*, y^(b* - t*) is a term of the
    contraction that no other pair reaches, so it is not 0 and need not
    be formed.
    """
    if not g or not theta:
        return True
    guard = exponent_guard(ctx.n_vars)
    if (max(theta) + guard - min(g)) & guard == guard:
        return False
    return not _contract(g, theta, ctx.n_vars, ctx.p)


def _advance(ws: _Workspace, front: _Frontier, l: int) -> _Frontier | None:
    """theta_(k+1) = delta ⌟ ... ⌟ delta ⌟ F(fbar^(p-l-1) ⌟ theta_k) for
    the next entry l < p, or None when the step meets a drop-back trigger
    (module docstring).

    fbar^(p-l-1) is taken inside theta_k's box, as x^t ⌟ theta_k = 0 once
    some t_i reaches it; F multiplies the box by p, and the delta
    contractions only shrink it, so one capped delta serves all of them.
    """
    ctx = ws.h.ctx
    p, n = ctx.p, ctx.n_vars
    limit, keep = ctx.max_workspace_monomials, p**n
    fmul = ws.f_terms(p - l - 1, exponent_cap(ctx, front.box))
    # F keeps the term count: with no delta contraction this is the kept size
    theta = _contract(fmul, front.theta, n, p, limit if l else min(limit, keep))
    if theta is None:
        return None
    box = tuple(p * b for b in exponent_box(theta, n))
    if max(box) > EXPONENT_LIMIT:
        return None
    theta = dual_frobenius(ctx, theta)
    delta = ws.delta_terms(1, exponent_cap(ctx, box))
    for _ in range(l):
        theta = _contract(delta, theta, n, p)
        if len(theta) > limit:
            return None
    if len(theta) > keep:
        return None
    return _Frontier(front.depth + 1, theta, exponent_box(theta, n), {})


def _follow(ws: _Workspace, front: _Frontier, prefix: tuple[int, ...]) -> _Frontier:
    """The frontier for ``prefix`` from the one for prefix[:-1]: theta
    advanced over the last entry while it keeps up with the prefix, and
    theta_0 for the rest of the run once a step drops back."""
    if front.depth < len(prefix) - 1:
        return front
    return _advance(ws, front, prefix[-1]) or _theta_0(ws.h.ctx)


def _new_part_contained(ws: _Workspace, frontier: _Frontier, tail: tuple[int, ...]) -> bool:
    """Whether the new part of the ladder ideal for the index
    (committed prefix) + ``tail`` lies in (x_1^p, ..., x_N^p), where
    ``frontier`` is theta_k of the prefix's first k entries and ``tail``
    the rest of the index.

    Write the tail as (l_0, ..., l_(m-2), s), the linear part of its stage
    j as T_j(K) = fbar^(p-l_j-1) * u(F_*(delta^(l_j) * K)), so stage j maps
    K to T_j(K) + (fbar^(p-l_j)), and P for the ideal of theta.  T_j is
    additive in K, because the u-image of a sum of ideals is the sum of
    the u-images, so with the frontier at theta_0

        L(l_0, ..., l_(m-2), s) = T_0 ... T_(m-2) (fbar^(p-s))
                                  + L(l_0, ..., l_(m-2)).

    The new part is the first summand.  A sum of ideals lies in a monomial
    ideal iff each summand does, so once the prefix's ladder ideal is known
    to be contained, the new part alone decides containment, and this
    chain never forms the generators fbar^(p-l_j).  From theta_k the first
    k stages are folded into P (module docstring): the new part is
    contained iff T_0 ... T_(m-2)(fbar^(p-s)) lies in P.  With m = 1 that
    is the one contraction fbar^(p-s) ⌟ theta = 0.

    Write D(B) for the monomial ideal (x_1^B_1, ..., x_N^B_N), take
    B_0 = the frontier's box, so x^a ⌟ theta = 0 and D(B_0) lies in P,
    and B_(j+1) = p * U_j with U_j = ``live_box(p-l_j-1, B_j)``, so
    x^b * fbar^(p-l_j-1) lies in D(B_j) once some b_i >= U_j,i.  Then
    u(F_* D(p * U_j)) lies in D(U_j), as u(F_*(x^(p*c) g)) = x^c * u(F_* g);
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
    generate the u-image.  R * theta is an R-module,
    (r * g) ⌟ theta = r ⌟ (g ⌟ theta), so the new part is contained iff
    (g * fbar^(k_0)) ⌟ theta = 0 for every generator g of I_0, and the
    truncation mod D(B_0) changes none of these contractions.

    The outcome is memoized on the frontier.  At the top of level j the
    rest of the chain reads theta; the entries tail[:j], which fix the
    boxes B_0..B_j and the powers delta^(l_0)..delta^(l_(j-1)) and
    fbar^(k_0)..fbar^(k_(j-1)); k_j; and the generators of I_j, nothing
    else.  So "contained from here on" is a function of (tail[:j], k_j,
    generators) for the frontier's theta, keyed exactly (each generator
    as its sorted terms), stored for every level a chain passes once its
    outcome is known, and read back by any later chain that reaches an
    equal key.  A hit skips only work that an equal key already ran to
    its end without tripping a cap.  A tail of one entry, a candidate
    against a carried theta, is the single contraction fbar^(p-s) ⌟ theta,
    cheaper than building its key, and is not memoized.
    """
    ctx = ws.h.ctx
    p = ctx.p
    *ls, s = tail
    if not ls:
        # one contraction, cheaper than its memo key
        return _kills(ws.f_terms(p - s, exponent_cap(ctx, frontier.box)), frontier.theta, ctx)
    boxes = [frontier.box]
    for l in ls:
        boxes.append(tuple(p * b for b in ws.live_box(p - l - 1, boxes[-1])))
    caps = [exponent_cap(ctx, box) for box in boxes]
    memo = frontier.memo
    visited = []
    gens = [{0: 1}]  # the unit ideal: the monomial 1 packs to 0
    k = p - s
    for j in range(len(ls), -1, -1):
        key = (tail[:j], k, tuple(tuple(sorted(g.items())) for g in gens))
        got = memo.get(key)
        if got is not None:
            break
        visited.append(key)
        if not j:
            fmul = ws.f_terms(k, caps[0])
            got = all(_kills(_mul_terms(g, fmul, p, *caps[0]), frontier.theta, ctx) for g in gens)
            break
        cap = caps[j]
        w = _mul_terms(ws.f_terms(k, cap), ws.delta_terms(ls[j - 1], cap), p, *cap)
        gens = root_generators(ctx, (_mul_terms(g, w, p, *cap) for g in gens))
        if not gens:
            got = True
            break
        k = p - ls[j - 1] - 1
    for key in visited:
        memo[key] = got
    return got


def _scan_next(ws: _Workspace, frontier: _Frontier, prefix: tuple[int, ...]) -> int:
    """Largest s with the ladder ideal for prefix + (s,) contained.

    The prefix's own ladder ideal must be contained and ``frontier`` be
    theta_k of its first k entries; then the new part decides containment
    (``_new_part_contained``).  For small p every candidate is evaluated
    and the containment set is asserted to be an interval [0, s]; for
    larger p a binary search rides the monotonicity instead.
    """
    p = ws.h.ctx.p
    tail = prefix[frontier.depth :]

    def contained(s: int) -> bool:
        return _new_part_contained(ws, frontier, tail + (s,))

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
    committed prefix's does; each entry is checked by what it adds, one
    contraction against theta while theta keeps up, on the way to the
    prefix's theta.
    """
    p = h.ctx.p
    prefix = tuple(prefix)
    for i, l in enumerate(prefix):
        if not 0 <= l <= p - 1:
            raise InvalidIndexError(f"prefix entry s_{i + 1} = {l} outside 0..{p - 1}")
    ws = _Workspace(h)
    front = _theta_0(h.ctx)
    for k in range(1, len(prefix) + 1):
        if not _new_part_contained(ws, front, prefix[front.depth : k]):
            raise InvalidIndexError(
                f"the ladder ideal of prefix {prefix[:k]} is not inside (x_1^p, ..., x_N^p)"
            )
        front = _follow(ws, front, prefix[:k])
    return _scan_next(ws, front, prefix)


def splitting_sequence(h: Hypersurface, depth: int) -> SplitSequence:
    """Compute s_0..s_depth, carrying theta from depth to depth and timing
    each depth; once an entry hits p the tail is filled with p.

    The exact ladder ideal of a step n is ``compute_ladder(h,
    values[1:n+1])``; ``cli`` builds ``--trace`` from it.
    """
    if depth < 1:
        raise InputError(f"depth must be >= 1, got {depth}")
    p = h.ctx.p
    ws = _Workspace(h)
    front = _theta_0(h.ctx)
    deepest = 0
    timings = []
    terminated = None
    prefix: tuple[int, ...] = ()
    for n in range(1, depth + 1):
        t0 = time.perf_counter()
        s = _scan_next(ws, front, prefix)
        prefix += (s,)
        if s < p and n < depth:
            front = _follow(ws, front, prefix)
            deepest = max(deepest, front.depth)
        timings.append((time.perf_counter() - t0) * 1000.0)
        if s == p:
            terminated = n
            break
    return SplitSequence(
        p=p,
        depth=depth,
        values=(0,) + prefix + (p,) * (depth - len(prefix)),
        terminated_at_p=terminated,
        per_depth_ms=tuple(timings),
        frontier_depth=deepest,
    )
