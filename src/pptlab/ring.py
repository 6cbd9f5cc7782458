"""Exact sparse multivariate polynomial arithmetic over Z/p^2 and F_p.

A monomial x1^e1 * ... * xN^eN is packed into a single int with N+1
64-bit fields, the total degree on top::

    packed = (((deg << 64 | e1) << 64 | e2) ... ) << 64 | eN

Packing this way makes the native int order on packed keys exactly the
graded-lex order (degree first, then x1 > x2 > ... > xN), so leading
monomials are ``max(terms)`` and canonical term sorting is plain integer
sorting.  Multiplying monomials is integer addition, and the Frobenius
substitution x_i -> x_i^p is integer multiplication by p; neither can
carry between fields while every exponent stays below 2**31.  That is
checked on the actual exponents: ``encode_monomial`` rejects larger ones,
and products and ``frobenius_substitute`` test the total degree and, only
when it could reach 2**31, each variable's maxima (``exponent_box``).

The same headroom makes two field-wise tests one integer operation each:
``exponent_cap`` (some exponent reaches a bound) and ``exponent_guard``
(x^a divides x^b).  No other module reads packed fields, so the kernels
live here too: ``mul_terms``, ``contract_terms``, ``u_buckets`` (the
split by Frobenius shift) and ``dual_frobenius`` (F of the inverse system).

A polynomial is a dict mapping packed monomials to nonzero coefficients
in the least non-negative residue system.  ``LiftPoly`` holds
coefficients mod p^2 (classes of elements of W(F_p)[[x]]), ``ResPoly``
holds coefficients mod p (elements of the reduction mod p).  Values are
immutable after construction and safe to share between threads.
"""

from __future__ import annotations

from typing import Collection, Iterable, Iterator, Mapping

from .errors import (
    ContextMismatchError,
    ExponentOverflowError,
    InputError,
    NotDivisibleError,
)

FIELD_BITS = 64
FIELD_MASK = (1 << FIELD_BITS) - 1
EXPONENT_LIMIT = 1 << 31

MAX_PRIME = 13
MAX_VARS = 6
MAX_MULTIPLIERS = 20_000  # cap on p**N, keeps Frobenius-root fans bounded


def is_prime(n: int) -> bool:
    """Deterministic primality check by trial division."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class Context:
    """The ambient data (p, variable names) every value is interpreted against.

    Also carries the workspace caps used by the ideal engine:
    ``max_workspace_monomials`` bounds the number of distinct monomials an
    echelon workspace may touch, ``max_generators`` bounds generator counts
    fed into a single reduction.
    """

    __slots__ = ("p", "var_names", "max_workspace_monomials", "max_generators")

    def __init__(
        self,
        p: int,
        var_names: Iterable[str],
        *,
        max_workspace_monomials: int = 500_000,
        max_generators: int = 10_000,
    ):
        names = tuple(var_names)
        if not is_prime(p):
            raise InputError(f"p = {p} is not prime")
        if not 2 <= p <= MAX_PRIME:
            raise InputError(f"p = {p} outside supported range 2..{MAX_PRIME}")
        if not 1 <= len(names) <= MAX_VARS:
            raise InputError(f"variable count {len(names)} outside 1..{MAX_VARS}")
        if len(set(names)) != len(names):
            raise InputError(f"variable names must be distinct: {names}")
        for name in names:
            if not name.isidentifier():
                raise InputError(f"invalid variable name {name!r}")
        if p ** len(names) > MAX_MULTIPLIERS:
            raise InputError(
                f"p**N = {p ** len(names)} exceeds the supported cap "
                f"{MAX_MULTIPLIERS}; reduce p or the variable count"
            )
        if max_workspace_monomials < 1 or max_generators < 1:
            raise InputError("workspace caps must be positive")
        self.p = p
        self.var_names = names
        self.max_workspace_monomials = max_workspace_monomials
        self.max_generators = max_generators

    @property
    def n_vars(self) -> int:
        return len(self.var_names)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Context)
            and self.p == other.p
            and self.var_names == other.var_names
        )

    def __hash__(self) -> int:
        return hash((self.p, self.var_names))

    def __repr__(self) -> str:
        return f"Context(p={self.p}, vars={','.join(self.var_names)})"

    # -- packed monomial helpers ------------------------------------------

    def encode_monomial(self, exponents: Iterable[int]) -> int:
        """Pack an exponent vector into a single graded-lex-ordered int."""
        exps = tuple(exponents)
        if len(exps) != self.n_vars:
            raise InputError(
                f"expected {self.n_vars} exponents, got {len(exps)}"
            )
        packed = 0
        degree = 0
        for e in exps:
            if e < 0:
                raise InputError("negative exponents are not supported")
            if e >= EXPONENT_LIMIT:
                raise ExponentOverflowError(f"exponent {e} >= 2**31")
            degree += e
            packed = (packed << FIELD_BITS) | e
        return (degree << (FIELD_BITS * self.n_vars)) | packed

    def decode_monomial(self, packed: int) -> tuple[int, ...]:
        exps = []
        for _ in range(self.n_vars):
            exps.append(packed & FIELD_MASK)
            packed >>= FIELD_BITS
        return tuple(reversed(exps))

    def monomial_degree(self, packed: int) -> int:
        return packed >> (FIELD_BITS * self.n_vars)

    def check_same(self, other: "Context") -> None:
        if self != other:
            raise ContextMismatchError(f"cannot mix {self!r} and {other!r}")


def exponent_cap(ctx: Context, q: int | Iterable[int]) -> tuple[int, int]:
    """Masks (add, high) with ``(m + add) & high`` nonzero iff some
    exponent of the packed monomial m reaches its bound.

    ``q`` is one bound for every variable or a sequence of per-variable
    bounds (q_1, ..., q_N) in variable order.  Field i gets 2**31 - q_i
    added and is tested on bits 31..63, so it is flagged exactly when its
    exponent is >= q_i; the addition cannot carry out of a 64-bit field
    while exponents stay below 2**31, and the degree field is left alone.
    A field whose bound is >= 2**31 can never be reached and stays
    unflagged; when no field is flagged the masks are (0, 0).
    """
    bounds = (q,) * ctx.n_vars if isinstance(q, int) else q
    add = high = 0
    for b in bounds:
        add <<= FIELD_BITS
        high <<= FIELD_BITS
        if b < EXPONENT_LIMIT:
            add |= EXPONENT_LIMIT - b
            high |= FIELD_MASK ^ (EXPONENT_LIMIT - 1)
    return add, high


def exponent_guard(n_vars: int) -> int:
    """2**31 in every exponent field: x^a divides x^b iff
    ``(b + guard - a) & guard == guard``.

    Field i of b + guard - a is b_i - a_i + 2**31, which keeps bit 31 set
    iff b_i >= a_i and, while exponents stay below 2**31, never borrows
    from or carries into the next field; the degree fields play no part.
    """
    return sum(EXPONENT_LIMIT << (FIELD_BITS * i) for i in range(n_vars))


def exponent_box(terms: Collection[int], n_vars: int) -> tuple[int, ...]:
    """1 + the largest exponent of each variable over the packed monomials
    ``terms``, in variable order; all zeros for no terms."""
    return tuple(
        max(((m >> FIELD_BITS * (n_vars - 1 - i)) & FIELD_MASK for m in terms), default=-1) + 1
        for i in range(n_vars)
    )


def truncate_terms(terms: dict[int, int], add: int, high: int) -> dict[int, int]:
    """The terms whose monomials the ``exponent_cap`` masks do not flag."""
    if not high:
        return terms
    return {m: c for m, c in terms.items() if not (m + add) & high}


def mul_terms(
    a: dict[int, int], b: dict[int, int], mod: int, add: int = 0, high: int = 0
) -> dict[int, int]:
    """Product of two term dicts mod ``mod``, dropping the monomials the
    ``exponent_cap`` masks (add, high) flag; (0, 0) drops nothing."""
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    out: dict[int, int] = {}
    get = out.get
    if high:
        for ma, ca in a.items():
            shifted = ma + add
            for mb, cb in b.items():
                if (shifted + mb) & high:
                    continue
                m = ma + mb
                out[m] = get(m, 0) + ca * cb
    else:
        for ma, ca in a.items():
            for mb, cb in b.items():
                m = ma + mb
                out[m] = get(m, 0) + ca * cb
    return {m: v for m, c in out.items() if (v := c % mod)}


def contract_terms(
    g: dict[int, int], theta: dict[int, int], n_vars: int, mod: int
) -> dict[int, int]:
    """The contraction g ⌟ theta mod ``mod`` of an inverse-system element.

    ``theta`` holds packed monomials y^b of F_p[y_1..y_N], which pairs
    with x^b; x^t ⌟ y^b = y^(b - t) when t <= b componentwise and 0
    otherwise, decided by ``exponent_guard``.
    """
    if not g or not theta:
        return {}
    guard = exponent_guard(n_vars)
    out: dict[int, int] = {}
    get = out.get
    items = theta.items()
    # keys stay offset by the guard until the end
    for t, ct in g.items():
        shift = guard - t
        for b, cb in items:
            d = b + shift
            if d & guard == guard:
                out[d] = get(d, 0) + ct * cb
    return {d - guard: v for d, c in out.items() if (v := c % mod)}


def u_buckets(ctx: Context, terms: dict[int, int]) -> dict[int, dict[int, int]]:
    """Split a support by shift multiplier.

    Each monomial x^a is selected by exactly one multiplier
    e = (p-1-a) mod p; bucket key is the packed e, bucket value maps the
    u-image monomial x^((a+e)/p) to the coefficient.  Distinct monomials
    in one bucket have distinct images, so no collisions occur.
    """
    p = ctx.p
    n = ctx.n_vars
    shift_n = FIELD_BITS * n
    buckets: dict[int, dict[int, int]] = {}
    for m, c in terms.items():
        rest = m
        e_packed = 0
        e_degree = 0
        q_packed = 0
        q_degree = 0
        for i in range(n):
            a = rest & FIELD_MASK
            rest >>= FIELD_BITS
            e = (p - 1 - a) % p
            q = (a + e) // p
            e_degree += e
            q_degree += q
            e_packed |= e << (FIELD_BITS * i)
            q_packed |= q << (FIELD_BITS * i)
        key = (e_degree << shift_n) | e_packed
        out_m = (q_degree << shift_n) | q_packed
        buckets.setdefault(key, {})[out_m] = c
    return buckets


def dual_frobenius(ctx: Context, theta: dict[int, int]) -> dict[int, int]:
    """F(y^b) = y^(p*b + p-1) on an inverse-system element; the caller
    keeps the image exponents below 2**31."""
    shift = ctx.encode_monomial((ctx.p - 1,) * ctx.n_vars)
    return {m * ctx.p + shift: c for m, c in theta.items()}


def _require_same_ring(a: "Poly", b: "Poly") -> None:
    if type(a) is not type(b):
        raise ContextMismatchError(
            f"cannot mix {type(a).__name__} and {type(b).__name__}"
        )
    a.ctx.check_same(b.ctx)


class Poly:
    """Shared machinery for both coefficient rings; do not instantiate.

    A value is its context and its terms; terms that cancelled leave no
    trace, so they never count against the 2**31 exponent range."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: Context, coeffs: Mapping[tuple[int, ...], int]):
        mod = self._modulus(ctx)
        terms: dict[int, int] = {}
        for exps, c in coeffs.items():
            c %= mod
            if c == 0:
                continue
            terms[ctx.encode_monomial(exps)] = c
        self.ctx = ctx
        self.terms = terms

    @classmethod
    def _raw(cls, ctx: Context, terms: dict[int, int]):
        self = object.__new__(cls)
        self.ctx = ctx
        self.terms = terms
        return self

    @staticmethod
    def _modulus(ctx: Context) -> int:
        raise NotImplementedError

    @property
    def modulus(self) -> int:
        return self._modulus(self.ctx)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ctx: Context):
        return cls._raw(ctx, {})

    @classmethod
    def one(cls, ctx: Context):
        return cls.constant(ctx, 1)

    @classmethod
    def constant(cls, ctx: Context, c: int):
        c %= cls._modulus(ctx)
        return cls._raw(ctx, {0: c} if c else {})

    @classmethod
    def variable(cls, ctx: Context, name: str):
        try:
            i = ctx.var_names.index(name)
        except ValueError:
            raise InputError(f"unknown variable {name!r}") from None
        exps = tuple(1 if j == i else 0 for j in range(ctx.n_vars))
        return cls(ctx, {exps: 1})

    @classmethod
    def monomial(cls, ctx: Context, exponents: Iterable[int], coeff: int = 1):
        return cls(ctx, {tuple(exponents): coeff})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def total_degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return self.ctx.monomial_degree(max(self.terms))

    def leading_monomial(self) -> int:
        """Packed graded-lex leading monomial; raises on zero."""
        if not self.terms:
            raise InputError("zero polynomial has no leading monomial")
        return max(self.terms)

    def constant_coefficient(self) -> int:
        return self.terms.get(0, 0)

    def coefficient(self, exponents: Iterable[int]) -> int:
        return self.terms.get(self.ctx.encode_monomial(exponents), 0)

    def items(self) -> Iterator[tuple[tuple[int, ...], int]]:
        """Terms in descending graded-lex order, exponent vectors decoded."""
        dec = self.ctx.decode_monomial
        for m in sorted(self.terms, reverse=True):
            yield dec(m), self.terms[m]

    def terms_by_exponent(self) -> dict[tuple[int, ...], int]:
        return dict(self.items())

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is type(self)
            and self.ctx == other.ctx
            and self.terms == other.terms
        )

    __hash__ = None  # type: ignore[assignment]

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        _require_same_ring(self, other)
        mod = self.modulus
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = (out.get(m, 0) + c) % mod
            if v:
                out[m] = v
            else:
                out.pop(m, None)
        return self._raw(self.ctx, out)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        mod = self.modulus
        return self._raw(self.ctx, {m: mod - c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        _require_same_ring(self, other)
        a, b = self.terms, other.terms
        if not a or not b:
            return self.zero(self.ctx)
        # the degree bounds every exponent, so the maxima are read only when the
        # degrees sum to 2**31: the top field of max(a) + max(b), as fields never carry
        n = self.ctx.n_vars
        if max(a) + max(b) >= EXPONENT_LIMIT << (FIELD_BITS * n):
            for name, ea, eb in zip(self.ctx.var_names, exponent_box(a, n), exponent_box(b, n)):
                if ea + eb - 2 >= EXPONENT_LIMIT:
                    raise ExponentOverflowError(f"exponents of {name} reach {ea + eb - 2} >= 2**31")
        return self._raw(self.ctx, mul_terms(a, b, self.modulus))

    __rmul__ = __mul__

    def scale(self, c: int):
        c %= self.modulus
        if c == 0:
            return self.zero(self.ctx)
        if c == 1:
            return self
        mod = self.modulus
        out = {m: v for m, old in self.terms.items() if (v := old * c % mod)}
        return self._raw(self.ctx, out)

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise InputError(f"exponent must be a non-negative integer, got {k}")
        result = self.one(self.ctx)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        return render(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({render(self)!r}, p={self.ctx.p})"


class LiftPoly(Poly):
    """Sparse polynomial with coefficients in Z/p^2.

    Represents the class of f in W(F_p)[[x_1..x_N]] mod p^2, which is all
    the sequence machinery ever needs to see of f.
    """

    __slots__ = ()

    @staticmethod
    def _modulus(ctx: Context) -> int:
        return ctx.p * ctx.p


class ResPoly(Poly):
    """Sparse polynomial over F_p (an element of the reduction mod p)."""

    __slots__ = ()

    @staticmethod
    def _modulus(ctx: Context) -> int:
        return ctx.p


def frobenius_substitute(a: LiftPoly) -> LiftPoly:
    """Apply the Frobenius lift x_i -> x_i^p; coefficients are unchanged.

    On packed monomials this is multiplication by p (every field scales,
    including the degree field).
    """
    if not isinstance(a, LiftPoly):
        raise ContextMismatchError("frobenius_substitute expects a LiftPoly")
    p = a.ctx.p
    if a.total_degree() * p >= EXPONENT_LIMIT:
        top = max(exponent_box(a.terms, a.ctx.n_vars)) - 1
        if top * p >= EXPONENT_LIMIT:
            raise ExponentOverflowError(f"Frobenius image exponent {top * p} >= 2**31")
    return LiftPoly._raw(a.ctx, {m * p: c for m, c in a.terms.items()})


def project_mod_p(a: LiftPoly) -> ResPoly:
    """Coefficientwise reduction mod p, dropping vanishing terms."""
    if not isinstance(a, LiftPoly):
        raise ContextMismatchError("project_mod_p expects a LiftPoly")
    p = a.ctx.p
    out = {m: v for m, c in a.terms.items() if (v := c % p)}
    return ResPoly._raw(a.ctx, out)


def exact_div_p(a: LiftPoly) -> ResPoly:
    """The unique b over F_p with p * (lift of b) = a in Z/p^2.

    Every coefficient of ``a`` must be divisible by p; a violation means
    an internal arithmetic bug or invalid input, reported as
    ``NotDivisibleError``.
    """
    if not isinstance(a, LiftPoly):
        raise ContextMismatchError("exact_div_p expects a LiftPoly")
    p = a.ctx.p
    out = {}
    for m, c in a.terms.items():
        if c % p:
            raise NotDivisibleError(
                f"coefficient {c} of {a.ctx.decode_monomial(m)} is not divisible by {p}"
            )
        out[m] = c // p
    return ResPoly._raw(a.ctx, out)


def lift_of(a: ResPoly) -> LiftPoly:
    """The tautological lift to Z/p^2 with the same least residues."""
    if not isinstance(a, ResPoly):
        raise ContextMismatchError("lift_of expects a ResPoly")
    return LiftPoly._raw(a.ctx, dict(a.terms))


def render(a: Poly) -> str:
    """Canonical text form: descending graded-lex terms, least non-negative
    coefficients, ``^`` for powers and explicit ``*`` between factors, so the
    output re-parses to the same polynomial."""
    if not a.terms:
        return "0"
    names = a.ctx.var_names
    parts = []
    for exps, c in a.items():
        factors = []
        if c != 1 or not any(exps):
            factors.append(str(c))
        for name, e in zip(names, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        parts.append("*".join(factors))
    return " + ".join(parts)
