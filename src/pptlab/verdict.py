"""Verdicts, exact threshold values, quasi-F-split heights, nu-functions,
quick criteria, and the Fermat-type predictor.

Threshold values are exact ``fractions.Fraction``s throughout, and one
evaluator, ``series``, sums every one of them.  A sequence bounded by
p-1 is written as a pattern (head, block): s_0 = 0, then ``head``, then
``block`` repeated forever (a finite window has no block).  Its threshold

    sum_(n>=1) (p - 1 - s_n) / p^n

is the base-p fraction with those digits, evaluated exactly.  Every
certificate (a fired quick criterion or the Fermat predictor) predicts
such a pattern; ``unroll`` writes it out to a depth.  A period detected
in a window is only ever reported as proven when the input has a
certificate; otherwise it is conjectural.

nu(p^e) is read from short chains of p-th-root ideals, one step per
base-p digit of the exponent, so no power of fbar beyond fbar^(p-1) is
ever formed; the argument is in ``nu``.  The chains never form an
exponent near p^e, so the check that p^e stays below 2^31 only sets the
supported range of e.  All products, here and in the quick criteria, are
``ring.mul_terms``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence

from .delta import Hypersurface
from .errors import (
    ExponentOverflowError,
    FIsUnitError,
    InputError,
    InternalCheckError,
    PNotGreaterThanNError,
    SequenceHitPError,
)
from .ideals import member_frobenius_power, root_generators
from .ladder import SplitSequence, _Workspace
from .ring import EXPONENT_LIMIT, ResPoly, exponent_cap, mul_terms, truncate_terms

VERDICT_PERFECTOID_PURE = "perfectoid_pure"
VERDICT_NOT_PERFECTOID_PURE = "not_perfectoid_pure"
VERDICT_INCONCLUSIVE = "inconclusive"

BASIS_ALL_BOUNDED = "all_bounded"
REASON_DEPTH_EXHAUSTED = "depth_exhausted"
REASON_UNCLASSIFIED_PATTERN = "unclassified_pattern"

CERTIFICATES = ("C1", "C3", "fermat")


@dataclass(frozen=True)
class Verdict:
    kind: str
    basis: str | None = None  # all_bounded, C1, C3 or fermat (pure verdicts)
    up_to_depth: int | None = None  # set when purity is only depth-checked
    r: int | None = None  # length of the (p-1)-run (non-pure verdicts)
    flagged_r1: bool = False
    reason: str | None = None  # inconclusive verdicts

    @property
    def certified(self) -> bool:
        return self.kind == VERDICT_PERFECTOID_PURE and self.up_to_depth is None


def classify(
    seq: SplitSequence, *, strict_r1: bool = False, certificate: str | None = None
) -> Verdict:
    """Classify a sequence.

    All entries bounded by p-1 give a pure verdict, qualified "up to
    depth" unless a certificate extends it to all n.  A run
    s_1 = ... = s_r = p-1 followed by s_(r+1) = p is not perfectoid pure
    for r >= 2; the r = 1 case carries the same conclusion here but is
    flagged (strict mode downgrades it to inconclusive).  Any other way
    of reaching p is inconclusive: whether boundedness is necessary for
    purity is open.
    """
    if certificate is not None and certificate not in CERTIFICATES:
        raise InputError(f"unknown certificate {certificate!r}")
    p = seq.p
    if seq.terminated_at_p is None:
        if certificate:
            return Verdict(kind=VERDICT_PERFECTOID_PURE, basis=certificate)
        return Verdict(
            kind=VERDICT_PERFECTOID_PURE,
            basis=BASIS_ALL_BOUNDED,
            up_to_depth=seq.depth,
        )
    i = seq.terminated_at_p
    run = seq.values[1:i]
    r = i - 1
    if r >= 1 and all(s == p - 1 for s in run):
        if r == 1 and strict_r1:
            return Verdict(kind=VERDICT_INCONCLUSIVE, reason=REASON_UNCLASSIFIED_PATTERN)
        return Verdict(kind=VERDICT_NOT_PERFECTOID_PURE, r=r, flagged_r1=r == 1)
    return Verdict(kind=VERDICT_INCONCLUSIVE, reason=REASON_UNCLASSIFIED_PATTERN)


def series(p: int, head: Sequence[int], block: Sequence[int] = ()) -> Fraction:
    """Threshold series of the pattern s = (0, *head, *block, *block, ...).

    With c_n = p - 1 - s_n the digits, the head contributes
    (c_1 ... c_a in base p) / p^a, and a block of length pi repeats to
    (c_(a+1) ... c_(a+pi) in base p) / ((p^pi - 1) * p^a).  An empty block
    leaves the finite sum over the head.
    """

    def digits(values: Sequence[int]) -> int:
        n = 0
        for s in values:
            if not 0 <= s < p:
                raise SequenceHitPError("threshold series requires all entries <= p-1")
            n = n * p + (p - 1 - s)
        return n

    shift = p ** len(head)
    total = Fraction(digits(head), shift)
    if block:
        total += Fraction(digits(block), (p ** len(block) - 1) * shift)
    return total


def unroll(head: Sequence[int], block: Sequence[int], depth: int) -> tuple[int, ...]:
    """s_0, ..., s_depth of the pattern: 0, then ``head``, then ``block``
    repeated."""
    values = [0, *head]
    while len(values) <= depth:
        if not block:
            raise InputError(f"a pattern with no block stops at depth {len(head)}")
        values.extend(block)
    return tuple(values[: depth + 1])


def ppt_partial(seq: SplitSequence) -> Fraction:
    """Exact partial sum of the threshold series down to the computed depth."""
    return series(seq.p, seq.values[1:])


def detect_period(seq: SplitSequence) -> tuple[int, int] | None:
    """Smallest (preperiod a, period length pi) visible in the window.

    Requires at least two full repetitions (a + 2*pi <= depth) and the
    shift identity s_(a+j) = s_(a+pi+j) across the whole remaining
    window.  Returns None when nothing repeats.
    """
    values = seq.values
    depth = seq.depth
    for a in range(depth):
        for pi in range(1, (depth - a) // 2 + 1):
            if all(
                values[a + j] == values[a + pi + j]
                for j in range(1, depth - a - pi + 1)
            ):
                return a, pi
    return None


def ppt_closed_form(seq: SplitSequence, a: int, pi: int) -> Fraction:
    """Exact value of the full threshold series when s_1..s_a is the head
    and s_(a+1)..s_(a+pi) repeats forever."""
    if a < 0 or pi < 1 or a + pi > seq.depth:
        raise InputError(f"period ({a}, {pi}) does not fit depth {seq.depth}")
    if seq.terminated_at_p is not None:
        raise SequenceHitPError("threshold series requires all entries <= p-1")
    values = seq.values
    return series(seq.p, values[1 : a + 1], values[a + 1 : a + pi + 1])


QFS_HEIGHT = "height"
QFS_NOT_SPLIT = "not_quasi_f_split"
QFS_EXCEEDS_DEPTH = "exceeds_depth"


@dataclass(frozen=True)
class QfsResult:
    kind: str
    height: int | None = None
    depth: int | None = None

    def __str__(self) -> str:
        if self.kind == QFS_HEIGHT:
            return str(self.height)
        if self.kind == QFS_NOT_SPLIT:
            return "not quasi-F-split"
        return f"> {self.depth}"


def qfs_height(seq: SplitSequence) -> QfsResult:
    """Quasi-F-split height: smallest h with s_1 = ... = s_(h-1) = 1, s_h = 0.

    A prefix entry outside {0, 1} rules the characterization out; an
    unbroken run of ones exhausts the computed depth.
    """
    for i, s in enumerate(seq.values[1:], start=1):
        if s == 0:
            return QfsResult(kind=QFS_HEIGHT, height=i)
        if s != 1:
            return QfsResult(kind=QFS_NOT_SPLIT)
    return QfsResult(kind=QFS_EXCEEDS_DEPTH, depth=seq.depth)


# -- nu-functions and the F-pure threshold ----------------------------------


_UNIT_ROWS = (((0, 1),),)  # generators of the unit ideal; packed monomial 0 is 1


class _RootChains:
    """The levels nu(p^1), nu(p^2), ... of one fbar, each found once.

    Each step of a chain keeps its ideal as a generating set, not the
    F_p-span of one (``ideals.root_generators``).  Steps are memoised on
    (generators, d) for as long as the object lives: across the levels of
    one ``nu_table`` call.
    """

    def __init__(self, f_res: ResPoly):
        if f_res.is_zero():
            raise InputError("nu requires a nonzero reduction")
        if f_res.constant_coefficient():
            raise FIsUnitError("nu requires fbar with no constant term")
        self.ctx = f_res.ctx
        p = self.ctx.p
        self.powers = [{0: 1}]  # fbar^d for d < p
        for _ in range(1, p):
            self.powers.append(mul_terms(self.powers[-1], f_res.terms, p))
        self.steps: dict[tuple, tuple] = {}
        self.levels = [0]  # nu(p^0) = 0: fbar has no constant term

    def step(self, rows: tuple, d: int) -> tuple:
        """Generators of I_1(J * fbar^d) for J generated by ``rows``, or of
        the unit ideal when some generator has a nonzero constant term."""
        key = (rows, d)
        if key not in self.steps:
            p = self.ctx.p
            products = (mul_terms(dict(row), self.powers[d], p) for row in rows)
            root = root_generators(self.ctx, products)
            if any(0 in row for row in root):
                self.steps[key] = _UNIT_ROWS
            else:
                self.steps[key] = tuple(tuple(sorted(row.items())) for row in root)
        return self.steps[key]

    def outside(self, digits: list[int]) -> bool:
        """Whether fbar^N leaves m^[p^k], N with the k base-p digits
        ``digits``, lowest first."""
        rows = _UNIT_ROWS
        for d in digits:
            rows = self.step(rows, d)
            if not rows:
                return False
        return rows == _UNIT_ROWS

    def level(self, e: int) -> int:
        """nu(p^e), finding the levels up to e not found yet."""
        p = self.ctx.p
        levels = self.levels
        while len(levels) <= e:
            k = len(levels)
            prev = levels[-1]
            high = [prev // p**j % p for j in range(k - 1)]
            if not self.outside([0] + high):
                raise InternalCheckError(f"fbar^(p*nu(p^{k - 1})) lies inside m^[p^{k}]")
            lo, hi = 0, p - 1
            while lo < hi:
                mid = (lo + hi + 1) // 2
                if self.outside([mid] + high):
                    lo = mid
                else:
                    hi = mid - 1
            levels.append(p * prev + lo)
        return levels[e]


def _check_exponent(p: int, e: int) -> None:
    if e < 1:
        raise InputError(f"e must be >= 1, got {e}")
    if p**e >= EXPONENT_LIMIT:
        raise ExponentOverflowError(f"p^e = {p}^{e} >= 2**31")


def nu(f_res: ResPoly, e: int, *, chains: _RootChains | None = None) -> int:
    """nu(p^e) = max N with fbar^N outside m^[p^e] = (x_1^(p^e), ..., x_N^(p^e)).

    Computed from short chains of p-th-root ideals (Blickle-Mustata-Smith,
    *Discreteness and rationality of F-thresholds*).  I_k(g) is the
    smallest ideal J with g in J^[p^k], so g lies in m^[p^k] iff I_k(g)
    lies in m, and I_1 of an ideal is the sum of the roots of its
    generators.  The chain depends only on each J_j as an ideal, so a step
    keeps generators of it, not their F_p-span (``ideals.root_generators``,
    the kernel the scan's u step calls too).  Two identities give I_k of a
    power without forming it: I_1(g * h^p) = I_1(g) * h, and
    I_k = I_(k-1) o I_1.  So for N = d_0 + d_1*p + ... + d_(k-1)*p^(k-1)
    with digits d_j < p, the chain J_0 = (1), J_(j+1) = I_1(J_j * fbar^(d_j))
    ends in J_k = I_k(fbar^N), and fbar^N is outside m^[p^k] iff some
    generator of J_k has a nonzero constant term.  Each step multiplies by
    one of the precomputed fbar^d, d < p.

    A step whose ideal has a generator u with a nonzero constant term is
    replaced by the unit ideal.  That is exact for the final test: writing
    M for the rest of N, J_k is I_(k-j)(J_j * fbar^M), so the test asks
    whether J_j * fbar^M leaves m^[p^(k-j)].  That ideal lies inside
    (fbar^M) and contains u * fbar^M, and u * fbar^M leaves the m-primary
    m^[p^(k-j)] iff fbar^M does, u being a unit modulo it; so J_j and (1)
    give the same answer.  A step whose ideal is zero stays zero, so the
    chain ends with "inside".

    Level k starts from N = p * nu(p^(k-1)): fbar^(p*n) = (fbar^n)^p lies in
    m^[p^k] iff fbar^n lies in m^[p^(k-1)], so nu(p^k) lies in
    p * nu(p^(k-1)) + {0, ..., p-1}, its lowest digit d is the only new one,
    and once fbar^N is inside so is fbar^(N+1), so a binary search finds d.  ``chains``
    carries the levels already found and the step memo from one call to the
    next, which is how ``nu_table`` computes every level once.  A step's
    workspace touching more than ``max_workspace_monomials`` monomials
    raises ``ResourceLimitError``.
    """
    _check_exponent(f_res.ctx.p, e)
    if chains is None:
        chains = _RootChains(f_res)
    return chains.level(e)


def nu_table(f_res: ResPoly, e_max: int) -> dict[int, int]:
    """nu(p^e) for e = 1..e_max, one ``nu`` call per level on shared chains.

    The standard monotonicity nu(p^(e+1)) >= p * nu(p^e) is asserted.
    """
    p = f_res.ctx.p
    _check_exponent(p, e_max)
    chains = _RootChains(f_res)
    table: dict[int, int] = {}
    for e in range(1, e_max + 1):
        table[e] = nu(f_res, e, chains=chains)
        bound = p * table.get(e - 1, 0)
        if table[e] < bound:
            raise InternalCheckError(
                f"nu(p^{e}) = {table[e]} below the monotone bound {bound}"
            )
    return table


def fpt_approx(f_res: ResPoly, e_max: int) -> Fraction:
    """nu(p^e_max)/p^e_max, the F-pure threshold approximant at level e_max."""
    table = nu_table(f_res, e_max)
    return Fraction(table[e_max], f_res.ctx.p ** e_max)


# -- structural tests on the input -------------------------------------------


def regularity_test(h: Hypersurface) -> bool:
    """True iff the quotient by f is regular: f has a degree-1 monomial
    with unit coefficient mod p, or constant term p*v with v a unit."""
    ctx = h.ctx
    p = ctx.p
    const = h.f_lift.constant_coefficient()
    if const % p == 0 and const != 0:
        return True
    for exps, c in h.f_lift.items():
        if sum(exps) == 1 and c % p != 0:
            return True
    return False


@dataclass(frozen=True)
class QuickCriteria:
    """Outcome of the three fast congruence checks.

    All three require fbar inside (x_1^p, ..., x_N^p); when that fails
    ``fired`` is empty and ``note`` says why.  A fired criterion predicts
    a sequence pattern (``criterion_pattern``), used both as a certificate
    and as a cross-check of the ladder:

    * C1: fbar^(p-1)*delta(f)^(p-1) congruent to a nonzero multiple of
      (x_1...x_N)^(p^2-1) modulo (x_i^(p^2))  =>  s = (0, p-1, 0, p-1, ...)
      and threshold 1/(p+1).
    * C2: delta(f)^(p-1) inside (x_i^(p^2))  =>  s hits p at step 2; not
      perfectoid pure.
    * C3: f = f' + p*x_1...x_N with delta(f') inside (x_i^(p^2))  =>
      s = (0, p-1, p-1, ...) and threshold 0.
    """

    fired: frozenset[str]
    hypothesis_met: bool
    note: str | None = None


def criterion_pattern(criterion: str, p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The (head, block) a fired quick criterion predicts."""
    if criterion == "C1":
        return (), (p - 1, 0)
    if criterion == "C3":
        return (), (p - 1,)
    if criterion == "C2":
        # the run ends at p on the second step
        return (p - 1,), (p,)
    raise InputError(f"unknown criterion {criterion!r}")


def check_quick_criteria(h: Hypersurface) -> QuickCriteria:
    ctx = h.ctx
    p = ctx.p
    if not member_frobenius_power(h.f_res, 1):
        return QuickCriteria(
            fired=frozenset(),
            hypothesis_met=False,
            note="fbar is not inside (x_1^p, ..., x_N^p); "
            "the quick criteria do not apply",
        )
    fired = set()
    # every test is modulo (x_i^(p^2)), so the powers are built truncated
    q = p * p
    cap = exponent_cap(ctx, q)
    ws = _Workspace(h)
    delta_pow = ws.delta_terms(p - 1, cap)
    # C1: compare against the single monomial (x_1...x_N)^(p^2-1)
    residue = mul_terms(ws.f_terms(p - 1, cap), delta_pow, p, *cap)
    target = ctx.encode_monomial((q - 1,) * ctx.n_vars)
    if set(residue) == {target}:
        fired.add("C1")
    # C2
    if not delta_pow:
        fired.add("C2")
    # C3: (f - p*m)^p = f^p mod p^2 and phi(p*m) = p*m^p for m = x_1...x_N,
    # so delta(f') = delta(f) + m^p, which vanishes mod (x_i^(p^2)) iff
    # delta(f) truncates to -m^p
    if truncate_terms(h.delta_f.terms, *cap) == {ctx.encode_monomial((p,) * ctx.n_vars): p - 1}:
        fired.add("C3")
    return QuickCriteria(fired=frozenset(fired), hypothesis_met=True)


def fermat_degree(h: Hypersurface) -> int | None:
    """N when f is exactly x_1^N + ... + x_N^N with p > N, else None."""
    ctx = h.ctx
    n = ctx.n_vars
    terms = h.f_lift.terms_by_exponent()
    if len(terms) != n:
        return None
    degrees = set()
    for exps, c in terms.items():
        if c != 1:
            return None
        nonzero = [e for e in exps if e]
        if len(nonzero) != 1:
            return None
        degrees.add(nonzero[0])
    if len(degrees) != 1:
        return None
    deg = degrees.pop()
    if deg != n or deg < 2 or ctx.p <= deg:
        return None
    return deg


def fermat_block(n_vars: int, p: int) -> tuple[int, ...]:
    """One period of the sequence of x_1^N + ... + x_N^N (N = n_vars,
    p > N): s_e is the unique value in 0..N-2 with s_e + 1 = p^e mod N,
    so the block has the length of the order of p mod N."""
    if not (p > n_vars >= 2):
        raise PNotGreaterThanNError(
            f"the predictor needs p > N >= 2, got p = {p}, N = {n_vars}"
        )
    if gcd(p, n_vars) != 1:
        raise InputError(f"the predictor needs p prime to N, got p = {p}, N = {n_vars}")
    block = [p % n_vars - 1]
    while block[-1] != 0:
        block.append((block[-1] + 1) * p % n_vars - 1)
    return tuple(block)


def fermat_predict(n_vars: int, p: int, depth: int) -> tuple[int, ...]:
    """Predicted s_0..s_depth for x_1^N + ... + x_N^N (N = n_vars, p > N)."""
    return unroll((), fermat_block(n_vars, p), depth)
