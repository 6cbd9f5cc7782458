import ast
import random
from pathlib import Path

import pytest

import pptlab
from pptlab.errors import (
    ContextMismatchError,
    ExponentOverflowError,
    InputError,
    NotDivisibleError,
)
from pptlab.ring import (
    EXPONENT_LIMIT,
    FIELD_BITS,
    Context,
    LiftPoly,
    ResPoly,
    contract_terms,
    dual_frobenius,
    exact_div_p,
    exponent_box,
    exponent_cap,
    exponent_floor,
    frobenius_substitute,
    frobenius_terms,
    lift_of,
    project_mod_p,
    pure_powers,
    render,
)

from pptlab.delta import validate

from oracles import delta_int, int_mul, int_pow, random_int_poly, reduce_mod


def test_context_rejects_bad_parameters():
    with pytest.raises(InputError):
        Context(4, ["x"])
    with pytest.raises(InputError):
        Context(17, ["x"])
    # a prime far past the range: rejected before any primality test runs
    with pytest.raises(InputError, match="outside supported range"):
        Context(1000000000000000003, ["x"])
    # p must be an int: a float, a string or None is rejected by name
    for p in (7.0, 5.5, "3", None):
        with pytest.raises(InputError, match="^p must be an int"):
            Context(p, ["x", "y"])
    with pytest.raises(InputError):
        Context(2, [])
    with pytest.raises(InputError):
        Context(2, ["x"] * 7)
    with pytest.raises(InputError):
        Context(2, ["x", "x"])
    with pytest.raises(InputError):
        Context(2, ["not an identifier!"])
    # p**N over the multiplier cap
    with pytest.raises(InputError, match=r"^p\*\*N = 28561 exceeds the supported cap 20000;"):
        Context(13, ["a", "b", "c", "d"])
    for caps in ({"max_workspace_monomials": 0}, {"max_generators": 0}):
        with pytest.raises(InputError, match="workspace caps must be positive"):
            Context(2, ["x"], **caps)


def test_context_accepts_supported_range():
    Context(13, ["a", "b", "c"])
    Context(2, [f"x{i}" for i in range(1, 7)])


def test_char2_square_is_frobenius():
    ctx = Context(2, ["x", "y"])
    x = ResPoly.variable(ctx, "x")
    y = ResPoly.variable(ctx, "y")
    assert (x + y) * (x + y) == ResPoly(ctx, {(2, 0): 1, (0, 2): 1})


def test_add_zero_is_identity():
    ctx = Context(3, ["x", "y"])
    f = ResPoly(ctx, {(1, 2): 2, (0, 0): 1})
    assert f + ResPoly.zero(ctx) == f


def test_mod9_square_example():
    ctx = Context(3, ["x"])
    f = LiftPoly.variable(ctx, "x") + LiftPoly.constant(ctx, 2)
    assert f * f == LiftPoly(ctx, {(2,): 1, (1,): 4, (0,): 4})


def test_pow_basics():
    ctx = Context(3, ["x", "y"])
    f = ResPoly.variable(ctx, "x") + ResPoly.variable(ctx, "y")
    assert f ** 0 == ResPoly.one(ctx)
    assert f ** 2 == ResPoly(ctx, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
    x = ResPoly.variable(ctx, "x")
    assert x ** 5 == ResPoly(ctx, {(5, 0): 1})
    with pytest.raises(InputError, match="non-negative integer, got -1"):
        x ** -1
    with pytest.raises(InputError, match="unknown variable 'z'"):
        ResPoly.variable(ctx, "z")


def test_mul_matches_integer_expansion():
    rng = random.Random(101)
    for _ in range(300):
        p = rng.choice([2, 3, 5])
        n = rng.randrange(1, 4)
        ctx = Context(p, [f"x{i}" for i in range(n)])
        a = random_int_poly(rng, n)
        b = random_int_poly(rng, n)
        got = LiftPoly(ctx, a) * LiftPoly(ctx, b)
        want = LiftPoly(ctx, reduce_mod(int_mul(a, b), p * p))
        assert got == want


def test_pow_matches_integer_expansion():
    rng = random.Random(102)
    for _ in range(100):
        p = rng.choice([2, 3])
        n = rng.randrange(1, 3)
        ctx = Context(p, [f"x{i}" for i in range(n)])
        a = random_int_poly(rng, n, max_terms=3, max_exp=3)
        k = rng.randrange(5)
        assert LiftPoly(ctx, a) ** k == LiftPoly(
            ctx, reduce_mod(int_pow(a, k, n), p * p)
        )


def test_ring_mixing_is_rejected():
    ctx = Context(2, ["x"])
    other = Context(3, ["x"])
    with pytest.raises(ContextMismatchError):
        LiftPoly.one(ctx) + LiftPoly.one(other)
    with pytest.raises(ContextMismatchError):
        LiftPoly.one(ctx) * ResPoly.one(ctx)


def test_frobenius_substitute():
    ctx = Context(2, ["x", "y"])
    x = LiftPoly.variable(ctx, "x")
    y = LiftPoly.variable(ctx, "y")
    one = LiftPoly.one(ctx)
    assert frobenius_substitute(x) == LiftPoly(ctx, {(2, 0): 1})
    assert frobenius_substitute(LiftPoly.constant(ctx, 3)) == LiftPoly.constant(ctx, 3)
    assert frobenius_substitute(x + y + one) == LiftPoly(
        ctx, {(2, 0): 1, (0, 2): 1, (0, 0): 1}
    )
    with pytest.raises(ContextMismatchError, match="expects a LiftPoly"):
        frobenius_substitute(ResPoly.one(ctx))


def test_project_mod_p():
    ctx = Context(3, ["x", "y"])
    f = LiftPoly(ctx, {(1, 0): 3})
    assert project_mod_p(f).is_zero()
    assert project_mod_p(LiftPoly(ctx, {(1, 0): 4})) == ResPoly(ctx, {(1, 0): 1})
    g = LiftPoly(ctx, {(2, 0): 1, (0, 1): 3})
    assert project_mod_p(g) == ResPoly(ctx, {(2, 0): 1})
    with pytest.raises(ContextMismatchError, match="expects a LiftPoly"):
        project_mod_p(ResPoly.one(ctx))


def test_exact_div_p():
    ctx = Context(2, ["x", "y"])
    assert exact_div_p(LiftPoly(ctx, {(2, 0): 2})) == ResPoly(ctx, {(2, 0): 1})
    assert exact_div_p(LiftPoly.zero(ctx)).is_zero()
    f = LiftPoly(ctx, {(1, 0): 2, (0, 1): 2})
    assert exact_div_p(f) == ResPoly(ctx, {(1, 0): 1, (0, 1): 1})
    with pytest.raises(NotDivisibleError):
        exact_div_p(LiftPoly(ctx, {(1, 0): 1}))
    with pytest.raises(ContextMismatchError, match="expects a LiftPoly"):
        exact_div_p(ResPoly.one(ctx))


def test_exact_div_p_inverts_lift_scaling():
    rng = random.Random(103)
    for _ in range(200):
        p = rng.choice([2, 3, 5])
        ctx = Context(p, ["x", "y"])
        b = ResPoly(ctx, random_int_poly(rng, 2))
        assert exact_div_p(lift_of(b).scale(p)) == b
    with pytest.raises(ContextMismatchError, match="expects a ResPoly"):
        lift_of(LiftPoly.one(ctx))


def test_render_canonical_form():
    ctx = Context(3, ["x", "y"])
    f = LiftPoly(ctx, {(2, 0): 1, (0, 2): -1})
    assert render(f) == "x^2 + 8*y^2"
    assert render(LiftPoly.zero(ctx)) == "0"
    assert render(LiftPoly.one(ctx)) == "1"
    g = LiftPoly(ctx, {(1, 1): 2, (0, 0): 5})
    assert render(g) == "2*x*y + 5"
    # descending graded-lex
    h = ResPoly(ctx, {(0, 2): 1, (1, 0): 1, (2, 0): 1})
    assert render(h) == "x^2 + y^2 + x"


def test_leading_monomial_is_graded_lex_max():
    ctx = Context(5, ["x", "y", "z"])
    f = ResPoly(ctx, {(1, 1, 1): 1, (0, 4, 0): 2, (2, 0, 0): 3})
    assert ctx.decode_monomial(f.leading_monomial()) == (0, 4, 0)
    with pytest.raises(InputError, match="zero polynomial"):
        ResPoly.zero(ctx).leading_monomial()


def test_exponent_overflow_guard():
    ctx = Context(2, ["x"])
    with pytest.raises(ExponentOverflowError):
        ResPoly(ctx, {(2**31,): 1})
    big = ResPoly(ctx, {(2**30,): 1})
    with pytest.raises(ExponentOverflowError):
        big * big

    # the guard reads each variable's actual exponents, not the degree, and
    # products and Frobenius images raise the one message of
    # check_exponent_range, naming the variable and its largest exponent
    ctx = Context(2, ["x", "y"])
    x = ResPoly(ctx, {(2**30, 0): 1})
    y = ResPoly(ctx, {(0, 2**30): 1})
    assert (x * y).terms_by_exponent() == {(2**30, 2**30): 1}
    for overflow, message in (
        (lambda: x * x, "exponents of x reach 2147483648 >= 2**31"),
        (lambda: y * x * y, "exponents of y reach 2147483648 >= 2**31"),
        (lambda: frobenius_substitute(LiftPoly(ctx, {(1, 2**30): 1})), "exponents of y reach 2147483648 >= 2**31"),
        (lambda: frobenius_substitute(LiftPoly(ctx, {(2**30 + 1, 0): 1})), "exponents of x reach 2147483650 >= 2**31"),
    ):
        with pytest.raises(ExponentOverflowError) as raised:
            overflow()
        assert str(raised.value) == message
    assert frobenius_substitute(LiftPoly(ctx, {(2**30 - 1, 1): 1})) == LiftPoly(ctx, {(2**31 - 2, 2): 1})

    # a large term that cancelled no longer counts against the range
    lx = LiftPoly(ctx, {(2**30, 0): 1})
    f = lx - lx + LiftPoly.variable(ctx, "y")
    assert frobenius_substitute(f) == LiftPoly(ctx, {(0, 2): 1})
    assert validate(ctx, f).f_res == ResPoly.variable(ctx, "y")

    # differential: a product raises exactly when some variable's largest
    # exponents in the two factors sum to 2^31 or more
    rng = random.Random(217)
    near = [0, 1, 2**30 - 1, 2**30, 2**30 + 1]
    raised = 0
    for _ in range(300):
        n = rng.randrange(1, 4)
        ctx = Context(3, [f"x{i}" for i in range(n)])
        a, b = (
            {tuple(rng.choice(near) for _ in range(n)): rng.randrange(1, 3)
             for _ in range(rng.randrange(1, 4))}
            for _ in range(2)
        )
        overflows = any(
            max(ea[i] for ea in a) + max(eb[i] for eb in b) >= EXPONENT_LIMIT
            for i in range(n)
        )
        if overflows:
            raised += 1
            with pytest.raises(ExponentOverflowError):
                ResPoly(ctx, a) * ResPoly(ctx, b)
        else:
            assert ResPoly(ctx, a) * ResPoly(ctx, b) == ResPoly(ctx, reduce_mod(int_mul(a, b), 3))
    assert 0 < raised < 300


def test_monomial_encoding_roundtrip():
    rng = random.Random(104)
    ctx = Context(3, ["a", "b", "c", "d"])
    for _ in range(200):
        exps = tuple(rng.randrange(50) for _ in range(4))
        assert ctx.decode_monomial(ctx.encode_monomial(exps)) == exps
    # pure_powers packs x_i^e as encode_monomial does, in variable order
    for e in (0, 1, 7, EXPONENT_LIMIT - 1):
        want = [ctx.encode_monomial([e if i == j else 0 for j in range(4)]) for i in range(4)]
        assert pure_powers(4, e) == want, e
    for exps, message in (
        ((1, 2, 3), "expected 4 exponents, got 3"),
        ((1, 2, 3, 4, 5), "expected 4 exponents, got 5"),
        ((1, -1, 0, 0), "negative exponents"),
    ):
        with pytest.raises(InputError, match=message):
            ctx.encode_monomial(exps)


def test_delta_oracle_consistency_of_kernel_ops():
    # project(f^p - phi(f)) must vanish: the two routes to char p agree
    rng = random.Random(105)
    for _ in range(100):
        p = rng.choice([2, 3, 5])
        ctx = Context(p, ["x", "y"])
        a = random_int_poly(rng, 2, max_terms=4, max_exp=3)
        f = LiftPoly(ctx, a)
        numerator = f ** p - frobenius_substitute(f)
        assert project_mod_p(numerator).is_zero()
        # and the exact quotient matches the all-integer reference
        assert exact_div_p(numerator) == ResPoly(ctx, delta_int(a, p, 2))


def test_exponent_cap_matches_per_field_decoding():
    rng = random.Random(120)
    caps = {1, 2, EXPONENT_LIMIT - 1, EXPONENT_LIMIT, 1 << 40}
    caps |= {p**k for p in (2, 3, 5, 7, 13) for k in (1, 2, 5, 8, 9)}
    for n in range(1, 7):
        ctx = Context(2, [f"x{i}" for i in range(n)])
        for q in sorted(caps):
            add, high = exponent_cap(ctx, q)
            if q >= EXPONENT_LIMIT:
                assert (add, high) == (0, 0)

            def flagged(m):
                return bool((m + add) & high)

            def reaches(m):
                return any(e >= q for e in ctx.decode_monomial(m))

            values = [e for e in (0, q - 1, q, EXPONENT_LIMIT - 1) if 0 <= e < EXPONENT_LIMIT]
            for _ in range(60):
                m = ctx.encode_monomial([rng.choice(values) for _ in range(n)])
                assert flagged(m) == reaches(m), (n, q, ctx.decode_monomial(m))
            # products of two below-cap monomials, kept inside the 2**31 range
            below = sorted({min(e, EXPONENT_LIMIT // 2 - 1) for e in (0, (q - 1) // 2, q - 1)})
            for _ in range(60):
                a = ctx.encode_monomial([rng.choice(below) for _ in range(n)])
                b = ctx.encode_monomial([rng.choice(below) for _ in range(n)])
                assert not flagged(a) and not flagged(b)
                assert flagged(a + b) == reaches(a + b), (n, q, ctx.decode_monomial(a + b))


def test_exponent_cap_per_variable_bounds():
    # mixed bounds, including 0 (every exponent reaches it) and bounds no
    # exponent can reach; one bound per variable, in variable order
    rng = random.Random(121)
    choices = (0, 1, 3, 7, 49, 343, 13**8, EXPONENT_LIMIT - 1, EXPONENT_LIMIT, 13**9)
    for _ in range(300):
        n = rng.randrange(1, 7)
        ctx = Context(2, [f"x{i}" for i in range(n)])
        bounds = tuple(rng.choice(choices) for _ in range(n))
        add, high = exponent_cap(ctx, bounds)
        if all(b >= EXPONENT_LIMIT for b in bounds):
            assert (add, high) == (0, 0)
        if len(set(bounds)) == 1:
            assert (add, high) == exponent_cap(ctx, bounds[0])
        for _ in range(20):
            exps = [
                rng.choice([e for e in (0, b - 1, b, EXPONENT_LIMIT - 1) if 0 <= e < EXPONENT_LIMIT])
                for b in bounds
            ]
            m = ctx.encode_monomial(exps)
            want = any(e >= b for e, b in zip(exps, bounds))
            assert bool((m + add) & high) == want, (bounds, exps)


def test_contract_terms_matches_per_field_contraction():
    # x^t ⌟ y^b = y^(b - t) when t <= b field by field, else 0; the guard
    # bits must read that right up to exponents of 2^31 - 1
    rng = random.Random(214)
    top = EXPONENT_LIMIT - 1
    for _ in range(300):
        p = rng.choice([2, 3, 5, 7])
        n = rng.randrange(1, 5)
        ctx = Context(p, [f"x{i}" for i in range(n)])

        def exps():
            return tuple(rng.choice([rng.randrange(4), top - rng.randrange(3)]) for _ in range(n))

        g = {exps(): rng.randrange(1, p) for _ in range(rng.randrange(4))}
        theta = {exps(): rng.randrange(1, p) for _ in range(rng.randrange(6))}
        want: dict = {}
        for t, ct in g.items():
            for b, cb in theta.items():
                if all(ti <= bi for ti, bi in zip(t, b)):
                    d = tuple(bi - ti for ti, bi in zip(t, b))
                    want[d] = (want.get(d, 0) + ct * cb) % p
        want = {ctx.encode_monomial(d): c for d, c in want.items() if c}
        pack = ctx.encode_monomial
        got = contract_terms(
            {pack(t): c for t, c in g.items()}, {pack(b): c for b, c in theta.items()}, n, p
        )
        assert got == want, (p, g, theta)


def test_contract_terms_limit_gives_the_whole_contraction_or_none():
    # the running dict only grows, so with a limit the result is the whole
    # contraction when every reached monomial fits and None when not, even
    # where coefficients cancel to fewer terms than were reached
    rng = random.Random(219)
    cancelled = 0
    for _ in range(300):
        p = rng.choice([2, 3, 5])
        n = rng.randrange(1, 4)
        ctx = Context(p, [f"x{i}" for i in range(n)])

        def terms(count):
            return {
                ctx.encode_monomial(tuple(rng.randrange(4) for _ in range(n))): rng.randrange(1, p)
                for _ in range(count)
            }

        g, theta = terms(rng.randrange(1, 5)), terms(rng.randrange(1, 8))
        full = contract_terms(g, theta, n, p)
        reached = {
            tuple(bi - ti for ti, bi in zip(t, b))
            for t in map(ctx.decode_monomial, g)
            for b in map(ctx.decode_monomial, theta)
            if all(ti <= bi for ti, bi in zip(t, b))
        }
        cancelled += len(full) < len(reached)
        for limit in range(len(reached) + 2):
            got = contract_terms(g, theta, n, p, limit)
            assert got == (None if limit < len(reached) else full), (p, g, theta, limit)
    assert cancelled


def test_dual_frobenius_matches_per_field_map():
    # F(y^b) = y^(p*b + p-1), field by field with the degree kept in step
    rng = random.Random(218)
    for _ in range(100):
        p = rng.choice([2, 3, 5, 7])
        n = rng.randrange(1, 5)
        ctx = Context(p, [f"x{i}" for i in range(n)])
        theta = {
            tuple(rng.randrange(20) for _ in range(n)): rng.randrange(1, p)
            for _ in range(rng.randrange(5))
        }
        got = dual_frobenius(ctx, {ctx.encode_monomial(b): c for b, c in theta.items()})
        want = {ctx.encode_monomial(tuple(p * e + p - 1 for e in b)): c for b, c in theta.items()}
        assert got == want, (p, theta)
    # F checks its own range: None exactly when p * (1 + b_i) > 2^31 for
    # some exponent, that is when an image exponent would reach 2^31
    drops = 0
    for _ in range(200):
        p = rng.choice([2, 3, 5, 7, 11, 13])
        n = rng.randrange(1, 4)
        ctx = Context(p, [f"x{i}" for i in range(n)])
        edge = EXPONENT_LIMIT // p  # p * (1 + e) > 2^31 iff e >= edge
        theta = {
            tuple(rng.choice([0, 1, edge - 2, edge - 1, edge]) for _ in range(n)): rng.randrange(1, p)
            for _ in range(rng.randrange(1, 4))
        }
        got = dual_frobenius(ctx, {ctx.encode_monomial(b): c for b, c in theta.items()})
        if any(p * (1 + e) > EXPONENT_LIMIT for b in theta for e in b):
            drops += 1
            assert got is None, (p, theta)
        else:
            want = {ctx.encode_monomial(tuple(p * e + p - 1 for e in b)): c for b, c in theta.items()}
            assert got == want, (p, theta)
    assert 0 < drops < 200


def test_exponent_box_matches_decoded_maxima():
    # a random degree field on every monomial must be ignored, and a field
    # of 2^31 - 1 must not spill into its neighbour
    rng = random.Random(215)
    top = EXPONENT_LIMIT - 1
    for _ in range(300):
        n = rng.randrange(1, 7)
        ctx = Context(2, [f"x{i}" for i in range(n)])
        low = (1 << (FIELD_BITS * n)) - 1
        assert exponent_box({}, n) == (0,) * n
        vectors = [
            tuple(rng.choice([0, 1, rng.randrange(50), top - 1, top]) for _ in range(n))
            for _ in range(rng.randrange(1, 8))
        ]
        degrees = [rng.randrange(4 * EXPONENT_LIMIT) << (FIELD_BITS * n) for _ in vectors]
        terms = {d | (ctx.encode_monomial(e) & low): 1 for d, e in zip(degrees, vectors)}
        want = tuple(1 + max(col) for col in zip(*map(ctx.decode_monomial, terms)))
        assert exponent_box(terms, n) == want, vectors


def test_exponent_floor_matches_decoded_minima():
    # as for exponent_box: a random degree field on every monomial must be
    # ignored, and a field of 2^31 - 1 must not spill into its neighbour
    rng = random.Random(216)
    top = EXPONENT_LIMIT - 1
    for _ in range(300):
        n = rng.randrange(1, 7)
        ctx = Context(2, [f"x{i}" for i in range(n)])
        low = (1 << (FIELD_BITS * n)) - 1
        assert exponent_floor({}, n) == (0,) * n
        vectors = [
            tuple(rng.choice([0, 1, rng.randrange(50), top - 1, top]) for _ in range(n))
            for _ in range(rng.randrange(1, 8))
        ]
        degrees = [rng.randrange(4 * EXPONENT_LIMIT) << (FIELD_BITS * n) for _ in vectors]
        terms = {d | (ctx.encode_monomial(e) & low): 1 for d, e in zip(degrees, vectors)}
        want = tuple(min(col) for col in zip(*map(ctx.decode_monomial, terms)))
        assert exponent_floor(terms, n) == want, vectors


def test_frobenius_terms_is_the_p_th_power_over_f_p():
    # x_i -> x_i^p on the terms of g over F_p is g^p, as c^p = c mod p
    rng = random.Random(217)
    for _ in range(60):
        p = rng.choice([2, 3, 5, 7, 13])
        n = rng.randrange(1, 4)
        ctx = Context(p, [f"x{i}" for i in range(n)])
        g = ResPoly(ctx, random_int_poly(rng, n, max_terms=3, max_exp=3))
        assert frobenius_terms(g.terms, p) == (g**p).terms, (p, g)


def test_only_ring_reads_packed_fields():
    # the packed layout stays behind ring.py's kernels: no other module of
    # the package names FIELD_BITS or FIELD_MASK, as a name, an attribute
    # or an import, and the sequence engine reads exponents only through
    # ring's kernels, never by decoding a monomial
    fields = {"FIELD_BITS", "FIELD_MASK"}
    package = Path(pptlab.__file__).resolve().parent
    modules = sorted(package.rglob("*.py"))
    assert package / "ring.py" in modules
    for path in modules:
        if path.name == "ring.py":
            continue
        named = set()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
        assert not named & fields, (path.name, sorted(named & fields))
        if path.name == "ladder.py":
            # ring also decides the 2^31 range for the sequence engine
            in_ring = {"decode_monomial", "EXPONENT_LIMIT", "exponent_guard", "ExponentOverflowError"}
            assert not named & in_ring, sorted(named & in_ring)
