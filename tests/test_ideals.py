import itertools
import random

import pytest

from pptlab.errors import InputError, ResourceLimitError
from pptlab.ideals import (
    Echelon,
    MonomialAntichain,
    ResIdeal,
    _u_buckets,
    echelon_reduce,
    ideal_in_frobenius_power,
    frobenius_root,
    member_frobenius_power,
    principal_ideal,
    root_generators,
    u_image,
    u_single,
)
from pptlab.ring import EXPONENT_LIMIT, FIELD_BITS, Context, ResPoly

from oracles import u_image_bruteforce


def ctx2():
    return Context(2, ["x", "y"])


def random_res_poly(rng, ctx, max_terms=4, max_exp=5):
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        e = tuple(rng.randrange(max_exp + 1) for _ in range(ctx.n_vars))
        terms[e] = rng.randrange(1, ctx.p)
    return ResPoly(ctx, terms)


# -- u_single ----------------------------------------------------------------


def test_u_single_socle_monomial_maps_to_one():
    for p in (2, 3, 5):
        ctx = Context(p, ["x", "y"])
        socle = ResPoly(ctx, {(p - 1, p - 1): 1})
        assert u_single(socle) == ResPoly.one(ctx)


def test_u_single_kills_one():
    ctx = ctx2()
    assert u_single(ResPoly.one(ctx)).is_zero()


def test_u_single_odd_exponent_example():
    ctx = ctx2()
    g = ResPoly(ctx, {(5, 3): 1, (3, 5): 1})
    assert u_single(g) == ResPoly(ctx, {(2, 1): 1, (1, 2): 1})


def test_u_single_basis_law_over_exponent_box():
    # x^a maps to x^((a-(p-1))/p) exactly when a = p-1 (mod p), else 0
    for p in (2, 3):
        ctx = Context(p, ["x", "y"])
        for a in itertools.product(range(2 * p + 2), repeat=2):
            image = u_single(ResPoly(ctx, {a: 1}))
            if all(ai % p == p - 1 for ai in a):
                want = ResPoly(ctx, {tuple((ai - (p - 1)) // p for ai in a): 1})
            else:
                want = ResPoly.zero(ctx)
            assert image == want, (p, a)


def test_u_single_semilinearity():
    rng = random.Random(300)
    for _ in range(200):
        p = rng.choice([2, 3, 5])
        ctx = Context(p, ["x", "y"])
        g = random_res_poly(rng, ctx)
        h = random_res_poly(rng, ctx)
        assert u_single((g ** p) * h) == g * u_single(h)


# -- u_image -----------------------------------------------------------------


def test_u_image_of_single_selecting_monomial():
    for p in (2, 3):
        ctx = Context(p, ["x", "y"])
        g = ResPoly(ctx, {(2 * p - 1, p - 1): 1})
        assert u_image(principal_ideal(g)) == principal_ideal(
            ResPoly.variable(ctx, "x")
        )


def test_u_image_of_frobenius_power_is_maximal_ideal():
    for p, n in [(2, 2), (3, 2), (2, 3)]:
        ctx = Context(p, [f"x{i}" for i in range(n)])
        gens = [
            ResPoly.monomial(ctx, tuple(p if j == i else 0 for j in range(n)))
            for i in range(n)
        ]
        got = u_image(ResIdeal(ctx, gens))
        want = ResIdeal(
            ctx,
            [
                ResPoly.monomial(ctx, tuple(1 if j == i else 0 for j in range(n)))
                for i in range(n)
            ],
        )
        assert got == want


def test_u_image_of_unit_ideal_is_unit():
    ctx = ctx2()
    assert u_image(ResIdeal.unit(ctx)) == ResIdeal.unit(ctx)


def test_u_image_matches_bruteforce_multipliers():
    rng = random.Random(301)
    for _ in range(150):
        p = rng.choice([2, 3])
        n = rng.randrange(1, 3)
        ctx = Context(p, [f"x{i}" for i in range(n)])
        gens = [random_res_poly(rng, ctx) for _ in range(rng.randrange(1, 4))]
        ideal = ResIdeal(ctx, gens)
        assert u_image(ideal) == u_image_bruteforce(ideal)


def test_root_generators_generate_the_span_root():
    # each row of the span root lies in the ideal root_generators keeps:
    # dropping its terms that a monomial generator divides, a linear map,
    # leaves a combination of the other generators with the same terms dropped
    rng = random.Random(1818)
    for _ in range(300):
        p = rng.choice([2, 3, 5])
        ctx = Context(p, [f"x{i}" for i in range(rng.randrange(1, 4))])
        products = [
            random_res_poly(rng, ctx, max_terms=8, max_exp=3 * p).terms
            for _ in range(rng.randrange(1, 5))
        ]
        gens = root_generators(ctx, products)
        monomials = MonomialAntichain(Echelon(ctx))
        for g in gens:
            if len(g) == 1:
                monomials.add(*g)
        rows = Echelon(ctx)
        for g in gens:
            rows.insert(monomials.reduce(g))
        for row in frobenius_root(ctx, products).basis_terms():
            assert rows.spans(monomials.reduce(row)), (p, products)


# -- echelon -----------------------------------------------------------------


def test_echelon_scalar_dependence():
    ctx = Context(3, ["x", "y"])
    f = ResPoly(ctx, {(1, 0): 1, (0, 1): 2})
    reduced = echelon_reduce(ctx, [f, f.scale(2)])
    assert len(reduced) == 1
    assert principal_ideal(f) == ResIdeal(ctx, reduced)


def test_echelon_drops_zero():
    ctx = ctx2()
    assert echelon_reduce(ctx, [ResPoly.zero(ctx)]) == []


def test_echelon_same_span_two_generators():
    ctx = ctx2()
    x_plus_y = ResPoly(ctx, {(1, 0): 1, (0, 1): 1})
    y = ResPoly(ctx, {(0, 1): 1})
    reduced = echelon_reduce(ctx, [x_plus_y, y])
    ech = Echelon(ctx)
    for g in reduced:
        ech.insert(dict(g.terms))
    assert ech.spans(dict(x_plus_y.terms))
    assert ech.spans(dict(y.terms))
    assert len(reduced) == 2


def test_echelon_canonical_under_permutation():
    rng = random.Random(302)
    for _ in range(100):
        p = rng.choice([2, 3, 5])
        ctx = Context(p, ["x", "y"])
        gens = [random_res_poly(rng, ctx) for _ in range(4)]
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert echelon_reduce(ctx, gens) == echelon_reduce(ctx, shuffled)


def test_echelon_rows_are_fully_reduced():
    rng = random.Random(303)
    for _ in range(50):
        ctx = Context(3, ["x", "y"])
        gens = [random_res_poly(rng, ctx) for _ in range(5)]
        rows = echelon_reduce(ctx, gens)
        pivots = {g.leading_monomial() for g in rows}
        for g in rows:
            others = pivots - {g.leading_monomial()}
            assert not others & set(g.terms)


def full_pivot_scan_reduce(ech, terms):
    """Reduction against every stored row, in descending pivot order."""
    p = ech.p
    h = dict(terms)
    for row in ech.basis_terms():
        c = h.get(max(row))
        if not c:
            continue
        for m, rc in row.items():
            v = (h.get(m, 0) - c * rc) % p
            if v:
                h[m] = v
            else:
                h.pop(m, None)
    return h


def test_reduce_matches_full_pivot_scan():
    # rows mixing stored rows with noise hit several pivots at once
    rng = random.Random(304)
    for _ in range(200):
        p = rng.choice([2, 3, 5, 7])
        ctx = Context(p, ["x", "y", "z"])
        ech = Echelon(ctx)
        for _ in range(rng.randrange(1, 9)):
            ech.insert(dict(random_res_poly(rng, ctx, max_terms=6, max_exp=3).terms))
        basis = ech.basis_terms()
        for _ in range(5):
            row = random_res_poly(rng, ctx, max_terms=3, max_exp=3)
            for stored in rng.sample(basis, rng.randrange(len(basis) + 1)):
                row = row + ResPoly._raw(ctx, stored).scale(rng.randrange(1, p))
            want = full_pivot_scan_reduce(ech, row.terms)
            assert ech.reduce(row.terms) == want
            assert ech.spans(row.terms) == (not want)


def test_generator_cap_enforced():
    ctx = Context(2, ["x"], max_generators=3)
    gens = [ResPoly(ctx, {(i,): 1}) for i in range(5)]
    with pytest.raises(ResourceLimitError):
        echelon_reduce(ctx, gens)


def test_monomial_cap_enforced():
    ctx = Context(2, ["x", "y"], max_workspace_monomials=3)
    gens = [ResPoly(ctx, {(i, 0): 1, (0, i + 1): 1}) for i in range(4)]
    with pytest.raises(ResourceLimitError):
        echelon_reduce(ctx, gens)


def test_antichain_matches_decoded_divisibility():
    # exponents 0 and 2^31 - 1 test the guard bits at both ends of a field;
    # a random degree field on every monomial must be ignored
    rng = random.Random(620)
    top = EXPONENT_LIMIT - 1
    for _ in range(300):
        n = rng.randrange(1, 5)
        ctx = Context(2, [f"x{i}" for i in range(n)])
        pool = [0, 1, 2, 3, top - 1, top]

        def packed(exps):
            degree = rng.randrange(4 * EXPONENT_LIMIT)
            m = ctx.encode_monomial(exps)
            return (degree << (FIELD_BITS * n)) | (m & ((1 << (FIELD_BITS * n)) - 1))

        def divides(a, b):
            return all(x <= y for x, y in zip(a, b))

        mins = MonomialAntichain(Echelon(ctx))
        added = []
        for _ in range(rng.randrange(1, 25)):
            exps = tuple(rng.choice(pool) for _ in range(n))
            members = [ctx.decode_monomial(m)[:n] for m in mins]
            want = any(divides(a, exps) for a in members)
            assert mins.divides(packed(exps)) == want, (members, exps)
            assert mins.add(packed(exps)) == (not want)
            added.append(exps)
            members = [ctx.decode_monomial(m)[:n] for m in mins]
            for i, a in enumerate(members):
                assert not any(divides(a, b) for j, b in enumerate(members) if j != i)
            for b in added:
                assert any(divides(a, b) for a in members), (members, b)


def test_antichain_reduce_drops_exactly_the_divisible_terms():
    rng = random.Random(621)
    for _ in range(100):
        n = rng.randrange(1, 5)
        ctx = Context(3, [f"x{i}" for i in range(n)])
        mins = MonomialAntichain(Echelon(ctx))
        for _ in range(rng.randrange(4)):
            mins.add(ctx.encode_monomial(rng.randrange(4) for _ in range(n)))
        row = {ctx.encode_monomial(rng.randrange(6) for _ in range(n)): 1 for _ in range(8)}
        assert mins.reduce(row) == {m: c for m, c in row.items() if not mins.divides(m)}


def test_antichain_counts_against_the_monomial_cap():
    ctx = Context(2, ["x", "y"], max_workspace_monomials=3)
    mins = MonomialAntichain(Echelon(ctx))
    for i in range(3):
        assert mins.add(ctx.encode_monomial((i, 3 - i)))
    with pytest.raises(ResourceLimitError):
        mins.add(ctx.encode_monomial((3, 0)))


# -- membership ----------------------------------------------------------------


def test_membership_examples():
    for p in (2, 3, 5):
        ctx = Context(p, [f"x{i}" for i in range(3)])
        xp = ResPoly.monomial(ctx, (p, 0, 0))
        assert member_frobenius_power(xp, 1)
        socle = ResPoly.monomial(ctx, (p - 1, p - 1, p - 1))
        assert not member_frobenius_power(socle, 1)
        assert not member_frobenius_power(ResPoly.one(ctx), 1)
        assert member_frobenius_power(ResPoly.zero(ctx), 1)
    # p^e >= 2^31: no exponent reaches the bound, so only zero is a member
    ctx = Context(2, ["x", "y"])
    assert not member_frobenius_power(ResPoly.monomial(ctx, (2**30, 0)), 31)
    assert member_frobenius_power(ResPoly.zero(ctx), 31)
    ctx = ctx2()
    f = ResPoly(ctx, {(2, 0): 1, (0, 2): 1})
    assert member_frobenius_power(f, 1)
    with pytest.raises(InputError):
        member_frobenius_power(f, 0)


def test_ideal_membership_example():
    ctx = ctx2()
    gens = [
        ResPoly(ctx, {(2, 1): 1, (1, 2): 1}),  # xy(x+y)
        ResPoly(ctx, {(2, 0): 1, (0, 2): 1}),
    ]
    assert ideal_in_frobenius_power(ResIdeal(ctx, gens), 1)
    assert not ideal_in_frobenius_power(ResIdeal.unit(ctx), 1)
    assert ideal_in_frobenius_power(
        principal_ideal(ResPoly.monomial(ctx, (2, 0))), 1
    )


def test_fedder_duality_on_samples():
    # u(F_* J) inside (x_1..x_N)  <=>  J inside m^[p]
    rng = random.Random(304)
    for _ in range(200):
        p = rng.choice([2, 3])
        n = rng.randrange(1, 3)
        ctx = Context(p, [f"x{i}" for i in range(n)])
        gens = [random_res_poly(rng, ctx, max_terms=3) for _ in range(rng.randrange(1, 3))]
        ideal = ResIdeal(ctx, gens)
        image = u_image(ideal)
        in_max_ideal = all(g.constant_coefficient() == 0 for g in image.gens)
        assert in_max_ideal == ideal_in_frobenius_power(ideal, 1)


def test_u_buckets_stay_below_the_box_a_product_was_capped_at():
    # the scan caps a product at D(p * U) and never caps its u-image: an
    # exponent a < p * U has u-image exponent ((a + e) - (p - 1)) / p <= U - 1,
    # reached at the edge a = p * U - 1
    rng = random.Random(43)
    for _ in range(300):
        p = rng.choice((2, 3, 5, 7))
        ctx = Context(p, [f"x{i}" for i in range(rng.randrange(1, 5))])
        box = tuple(rng.randrange(1, 5) for _ in range(ctx.n_vars))
        edge = tuple(p * b - 1 for b in box)
        terms = {ctx.encode_monomial(edge): 1}
        for _ in range(rng.randrange(8)):
            exps = (rng.choice((p * b - 1, rng.randrange(p * b))) for b in box)
            terms[ctx.encode_monomial(exps)] = rng.randrange(1, p)
        images = [ctx.decode_monomial(m) for b in _u_buckets(ctx, terms).values() for m in b]
        assert len(images) == len(terms)
        assert all(q < b for exps in images for q, b in zip(exps, box)), (p, box, terms)
        assert tuple(b - 1 for b in box) in images
