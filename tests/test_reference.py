"""End-to-end cross-check against a self-contained naive implementation.

The reference below shares no code with the package: polynomials are
exponent-tuple dicts, the dual-basis operator enumerates all p^N shift
multipliers, generator lists are never compressed (containment in a
monomial ideal is generator-wise, so reduction is unnecessary for
correctness), and delta comes from all-integer arithmetic.  Agreement of
the computed sequences exercises every production layer at once: packed
monomials, kernel arithmetic, bucketing, echelon compression, and the
truncated containment scan.
"""

import itertools
import random

from pptlab.delta import validate
from pptlab.ideals import ResIdeal, ideal_in_frobenius_power
from pptlab.ladder import (
    compute_ladder,
    splitting_sequence,
)
from pptlab.parser import parse_poly
from pptlab.ring import Context, LiftPoly, ResPoly, exponent_cap
from pptlab.verdict import nu, nu_table

from oracles import delta_int, int_mul, int_pow, random_int_poly, reduce_mod, truncated_contained


def naive_mul(a, b, p):
    return reduce_mod(int_mul(a, b), p)


def naive_pow(a, k, p, n):
    return reduce_mod(int_pow(a, k, n), p)


def naive_u_single(g, p, n):
    out = {}
    for exps, c in g.items():
        if all(e % p == p - 1 for e in exps):
            out[tuple((e - (p - 1)) // p for e in exps)] = c
    return out


def naive_u_image(gens, p, n):
    images = []
    for g in gens:
        for mult in itertools.product(range(p), repeat=n):
            shifted = {
                tuple(e + m for e, m in zip(exps, mult)): c for exps, c in g.items()
            }
            image = naive_u_single(shifted, p, n)
            if image:
                images.append(image)
    return images


def naive_in_frobenius_power(g, p, n):
    return all(any(e >= p for e in exps) for exps in g)


def naive_ladder_gens(f_res, delta_f, entries, p, n):
    gens = [naive_pow(f_res, p - entries[-1], p, n)]
    for j in range(len(entries) - 2, -1, -1):
        l = entries[j]
        delta_power = naive_pow(delta_f, l, p, n)
        multiplied = [naive_mul(g, delta_power, p) for g in gens]
        rooted = naive_u_image(multiplied, p, n)
        f_low = naive_pow(f_res, p - l - 1, p, n)
        gens = [naive_mul(g, f_low, p) for g in rooted]
        gens.append(naive_pow(f_res, p - l, p, n))
    return gens


def naive_ladder_contained(f_res, delta_f, entries, p, n):
    gens = naive_ladder_gens(f_res, delta_f, entries, p, n)
    return all(naive_in_frobenius_power(g, p, n) for g in gens if g)


def naive_sequence(f_int, p, n, depth):
    f_res = reduce_mod(f_int, p)
    delta_f = delta_int(f_int, p, n)
    values = [0]
    prefix = ()
    for _ in range(depth):
        found = None
        for s in range(p, -1, -1):
            if naive_ladder_contained(f_res, delta_f, prefix + (s,), p, n):
                found = s
                break
        assert found is not None
        values.append(found)
        if found == p:
            break
        prefix += (found,)
    while len(values) < depth + 1:
        values.append(p)
    return tuple(values)


def random_valid_input(rng, p, n):
    while True:
        terms = random_int_poly(rng, n, max_terms=3, max_exp=3, max_coeff=8)
        terms.pop((0,) * n, None)
        if terms and reduce_mod(terms, p):
            return terms


def test_sequences_match_naive_reference():
    rng = random.Random(600)
    for _ in range(120):
        p = rng.choice([2, 3])
        n = rng.randrange(1, 3)
        depth = rng.randrange(1, 4)
        f_int = random_valid_input(rng, p, n)
        ctx = Context(p, [f"x{i}" for i in range(n)])
        h = validate(ctx, LiftPoly(ctx, f_int))
        got = splitting_sequence(h, depth).values
        want = naive_sequence(f_int, p, n, depth)
        assert got == want, (p, n, f_int, got, want)


def test_larger_primes_match_naive_reference():
    # p = 7 takes the scan's search branch for p > 5; depth 4 at p = 5
    # exercises the deeper caps
    rng = random.Random(601)
    for p, depth, cases in ((5, 4, 30), (7, 3, 30)):
        for _ in range(cases):
            n = rng.randrange(1, 3)
            f_int = random_valid_input(rng, p, n)
            ctx = Context(p, [f"x{i}" for i in range(n)])
            h = validate(ctx, LiftPoly(ctx, f_int))
            got = splitting_sequence(h, depth).values
            want = naive_sequence(f_int, p, n, depth)
            assert got == want, (p, n, f_int, got, want)


def test_capped_chain_matches_naive_on_arbitrary_indices():
    # committed prefixes at N <= 2 rarely hold a nonzero entry before the
    # last, so random indices are what reach the delta stages under caps
    rng = random.Random(602)
    runs = ((5, 2, 4, 60), (7, 2, 2, 30), (7, 1, 3, 20), (13, 1, 3, 20))
    for p, most_vars, longest, cases in runs:
        for _ in range(cases):
            n = rng.randrange(1, most_vars + 1)
            f_int = random_valid_input(rng, p, n)
            ctx = Context(p, [f"x{i}" for i in range(n)])
            h = validate(ctx, LiftPoly(ctx, f_int))
            k = rng.randrange(2, longest + 1)
            entries = tuple(rng.randrange(p) for _ in range(k - 1))
            entries += (rng.randrange(p + 1),)
            want = naive_ladder_contained(
                reduce_mod(f_int, p), delta_int(f_int, p, n), entries, p, n
            )
            got = truncated_contained(h, entries)
            assert got == want, (p, f_int, entries)


def test_exact_ladder_spans_the_naive_generators():
    # the span --trace prints, not just its containment: the RREF of the
    # reference's uncompressed generators is the canonical form to compare
    rng = random.Random(604)
    sizes = set()
    for _ in range(150):
        p = rng.choice([2, 3, 5])
        n = rng.randrange(1, 3)
        f_int = random_valid_input(rng, p, n)
        ctx = Context(p, [f"x{i}" for i in range(n)], max_generators=100_000)
        h = validate(ctx, LiftPoly(ctx, f_int))
        entries = tuple(rng.randrange(p) for _ in range(rng.randrange(3)))
        entries += (rng.randrange(p + 1),)
        gens = naive_ladder_gens(reduce_mod(f_int, p), delta_int(f_int, p, n), entries, p, n)
        got = compute_ladder(h, entries)
        assert got == ResIdeal(ctx, [ResPoly(ctx, g) for g in gens]), (p, f_int, entries)
        sizes.add(len(got.gens))
    assert max(sizes) >= 5, sizes


def test_capped_chain_matches_exact_ladder_at_large_primes_in_two_variables():
    # a non-last slot >= 2 makes the scan build delta^l (l >= 2) from capped
    # factors inside a two-variable box.  f is quadratic, plus p times a
    # linear part, so that the exact ladder, which forms delta^l in full,
    # stays fast; a last slot of 0 is drawn often, as most others fail
    rng = random.Random(603)
    quadratic = [(2, 0), (1, 1), (0, 2)]
    outcomes = set()
    for p in (11, 13):
        ctx = Context(p, ["x", "y"], max_generators=100_000)
        for _ in range(15):
            f_int = {e: rng.randrange(1, p * p) for e in rng.sample(quadratic, rng.randrange(1, 4))}
            for e in rng.sample([(1, 0), (0, 1)], rng.randrange(3)):
                f_int[e] = p * rng.randrange(1, p)
            if not reduce_mod(f_int, p):
                continue
            h = validate(ctx, LiftPoly(ctx, f_int))
            entries = tuple(rng.randrange(p) for _ in range(rng.randrange(1, 3)))
            if max(entries) < 2:
                entries = (rng.randrange(2, p),) + entries[1:]
            entries += (rng.choice([0, rng.randrange(p + 1)]),)
            exact = ideal_in_frobenius_power(compute_ladder(h, entries), 1)
            assert truncated_contained(h, entries) == exact, (p, f_int, entries)
            outcomes.add((p, exact))
    assert len(outcomes) == 4


def test_uncapped_depths_agree_with_exact_ladder():
    # the live boxes of x + y^3 cut only x's bound, from 13^k to 5*13^(k-1),
    # so from depth 9 on both bounds of the base box are >= 2^31 and the
    # caps of the base and of the innermost delta-product are off; the
    # naive reference is far too slow there, the exact ladder is not
    ctx = Context(13, ["x", "y"])
    h = validate(ctx, parse_poly("x + y^3", ctx))
    assert exponent_cap(ctx, 13**9) == (0, 0)
    seq = splitting_sequence(h, 10)
    for n in (9, 10):
        for s in range(14):
            entries = seq.values[1:n] + (s,)
            exact = ideal_in_frobenius_power(compute_ladder(h, entries), 1)
            assert truncated_contained(h, entries) == exact, (entries, seq.values)


def test_known_inputs_match_naive_reference():
    cases = [
        (2, 2, {(2, 0): 1, (0, 2): 1}, 4),
        (2, 3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1}, 3),
        (3, 1, {(0,): 3, (2,): -1}, 3),
        (2, 2, {(1, 0): 1, (0, 3): 1}, 4),
        (3, 2, {(3, 0): 1, (1, 1): 1, (0, 3): 1}, 3),
    ]
    for p, n, f_int, depth in cases:
        ctx = Context(p, [f"x{i}" for i in range(n)])
        h = validate(ctx, LiftPoly(ctx, f_int))
        got = splitting_sequence(h, depth).values
        want = naive_sequence(f_int, p, n, depth)
        assert got == want, (p, n, f_int, got, want)


def naive_nu_table(f, p, n, e_max):
    """nu(p^e) for e = 1..e_max from untruncated powers of f: the largest N
    with some monomial of f^N having every exponent below p^e."""
    table, power, first_inside = {}, {(0,) * n: 1}, 0
    for e in range(1, e_max + 1):
        q = p**e
        while not all(any(x >= q for x in exps) for exps in power):
            power = naive_mul(power, f, p)
            first_inside += 1
        table[e] = first_inside - 1
    return table


def test_nu_matches_naive_untruncated_powers():
    # the root chains against untruncated powers of f; the untruncated
    # f^N grows like N^n monomials, so p^e_max shrinks as n grows.  The
    # fixed inputs fbar = x + x^(p+1) have the root (1 + x)^(p-1) of
    # fbar^(p-1): it leaves m but is not (1), which the chains put in its
    # place
    max_q = {1: 7**3, 2: 125, 3: 27}
    inputs = [(p, 1, {(1,): 1, (p + 1,): 1}) for p in (2, 3, 5)]
    rng = random.Random(602)
    while len(inputs) < 93:
        p = rng.choice([2, 3, 5, 7])
        n = rng.randrange(1, 4)
        f = reduce_mod(random_int_poly(rng, n, max_terms=4, max_exp=3, max_coeff=8), p)
        f.pop((0,) * n, None)
        if f:
            inputs.append((p, n, f))
    for p, n, f in inputs:
        e_max = max(e for e in (1, 2, 3) if p**e <= max_q[n])
        ctx = Context(p, [f"x{i}" for i in range(n)])
        f_res = ResPoly(ctx, f)
        want = naive_nu_table(f, p, n, e_max)
        assert nu_table(f_res, e_max) == want, (p, n, f, want)
        assert {e: nu(f_res, e) for e in want} == want, (p, n, f, want)
