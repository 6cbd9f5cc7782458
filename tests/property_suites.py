"""Randomized property suites shared by test_properties and the
acceptance gate.  Each suite runs ``cases`` independent random instances
with a seeded generator and raises AssertionError on the first failure;
the return value is the number of cases executed.
"""

from __future__ import annotations

import math
import random

from pptlab.delta import delta, validate
from pptlab.ideals import (
    Echelon,
    ResIdeal,
    echelon_reduce,
    ideal_in_frobenius_power,
    u_image,
    u_single,
)
from pptlab.ladder import compute_ladder, splitting_sequence
from pptlab.ring import Context, LiftPoly, ResPoly, project_mod_p

SMALL_PRIMES = (2, 3)


def random_context(rng: random.Random, max_vars: int = 2) -> Context:
    p = rng.choice(SMALL_PRIMES)
    n = rng.randrange(1, max_vars + 1)
    return Context(p, [f"x{i}" for i in range(n)])


def random_int_terms(rng, n_vars, max_terms=4, max_exp=3, max_coeff=20) -> dict:
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        e = tuple(rng.randrange(max_exp + 1) for _ in range(n_vars))
        terms[e] = rng.randrange(-max_coeff, max_coeff + 1)
    return {e: c for e, c in terms.items() if c}


def random_lift(rng, ctx, **kw) -> LiftPoly:
    return LiftPoly(ctx, random_int_terms(rng, ctx.n_vars, **kw))


def random_res(rng, ctx, max_terms=4, max_exp=5) -> ResPoly:
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        e = tuple(rng.randrange(max_exp + 1) for _ in range(ctx.n_vars))
        terms[e] = rng.randrange(1, ctx.p)
    return ResPoly(ctx, terms)


def random_hypersurface(rng, ctx):
    """A validated random input: nonzero mod p, no constant term."""
    while True:
        terms = random_int_terms(rng, ctx.n_vars, max_terms=3, max_exp=3)
        terms.pop((0,) * ctx.n_vars, None)
        if not terms:
            continue
        f = LiftPoly(ctx, terms)
        if not project_mod_p(f).is_zero():
            return validate(ctx, f)


def suite_delta_product_rule(seed: int, cases: int) -> int:
    """delta(fg) = fbar^p delta(g) + gbar^p delta(f) over F_p."""
    rng = random.Random(seed)
    for _ in range(cases):
        ctx = random_context(rng)
        f = random_lift(rng, ctx)
        g = random_lift(rng, ctx)
        fbar, gbar = project_mod_p(f), project_mod_p(g)
        lhs = delta(f * g)
        rhs = (fbar ** ctx.p) * delta(g) + (gbar ** ctx.p) * delta(f)
        assert lhs == rhs, (str(f), str(g))
    return cases


def suite_delta_sum_rule(seed: int, cases: int) -> int:
    """delta(f+g) = delta(f) + delta(g) + sum_i C(p,i)/p fbar^i gbar^(p-i)."""
    rng = random.Random(seed)
    for _ in range(cases):
        ctx = random_context(rng)
        p = ctx.p
        f = random_lift(rng, ctx)
        g = random_lift(rng, ctx)
        fbar, gbar = project_mod_p(f), project_mod_p(g)
        correction = ResPoly.zero(ctx)
        for i in range(1, p):
            coefficient = math.comb(p, i) // p  # exact integer division
            correction = correction + ((fbar ** i) * (gbar ** (p - i))).scale(
                coefficient
            )
        lhs = delta(f + g)
        rhs = delta(f) + delta(g) + correction
        assert lhs == rhs, (str(f), str(g))
    return cases


def suite_u_semilinearity(seed: int, cases: int) -> int:
    """u(F_*(g^p h)) = g u(F_* h)."""
    rng = random.Random(seed)
    for _ in range(cases):
        ctx = random_context(rng)
        g = random_res(rng, ctx)
        h = random_res(rng, ctx)
        assert u_single((g ** ctx.p) * h) == g * u_single(h)
    return cases


def suite_fedder_duality(seed: int, cases: int) -> int:
    """u(F_* J) inside the maximal ideal iff J inside m^[p]."""
    rng = random.Random(seed)
    for _ in range(cases):
        ctx = random_context(rng)
        gens = [random_res(rng, ctx, max_terms=3) for _ in range(rng.randrange(1, 3))]
        ideal = ResIdeal(ctx, gens)
        image = u_image(ideal)
        in_max = all(g.constant_coefficient() == 0 for g in image.gens)
        assert in_max == ideal_in_frobenius_power(ideal, 1)
    return cases


def suite_echelon_span(seed: int, cases: int) -> int:
    """Reduction preserves the F_p-span in both directions."""
    rng = random.Random(seed)
    for _ in range(cases):
        ctx = random_context(rng)
        gens = [random_res(rng, ctx) for _ in range(rng.randrange(1, 5))]
        rows = echelon_reduce(ctx, gens)
        forward = Echelon(ctx)
        for row in rows:
            forward.insert(dict(row.terms))
        backward = Echelon(ctx)
        for g in gens:
            backward.insert(dict(g.terms))
        assert all(forward.spans(dict(g.terms)) for g in gens)
        assert all(backward.spans(dict(row.terms)) for row in rows)
    return cases


def suite_prefix_stability(seed: int, cases: int) -> int:
    """A deeper run reproduces the shallower run as a prefix."""
    rng = random.Random(seed)
    for _ in range(cases):
        ctx = random_context(rng)
        h = random_hypersurface(rng, ctx)
        d = rng.randrange(1, 3)
        d2 = d + rng.randrange(1, 3)
        short = splitting_sequence(h, d)
        long = splitting_sequence(h, d2)
        assert long.values[: d + 1] == short.values
    return cases


def suite_mod_p_squared_invariance(seed: int, cases: int) -> int:
    """Perturbing integer pre-images by p^2 changes nothing."""
    rng = random.Random(seed)
    for _ in range(cases):
        ctx = random_context(rng)
        p2 = ctx.p * ctx.p
        h = random_hypersurface(rng, ctx)
        base = {exps: c for exps, c in h.f_lift.items()}
        bump = random_int_terms(rng, ctx.n_vars, max_terms=3, max_exp=3)
        perturbed_terms: dict = dict(base)
        for e, c in bump.items():
            perturbed_terms[e] = perturbed_terms.get(e, 0) + p2 * c
        perturbed = validate(ctx, LiftPoly(ctx, perturbed_terms))
        assert perturbed.f_lift == h.f_lift
        assert perturbed.delta_f == h.delta_f
        depth = rng.randrange(1, 4)
        assert splitting_sequence(perturbed, depth).values == splitting_sequence(
            h, depth
        ).values
    return cases


def suite_downward_closure(seed: int, cases: int) -> int:
    """At every committed step the containment set is an interval [0, s_n],
    checked through the exact ladder: the same chain as the scan, without
    its caps or its early exit."""
    rng = random.Random(seed)
    for _ in range(cases):
        ctx = random_context(rng)
        p = ctx.p
        h = random_hypersurface(rng, ctx)
        depth = rng.randrange(1, 4)
        seq = splitting_sequence(h, depth)
        prefix: tuple[int, ...] = ()
        for n in range(1, depth + 1):
            expected_s = seq.values[n]
            contained = [
                s
                for s in range(p + 1)
                if ideal_in_frobenius_power(compute_ladder(h, prefix + (s,)), 1)
            ]
            top = min(expected_s, p)
            assert contained == list(range(top + 1)), (seq.values, prefix, contained)
            if expected_s == p:
                break
            prefix += (expected_s,)
    return cases
