"""Randomized invariants, 200+ cases per suite."""

import random

from pptlab.delta import validate
from pptlab.ideals import Echelon, ideal_in_frobenius_power, principal_ideal, u_image
from pptlab.ladder import (
    _advance,
    _theta_0,
    _theta_next,
    _Workspace,
    compute_ladder,
    next_s,
    splitting_sequence,
)
from pptlab.ring import Context, LiftPoly, ResPoly, frobenius_substitute, project_mod_p

import property_suites as ps
from oracles import (
    capped_chain,
    capped_scan_sequence,
    record_kept_steps,
    reduce_mod,
    truncated_contained,
)

CASES = 200


def test_delta_product_rule():
    assert ps.suite_delta_product_rule(11, CASES) == CASES


def test_delta_sum_rule():
    assert ps.suite_delta_sum_rule(12, CASES) == CASES


def test_u_semilinearity():
    assert ps.suite_u_semilinearity(13, CASES) == CASES


def test_fedder_duality():
    assert ps.suite_fedder_duality(14, CASES) == CASES


def test_echelon_span_preservation():
    assert ps.suite_echelon_span(15, CASES) == CASES


def test_prefix_stability():
    assert ps.suite_prefix_stability(16, CASES) == CASES


def test_mod_p_squared_invariance():
    assert ps.suite_mod_p_squared_invariance(17, CASES) == CASES


def test_downward_closure():
    assert ps.suite_downward_closure(18, CASES) == CASES


# -- further randomized invariants beyond the named suites --------------------


def test_ring_axioms():
    rng = random.Random(19)
    for _ in range(CASES):
        ctx = ps.random_context(rng, max_vars=3)
        a = ps.random_lift(rng, ctx)
        b = ps.random_lift(rng, ctx)
        c = ps.random_lift(rng, ctx)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_frobenius_is_a_ring_homomorphism():
    rng = random.Random(20)
    for _ in range(CASES):
        ctx = ps.random_context(rng, max_vars=3)
        a = ps.random_lift(rng, ctx)
        b = ps.random_lift(rng, ctx)
        assert frobenius_substitute(a * b) == frobenius_substitute(
            a
        ) * frobenius_substitute(b)
        assert frobenius_substitute(a + b) == frobenius_substitute(
            a
        ) + frobenius_substitute(b)


def test_frobenius_lift_law():
    # phi(a) = a^p mod p, exactly testable through the kernel
    rng = random.Random(21)
    for _ in range(CASES):
        ctx = ps.random_context(rng, max_vars=3)
        a = ps.random_lift(rng, ctx)
        assert project_mod_p(frobenius_substitute(a)) == project_mod_p(a) ** ctx.p


def test_u_image_inclusion_preserving_on_principal_divisors():
    # J = (g*h) inside K = (g): every generator of u(F_* J) lies in the
    # span of bounded-degree monomial multiples of u(F_* K)'s generators
    rng = random.Random(22)
    for _ in range(CASES):
        ctx = ps.random_context(rng)
        g = ps.random_res(rng, ctx, max_terms=3, max_exp=3)
        h = ps.random_res(rng, ctx, max_terms=3, max_exp=3)
        if g.is_zero() or h.is_zero():
            continue
        image_small = u_image(principal_ideal(g))
        image_big = u_image(principal_ideal(g * h))
        bound = (h.total_degree() + (ctx.p - 1) * ctx.n_vars) // ctx.p + 1
        ech = Echelon(ctx)
        for gen in image_small.gens:
            for exps in _monomials_up_to(ctx, bound):
                ech.insert(dict((ResPoly.monomial(ctx, exps) * gen).terms))
        for gen in image_big.gens:
            assert ech.spans(dict(gen.terms)), (str(g), str(h), str(gen))


def _monomials_up_to(ctx, degree):
    import itertools

    for exps in itertools.product(range(degree + 1), repeat=ctx.n_vars):
        if sum(exps) <= degree:
            yield exps


def test_truncated_scan_matches_exact_on_random_inputs():
    rng = random.Random(23)
    for _ in range(CASES):
        ctx = ps.random_context(rng)
        p = ctx.p
        h = ps.random_hypersurface(rng, ctx)
        n = rng.randrange(1, 4)
        entries = tuple(rng.randrange(p) for _ in range(n - 1)) + (
            rng.randrange(p + 1),
        )
        exact = ideal_in_frobenius_power(compute_ladder(h, entries), 1)
        assert truncated_contained(h, entries) == exact


def test_new_part_decides_containment_after_a_contained_prefix():
    # the scan tests only what the last slot adds: once the prefix's exact
    # ladder ideal lies in (x_i^p), that test must give the exact containment
    # of the whole ladder ideal, for every last slot, from the entry that
    # the chain of theta_k of the whole prefix reads when theta keeps up, as
    # well as from the capped chain over the whole index (depth 0)
    rng = random.Random(25)
    outcomes = set()
    depths = set()
    prefixes = 0
    while prefixes < CASES:
        p = rng.choice((2, 3, 5, 7))
        ctx = Context(p, [f"x{i}" for i in range(rng.randrange(1, 4))], max_generators=100_000)
        h = ps.random_hypersurface(rng, ctx)
        prefix = tuple(rng.randrange(p) for _ in range(rng.randrange(1, 3)))
        if not ideal_in_frobenius_power(compute_ladder(h, prefix), 1):
            continue
        prefixes += 1
        ws = _Workspace(h)
        theta = _theta_0(ctx)
        for l in prefix:
            theta = None if theta is None else _advance(ws, theta, l)
        found = None if theta is None else _theta_next(ws, theta)
        for s in range(p + 1):
            entries = prefix + (s,)
            exact = ideal_in_frobenius_power(compute_ladder(h, entries), 1)
            got = {0: capped_chain(h, entries)}
            if found:
                got[len(prefix)] = s <= found[0]
            for depth, contained in got.items():
                assert contained == exact, (p, h.f_lift, entries, depth)
            depths.update(got)
            outcomes.add((len(prefix), any(prefix), exact))
    assert len(outcomes) == 8
    assert depths == {0, 1, 2}


def test_sequence_matches_capped_scan_oracle(monkeypatch):
    # carrying theta must give the entries of the scan that reads each one
    # off the whole chain from theta_0; both paths must run, and the theta
    # path must reach past the first few depths
    rng = random.Random(26)
    kept = []
    steps = record_kept_steps(monkeypatch)
    for _ in range(400):
        p = rng.choice((2, 3, 5, 7))
        n = rng.randrange(1, 5)
        while True:
            # terms of degree 2..5, with unit or p-multiple coefficients
            f = {}
            for _ in range(rng.randrange(1, 5)):
                e = [0] * n
                for _ in range(rng.randrange(2, 6)):
                    e[rng.randrange(n)] += 1
                f[tuple(e)] = rng.choice([1, rng.randrange(1, 30), p * rng.randrange(1, p)])
            if reduce_mod(f, p):
                break
        ctx = Context(p, [f"x{i}" for i in range(n)])
        h = validate(ctx, LiftPoly(ctx, f))
        depth = rng.randrange(2, 9)
        steps.clear()
        seq = splitting_sequence(h, depth)
        kept.append((sum(steps), len(seq.computed_values()) - 2))
        assert seq.values == capped_scan_sequence(h, depth), (p, h.f_lift, depth)
    assert any(k < last for k, last in kept)
    assert max(k for k, _ in kept) == 7


def test_read_off_repeats_match_the_scan():
    # a carried theta_k that is a multiple of an earlier theta_j proves that
    # every later entry repeats the block s_(j+1)..s_k, and splitting_sequence
    # reads those entries off instead of scanning them.  next_s scans every
    # entry from theta_0, so chaining it must give the same values, and each
    # repeat, unrolled, must equal the sequence two blocks and two entries
    # further on
    rng = random.Random(1)
    repeats = []
    bounded = 0
    for _ in range(400):
        p = rng.choice((2, 3, 5, 7, 11, 13))
        ctx = Context(p, [f"x{i}" for i in range(rng.randrange(1, 4))])
        h = ps.random_hypersurface(rng, ctx)
        depth = rng.randrange(6, 9)
        seq = splitting_sequence(h, depth)
        prefix = ()
        while len(prefix) < depth and p not in prefix:
            prefix += (next_s(h, prefix),)
        assert seq.values == (0,) + prefix + (p,) * (depth - len(prefix)), (p, h.f_lift, depth)
        bounded += seq.terminated_at_p is None
        if seq.repeat is None:
            continue
        j, k = seq.repeat
        longer = splitting_sequence(h, k + 2 * (k - j) + 2).values
        block = seq.values[j + 1 : k + 1]
        unrolled = seq.values[: k + 1] + block * len(longer)
        assert longer == unrolled[: len(longer)], (p, h.f_lift, seq.repeat)
        repeats.append((j, k))
    assert bounded >= 100 and len(repeats) >= bounded // 2, (bounded, len(repeats))
    # blocks longer than one entry, and a repeat that starts after theta_0
    assert any(k - j > 1 for j, k in repeats) and any(j > 0 for j, _ in repeats), repeats


def test_f_pure_fibres_are_read_off_s_1():
    # s_1 = 0 proves every later entry 0 (Fedder; the ladder module
    # docstring), so splitting_sequence reads them off s_1 as the repeat
    # (0, 1).  next_s takes no read-off, so chaining it must give the values
    # of every input, and each F-pure fibre must also match the capped scan
    # at depth 5, two one-entry blocks and two entries past s_1.  Inputs
    # with s_1 = 1 and a later entry other than 1 catch a read-off at s_1 = 1
    rng = random.Random(27)
    depth = 5
    fibres = mixed = 0
    for _ in range(CASES):
        p = rng.choice((2, 3, 5, 7))
        ctx = Context(p, [f"x{i}" for i in range(rng.randrange(1, 4))])
        h = ps.random_hypersurface(rng, ctx)
        seq = splitting_sequence(h, depth)
        prefix = ()
        while len(prefix) < depth and p not in prefix:
            prefix += (next_s(h, prefix),)
        assert seq.values == (0,) + prefix + (p,) * (depth - len(prefix)), (p, h.f_lift)
        if seq.values[1] == 0:
            assert seq.repeat == (0, 1), (p, h.f_lift, seq.repeat)
            assert seq.values == (0,) * (depth + 1) == capped_scan_sequence(h, depth), (p, h.f_lift)
            fibres += 1
        mixed += seq.values[1] == 1 and set(seq.values[2:]) != {1}
    assert fibres >= CASES // 5 and mixed >= 10, (fibres, mixed)


def test_sequence_values_always_in_range():
    rng = random.Random(24)
    from pptlab.ladder import splitting_sequence

    for _ in range(100):
        ctx = ps.random_context(rng)
        h = ps.random_hypersurface(rng, ctx)
        seq = splitting_sequence(h, rng.randrange(1, 4))
        assert seq.values[0] == 0
        assert all(0 <= s <= ctx.p for s in seq.values)
