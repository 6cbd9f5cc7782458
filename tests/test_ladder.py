import itertools
import random

import pytest

from pptlab import ideals, ladder
from pptlab.cli import main
from pptlab.delta import Hypersurface, validate
from pptlab.errors import (
    InputError,
    InvalidIndexError,
    MonotonicityViolationError,
    ResourceLimitError,
)
from pptlab.ideals import (
    Echelon,
    MonomialAntichain,
    ResIdeal,
    ideal_in_frobenius_power,
    principal_ideal,
)
from pptlab.ladder import (
    SplitSequence,
    _advance,
    _kills,
    _theta_0,
    _truncate,
    _Workspace,
    compute_ladder,
    next_s,
    splitting_sequence,
)
from pptlab.parser import parse_poly
from pptlab.ring import (
    EXPONENT_LIMIT,
    Context,
    LiftPoly,
    ResPoly,
    contract_terms,
    exponent_cap,
)

from oracles import capped_scan_sequence, random_int_poly, reduce_mod, truncated_contained


def hypersurface(p, names, expr):
    ctx = Context(p, names)
    return validate(ctx, parse_poly(expr, ctx))


def test_ladder_base_cases():
    h = hypersurface(2, ["x", "y"], "x^2 + y^2")
    assert compute_ladder(h, (2,)) == ResIdeal.unit(h.ctx)
    assert compute_ladder(h, (1,)) == principal_ideal(h.f_res)
    assert compute_ladder(h, (0,)) == principal_ideal(h.f_res ** 2)


def test_ladder_depth_two_hand_value():
    h = hypersurface(2, ["x", "y"], "x^2 + y^2")
    ctx = h.ctx
    want = ResIdeal(
        ctx,
        [
            ResPoly(ctx, {(2, 1): 1, (1, 2): 1}),  # xy(x+y)
            ResPoly(ctx, {(2, 0): 1, (0, 2): 1}),
        ],
    )
    assert compute_ladder(h, (1, 1)) == want


def test_ladder_rejects_bad_indices():
    h = hypersurface(2, ["x", "y"], "x^2 + y^2")
    with pytest.raises(InvalidIndexError):
        compute_ladder(h, ())
    with pytest.raises(InvalidIndexError):
        compute_ladder(h, (2, 1))  # only the last slot may reach p
    with pytest.raises(InvalidIndexError):
        compute_ladder(h, (1, 3))
    with pytest.raises(InvalidIndexError):
        compute_ladder(h, (-1,))


def test_next_s_examples():
    h = hypersurface(2, ["x", "y"], "x^2 + y^2")
    assert next_s(h, ()) == 1
    assert next_s(h, (1,)) == 1
    with pytest.raises(InvalidIndexError):
        next_s(h, (2,))
    # the prefix's own ladder ideal (fbar) is not inside (x_i^7)
    h = hypersurface(7, ["x1", "x2", "x3"], "x1^3 + x2^3 + x3^3")
    with pytest.raises(InvalidIndexError):
        next_s(h, (6,))


def test_next_s_floor_is_zero():
    # s = 0 always satisfies containment once the input is validated
    h = hypersurface(3, ["x", "y"], "x^3 + x^2*y + y^3")
    prefix = ()
    for _ in range(3):
        s = next_s(h, prefix)
        assert s >= 0
        if s == 3:
            break
        prefix += (s,)


def test_sequence_sum_of_squares():
    h = hypersurface(2, ["x", "y"], "x^2 + y^2")
    seq = splitting_sequence(h, 6)
    assert seq.values == (0, 1, 1, 1, 1, 1, 1)
    assert seq.terminated_at_p is None


def test_sequence_fermat_cubic():
    h = hypersurface(2, ["x", "y", "z"], "x^3 + y^3 + z^3")
    seq = splitting_sequence(h, 6)
    assert seq.values == (0, 1, 0, 1, 0, 1, 0)


def test_sequence_fermat_quintic_hits_p():
    h = hypersurface(
        2, ["x1", "x2", "x3", "x4", "x5"], "x1^5 + x2^5 + x3^5 + x4^5 + x5^5"
    )
    seq = splitting_sequence(h, 3)
    assert seq.values == (0, 1, 2, 2)
    assert seq.terminated_at_p == 2
    assert seq.computed_values() == (0, 1, 2)


def test_sequence_invariants_enforced():
    with pytest.raises(InputError):
        SplitSequence(p=2, depth=2, values=(1, 1, 1), terminated_at_p=None)
    with pytest.raises(InputError):
        SplitSequence(p=2, depth=2, values=(0, 2, 1), terminated_at_p=1)
    with pytest.raises(InputError):
        SplitSequence(p=2, depth=2, values=(0, 1), terminated_at_p=None)
    with pytest.raises(InputError):
        SplitSequence(p=2, depth=3, values=(0, 1, 2, 2), terminated_at_p=None)
    with pytest.raises(InputError):
        SplitSequence(p=2, depth=3, values=(0, 1, 1, 1), terminated_at_p=2)


@pytest.mark.parametrize(
    "p, names, expr, hits, message",
    [
        # p <= 5 evaluates every candidate and asserts the interval [0, s]
        (3, "x,y", "x^2 + y^2", {0, 2}, "is not the interval"),
        # larger p binary-searches and checks the floor s = 0
        (7, "x,y,z", "x^3 + y^3 + z^3", set(), "fails at s = 0"),
    ],
)
def test_scan_monotonicity_checks(monkeypatch, capsys, p, names, expr, hits, message):
    # a containment set that is not an interval [0, s] can only come from a
    # fault in the scan, which both checks report as an internal error; s_1
    # is 0 and the faulty set comes from the test against theta_1
    monkeypatch.delenv("PPTLAB_CACHE", raising=False)

    def faulty(ws, frontier, tail):
        return tail[-1] in hits if frontier.depth else tail[-1] == 0

    monkeypatch.setattr(ladder, "_new_part_contained", faulty)
    with pytest.raises(MonotonicityViolationError, match=message):
        splitting_sequence(hypersurface(p, names.split(","), expr), 2)
    assert main(["sequence", "--p", str(p), "--vars", names, "--f", expr, "--depth", "2"]) == 4
    assert message in capsys.readouterr().err


def test_sequence_rejects_bad_depth():
    h = hypersurface(2, ["x", "y"], "x^2 + y^2")
    with pytest.raises(InputError):
        splitting_sequence(h, 0)


def test_prefix_stability():
    h = hypersurface(2, ["x", "y", "z"], "x^3 + y^3 + z^3")
    short = splitting_sequence(h, 3)
    long = splitting_sequence(h, 6)
    assert long.values[: len(short.values)] == short.values


def test_trace_records_exact_ideals():
    h = hypersurface(2, ["x", "y"], "x^2 + y^2")
    seq = splitting_sequence(h, 3)
    for n in range(1, 4):
        assert ideal_in_frobenius_power(compute_ladder(h, seq.values[1 : n + 1]), 1)


def test_timings_recorded_per_depth():
    h = hypersurface(2, ["x", "y"], "x^2 + y^2")
    seq = splitting_sequence(h, 4)
    assert seq.per_depth_ms is not None and len(seq.per_depth_ms) == 4
    assert all(ms >= 0 for ms in seq.per_depth_ms)


def test_truncated_scan_agrees_with_exact_ladder():
    rng = random.Random(400)
    polys = [
        (2, ["x", "y"], "x^2 + y^2"),
        (2, ["x", "y"], "x^3 + x*y + y^3"),
        (3, ["x", "y"], "x^3 + y^3"),
        (3, ["x", "y"], "x^4 + x^2*y^2 + y^4"),
        (5, ["x", "y"], "x^5 + y^5"),
    ]
    for p, names, expr in polys:
        h = hypersurface(p, names, expr)
        ws = _Workspace(h)
        for n in (1, 2, 3):
            for entries in itertools.product(
                *([range(p)] * (n - 1) + [range(p + 1)])
            ):
                exact = ideal_in_frobenius_power(compute_ladder(h, entries), 1)
                assert truncated_contained(ws, entries) == exact, (p, expr, entries)


def test_sequence_of_fermat_quartic_p3():
    h = hypersurface(3, ["x1", "x2", "x3", "x4"], "x1^4 + x2^4 + x3^4 + x4^4")
    seq = splitting_sequence(h, 4)
    assert seq.values == (0, 2, 0, 2, 0)


def test_exact_ladder_fan_out_guard():
    # the u fan-out is counted over the echelon-reduced delta-products
    ctx = Context(3, ["x0"], max_generators=2)
    h = validate(ctx, parse_poly("x0^2 + 7*x0", ctx))
    with pytest.raises(ResourceLimitError):
        compute_ladder(h, (1, 0))
    ctx = Context(3, ["x0"], max_generators=8)
    h = validate(ctx, parse_poly("8*x0^3 + 8*x0", ctx))
    want = ResIdeal(
        ctx,
        [
            ResPoly(ctx, {(7,): 1, (3,): 2}),
            ResPoly(ctx, {(6,): 1, (2,): 2}),
            ResPoly(ctx, {(5,): 1, (3,): 1}),
            ResPoly(ctx, {(4,): 1, (2,): 1}),
        ],
    )
    assert compute_ladder(h, (1, 1, 2)) == want


def random_hypersurface(rng, p, n, **caps):
    while True:
        f = random_int_poly(rng, n, max_terms=4, max_exp=4, max_coeff=8)
        f.pop((0,) * n, None)
        if f and reduce_mod(f, p):
            ctx = Context(p, [f"x{i}" for i in range(n)], **caps)
            return validate(ctx, LiftPoly(ctx, f))


def test_live_box_is_sound():
    # brute force over [0, out)^N: a u-image monomial b outside the live
    # box U dies against every monomial of fbar^k, and each U_i is tight
    rng = random.Random(410)
    for _ in range(150):
        p = rng.choice([2, 3, 5])
        n = rng.randrange(1, 4)
        h = random_hypersurface(rng, p, n)
        k = p - rng.randrange(p) - 1
        out = tuple(rng.randrange(2 * p + 2) for _ in range(n))
        live = _Workspace(h).live_box(k, out)
        support = [h.ctx.decode_monomial(m) for m in h.f_res_power(k).terms]

        def dead(b):
            return all(any(bi + mi >= oi for bi, mi, oi in zip(b, m, out)) for m in support)

        for b in itertools.product(*(range(o) for o in out)):
            if any(bi >= ui for bi, ui in zip(b, live)):
                assert dead(b), (p, h.f_res, k, out, live, b)
        for i, ui in enumerate(live):
            if ui:
                assert not dead(tuple(ui - 1 if j == i else 0 for j in range(n)))


def test_capped_powers_match_truncated_full_powers():
    # the workspace builds delta^l and fbar^k from capped factors; that must
    # equal truncating the full power, for per-variable boxes, for boxes
    # with one field past 2^31 and for the uncapped (0, 0)
    rng = random.Random(412)
    for _ in range(150):
        p = rng.choice([2, 3, 5, 7])
        n = rng.randrange(1, 3 if p == 7 else 4)
        while True:
            f = random_int_poly(rng, n, max_terms=4, max_exp=3, max_coeff=8)
            f.pop((0,) * n, None)
            if f and reduce_mod(f, p):
                break
        ctx = Context(p, [f"x{i}" for i in range(n)])
        h = validate(ctx, LiftPoly(ctx, f))
        ws = _Workspace(h)
        boxes = [tuple(rng.randrange(p * p + 2) for _ in range(n)) for _ in range(2)]
        boxes.append((EXPONENT_LIMIT,) + tuple(rng.randrange(1, p * p) for _ in range(n - 1)))
        for cap in [exponent_cap(ctx, b) for b in boxes] + [(0, 0)]:
            for l in range(p):
                want = _truncate(h.delta_power(l).terms, *cap)
                assert ws.delta_terms(l, cap) == want, (p, h.f_lift, cap, l)
            for k in range(p + 1):
                want = _truncate(h.f_res_power(k).terms, *cap)
                assert ws.f_terms(k, cap) == want, (p, h.f_lift, cap, k)


def test_capped_scan_never_forms_full_powers(monkeypatch):
    # the p = 13 scan needs delta^7 only inside a small box; the full power
    # has degree 7 * 13 * 5 = 455
    for name in ("delta_power", "f_res_power"):
        full = getattr(Hypersurface, name)

        def guarded(self, k, full=full, name=name):
            if k >= 2:
                raise AssertionError(f"{name}({k}) formed in full")
            return full(self, k)

        monkeypatch.setattr(Hypersurface, name, guarded)
    h = hypersurface(
        13, ["x1", "x2"], "11*x1^4*x2 + 2*x2^4 + 2*x1^3*x2^2 + p*x1*x2"
    )
    assert splitting_sequence(h, 3).values == (0, 7, 13, 13)


def test_capped_chain_matches_exact_ladder_in_three_and_four_variables():
    # fbar^(p-l-1) with mixed low-degree terms makes the live boxes far
    # smaller than the uniform p^k here, unlike the N <= 2 reference tests;
    # the exact ladder's u fan-out needs more room than the default cap
    rng = random.Random(411)
    runs = ((2, 3, 5, 100), (3, 3, 4, 100), (5, 3, 3, 60), (2, 4, 5, 60), (3, 4, 4, 60), (5, 4, 3, 30))
    outcomes = set()
    for p, n, longest, cases in runs:
        for _ in range(cases):
            h = random_hypersurface(rng, p, n, max_generators=100_000)
            k = rng.randrange(2, longest + 1)
            entries = tuple(rng.randrange(p) for _ in range(k - 1))
            entries += (rng.randrange(p + 1),)
            exact = ideal_in_frobenius_power(compute_ladder(h, entries), 1)
            assert truncated_contained(_Workspace(h), entries) == exact, (
                p,
                h.f_lift,
                entries,
            )
            outcomes.add((p, n, exact))
    assert len(outcomes) == 2 * len(runs)


@pytest.mark.parametrize(
    "p, names, expr, values",
    [
        (2, "x1,x2,x3,x4", "x1^4 + x2^4 + x3^4 + x4^4 + x1*x2*x3*x4", (0,) * 7),
        (5, "x1,x2,x3,x4", "x1^4 + x2^4 + x3^4 + x4^4 + 5*x1*x2*x3*x4", (0,) * 6),
        (5, "x1,x2,x3,x4", "x1^4 + x2^4 + x3^4 + x4^4 + x1*x2*x3*x4", (0, 1, 1, 1)),
        (7, "x1,x2,x3,x4", "x1^4 + x2^4 + x3^4 + x4^4 + 7*x1*x2*x3*x4", (0, 2, 0, 2, 0)),
        (5, "x,y,z", "x^3 + y^3 + z^3 + x*y*z", (0, 1, 0, 1, 0, 1)),
    ],
)
def test_deformed_sequences_are_frozen(p, names, expr, values):
    # frozen from the scan with uniform p^k caps
    h = hypersurface(p, names.split(","), expr)
    assert splitting_sequence(h, len(values) - 1).values == values


def test_capped_u_stage_inserts_few_rows(monkeypatch):
    # the capped u stage keeps monomial rows as minimal monomials and
    # reduces the other rows by them before the echelon sees them; keeping
    # the whole F_p-span of every u-row took 54,781 inserts here
    inserts = []
    insert = Echelon.insert

    def counted(self, terms):
        inserts.append(len(terms))
        return insert(self, terms)

    monkeypatch.setattr(Echelon, "insert", counted)
    h = hypersurface(7, ["x1", "x2", "x3", "x4"], "x1^4 + x2^4 + x3^4 + x4^4")
    assert capped_scan_sequence(h, 4) == (0, 2, 0, 2, 0)
    assert 0 < len(inserts) < 5000


def test_capped_u_stage_monomials_count_against_the_cap():
    # the first u stage of this scan yields monomial rows only, so the cap
    # trips while the antichain, not the echelon, takes them
    ctx = Context(7, ["x1", "x2", "x3", "x4"], max_workspace_monomials=3)
    h = validate(ctx, parse_poly("x1^4 + x2^4 + x3^4 + x4^4", ctx))
    with pytest.raises(ResourceLimitError) as err:
        splitting_sequence(h, 3)
    assert "add" in [entry.name for entry in err.traceback]


def deformed_fermat(rng, p, n, d):
    # the Fermat polynomial of degree d plus one or two other degree-d terms,
    # with coefficients that are units, multiples of p, or both across terms
    f = {tuple(d if j == i else 0 for j in range(n)): 1 for i in range(n)}
    for _ in range(rng.randrange(1, 3)):
        e = [0] * n
        for _ in range(d):
            e[rng.randrange(n)] += 1
        if max(e) < d:
            f[tuple(e)] = rng.choice([1, 2, rng.randrange(1, p), p, p * rng.randrange(1, p)])
    ctx = Context(p, [f"x{i}" for i in range(n)], max_generators=100_000)
    return validate(ctx, LiftPoly(ctx, f))


def count_dropped_terms(monkeypatch):
    dropped = []
    reduce = MonomialAntichain.reduce

    def counted(self, terms):
        out = reduce(self, terms)
        dropped.append(len(terms) - len(out))
        return out

    monkeypatch.setattr(MonomialAntichain, "reduce", counted)
    return dropped


def test_capped_u_stage_reduction_matches_exact_ladder(monkeypatch):
    # deformed Fermat inputs give u-rows of both kinds: the Fermat part
    # gives monomials, the other terms rows with several terms, some of
    # which the monomials then divide; the exact ladder keeps every row
    dropped = count_dropped_terms(monkeypatch)
    rng = random.Random(7)
    runs = ((3, 3, 3, 4, 20), (3, 4, 4, 3, 12), (5, 3, 3, 2, 12), (5, 4, 3, 2, 6), (7, 3, 4, 2, 8))
    outcomes = set()
    for p, n, d, longest, cases in runs:
        for _ in range(cases):
            h = deformed_fermat(rng, p, n, d)
            k = rng.randrange(2, longest + 1)
            entries = tuple(rng.randrange(p) for _ in range(k - 1))
            entries += (rng.choice([0, rng.randrange(p + 1)]),)
            exact = ideal_in_frobenius_power(compute_ladder(h, entries), 1)
            assert truncated_contained(_Workspace(h), entries) == exact, (
                p,
                h.f_lift,
                entries,
            )
            outcomes.add((p, n, exact))
    assert len(outcomes) == 2 * len(runs)
    assert sum(dropped) > 0


def test_scanned_deformed_fermat_sequences_match_exact_ladder(monkeypatch):
    # the scan's own prefixes sit where containment changes, which is where
    # a u-row lost by the capped stage would change an entry: each s_k must
    # be contained after s_1..s_(k-1) in the exact ladder, and s_k + 1 not;
    # the theta_0 scan runs every stage, and carrying theta must agree
    dropped = count_dropped_terms(monkeypatch)
    rng = random.Random(5)
    runs = ((3, 3, 3, 5, 16), (3, 4, 4, 4, 8), (5, 3, 3, 4, 8), (5, 4, 3, 3, 4), (7, 3, 4, 3, 4))
    entries_seen = set()
    for p, n, d, depth, cases in runs:
        for _ in range(cases):
            h = deformed_fermat(rng, p, n, d)
            values = capped_scan_sequence(h, depth)
            assert splitting_sequence(h, depth).values == values, (p, h.f_lift)
            for k in range(1, depth + 1):
                prefix, s = values[1:k], values[k]
                assert ideal_in_frobenius_power(compute_ladder(h, prefix + (s,)), 1)
                if s == p:
                    break
                above = compute_ladder(h, prefix + (s + 1,))
                assert not ideal_in_frobenius_power(above, 1), (p, h.f_lift, values, k)
                entries_seen.add((p, s))
    assert {p for p, s in entries_seen if s} == {3, 5, 7}
    assert sum(dropped) > 0


def test_theta_drops_back_when_it_outgrows_the_base_box():
    # theta_3 has 733 terms against p^N = 169, so depths 4.. are the theta_0
    # scan; the exponents stay far below 2^31 and the step far below the cap
    h = hypersurface(13, ["x", "y"], "x + y^3")
    seq = splitting_sequence(h, 12)
    assert seq.values == (0,) * 13 == capped_scan_sequence(h, 12)
    assert seq.frontier_depth == 2


def test_theta_drops_back_when_a_step_outgrows_the_workspace_cap():
    # with the default cap theta keeps up to depth 3; with a cap of 10 the
    # first step's delta contractions exceed it, and the theta_0 scan still
    # fits under the same cap
    names = ["x1", "x2", "x3", "x4"]
    expr = "x1^4 + x2^4 + x3^4 + x4^4"
    assert splitting_sequence(hypersurface(7, names, expr), 3).frontier_depth == 2
    ctx = Context(7, names, max_workspace_monomials=10)
    seq = splitting_sequence(validate(ctx, parse_poly(expr, ctx)), 3)
    assert seq.values == (0, 2, 0, 2)
    assert seq.frontier_depth == 0


def test_theta_drops_back_before_an_exponent_reaches_2_31():
    # theta keeps at most 125 terms here, but F multiplies its box by p at
    # every depth: theta_13 would hold the exponent 5^14 - 1 > 2^31, past
    # what the contraction's guard bits read
    h = hypersurface(5, ["x0", "x1", "x2"], "13*x1^5*x2 + 9*x0^3*x1 + 21*x0*x1")
    seq = splitting_sequence(h, 16)
    assert seq.values == (0,) * 17 == capped_scan_sequence(h, 16)
    assert seq.frontier_depth == 12
    ws = _Workspace(h)
    front = _theta_0(h.ctx)
    for _ in range(12):
        front = _advance(ws, front, 0)
        assert len(front.theta) <= 125
    assert max(front.box) * 5 > EXPONENT_LIMIT
    assert _advance(ws, front, 0) is None


def test_theta_zero_makes_the_next_entry_p():
    # this input took about a minute on the capped scan alone, nearly all
    # of it in products by large delta^l; theta_2 = 0, so P_2 is the unit
    # ideal and s_3 = p
    h = hypersurface(
        7, ["x", "y", "z"], "27*x^4 + 38*y^4 + 20*z^4 + 31*x*y^2*z + 6*y^2*z + 7*x^2*y*z^3"
    )
    seq = splitting_sequence(h, 3)
    assert seq.values == (0, 2, 6, 7)
    assert seq.frontier_depth == 2
    ws = _Workspace(h)
    theta_1 = _advance(ws, _theta_0(h.ctx), 2)
    assert theta_1.theta
    assert _advance(ws, theta_1, 6).theta == {}


def test_memoized_scan_matches_memo_free_scan_after_a_drop_back():
    # after a drop-back every depth runs the theta_0 chain over the whole
    # tail and reads the suffix results that earlier depths and candidates
    # stored; each entry must equal the scan that runs every chain from a
    # fresh theta_0.  Half the random inputs carry a unit linear term, which
    # keeps the sequence below p while theta outgrows p^N.  Those tails are
    # constant; diagonal cubics at p = 11 are supersingular, so theirs
    # alternate 0, 1, and a workspace cap of 40 makes theta drop back at once
    rng = random.Random(28)
    draws = []
    for case in range(40):
        p = rng.choice((7, 11, 13))
        n = rng.randrange(1, 4)
        while True:
            f = random_int_poly(rng, n, max_terms=3, max_exp=3, max_coeff=p * p)
            f.pop((0,) * n, None)
            if case % 2:
                f[(1,) + (0,) * (n - 1)] = rng.randrange(1, p)
            if reduce_mod(f, p):
                break
        draws.append((Context(p, [f"x{i}" for i in range(n)]), f))
    for _ in range(2):
        f = {(3, 0, 0): rng.randrange(1, 11), (0, 3, 0): rng.randrange(1, 11), (0, 0, 3): 1}
        f[(1, 1, 1)] = 11 * rng.randrange(11)
        draws.append((Context(11, ["x0", "x1", "x2"], max_workspace_monomials=40), f))
    tails = []
    for ctx, f in draws:
        h = validate(ctx, LiftPoly(ctx, f))
        depth = rng.randrange(8, 13)
        seq = splitting_sequence(h, depth)
        assert seq.values == capped_scan_sequence(h, depth), (ctx.p, f, depth)
        tails.append(seq.computed_values()[seq.frontier_depth + 2 :])
    assert sum(len(tail) >= 6 for tail in tails) >= 8, tails
    assert sum(len(set(tail)) > 1 for tail in tails) >= 2, tails


def test_scan_work_grows_linearly_with_depth(monkeypatch):
    # theta drops back at depth 3 here; without the suffix memo every later
    # depth re-ran the whole tail for each candidate, 252 u-bucket splits at
    # depth 12 and 1,092 at depth 24
    calls = []
    split = ideals._u_buckets

    def counted(ctx, terms):
        calls.append(len(terms))
        return split(ctx, terms)

    # the scan's u step splits its products in ideals.root_generators
    monkeypatch.setattr(ideals, "_u_buckets", counted)
    h = hypersurface(13, ["x", "y"], "x + y^3")
    counts = {}
    for depth in (12, 24):
        calls.clear()
        assert splitting_sequence(h, depth).values == (0,) * (depth + 1)
        counts[depth] = len(calls)
    assert counts[12] <= 60, counts
    assert counts[24] < 2.5 * counts[12], counts


@pytest.mark.parametrize(
    "p, names, expr, depth",
    [
        (7, "x1,x2,x3,x4", "x1^4 + x2^4 + x3^4 + x4^4", 5),
        # theta drops back at depth 3: later entries are checked by the scan
        (13, "x,y", "x + y^3", 6),
    ],
)
def test_next_s_validates_each_entry_of_the_prefix(p, names, expr, depth):
    h = hypersurface(p, names.split(","), expr)
    values = splitting_sequence(h, depth).values
    for k in range(1, depth + 1):
        assert next_s(h, values[1:k]) == values[k]
        if values[k] < p - 1:
            with pytest.raises(InvalidIndexError):
                next_s(h, values[1:k] + (values[k] + 1,))


def test_kills_agrees_with_the_whole_contraction():
    # the leading-term shortcut may only ever answer "not 0"
    rng = random.Random(413)
    outcomes = set()
    for _ in range(400):
        p = rng.choice([2, 3, 5])
        n = rng.randrange(1, 4)
        ctx = Context(p, [f"x{i}" for i in range(n)])

        def terms(count):
            return {
                ctx.encode_monomial(tuple(rng.randrange(4) for _ in range(n))): rng.randrange(1, p)
                for _ in range(count)
            }

        g, theta = terms(rng.randrange(1, 5)), terms(rng.randrange(1, 6))
        zero = not contract_terms(g, theta, n, p)
        assert _kills(g, theta, ctx) == zero, (p, g, theta)
        low, top = ctx.decode_monomial(min(g)), ctx.decode_monomial(max(theta))
        shortcut = all(a <= b for a, b in zip(low, top))
        outcomes.add((zero, shortcut))
    assert outcomes == {(True, False), (False, False), (False, True)}
