import itertools
import random

import pytest

from pptlab import ideals, ladder
from pptlab.cli import main
from pptlab.delta import Hypersurface, validate
from pptlab.errors import (
    ExponentOverflowError,
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
    _leading_bound,
    _new_part_contained,
    _scan_next,
    _theta_0,
    _theta_next,
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
    exponent_box,
    exponent_cap,
    mul_terms,
    truncate_terms,
)

from oracles import (
    capped_chain,
    capped_scan_sequence,
    random_int_poly,
    record_kept_steps,
    reduce_mod,
    truncated_contained,
)


def hypersurface(p, names, expr):
    ctx = Context(p, names)
    return validate(ctx, parse_poly(expr, ctx))


@pytest.fixture
def kept_steps(monkeypatch):
    """Whether each theta step kept theta (``record_kept_steps``)."""
    return record_kept_steps(monkeypatch)


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
    for values in ((0, 3, 1), (0, -1, 1)):
        with pytest.raises(InputError, match=r"^s_1 = -?\d outside 0\.\.2$"):
            SplitSequence(p=2, depth=2, values=values, terminated_at_p=None)


def test_sequence_repeat_must_be_followed():
    SplitSequence(p=5, depth=5, values=(0, 1, 0, 1, 0, 1), terminated_at_p=None, repeat=(0, 2))
    SplitSequence(p=5, depth=5, values=(0, 3, 1, 0, 1, 0), terminated_at_p=None, repeat=(1, 3))
    for values, repeat in (
        ((0, 1, 0, 1, 1, 1), (0, 2)),  # s_4 leaves the block
        ((0, 3, 1, 0, 1, 0), (0, 2)),  # s_3 = 0 is not s_1 = 3
        ((0, 1, 1, 1, 1, 1), (1, 1)),  # an empty block
        ((0, 1, 1, 1, 1, 1), (4, 6)),  # k past depth
    ):
        with pytest.raises(InputError, match="repeat"):
            SplitSequence(p=5, depth=5, values=values, terminated_at_p=None, repeat=repeat)


@pytest.mark.parametrize(
    "p, names, expr, hits, message",
    [
        # p <= 5 evaluates every candidate and asserts the interval [0, s]
        (3, "x,y", "x^2 + y^2", {0, 2}, "is not the interval"),
        # larger p probes the floor s = 0 first, then walks upward
        (7, "x,y,z", "x^3 + y^3 + z^3", set(), "fails at s = 0"),
        # the walk stops at the gap at 2 and reads 1: only the check of
        # the candidates above it sees 3
        (5, "x,y", "x^2 + y^2", {0, 1, 3}, "is not the interval"),
    ],
)
def test_scan_monotonicity_checks(monkeypatch, capsys, p, names, expr, hits, message):
    # a containment set that is not an interval [0, s] can only come from a
    # fault in the scan, which both checks report as an internal error.  The
    # scan runs once the run holds no theta: here theta's chain drops back
    # at depth 1, as an intermediate over the workspace cap makes it, so the
    # faulty set comes from the scan of s_1.  The drop-back is forced, as
    # no cap gives one on p = 3 x^2 + y^2, whose theta and psi all have a
    # single term
    monkeypatch.delenv("PPTLAB_CACHE", raising=False)

    def faulty(ws, s):
        return s in hits

    monkeypatch.setattr(ladder, "_new_part_contained", faulty)
    monkeypatch.setattr(ladder, "_theta_next", lambda ws, theta: None)
    with pytest.raises(MonotonicityViolationError, match=message):
        splitting_sequence(hypersurface(p, names.split(","), expr), 2)
    assert main(["sequence", "--p", str(p), "--vars", names, "--f", expr, "--depth", "2"]) == 4
    assert message in capsys.readouterr().err


def test_theta_chain_fails_at_s_0(monkeypatch, capsys):
    # psi_p = fbar^p ⌟ theta != 0 leaves no candidate contained, not even
    # s = 0, which only a fault can do.  On y^(30,30,30) the leading-term
    # bound shows it without a contraction (7 * z^3 divides it); on
    # y^(20,20,0) + y^(0,0,30) the bound is 0 and the chain forms psi_7 =
    # y^(0,0,9), as fbar^7 = x^21 + y^21 + z^21 in characteristic 7
    monkeypatch.delenv("PPTLAB_CACHE", raising=False)
    h = hypersurface(7, ["x", "y", "z"], "x^3 + y^3 + z^3")
    ctx = h.ctx
    contractions = []
    contract = ladder._contract

    def counted(*args):
        contractions.append(1)
        return contract(*args)

    monkeypatch.setattr(ladder, "_contract", counted)
    for exps, formed in (([(30, 30, 30)], 0), ([(20, 20, 0), (0, 0, 30)], 7)):
        contractions.clear()
        theta = {ctx.encode_monomial(e): 1 for e in exps}
        with pytest.raises(MonotonicityViolationError, match="fails at s = 0"):
            _theta_next(_Workspace(h), theta)
        assert len(contractions) == formed, (exps, contractions)
    monkeypatch.setattr(ladder, "_theta_0", lambda ctx: theta)
    assert main(["sequence", "--p", "7", "--vars", "x,y,z", "--f", "x^3 + y^3 + z^3", "--depth", "2"]) == 4
    assert "fails at s = 0" in capsys.readouterr().err


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
        for n in (1, 2, 3):
            for entries in itertools.product(
                *([range(p)] * (n - 1) + [range(p + 1)])
            ):
                exact = ideal_in_frobenius_power(compute_ladder(h, entries), 1)
                assert truncated_contained(h, entries) == exact, (p, expr, entries)


def test_sequence_of_fermat_quartic_p3():
    h = hypersurface(3, ["x1", "x2", "x3", "x4"], "x1^4 + x2^4 + x3^4 + x4^4")
    seq = splitting_sequence(h, 4)
    assert seq.values == (0, 2, 0, 2, 0)


def test_exact_ladder_fan_out_guard():
    # the u fan-out is counted over the distinct buckets of the
    # echelon-reduced delta-products: here one product with three
    ctx = Context(3, ["x0"], max_generators=2)
    h = validate(ctx, parse_poly("x0^4 + x0^2 + 3*x0", ctx))
    with pytest.raises(ResourceLimitError, match="3 generators exceed the cap 2"):
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


def test_exact_ladder_forms_each_power_once(monkeypatch):
    # (2, 0, 2, 0) at p = 3 reads fbar^3, then delta^2, fbar^0 and fbar^1
    # for each slot 2 and fbar^2 and fbar^3 for the slot 0: nine reads of
    # five distinct powers
    calls = []
    for name in ("delta_power", "f_res_power"):
        real = getattr(Hypersurface, name)

        def counted(self, k, name=name, real=real):
            calls.append((name, k))
            return real(self, k)

        monkeypatch.setattr(Hypersurface, name, counted)
    h = hypersurface(3, ["x", "y"], "x^2 + y^2")
    compute_ladder(h, (2, 0, 2, 0))
    assert sorted(calls) == [
        ("delta_power", 2),
        ("f_res_power", 0),
        ("f_res_power", 1),
        ("f_res_power", 2),
        ("f_res_power", 3),
    ], calls


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


def test_clamped_live_box_matches_its_definition():
    # the workspace takes U(out) as out - the per-variable minimum of the
    # capped power's exponents, or zeros; every box, below, straddling or
    # past the reach R of fbar^k, must give the decode-and-max definition
    # U_i = max(out_i - m_i) over the monomials m < out of the full power,
    # and zeros when there is none
    rng = random.Random(414)
    kinds = set()
    for _ in range(120):
        p = rng.choice([2, 3, 5, 7])
        n = rng.randrange(1, 4)
        h = random_hypersurface(rng, p, n)
        ws = _Workspace(h)
        degrees = [b - 1 for b in exponent_box(h.f_res.terms, n)]
        for k in range(p):
            support = [h.ctx.decode_monomial(m) for m in h.f_res_power(k).terms]
            reach = [k * d + 1 for d in degrees]
            boxes = [
                tuple(rng.randrange(1, r + 1) for r in reach),
                tuple(r + rng.randrange(-1, 2) * rng.randrange(r) for r in reach),
                tuple(r + rng.randrange(3 * p) for r in reach),
                tuple(r + rng.randrange(3 * p) for r in reach),
                (1,) * n,
            ]
            for out in boxes:
                below = [m for m in support if all(mi < oi for mi, oi in zip(m, out))]
                want = tuple(max((o - m[i] for m in below), default=0) for i, o in enumerate(out))
                assert ws.live_box(k, out) == want, (p, h.f_res, k, out)
                past = [o >= r for o, r in zip(out, reach)]
                kind = "past" if all(past) else "straddles" if any(past) else "below"
                kinds.add(kind if below else "none")
    assert kinds == {"none", "below", "straddles", "past"}, kinds


def test_stage_memo_is_keyed_by_the_clamped_box():
    # one stage with the same generators, k and l under a box that
    # truncates its products and under two boxes past their reach R =
    # box(G) + k * d_f + l * d_delta: each result must be the root
    # generators of its own capped products, which a memo key without the
    # clamped box would not give, and the boxes past R share one entry
    rng = random.Random(415)
    truncated = 0
    for _ in range(80):
        p = rng.choice([2, 3, 5])
        n = rng.randrange(1, 4)
        h = random_hypersurface(rng, p, n)
        ctx = h.ctx
        k, l = rng.randrange(p + 1), rng.randrange(p)
        w = mul_terms(h.f_res_power(k).terms, h.delta_power(l).terms, p)
        if not w:
            continue
        gens = [
            {
                ctx.encode_monomial(tuple(rng.randrange(3) for _ in range(n))): rng.randrange(1, p)
                for _ in range(rng.randrange(1, 4))
            }
            for _ in range(rng.randrange(1, 3))
        ]
        ideal = ladder._gens(ctx, gens)
        f_deg = [b - 1 for b in exponent_box(h.f_res.terms, n)]
        d_deg = [p * (b - 1) for b in exponent_box(h.f_lift.terms, n)]
        reach = tuple(g + k * f + l * d for g, f, d in zip(ideal.box, f_deg, d_deg))
        top = [g + b - 1 for g, b in zip(ideal.box, exponent_box(w, n))]
        low = tuple(rng.randrange(1, t + 1) for t in top)
        ws = _Workspace(h)
        results = []
        for box in (low, tuple(r + rng.randrange(4) for r in reach), tuple(p**9 * r for r in reach)):
            got = ladder._stage(ws, ideal, k, l, box)
            cap = exponent_cap(ctx, box)
            want = canonical(ideals.root_generators(ctx, [mul_terms(g, w, p, *cap) for g in gens]))
            assert canonical(got.gens) == want, (p, h.f_lift, gens, k, l, box)
            results.append(want)
        assert len(ws.stages) == len({low, reach}), (low, reach)
        truncated += results[0] != results[1]
    assert truncated >= 10, truncated


def canonical(gens):
    return sorted(tuple(sorted(g.items())) for g in gens)


def test_capped_powers_match_truncated_full_powers():
    # the workspace clamps a box to the power's reach R_i = k * d_i + 1,
    # serves boxes >= R from the full power and builds the others from
    # capped factors; every way must equal truncating the full power, for
    # boxes inside, at and past the reach in each variable, the all-zero
    # box, delta boxes at l * p * deg f_lift, boxes with one field past
    # 2^31 and random boxes
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
        f_deg = [b - 1 for b in exponent_box(h.f_res.terms, n)]
        d_deg = [p * (b - 1) for b in exponent_box(h.f_lift.terms, n)]
        shared = [tuple(rng.randrange(p * p + 2) for _ in range(n)) for _ in range(2)]
        shared.append((EXPONENT_LIMIT,) + tuple(rng.randrange(1, p * p) for _ in range(n - 1)))
        shared.append((0,) * n)
        powers = (
            ("d", h.delta_power, p - 1, d_deg),
            ("f", h.f_res_power, p, f_deg),
        )
        for kind, full, top, degrees in powers:
            for k in range(top + 1):
                reach = [k * d + 1 for d in degrees]
                boxes = shared + [
                    tuple(r + shift for r in reach) for shift in (-1, 0, 1)
                ] + [
                    tuple(r + rng.choice((-1, 0, 1)) for r in reach) for _ in range(3)
                ]
                rng.shuffle(boxes)
                terms = full(k).terms
                for box in boxes:
                    want = _truncate(terms, *exponent_cap(ctx, box))
                    assert ws.power(kind, k, box) == want, (p, h.f_lift, box, k)


def test_halved_and_frobenius_powers_match_poly_powers():
    # capped powers are g^(k//2) * g^(k - k//2), and g^p is the Frobenius
    # image of g capped to ceil(B/p); each must equal truncating the Poly
    # power, at p = 13 too, at a box that truncates in every variable, one
    # past the reach in its first variable, and (p, ..., p).  Binomials keep
    # delta^12 at p = 13 to 157 monomials
    rng = random.Random(30)
    frobenius = 0
    for p in (2, 3, 5, 7, 13):
        for _ in range(8):
            n = rng.randrange(1, 4)
            while True:
                f = random_int_poly(rng, n, max_terms=2 if p == 13 else 3, max_exp=2, max_coeff=p * p)
                f.pop((0,) * n, None)
                if f and reduce_mod(f, p):
                    break
            ctx = Context(p, [f"x{i}" for i in range(n)])
            h = validate(ctx, LiftPoly(ctx, f))
            ws = _Workspace(h)
            f_deg = [b - 1 for b in exponent_box(h.f_res.terms, n)]
            d_deg = [p * (b - 1) for b in exponent_box(h.f_lift.terms, n)]
            for kind, full, top, degrees in (
                ("f", h.f_res_power, p, f_deg),
                ("d", h.delta_power, p - 1, d_deg),
            ):
                for k in rng.sample(range(top + 1), top + 1):
                    reach = [k * d + 1 for d in degrees]
                    inside = tuple(rng.randrange(1, r) if r > 1 else 1 for r in reach)
                    past = (reach[0] + rng.randrange(1, 2 * p),) + inside[1:]
                    terms = full(k).terms
                    for box in (inside, past, (p,) * n):
                        want = truncate_terms(terms, *exponent_cap(ctx, box))
                        assert ws.power(kind, k, box) == want, (p, h.f_lift, k, box)
                        frobenius += k == p and tuple(map(min, box, reach)) != tuple(reach) and bool(want)
    assert frobenius >= 10, frobenius


def test_full_powers_match_poly_powers():
    # the workspace's power at its reach is the full power, a term dict
    # formed by halving k or, at k = p, as the Frobenius image of g; each
    # must equal the Poly power, in any order of k, and delta = 0 (f = x, at
    # every p) must give {0: 1} then {}
    rng = random.Random(27)
    inputs = [(p, 1, {(1,): 1}) for p in (2, 3, 5, 7)]
    while len(inputs) < 60:
        p = rng.choice([2, 3, 5, 7])
        n = rng.randrange(1, 5 if p < 7 else 4)
        f = random_int_poly(rng, n, max_terms=3, max_exp=2, max_coeff=p * p)
        f.pop((0,) * n, None)
        if reduce_mod(f, p):
            inputs.append((p, n, f))
    zero_delta = 0
    for p, n, f in inputs:
        ctx = Context(p, [f"x{i}" for i in range(n)])
        h = validate(ctx, LiftPoly(ctx, f))
        zero_delta += h.delta_f.is_zero()
        ws = _Workspace(h)
        order = [(kind, k) for kind in "fd" for k in range(p + 1)]
        rng.shuffle(order)
        for kind, k in order:
            g = h.f_res if kind == "f" else h.delta_f
            assert ws.power(kind, k, ws._reach(kind, k)) == (g**k).terms, (p, f, kind, k)
    assert zero_delta >= 4, zero_delta


def test_full_power_keeps_exponents_below_2_31():
    # deg_x(g^k) = k * deg_x(g) exactly, so fbar = x^(2^30) has no square
    # inside a packed monomial, and x^(2^30 - 1) has one, formed at the
    # reach of fbar^2.  f^p overflows delta's own numerator, so the inputs
    # are built with delta = 0
    ctx = Context(2, ["x", "y"])
    for e, overflows in ((EXPONENT_LIMIT // 2, True), (EXPONENT_LIMIT // 2 - 1, False)):
        f = LiftPoly.monomial(ctx, (e, 0))
        h = Hypersurface(ctx, f, ResPoly.monomial(ctx, (e, 0)), ResPoly.zero(ctx))
        ws = _Workspace(h)
        reach = ws._reach("f", 2)
        if overflows:
            with pytest.raises(ExponentOverflowError, match=r"^exponents of x reach 2147483648 >= 2\*\*31$"):
                ws.power("f", 2, reach)
        else:
            assert ws.power("f", 2, reach) == {ctx.encode_monomial((2 * e, 0)): 1}
    # delta's test reads delta's own terms, not the bound p * deg f_lift
    # that sets its reach (2^30 in y here): delta = y^(2^30) has no square,
    # and y^(2^29), below the bound, has one
    top = EXPONENT_LIMIT // 4
    for e, overflows in ((EXPONENT_LIMIT // 2, True), (top, False)):
        f = LiftPoly.monomial(ctx, (0, top))
        h = Hypersurface(ctx, f, ResPoly.monomial(ctx, (0, top)), ResPoly.monomial(ctx, (0, e)))
        ws = _Workspace(h)
        reach = ws._reach("d", 2)
        if overflows:
            with pytest.raises(ExponentOverflowError, match=r"^exponents of y reach 2147483648 >= 2\*\*31$"):
                ws.power("d", 2, reach)
        else:
            assert ws.power("d", 2, reach) == {ctx.encode_monomial((0, 2 * e)): 1}


def test_capped_scan_never_forms_full_powers(monkeypatch):
    # the p = 13 scan needs delta^7 only inside a small box; the full power
    # has degree 7 * 13 * 5 = 455.  A power g^k with k >= 2 is formed at its
    # reach k * d_i + 1 (d_i = deg_(x_i) fbar, and p * deg_(x_i) f_lift for
    # delta), that is in full, only for a box at or past that reach in every
    # variable, which cannot truncate it; the scan here does share such
    # powers.  The workspace forms each full power from the ones below,
    # reads delta and fbar as terms and calls no Hypersurface power at all
    p = 13
    h = hypersurface(p, ["x1", "x2"], "11*x1^4*x2 + 2*x2^4 + 2*x1^3*x2^2 + p*x1*x2")
    degrees = {
        "d": [p * (b - 1) for b in exponent_box(h.f_lift.terms, 2)],
        "f": [b - 1 for b in exponent_box(h.f_res.terms, 2)],
    }
    boxes = []  # the boxes of the workspace powers being built, innermost last
    power = _Workspace.power
    shared = []

    def tracked(self, kind, k, box):
        reach = tuple(k * d + 1 for d in degrees[kind])
        if k >= 2 and box == reach:
            asked = boxes[-1] if boxes else box
            if any(b < r for b, r in zip(asked, reach)):
                raise AssertionError(f"{kind}^{k} formed in full for the box {asked}")
            shared.append((kind, k))
        boxes.append(box)
        try:
            return power(self, kind, k, box)
        finally:
            boxes.pop()

    read = []
    for name in ("delta_power", "f_res_power"):
        real = getattr(Hypersurface, name)

        def counted(self, k, real=real, name=name):
            read.append((name, k))
            return real(self, k)

        monkeypatch.setattr(Hypersurface, name, counted)
    monkeypatch.setattr(_Workspace, "power", tracked)
    assert splitting_sequence(h, 3).values == (0, 7, 13, 13)
    assert shared
    assert read == [], read


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
            assert truncated_contained(h, entries) == exact, (
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
    # reduces the other rows by them before the echelon sees them
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
    # theta drops back after s_1 = 2 under this cap.  The chain for the
    # candidate (2, 7) has a first u stage of monomial rows only, so the cap
    # trips while the antichain, not the echelon, takes them.  The scan
    # probes s_2 upward from 0, and (2, 0) fits under the cap, so the run's
    # own error comes from a later stage with rows of several terms
    ctx = Context(7, ["x1", "x2", "x3", "x4"], max_workspace_monomials=3)
    h = validate(ctx, parse_poly("x1^4 + x2^4 + x3^4 + x4^4", ctx))
    with pytest.raises(ResourceLimitError) as err:
        capped_chain(h, (2, 7))
    assert "add" in [entry.name for entry in err.traceback]
    with pytest.raises(ResourceLimitError):
        splitting_sequence(h, 3)


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
            assert truncated_contained(h, entries) == exact, (
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


def test_theta_drops_back_when_it_outgrows_the_base_box(kept_steps):
    # theta doubles its terms at each step from theta_1: theta_4 has 8, and
    # theta_5 would have 16 against p^N = 9, so depths 6.. are the theta_0
    # scan; the exponents stay far below 2^31 and the step far below the cap
    h = hypersurface(3, ["x0", "x1"], "5*x0^2*x1^3 + 5*x0^2 + 6*x1")
    seq = splitting_sequence(h, 12)
    assert seq.values == (0,) + (1,) * 12 == capped_scan_sequence(h, 12)
    assert sum(kept_steps) == 4


def test_theta_drops_back_when_a_step_outgrows_the_workspace_cap(monkeypatch, kept_steps):
    # with the default cap theta keeps up to depth 3; with a cap of 10 the
    # first step's delta contractions exceed it, and with a cap of 5 the
    # first chain's psi_2 = fbar^2 ⌟ theta_0, of 6 terms, already does, so
    # the scan reads s_1 too.  The theta_0 scan still fits under both caps
    names = ["x1", "x2", "x3", "x4"]
    expr = "x1^4 + x2^4 + x3^4 + x4^4"
    splitting_sequence(hypersurface(7, names, expr), 3)
    assert sum(kept_steps) == 2
    theta_next = ladder._theta_next
    chains = []

    def recorded(*args):
        chains.append(theta_next(*args))
        return chains[-1]

    monkeypatch.setattr(ladder, "_theta_next", recorded)
    for cap, found in ((10, (2, 1)), (5, None)):
        chains.clear()
        kept_steps.clear()
        ctx = Context(7, names, max_workspace_monomials=cap)
        seq = splitting_sequence(validate(ctx, parse_poly(expr, ctx)), 3)
        assert seq.values == (0, 2, 0, 2)
        assert sum(kept_steps) == 0
        assert [c and (c[0], len(c[1])) for c in chains] == [found], chains


def test_theta_drops_back_before_an_exponent_reaches_2_31(monkeypatch, kept_steps):
    # theta is one term at every depth of these runs, but F multiplies its
    # box by p at every step.  On x0^2*x1 + 5*x2 the step to theta_13 would
    # give its first contraction the box 3,051,757,825 > 2^31 after F, and
    # on 94*x0^3 + 110*x1 the step to theta_9 would, past what the
    # contraction's guard bits read
    steps = []
    advance = ladder._advance

    def recorded(ws, theta, *args):
        steps.append((theta, advance(ws, theta, *args)))
        return steps[-1][1]

    monkeypatch.setattr(ladder, "_advance", recorded)
    for p, names, expr, depth, values, kept in (
        (5, "x0,x1,x2", "x0^2*x1 + 5*x2", 16, (0,) + (2,) * 16, 12),
        (11, "x0,x1", "94*x0^3 + 110*x1", 12, (0,) + (7, 3) * 6, 8),
    ):
        steps.clear()
        kept_steps.clear()
        h = hypersurface(p, names.split(","), expr)
        seq = splitting_sequence(h, depth)
        assert seq.values == values == capped_scan_sequence(h, depth)
        assert sum(kept_steps) == kept
        assert [len(got) for _, got in steps[:-1]] == [1] * kept
        last = steps[-1][0]
        assert steps[-1][1] is None and max(exponent_box(last, h.ctx.n_vars)) * p > EXPONENT_LIMIT
    # theta keeps at most 125 terms here, and theta_13 would hold the
    # exponent 5^14 - 1 > 2^31.  Its s_1 is 0, so splitting_sequence reads
    # every entry off s_1; next_s takes every step
    h = hypersurface(5, ["x0", "x1", "x2"], "13*x1^5*x2 + 9*x0^3*x1 + 21*x0*x1")
    steps.clear()
    assert next_s(h, (0,) * 15) == 0
    assert len(steps) == 13 and steps[-1][1] is None and all(got for _, got in steps[:-1])
    ws = _Workspace(h)
    theta = _theta_0(h.ctx)
    for _ in range(12):
        theta = _advance(ws, theta, 0)
        assert len(theta) <= 125
    assert max(exponent_box(theta, 3)) * 5 > EXPONENT_LIMIT
    assert _advance(ws, theta, 0) is None


def test_theta_zero_makes_the_next_entry_p(kept_steps):
    # theta_2 = 0, so P_2 is the unit ideal and s_3 = p, read off theta:
    # both steps keep it, so no depth runs the capped scan
    h = hypersurface(
        7, ["x", "y", "z"], "27*x^4 + 38*y^4 + 20*z^4 + 31*x*y^2*z + 6*y^2*z + 7*x^2*y*z^3"
    )
    seq = splitting_sequence(h, 3)
    assert seq.values == (0, 2, 6, 7)
    assert sum(kept_steps) == 2
    ws = _Workspace(h)
    theta_1 = _advance(ws, _theta_0(h.ctx), 2)
    assert theta_1
    assert _advance(ws, theta_1, 6) == {}


def test_memoized_scan_matches_memo_free_scan_after_a_drop_back(kept_steps):
    # after a drop-back every depth runs the theta_0 chain over the whole
    # tail and reads the suffix results that earlier depths and candidates
    # stored; each entry must equal the scan that runs every chain in a
    # fresh workspace.  Half the random inputs carry p times a unit as their
    # constant term, which makes delta a unit and keeps the sequence below p
    # while theta outgrows p^N or 2^31 (a unit linear term would make s_1
    # 0, and every entry is then read off s_1).  Diagonal cubics at p = 11
    # are supersingular, so their tails alternate 0, 1, and a workspace cap
    # of 40 makes theta drop back at once
    rng = random.Random(28)
    draws = []
    for case in range(40):
        p = rng.choice((7, 11, 13))
        n = rng.randrange(1, 4)
        while True:
            f = random_int_poly(rng, n, max_terms=3, max_exp=3, max_coeff=p * p)
            f.pop((0,) * n, None)
            if case % 2:
                f[(0,) * n] = p * rng.randrange(1, p)
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
        kept_steps.clear()
        seq = splitting_sequence(h, depth)
        kept = sum(kept_steps)
        assert seq.values == capped_scan_sequence(h, depth), (ctx.p, f, depth)
        tails.append(seq.computed_values()[kept + 2 :])
    assert sum(len(tail) >= 6 for tail in tails) >= 8, tails
    assert sum(len(set(tail)) > 1 for tail in tails) >= 2, tails


# inputs with s_1 != 0 whose theta drops back on its size, at depth 5, 8
# and 8, with their values up to depth 24
DROP_BACK_CASES = [
    (3, "x0,x1", "5*x0^2*x1^3 + 5*x0^2 + 6*x1", (0,) + (1,) * 24),
    (5, "x0,x1,x2", "x0^4*x1^2*x2^4 + 16*x0^4*x1 + 5*x2", (0,) + (3,) * 24),
    (2, "x0,x1,x2", "3*x0^2*x1^2*x2^4 + x0*x1^4*x2^3 + 2*x0*x2 + 2*x1", (0, 1, 1, 0, 1) + (0,) * 20),
]


def test_scan_stage_work_is_the_same_at_depth_12_and_24(monkeypatch):
    # theta drops back early here, so every later depth runs the theta_0
    # chain over the whole tail.  Each stage is memoized under its box
    # clamped to the reach of its products, and the live boxes grow p-fold
    # per level, so the top stages of every chain are past that reach and
    # the same at every depth: depth 24 forms no product and runs no u step
    # that depth 12 does not
    counts = {"_mul_terms": 0, "root_generators": 0}

    def count(name):
        real = getattr(ladder, name)

        def counted(*args):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(ladder, name, counted)

    for name in counts:
        count(name)
    for p, names, expr, values in DROP_BACK_CASES:
        h = hypersurface(p, names.split(","), expr)
        work = {}
        for depth in (12, 24):
            counts.update(_mul_terms=0, root_generators=0)
            assert splitting_sequence(h, depth).values == values[: depth + 1]
            work[depth] = dict(counts)
        assert work[24] == work[12] and work[12]["root_generators"], (p, work)


def test_scan_builds_each_depths_boxes_once(monkeypatch):
    # the box chain of a committed tail extends its parent's by one live
    # box, so each depth after the first costs one live_box call.  theta
    # drops back here after depth 5
    calls = []
    live_box = _Workspace.live_box

    def counted(self, k, out):
        calls.append(k)
        return live_box(self, k, out)

    monkeypatch.setattr(_Workspace, "live_box", counted)
    h = hypersurface(3, ["x0", "x1"], "5*x0^2*x1^3 + 5*x0^2 + 6*x1")
    for depth in (12, 24):
        calls.clear()
        assert splitting_sequence(h, depth).values == (0,) + (1,) * depth
        assert len(calls) == depth - 1, (depth, calls)


def test_scan_memo_grows_linearly_with_depth(monkeypatch):
    # the outcome memo keys a level by its index j, as prefix[:j] is fixed
    # for the run, and the workspace keeps one box per committed entry
    spaces = []
    new_part = ladder._new_part_contained

    def recorded(ws, s):
        spaces.append(ws)
        return new_part(ws, s)

    monkeypatch.setattr(ladder, "_new_part_contained", recorded)
    h = hypersurface(3, ["x0", "x1"], "5*x0^2*x1^3 + 5*x0^2 + 6*x1")
    for depth, size in ((12, 18), (24, 42), (48, 90)):
        spaces.clear()
        assert splitting_sequence(h, depth).values == (0,) + (1,) * depth
        ws = spaces[-1]
        assert all(isinstance(part, int) for key in ws.memo for part in key[:2]), depth
        assert len(ws.boxes) <= depth + 1, (depth, len(ws.boxes))
        assert len(ws.memo) == size, (depth, len(ws.memo))


def test_scan_probes_candidates_upward_from_zero(monkeypatch, kept_steps):
    # once the run holds no theta, the scan probes s = 0, 1, 2, ... up to
    # the first candidate that is not contained, so an entry s takes s + 2
    # probes.  Here theta drops back after depth 9, on 2^31, so
    # no repeat is keyed and every later depth is scanned, 3, 7, 3, ...
    probes = []
    new_part = ladder._new_part_contained

    def counted(ws, s):
        probes.append(s)
        return new_part(ws, s)

    def walk(h, prefix):
        ws = _Workspace(h)
        got = []
        for l in prefix:
            got.append(_scan_next(ws))
            ws.commit(l)
        return got + [_scan_next(ws)]

    monkeypatch.setattr(ladder, "_new_part_contained", counted)
    h = hypersurface(11, ["x0", "x1"], "94*x0^3 + 110*x1")
    for depth, count in ((12, 19), (24, 103)):
        probes.clear()
        kept_steps.clear()
        seq = splitting_sequence(h, depth)
        assert seq.values == (0,) + (7, 3) * (depth // 2)
        assert seq.repeat is None and sum(kept_steps) == 8
        assert probes == [t for s in seq.values[10:] for t in range(s + 2)], (depth, probes)
        assert len(probes) == count, (depth, probes)
    # the walk runs to p itself, so s_2 = p is found
    h = hypersurface(13, ["x1", "x2"], "11*x1^4*x2 + 2*x2^4 + 2*x1^3*x2^2 + 13*x1*x2")
    probes.clear()
    assert walk(h, (7,)) == [7, 13]
    assert probes == list(range(9)) + list(range(14)), probes
    # for p <= 5 the interval check evaluates each s above the walk, so
    # each s in 0..p is evaluated once per scanned depth
    h = hypersurface(5, ["x", "y", "z"], "x^3 + y^3 + z^3")
    probes.clear()
    assert walk(h, (1,)) == [1, 0]
    assert probes[:6] == probes[6:] == list(range(6)), probes


def test_theta_chain_contractions_are_pinned(monkeypatch):
    # on theta each depth reads its entry off one chain psi_j = fbar^j ⌟
    # theta_k, from the leading-term bound j_lo.  On the p=7 Fermat
    # quartic, min(fbar) = x4^4 divides theta_0 = y^(6,6,6,6) once, so
    # depth 1 forms psi_2 from fbar^2, the one capped product, and
    # contracts by fbar up to psi_5 = 0 (s_1 = 2, 4 contractions); theta_1
    # has j_lo = 0, and depth 2 forms psi_1..psi_7 (s_2 = 0, 7
    # contractions).  Each step reuses the chain's last nonzero psi, and
    # theta_1's two delta contractions make 13.  theta_2 is a multiple of
    # theta_0, so depth 24 does the same
    counts = dict.fromkeys(("_new_part_contained", "_mul_terms", "_contract"), 0)
    bounds = []
    leading_bound = ladder._leading_bound

    def count(name):
        real = getattr(ladder, name)

        def counted(*args):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(ladder, name, counted)

    def recorded(*args):
        bounds.append(leading_bound(*args))
        return bounds[-1]

    for name in counts:
        count(name)
    monkeypatch.setattr(ladder, "_leading_bound", recorded)
    h = hypersurface(7, ["x1", "x2", "x3", "x4"], "x1^4 + x2^4 + x3^4 + x4^4")
    for depth in (5, 24):
        counts.update(dict.fromkeys(counts, 0))
        bounds.clear()
        seq = splitting_sequence(h, depth)
        assert seq.values == (0,) + (2, 0) * (depth // 2) + (2,) * (depth % 2)
        assert seq.repeat == (0, 2)
        assert bounds == [1, 0], bounds
        assert tuple(counts.values()) == (0, 1, 13), counts
    # fbar = x0^2*x1 divides each theta_k of x0^2*x1 + 5*x2 at p = 5 twice
    # and no more, so the bound decides every candidate from s = 3 up, and
    # psi_3, from fbar^3, which keeps no term inside theta's box, decides
    # s = 2: each of the 3 depths on theta is one contraction
    h = hypersurface(5, ["x0", "x1", "x2"], "x0^2*x1 + 5*x2")
    bounds.clear()
    counts.update(dict.fromkeys(counts, 0))
    assert splitting_sequence(h, 3).values == (0, 2, 2, 2)
    assert bounds == [2, 2, 2], bounds
    assert counts["_new_part_contained"] == 0


def test_every_theta_contraction_takes_the_cap(monkeypatch):
    # a drop-back costs no more than the bound only if every contraction of
    # the theta step and chain stops at it; the p=7 Fermat quartic commits
    # entries of 2, so its steps run delta contractions too
    limits = []
    contract = ladder._contract

    def recorded(g, theta, n, p, limit=None):
        limits.append(limit)
        return contract(g, theta, n, p, limit)

    monkeypatch.setattr(ladder, "_contract", recorded)
    h = hypersurface(7, ["x1", "x2", "x3", "x4"], "x1^4 + x2^4 + x3^4 + x4^4")
    assert splitting_sequence(h, 4).values == (0, 2, 0, 2, 0)
    assert limits and None not in limits, limits


LEDGER_CASES = [
    (7, "x1,x2,x3,x4", "x1^4 + x2^4 + x3^4 + x4^4", 5, (0, 1, 13, 0, 0)),
    (5, "x,y,z", "x^3 + y^3 + z^3", 4, (0, 1, 9, 0, 0)),
    (5, "x1,x2,x3,x4", "x1^4 + x2^4 + x3^4 + x4^4", 4, (0, 1, 4, 0, 0)),
    (7, "x,y,z", "x^3 + y^3 + z^3", 4, (0, 1, 5, 0, 0)),
    (3, "x1,x2,x3,x4", "x1^4 + x2^4 + x3^4 + x4^4", 6, (0, 0, 7, 0, 0)),
    (13, "x1,x2", "11*x1^4*x2 + 2*x2^4 + 2*x1^3*x2^2 + 13*x1*x2", 12, (0, 1, 4, 0, 0)),
    # s_1 = 0: one chain, then every entry is read off s_1
    (13, "x,y", "x + y^3", 12, (0, 0, 1, 0, 0)),
    (2, "x,y", "x + y^3", 8, (0, 0, 1, 0, 0)),
    (3, "x,y", "x + y^3", 8, (0, 0, 1, 0, 0)),
    (5, "x,y", "x + y^3", 8, (0, 0, 1, 0, 0)),
    (7, "x0,x1,x2,x3", "25*x2^2*x3 + x0*x2*x3^3 + x0*x1 + 10*x0^2*x1*x2", 4, (0, 0, 1, 0, 0)),
    # theta drops back on its size, and the scan reads the rest
    (3, "x0,x1", "5*x0^2*x1^3 + 5*x0^2 + 6*x1", 8, (12, 18, 15, 7, 7)),
    (5, "x0,x1,x2", "x0^4*x1^2*x2^4 + 16*x0^4*x1 + 5*x2", 12, (24, 25, 40, 11, 8)),
    (2, "x0,x1,x2", "3*x0^2*x1^2*x2^4 + x0*x1^4*x2^3 + 2*x0*x2 + 2*x1", 12, (12, 37, 19, 11, 15)),
]


@pytest.mark.parametrize(
    "p, names, expr, depth, ledger",
    LEDGER_CASES,
    ids=[f"{p}-{expr}-{depth}" for p, _, expr, depth, _ in LEDGER_CASES],
)
def test_scan_work_ledger_is_pinned(monkeypatch, p, names, expr, depth, ledger):
    # the work of a whole sequence, in capped-chain candidates, capped
    # products, contractions, live boxes and u steps: a change to the theta
    # chain, the scan's search order or the memos that does more or less
    # work moves these counts
    counts = dict.fromkeys(("_new_part_contained", "_mul_terms", "_contract", "live_box", "root_generators"), 0)

    def count(owner, name):
        real = getattr(owner, name)

        def counted(*args):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(owner, name, counted)

    for name in counts:
        count(_Workspace if name == "live_box" else ladder, name)
    splitting_sequence(hypersurface(p, names.split(","), expr), depth)
    assert tuple(counts.values()) == ledger, counts


@pytest.mark.parametrize(
    "p, names, expr, depth, ledger",
    LEDGER_CASES,
    ids=[f"{p}-{expr}-{depth}" for p, _, expr, depth, _ in LEDGER_CASES],
)
def test_a_run_builds_only_what_its_path_reads(monkeypatch, p, names, expr, depth, ledger):
    # the workspace builds none of the capped scan's ideals up front: a run
    # that keeps theta to its end (ledger[0], its capped-chain candidates,
    # is 0) never calls _gens, and one that drops back still does, with
    # the work test_scan_work_ledger_is_pinned pins.  A run whose entries
    # are all 0 forms no delta power and reads no degree of delta
    gens, kinds = [], []
    real_gens, real_degrees, real_power = ladder._gens, _Workspace.degrees, _Workspace.power

    def counted_gens(ctx, g):
        gens.append(len(g))
        return real_gens(ctx, g)

    def counted_degrees(self, kind):
        kinds.append(kind)
        return real_degrees(self, kind)

    def counted_power(self, kind, k, box):
        kinds.append(kind)
        return real_power(self, kind, k, box)

    monkeypatch.setattr(ladder, "_gens", counted_gens)
    monkeypatch.setattr(_Workspace, "degrees", counted_degrees)
    monkeypatch.setattr(_Workspace, "power", counted_power)
    seq = splitting_sequence(hypersurface(p, names.split(","), expr), depth)
    assert bool(gens) == bool(ledger[0]), (gens, ledger)
    if not any(seq.values):
        assert kinds and set(kinds) == {"f"}, kinds


def test_theta_steps_stop_at_the_last_entry_and_at_a_repeat(monkeypatch, kept_steps):
    # a run steps theta past each committed entry but the last, and not at
    # all once a repeat is proven.  The p=7 Fermat quartic repeats at
    # theta_2, so any depth takes 2 steps; x0^2*x1 + 5*x2 at p = 5 keeps
    # theta and never repeats, so depth d takes d - 1 up to depth 13.  The
    # contraction ledger cannot see an extra final step past an entry 0 that
    # reuses the chain's contraction, as that step makes no contraction of
    # its own
    steps = []
    advance = ladder._advance

    def counted(*args):
        steps.append(args[2])
        return advance(*args)

    monkeypatch.setattr(ladder, "_advance", counted)
    for p, names, expr, calls in (
        (7, "x1,x2,x3,x4", "x1^4 + x2^4 + x3^4 + x4^4", {5: 2, 24: 2}),
        (5, "x0,x1,x2", "x0^2*x1 + 5*x2", {5: 4, 11: 10}),
    ):
        h = hypersurface(p, names.split(","), expr)
        for depth, count in calls.items():
            steps.clear()
            kept_steps.clear()
            splitting_sequence(h, depth)
            assert len(steps) == count == sum(kept_steps), (expr, depth, steps)


def test_next_s_after_entries_below_the_ones_read():
    # a prefix entry l below the entry s read there steps theta by its own
    # fbar^(p-l-1) ⌟ theta_k, not by the chain's last contraction, which is
    # fbar^(p-s-1) ⌟ theta_k.  Each entry is drawn from 0..the entry read,
    # and next_s must give the largest t whose capped chain over prefix +
    # (t,) is contained, each in a fresh workspace.  Reusing the chain's
    # contraction for every entry gives 2 after (0, 0) on this p = 5 cubic,
    # whose entry there is 5.  Once an entry has been below the one read,
    # every later entry is p
    # (``next_s``'s docstring)
    assert next_s(hypersurface(5, ["x0", "x1"], "20*x0^3 + 17*x0*x1^2 + 19*x1^3"), (0, 0)) == 5
    rng = random.Random(12)
    prefixes = below = after_below = 0
    while prefixes < 600:
        p = rng.choice((2, 3, 5, 7))
        n = rng.randrange(1, 4)
        while True:
            f = random_int_poly(rng, n, max_terms=3, max_exp=3, max_coeff=p * p)
            f.pop((0,) * n, None)
            if reduce_mod(f, p):
                break
        ctx = Context(p, [f"x{i}" for i in range(n)])
        h = validate(ctx, LiftPoly(ctx, f))
        prefix = ()
        went_below = False
        read = max(t for t in range(p + 1) if capped_chain(h, (t,)))
        for _ in range(rng.randrange(1, 4)):
            l = rng.randrange(min(read, p - 1) + 1)
            below += l < read
            went_below |= l < read
            prefix += (l,)
            read = max(t for t in range(p + 1) if capped_chain(h, prefix + (t,)))
            assert next_s(h, prefix) == read, (p, f, prefix)
            if went_below:
                assert read == p, (p, f, prefix)
                after_below += 1
            prefixes += 1
    assert below > 200, below
    assert after_below > 200, after_below


def test_next_s_after_a_deep_prefix():
    # every chain over the tail, and the box chain under it, is a loop, not
    # a recursion: a tail of 1,100 entries must not exhaust the stack
    assert next_s(hypersurface(13, ["x", "y"], "x + y^3"), (0,) * 1100) == 0


def test_scan_containment_is_an_interval_for_large_p():
    # for p > 5 the scan walks up from s = 0 and stops at the first
    # candidate that is not contained, relying on the contained ones
    # forming an interval [0, s_n], as does the bisecting oracle.  Here
    # every s in 0..p is evaluated at every committed prefix, each in a
    # fresh workspace, and both searches must read the same entry
    rng = random.Random(20)
    entries = set()
    for _ in range(120):
        p = rng.choice((7, 11, 13))
        n = rng.randrange(1, 4)
        while True:
            f = random_int_poly(rng, n, max_terms=3, max_exp=3, max_coeff=p * p)
            f.pop((0,) * n, None)
            if reduce_mod(f, p):
                break
        ctx = Context(p, [f"x{i}" for i in range(n)])
        h = validate(ctx, LiftPoly(ctx, f))
        values = splitting_sequence(h, 4).values
        assert values == capped_scan_sequence(h, 4), (p, f)
        for k in range(1, 5):
            prefix = values[1:k]
            hits = [s for s in range(p + 1) if capped_chain(h, prefix + (s,))]
            assert hits == list(range(values[k] + 1)), (p, f, prefix, hits)
            entries.add("0" if values[k] == 0 else "p" if values[k] == p else "between")
            if values[k] == p:
                break
    assert entries == {"0", "between", "p"}, entries


def test_shared_workspace_matches_fresh_chains_after_a_drop_back(monkeypatch):
    # runs forced to drop back at once: one workspace walks the prefix, and
    # at every depth each candidate s in 0..p, asked of the shared workspace
    # in a random order, must give the outcome of a fresh workspace over
    # the same prefix + (s,), which reads no memo, stage or box another
    # chain stored.  A quarter of the inputs are diagonal cubics, whose
    # entries can alternate 1, 0 at p = 2 and 5 (supersingular): there
    # chains meet equal powers and generators at different levels, which
    # an outcome key without the level would confuse
    monkeypatch.setattr(ladder, "_theta_next", lambda ws, theta: None)
    rng = random.Random(30)
    entries = set()
    for case in range(40):
        p = rng.choice((2, 3, 5, 7, 13))
        if case % 4:
            h = random_hypersurface(rng, p, rng.randrange(1, 4))
        else:
            f = {e: rng.randrange(1, p) + p * rng.randrange(p) for e in ((3, 0, 0), (0, 3, 0), (0, 0, 3))}
            f[(1, 1, 1)] = p * rng.randrange(p)
            ctx = Context(p, ["x0", "x1", "x2"])
            h = validate(ctx, LiftPoly(ctx, f))
        ws = _Workspace(h)
        while len(ws.prefix) < 6:
            order = list(range(p + 1))
            rng.shuffle(order)
            shared = {s: _new_part_contained(ws, s) for s in order}
            for s in order:
                assert shared[s] == capped_chain(h, ws.prefix + (s,)), (p, h.f_lift, ws.prefix, s)
            s = sum(shared.values()) - 1
            assert [shared[t] for t in range(p + 1)] == [t <= s for t in range(p + 1)]
            entries.add("0" if s == 0 else "p" if s == p else "between")
            if s == p:
                break
            ws.commit(s)
    assert entries == {"0", "between", "p"}, entries


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


def test_leading_bound_agrees_with_the_whole_contraction():
    # the leading-term bound j_lo is the largest J <= p with J * min(fbar)
    # dividing max(theta), and may only ever answer "not 0": no
    # fbar^J ⌟ theta with J <= j_lo is 0
    rng = random.Random(413)
    outcomes = set()
    for _ in range(400):
        p = rng.choice([2, 3, 5])
        n = rng.randrange(1, 4)
        ctx = Context(p, [f"x{i}" for i in range(n)])

        def terms(count, top):
            return {
                ctx.encode_monomial(tuple(rng.randrange(top) for _ in range(n))): rng.randrange(1, p)
                for _ in range(count)
            }

        fbar, theta = terms(rng.randrange(1, 4), 3), terms(rng.randrange(1, 6), 3 * p)
        j = _leading_bound(ctx, fbar, theta)
        low, top = ctx.decode_monomial(min(fbar)), ctx.decode_monomial(max(theta))
        assert j == max(J for J in range(p + 1) if all(J * a <= b for a, b in zip(low, top)))
        power = {0: 1}
        for J in range(1, p + 1):
            power = mul_terms(power, fbar, p)
            zero = not contract_terms(power, theta, n, p)
            assert not (zero and J <= j), (p, fbar, theta, J)
            outcomes.add((zero, J <= j))
    assert outcomes == {(True, False), (False, False), (False, True)}
    # J * t may reach past 2^31: t = x^(2^30 + 1) divides y^(2^31 - 1) once
    ctx = Context(13, ["x"])
    fbar = {ctx.encode_monomial((2**30 + 1,)): 1}
    assert _leading_bound(ctx, fbar, {ctx.encode_monomial((2**31 - 1,)): 1}) == 1
    # ring's kernel reads each field on its own, from 0 to 2^31 - 1, and never
    # the degree field: J is the least b_i // t_i over the t_i > 0, capped at p
    capped = 0
    for _ in range(400):
        n = rng.randrange(1, 7)
        p = rng.choice([q for q in (2, 3, 5, 7, 13) if q**n <= 20_000])
        ctx = Context(p, [f"x{i}" for i in range(n)])
        low, top = (
            tuple(rng.choice([0, 1, rng.randrange(2, 4 * p), 2**30, 2**31 - 1]) for _ in range(n))
            for _ in range(2)
        )
        want = min([p] + [b // a for a, b in zip(low, top) if a])
        t, b = ctx.encode_monomial(low), ctx.encode_monomial(top)
        assert _leading_bound(ctx, {t: 1}, {b: 1}) == want, (p, low, top)
        capped += want == p
    assert 0 < capped < 400


def test_theta_chain_matches_the_whole_contraction_and_the_capped_chain():
    # at every committed prefix that carries theta_k, each s in 0..p must
    # be on the same side of the entry the chain reads as the whole
    # contraction fbar^(p-s) ⌟ theta_k = 0 and the capped chain over
    # prefix + (s,) in a fresh workspace put it
    rng = random.Random(29)
    entries = set()
    for _ in range(120):
        p = rng.choice((2, 3, 5, 7, 11, 13))
        h = random_hypersurface(rng, p, rng.randrange(1, 4))
        n = h.ctx.n_vars
        ws = _Workspace(h)
        theta, prefix = _theta_0(h.ctx), ()
        while theta is not None and len(prefix) < 5:
            found = _theta_next(ws, theta)
            if found is None:
                break
            for s in range(p + 1):
                whole = not contract_terms(h.f_res_power(p - s).terms, theta, n, p)
                capped = capped_chain(h, prefix + (s,))
                assert (s <= found[0]) == whole == capped, (p, h.f_lift, prefix, s)
            s = found[0]
            entries.add("0" if s == 0 else "p" if s == p else "between")
            if s == p:
                break
            theta, prefix = _advance(ws, theta, s, found[1]), prefix + (s,)
    assert entries == {"0", "between", "p"}, entries


def test_theta_0_kills_exactly_what_the_cap_at_p_drops():
    # the capped chain reads no theta: g ⌟ theta_0 = 0 iff every monomial of
    # g has some exponent >= p, as distinct monomials below (p, ..., p)
    # contract to distinct y-monomials
    rng = random.Random(416)
    outcomes = set()
    for _ in range(400):
        p = rng.choice([2, 3, 5, 7])
        n = rng.randrange(1, 5)
        ctx = Context(p, [f"x{i}" for i in range(n)])
        g = {
            ctx.encode_monomial(tuple(rng.randrange(2 * p + 1) for _ in range(n))): rng.randrange(1, p)
            for _ in range(rng.randrange(1, 4))
        }
        zero = not truncate_terms(g, *exponent_cap(ctx, p))
        assert (contract_terms(g, _theta_0(ctx), n, p) == {}) == zero, (p, g)
        outcomes.add(zero)
    assert outcomes == {True, False}


def test_one_entry_chain_is_the_theta_0_contraction():
    # with no carried theta a one-entry tail runs the chain with no stage,
    # under the box B_0 of the empty prefix, and must read fbar^(p-s) ⌟
    # theta_0
    for p, names, expr in (
        (2, "x,y", "x^2 + y^2"),
        (5, "x,y,z", "x^3 + y^3 + z^3"),
        (7, "x1,x2,x3,x4", "x1^4 + x2^4 + x3^4 + x4^4"),
    ):
        h = hypersurface(p, names.split(","), expr)
        theta = _theta_0(h.ctx)
        outcomes = set()
        for s in range(p + 1):
            want = contract_terms(h.f_res_power(p - s).terms, theta, h.ctx.n_vars, p) == {}
            assert capped_chain(h, (s,)) == want, (p, expr, s)
            outcomes.add(want)
        assert outcomes == {True, False}, (p, expr)
