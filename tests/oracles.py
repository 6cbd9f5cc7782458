"""Independent reference implementations used as test oracles.

Everything here works with plain integer dictionaries (exponent tuple ->
coefficient over Z) so that no code path under test is reused.
"""

from __future__ import annotations

import itertools


def int_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def int_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def int_pow(a: dict, k: int, n_vars: int) -> dict:
    out = {(0,) * n_vars: 1}
    for _ in range(k):
        out = int_mul(out, a)
    return out


def int_scale(a: dict, c: int) -> dict:
    return {e: c * v for e, v in a.items() if c * v}


def reduce_mod(a: dict, m: int) -> dict:
    return {e: c % m for e, c in a.items() if c % m}


def frobenius_int(a: dict, p: int) -> dict:
    """Substitute x_i -> x_i^p on an integer polynomial."""
    return {tuple(p * x for x in e): c for e, c in a.items()}


def delta_int(a: dict, p: int, n_vars: int) -> dict:
    """(a^p - phi(a))/p over Z, reduced mod p at the end."""
    numerator = int_add(int_pow(a, p, n_vars), int_scale(frobenius_int(a, p), -1))
    out = {}
    for e, c in numerator.items():
        assert c % p == 0, f"delta numerator coefficient {c} not divisible by {p}"
        out[e] = (c // p) % p
    return {e: c for e, c in out.items() if c}


def u_image_bruteforce(ideal):
    """Frobenius-root image via full enumeration of all p^N multipliers."""
    from pptlab.ideals import ResIdeal, u_single
    from pptlab.ring import ResPoly

    ctx = ideal.ctx
    p = ctx.p
    gens = []
    for g in ideal.gens:
        for e in itertools.product(range(p), repeat=ctx.n_vars):
            shifted = ResPoly.monomial(ctx, e) * g
            gens.append(u_single(shifted))
    return ResIdeal(ctx, gens)


def capped_power_nu_table(f_res, e_max: int) -> dict:
    """nu(p^e) for e = 1..e_max by climbing capped powers of fbar.

    Over F_p, fbar^(p*n) is the Frobenius image of fbar^n, and that image
    maps the truncation below (x_i^(p^(k-1))) exactly onto the truncation
    below (x_i^(p^k)).  So level k starts from the image of level k-1's
    last nonzero capped power, at N = p * nu(p^(k-1)), and multiplies by
    fbar inside the box (x_i^(p^k)) until the capped product is empty.
    """
    from pptlab.ring import exponent_cap, mul_terms, truncate_terms

    p = f_res.ctx.p
    table, power, n = {}, {0: 1}, 0
    for k in range(1, e_max + 1):
        cap = exponent_cap(f_res.ctx, p**k)
        base = truncate_terms(f_res.terms, *cap)
        power = {m * p: c for m, c in power.items()}
        n *= p
        while nxt := mul_terms(power, base, p, *cap):
            power = nxt
            n += 1
        table[k] = n
    return table


def random_int_poly(rng, n_vars, max_terms=5, max_exp=4, max_coeff=30) -> dict:
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        e = tuple(rng.randrange(max_exp + 1) for _ in range(n_vars))
        terms[e] = rng.randrange(-max_coeff, max_coeff + 1)
    return {e: c for e, c in terms.items() if c}


def record_kept_steps(monkeypatch) -> list:
    """Wrap ``ladder._advance`` so that each theta step appends whether it
    kept theta, in call order: a run's sum is the k of the deepest theta_k
    it kept."""
    from pptlab import ladder

    kept = []
    advance = ladder._advance

    def recorded(*args):
        theta = advance(*args)
        kept.append(theta is not None)
        return theta

    monkeypatch.setattr(ladder, "_advance", recorded)
    return kept


def capped_chain(h, tail: tuple) -> bool:
    """Whether the new part of the ladder ideal for ``tail`` lies in
    (x_1^p, .., x_N^p): the capped chain over the whole index
    (``ladder._new_part_contained``), run in a fresh ``ladder._Workspace``
    that commits tail[:-1], so no chain reads a memo, stage or box that
    another stored.  The workspace lets theta go before it commits, so
    the commits take no theta step and the oracle does no theta work."""
    from pptlab.ladder import _new_part_contained, _Workspace

    ws = _Workspace(h)
    ws.front = None
    for l in tail[:-1]:
        ws.commit(l)
    return _new_part_contained(ws, tail[-1])


def truncated_contained(h, entries: tuple) -> bool:
    """Whether the ladder ideal for ``entries`` lies in (x_1^p, .., x_N^p).

    Unwinding the split in ``ladder._new_part_contained``, the ladder ideal
    is the sum of the new parts of the prefixes entries[:k], k = 1..n, so it
    is contained iff each of them is, each a ``capped_chain`` of its own.
    """
    return all(capped_chain(h, entries[:k]) for k in range(1, len(entries) + 1))


def capped_scan_sequence(h, depth: int) -> tuple:
    """s_0..s_depth from the capped scan alone: every entry is read off the
    whole capped chain (``capped_chain``, with no theta), as the sequence
    was before it carried theta.  Each candidate runs in a fresh
    workspace, and a binary search over [0, p], which containment's
    monotonicity allows, picks the entry.  The bisection is kept on
    purpose: the engine walks upward from s = 0 (``ladder._scan_next``),
    so this oracle visits the candidates in another order and stays
    independent of the engine's search."""
    p = h.ctx.p
    prefix: tuple = ()
    while len(prefix) < depth and p not in prefix:
        lo, hi = 0, p
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if capped_chain(h, prefix + (mid,)):
                lo = mid
            else:
                hi = mid - 1
        prefix += (lo,)
    return (0,) + prefix + (p,) * (depth - len(prefix))
