"""The delta operator (f^p - phi(f))/p and validated hypersurface inputs."""

from __future__ import annotations

from math import comb, prod

from .errors import FDivisibleByPError, FIsUnitError, InputError, ResourceLimitError
from .ring import (
    Context,
    LiftPoly,
    ResPoly,
    exact_div_p,
    exponent_box,
    frobenius_substitute,
    project_mod_p,
)


def delta(f: LiftPoly) -> ResPoly:
    """Return (f^p - phi(f))/p over F_p.

    The numerator is computed exactly in Z/p^2, where it is always
    divisible by p because phi is a Frobenius lift; a division failure is
    therefore an internal bug and surfaces as ``NotDivisibleError``.
    The result depends only on f mod p^2.
    """
    return exact_div_p(f ** f.ctx.p - frobenius_substitute(f))


class Hypersurface:
    """A validated hypersurface input: f mod p^2, its reduction fbar over
    F_p and delta(f); a plain value that memoises nothing.

    ``delta_power`` and ``f_res_power`` form full powers.  The exact
    ladder (``compute_ladder``, ``--trace``) reads each distinct power
    once per call.  The sequence engine calls neither: it reads the terms
    of ``delta_f`` and ``f_res`` in place and forms its own powers
    (``ladder._Workspace.power``).
    """

    __slots__ = ("ctx", "f_lift", "f_res", "delta_f")

    def __init__(self, ctx: Context, f_lift: LiftPoly, f_res: ResPoly, delta_f: ResPoly):
        self.ctx = ctx
        self.f_lift = f_lift
        self.f_res = f_res
        self.delta_f = delta_f

    def delta_power(self, l: int) -> ResPoly:
        """delta(f)^l over F_p for 0 <= l <= p-1."""
        if not 0 <= l <= self.ctx.p - 1:
            raise InputError(f"delta power {l} outside 0..{self.ctx.p - 1}")
        return self.delta_f ** l

    def f_res_power(self, k: int) -> ResPoly:
        """fbar^k over F_p for 0 <= k <= p."""
        if not 0 <= k <= self.ctx.p:
            raise InputError(f"f power {k} outside 0..{self.ctx.p}")
        return self.f_res ** k

    def __repr__(self) -> str:
        return f"Hypersurface(p={self.ctx.p}, f={self.f_lift})"


def validate(ctx: Context, f_lift: LiftPoly) -> Hypersurface:
    """Accept f as legitimate hypersurface data or reject it.

    Requires f nonzero mod p (so (p, f) is a regular sequence over the
    regular base) and constant term divisible by p (so f lies in the
    maximal ideal and the quotient is a nontrivial local ring).

    Before delta forms f^p, its term count is bounded by the products of p
    of f's terms, C(|f| + p - 1, p), and by its exponent box,
    prod(p * deg_(x_i) f + 1).  Both grow with the power, so they bound
    every partial power of ``Poly.__pow__`` too.  Past the larger of
    ``max_workspace_monomials`` and p^N it raises ``ResourceLimitError``.
    The engine's powers inside the capped scan's base box (p, ..., p)
    reach p^N terms whatever the cap, so a cap set below p^N to force its
    drop-backs rejects no input whose f^p has at most p^N terms.
    """
    ctx.check_same(f_lift.ctx)
    f_res = project_mod_p(f_lift)
    if f_res.is_zero():
        raise FDivisibleByPError(
            "f is divisible by p; (p, f) is not a regular sequence"
        )
    if f_lift.constant_coefficient() % ctx.p:
        raise FIsUnitError("f has a unit constant term; f must be a non-unit")
    p, n = ctx.p, ctx.n_vars
    limit = max(ctx.max_workspace_monomials, p**n)
    bound = comb(len(f_lift) + p - 1, p)
    if bound > limit:  # the box bound only where the cheap one does not settle it
        bound = min(bound, prod(p * (b - 1) + 1 for b in exponent_box(f_lift.terms, n)))
        if bound > limit:
            raise ResourceLimitError(
                f"f^p may have {bound} terms, over the workspace cap {limit}; "
                "raise max_workspace_monomials (--max-monomials)"
            )
    return Hypersurface(ctx, f_lift, f_res, delta(f_lift))
