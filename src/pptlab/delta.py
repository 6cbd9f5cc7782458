"""The delta operator (f^p - phi(f))/p and validated hypersurface inputs."""

from __future__ import annotations

from .errors import FDivisibleByPError, FIsUnitError, InputError
from .ring import (
    Context,
    LiftPoly,
    ResPoly,
    exact_div_p,
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
    """
    ctx.check_same(f_lift.ctx)
    f_res = project_mod_p(f_lift)
    if f_res.is_zero():
        raise FDivisibleByPError(
            "f is divisible by p; (p, f) is not a regular sequence"
        )
    if f_lift.constant_coefficient() % ctx.p:
        raise FIsUnitError("f has a unit constant term; f must be a non-unit")
    d = delta(f_lift)
    return Hypersurface(ctx, f_lift, f_res, d)
