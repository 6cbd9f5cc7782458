"""Exception taxonomy.

Three user-visible failure classes map onto CLI exit codes:

* ``InputError`` (exit 2)    -- the request itself is malformed or rejected.
* ``ResourceLimitError`` (exit 3) -- a configured workspace cap was hit.
* ``InternalCheckError`` (exit 4) -- an internal consistency assertion failed,
  which always indicates a bug, never bad input.
"""

from __future__ import annotations


class PptlabError(Exception):
    """Base class for every error raised by this package."""


class InputError(PptlabError):
    """Invalid user input (bad polynomial, bad context, bad flags)."""


class UsageError(InputError):
    """The command line itself was rejected; ``usage`` is the usage text
    of the (sub)command ``prog`` that rejected it."""

    def __init__(self, message: str, prog: str, usage: str):
        super().__init__(message)
        self.prog = prog
        self.usage = usage


class ContextMismatchError(InputError):
    """Two values from different contexts (or coefficient rings) were mixed."""


class ExponentOverflowError(InputError):
    """A monomial exponent would leave the supported range (< 2**31)."""


class FDivisibleByPError(InputError):
    """f vanishes mod p, so (p, f) is not a regular sequence."""


class FIsUnitError(InputError):
    """f has a unit constant term, so the quotient is the zero ring."""


class PNotGreaterThanNError(InputError):
    """The Fermat predictor needs p > N >= 2."""


class ParseError(InputError):
    """Syntax error in a polynomial expression; ``position`` is 0-based."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariableError(ParseError):
    def __init__(self, name: str, position: int):
        super().__init__(f"unknown variable '{name}'", position)
        self.name = name


class SequenceHitPError(InputError):
    """Threshold arithmetic was requested for a sequence containing p."""


class InvalidIndexError(InputError):
    """A ladder index violates 0 <= l_i <= p-1 (last slot: <= p)."""


class ResourceLimitError(PptlabError):
    """A configured monomial/generator cap was exceeded; fail loudly."""


class InternalCheckError(PptlabError):
    """An internal invariant failed.  This is a bug, not user error."""


class NotDivisibleError(InternalCheckError):
    """Coefficientwise division by p met a coefficient not divisible by p."""


class MonotonicityViolationError(InternalCheckError):
    """The containment set observed during a threshold scan was not an
    interval [0, s], contradicting the inclusion-preservation of the
    ideal recursion."""


class CrossCheckFailureError(InternalCheckError):
    """A quick-criterion prediction disagreed with the computed sequence."""


class CorpusMismatchError(InternalCheckError):
    """A built-in corpus row no longer matches its frozen expected values."""

    def __init__(self, mismatches: list[str]):
        super().__init__(
            "corpus mismatch:\n" + "\n".join(f"  - {m}" for m in mismatches)
        )
        self.mismatches = mismatches
