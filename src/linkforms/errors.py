"""Exception types shared across the package.

Each maps to a distinct CLI exit code; see ``linkforms.cli``.
"""

from __future__ import annotations


class LinkformsError(Exception):
    """Base class for errors raised by this package."""


class InputError(LinkformsError):
    """Malformed input document or unusable argument (CLI exit 2)."""


class SingularFormError(LinkformsError):
    """An operation that needs a nonsingular form got a singular one (CLI exit 3)."""


class NonStrictFormError(LinkformsError):
    """A form failed the strict-skew requirement b(x, x) = 0 (CLI exit 3)."""


class BudgetExhausted(LinkformsError):
    """A bounded search ran out of budget before reaching a certified answer.

    ``partial`` carries whatever was computed before the budget ran out,
    so callers can report an uncertified result (CLI exit 4 when the user
    asked for certification).
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class CapExceeded(LinkformsError):
    """An enumeration would overflow a configured size cap (CLI exit 5).

    ``needed`` is the size the enumeration would have reached, ``cap`` the
    configured bound, when those are known.
    """

    def __init__(self, message: str, needed=None, cap=None):
        super().__init__(message)
        self.needed = needed
        self.cap = cap


class UnsupportedDegree(LinkformsError):
    """A bordism table was requested outside degrees 0 and 1 (CLI exit 6)."""


class InvariantError(LinkformsError):
    """A mathematical invariant that the library guarantees did not hold (CLI exit 7).

    It signals a bug in linkforms, not bad input.  It is raised explicitly,
    so ``python -O`` does not strip the check the way it strips ``assert``.
    """
