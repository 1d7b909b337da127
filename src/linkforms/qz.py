"""Exact values in Q/Z.

A ``QZValue`` is a rational number taken modulo 1, stored in lowest terms
with ``0 <= num < den``.  The additive order of ``a/b`` in lowest terms is
exactly ``b``, so the denominator doubles as the order and no floating
point ever enters.
"""

from __future__ import annotations

import math
import operator

from .errors import InputError


class QZValue:
    """An element of Q/Z in canonical reduced form."""

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int = 1):
        # operator.index turns numpy integers into Python ints, so no
        # fixed-width value is ever stored, and refuses floats.
        try:
            num, den = operator.index(num), operator.index(den)
        except TypeError:
            raise InputError(f"Q/Z value needs integers, got {num!r}/{den!r}") from None
        if den == 0:
            raise InputError("fraction with zero denominator")
        if den < 0:
            num, den = -num, -den
        num %= den
        g = math.gcd(num, den)
        self.num = num // g
        self.den = den // g

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "QZValue":
        return cls(0, 1)

    @classmethod
    def parse(cls, text: str) -> "QZValue":
        """Parse ``"a/b"`` or a bare integer string.

        Raises InputError with a description of what was wrong; used by the
        document loaders so the CLI can report a useful diagnostic.
        """
        s = text.strip()
        if "/" in s:
            parts = s.split("/")
            if len(parts) != 2:
                raise InputError(f"malformed fraction {text!r}")
            try:
                a, b = int(parts[0]), int(parts[1])
            except ValueError:
                raise InputError(f"malformed fraction {text!r}") from None
            if b == 0:
                raise InputError(f"malformed fraction {text!r}: zero denominator")
            return cls(a, b)
        try:
            return cls(int(s), 1)
        except ValueError:
            raise InputError(f"malformed fraction {text!r}") from None

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "QZValue") -> "QZValue":
        return QZValue(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "QZValue") -> "QZValue":
        return QZValue(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self) -> "QZValue":
        return QZValue(-self.num, self.den)

    def scale(self, n: int) -> "QZValue":
        """n-fold sum of self (n may be negative or zero)."""
        return QZValue(n * self.num, self.den)

    # -- structure ---------------------------------------------------------

    @property
    def order(self) -> int:
        """Additive order in Q/Z (1 for the zero class)."""
        return self.den

    def is_zero(self) -> bool:
        return self.num == 0

    def numerator_over(self, k: int) -> int:
        """Write the value as t/k and return t in [0, k).

        Raises InputError when the value does not lie in the cyclic
        subgroup generated by 1/k, i.e. when its order does not divide k.
        """
        if k <= 0 or k % self.den != 0:
            raise InputError(f"{self} does not lie in <1/{k}>")
        return self.num * (k // self.den)

    # -- plumbing ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QZValue)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"

    def __repr__(self) -> str:
        return f"QZValue({self.num}, {self.den})"


ZERO = QZValue.zero()
