"""Exact dyadic arithmetic.

Every influence weight in this package is a finite sum of powers of 1/2, a
dyadic rational m * 2**e.  The sums themselves are done in scaled integers
by ``weights.influence``; ``Dyadic`` is the type in which they are returned
(the values of ``WeightProfile`` and of ``TauResult``).  Its normalized form
(odd mantissa) makes equality and comparison exact and cheap, while LP
objectives, which are general rationals, use ``fractions.Fraction``.
"""

from __future__ import annotations

import math
from fractions import Fraction


class Dyadic:
    """A dyadic rational m * 2**e with odd mantissa (or the exact zero).

    Immutable; supports ring arithmetic with other Dyadic values and ints,
    and exact comparison against Dyadic, int, and Fraction.
    """

    __slots__ = ("m", "e")

    def __init__(self, m: int, e: int = 0):
        if m == 0:
            self.m = 0
            self.e = 0
        else:
            # strip factors of two into the exponent
            shift = (m & -m).bit_length() - 1
            self.m = m >> shift
            self.e = e + shift

    @classmethod
    def from_fraction(cls, value: Fraction) -> "Dyadic":
        """Exact conversion; raises ValueError if the value is not dyadic."""
        num, den = value.numerator, value.denominator
        if den & (den - 1):
            raise ValueError(f"{value} is not a dyadic rational")
        return cls(num, -(den.bit_length() - 1))

    def to_fraction(self) -> Fraction:
        if self.e >= 0:
            return Fraction(self.m << self.e)
        return Fraction(self.m, 1 << -self.e)

    def is_zero(self) -> bool:
        return self.m == 0

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.m == 0:
            return other
        if other.m == 0:
            return self
        e = min(self.e, other.e)
        return Dyadic((self.m << (self.e - e)) + (other.m << (other.e - e)), e)

    __radd__ = __add__

    def __neg__(self):
        return Dyadic(-self.m, self.e)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Dyadic(self.m * other.m, self.e + other.e)

    __rmul__ = __mul__

    # -- comparison ---------------------------------------------------------

    def _cmp(self, other) -> int:
        """Three-way comparison against Dyadic/int/Fraction; +2 = incomparable."""
        if isinstance(other, _DyadicInfinity):
            return -1
        if isinstance(other, Fraction):
            a, b = self.to_fraction(), other
            return (a > b) - (a < b)
        other = _coerce(other)
        if other is NotImplemented:
            return 2
        e = min(self.e, other.e)
        a = self.m << (self.e - e)
        b = other.m << (other.e - e)
        return (a > b) - (a < b)

    def __eq__(self, other):
        c = self._cmp(other)
        return False if c == 2 else c == 0

    def __lt__(self, other):
        c = self._cmp(other)
        if c == 2:
            return NotImplemented
        return c < 0

    def __le__(self, other):
        c = self._cmp(other)
        if c == 2:
            return NotImplemented
        return c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        if c == 2:
            return NotImplemented
        return c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        if c == 2:
            return NotImplemented
        return c >= 0

    def __hash__(self):
        # agrees with int/Fraction hashing so mixed equality stays consistent
        return hash(self.to_fraction())

    def __repr__(self):
        return f"Dyadic({self.m}, {self.e})"

    def __str__(self):
        return str(self.to_fraction())


def _coerce(value):
    if isinstance(value, Dyadic):
        return value
    if isinstance(value, int):
        return Dyadic(value)
    return NotImplemented


class _DyadicInfinity:
    """Positive infinity for dyadic values: absorbs addition and max,
    compares greater than every Dyadic."""

    __slots__ = ()

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is DYADIC_INF

    def __gt__(self, other):
        return other is not DYADIC_INF

    def __ge__(self, other):
        return True

    def __eq__(self, other):
        return other is DYADIC_INF

    def __hash__(self):
        return hash(math.inf)

    def __repr__(self):
        return "DYADIC_INF"

    def __str__(self):
        return "inf"


DYADIC_INF = _DyadicInfinity()

ZERO = Dyadic(0)
ONE = Dyadic(1)
TWO = Dyadic(2)
HALF = Dyadic(1, -1)


def pow_half(d) -> Dyadic:
    """(1/2)**d for an extended natural d; infinity maps to exact zero."""
    if d == math.inf:
        return ZERO
    return Dyadic(1, -d)


def coeff(dist) -> Dyadic:
    """Influence coefficient (1/2)**(dist-1); distance 0 gives 2, infinity 0."""
    if dist == math.inf:
        return ZERO
    return Dyadic(1, 1 - dist)


def to_rational(x: Dyadic) -> Fraction:
    """Exact bridge from dyadic weight arithmetic into LP arithmetic."""
    return x.to_fraction()
