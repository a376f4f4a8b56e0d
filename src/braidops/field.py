"""Exact arithmetic in the ground field Q(z), where z^2 = z - 1.

z is a primitive sixth root of unity; its conjugate is 1 - z.  An element is
stored as three Python ints (a, b, d) meaning (a + b z)/d, in canonical form:
d > 0 and gcd(a, b, d) = 1.  With z^2 always reduced to z - 1 the form is
unique, so equality compares the three ints.  Every operation is one integer
formula followed by one gcd (``FieldElement._raw``), with no shortcut for
equal or unit denominators: field arithmetic is scalar work, so a branch
would save nothing measurable.  Polynomials (:mod:`braidops.multipoly`) do
not hold field elements: they store the same integers, a pair (a, b) per
term over one denominator per polynomial, and call ``_raw`` only where a
coefficient is read out as a value.  A polynomial becomes text through its
one term walk, ``MultiPoly._printed_terms``, which prints each stored pair
through ``_text``, the formatter of ``str``, with no element at all.  The
rational part a/d and the z coefficient b/d are read as Fractions through
``rat_part`` and ``zeta_part``; an element is never changed after
construction.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

__all__ = ["FieldElement", "ZETA", "ZETA_BAR", "ZERO", "ONE"]

_ELEM_RE = re.compile(
    r"^(?P<rat>-?\d+(?:/0*[1-9]\d*)?)(?:(?P<zsign>[+-])(?P<zeta>\d+(?:/0*[1-9]\d*)?)z)?$"
)


class FieldElement:
    """An element rat_part + zeta_part * z of Q(z), stored as (a + b z)/d."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, rat_part, zeta_part):
        """From two ints or Fractions p/q and r/s, as (p s + r q z)/(q s)."""
        if not (isinstance(rat_part, (int, Fraction)) and isinstance(zeta_part, (int, Fraction))):
            raise TypeError(f"parts must be ints or Fractions: {rat_part!r}, {zeta_part!r}")
        p, q = rat_part.as_integer_ratio()
        r, s = zeta_part.as_integer_ratio()
        x = _raw(p * s, r * q, q * s)
        self._a, self._b, self._d = x._a, x._b, x._d

    @staticmethod
    def _raw(a: int, b: int, d: int) -> "FieldElement":
        """(a + b z)/d for any ints with d != 0, brought to canonical form."""
        g = gcd(a, b, d) if d > 0 else -gcd(a, b, d)
        return _canonical(a // g, b // g, d // g)

    @property
    def rat_part(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def zeta_part(self) -> Fraction:
        return Fraction(self._b, self._d)

    @staticmethod
    def of(value) -> "FieldElement":
        """Coerce an int, Fraction, string, or FieldElement."""
        if isinstance(value, FieldElement):
            return value
        if isinstance(value, (int, Fraction)):
            return _canonical(value.numerator, 0, value.denominator)
        if isinstance(value, str):
            return FieldElement.parse(value)
        raise TypeError(f"cannot coerce {value!r} to FieldElement")

    @staticmethod
    def zeta() -> "FieldElement":
        return _canonical(0, 1, 1)

    @staticmethod
    def parse(text: str) -> "FieldElement":
        """Parse the textual form "p/q" or "p/q+r/sz"."""
        m = _ELEM_RE.match(text.strip())
        if m is None:
            raise ValueError(f"malformed field element: {text!r}")
        rat, zsign, zeta = m.group("rat", "zsign", "zeta")
        p, _, q = rat.partition("/")
        r, _, s = (zeta or "0").partition("/")
        p, q, r, s = int(p), int(q or 1), int(r), int(s or 1)
        # p/q + r/s z as in __init__; _raw reduces it, as the form is unique.
        return _raw(p * s, -r * q if zsign == "-" else r * q, q * s)

    def __str__(self) -> str:
        return _text(self._a, self._b, self._d)

    def __repr__(self) -> str:
        return f"FieldElement({self})"

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    # Arithmetic with an operand that `of` cannot coerce, such as a
    # polynomial, returns NotImplemented, so that Python asks the operand.

    def _sum(self, other, sign: int) -> "FieldElement":
        """self + sign * other; NotImplemented when other cannot be coerced."""
        try:
            other = FieldElement.of(other)
        except TypeError:
            return NotImplemented
        d, e = self._d, other._d
        return _raw(self._a * e + sign * other._a * d, self._b * e + sign * other._b * d, d * e)

    def __add__(self, other) -> "FieldElement":
        return self._sum(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "FieldElement":
        return _canonical(-self._a, -self._b, self._d)

    def __sub__(self, other) -> "FieldElement":
        return self._sum(other, -1)

    def __rsub__(self, other) -> "FieldElement":
        return FieldElement.of(other) - self

    def __mul__(self, other) -> "FieldElement":
        try:
            other = FieldElement.of(other)
        except TypeError:
            return NotImplemented
        a, b = self._a, self._b
        c, e = other._a, other._b
        # (a + bz)(c + ez) = ac + (ae + bc)z + be z^2, and z^2 = z - 1.
        return _raw(a * c - b * e, a * e + b * c + b * e, self._d * other._d)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse; raises ZeroDivisionError on zero."""
        a, b, d = self._a, self._b, self._d
        if not (a or b):
            raise ZeroDivisionError("inverse of zero field element")
        # (a + bz)(a + b - bz) = a^2 + ab + b^2, the norm to Q, positive for
        # nonzero (a, b).
        return _raw(d * (a + b), -d * b, a * a + a * b + b * b)

    def __truediv__(self, other) -> "FieldElement":
        return self * FieldElement.of(other).inverse()

    def __rtruediv__(self, other) -> "FieldElement":
        return FieldElement.of(other) * self.inverse()

    def __pow__(self, exp: int) -> "FieldElement":
        if exp < 0:
            return self.inverse() ** (-exp)
        result = ONE
        base = self
        while exp:
            if exp & 1:
                result = result * base
            base = base * base
            exp >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, FieldElement):
            return self._a == other._a and self._b == other._b and self._d == other._d
        if isinstance(other, (int, Fraction)):
            return (not self._b and self._a == other.numerator
                    and self._d == other.denominator)
        return NotImplemented

    def __hash__(self) -> int:
        # A rational element equals its int or Fraction, so it hashes like one.
        if not self._b:
            return hash(self.rat_part)
        return hash((self.rat_part, self.zeta_part))


_new = object.__new__
_raw = FieldElement._raw


def _canonical(a: int, b: int, d: int) -> FieldElement:
    """Wrap (a, b, d) that is already in canonical form."""
    x = _new(FieldElement)
    x._a = a
    x._b = b
    x._d = d
    return x


def _ratio(p: int, q: int) -> str:
    """str(Fraction(p, q)) for q > 0, with one gcd and no Fraction."""
    g = gcd(p, q)
    return f"{p // g}/{q // g}" if q != g else str(p // g)


def _text(a: int, b: int, d: int) -> str:
    """The text "p/q" or "p/q+r/sz" of (a + b z)/d for any ints with d > 0.

    Each part is printed in lowest terms, so (a, b, d) need not be canonical:
    a polynomial's stored pair over its shared denominator prints as its
    coefficient does.  Over d = 1 there is nothing to reduce.
    """
    if d == 1:
        return f"{a}{'+' if b > 0 else '-'}{abs(b)}z" if b else str(a)
    if not b:
        return _ratio(a, d)
    return f"{_ratio(a, d)}{'+' if b > 0 else '-'}{_ratio(abs(b), d)}z"


ZERO = _canonical(0, 0, 1)
ONE = _canonical(1, 0, 1)
ZETA = FieldElement.zeta()
ZETA_BAR = ONE - ZETA
