"""Exact arithmetic in the ground field Q(z), where z^2 = z - 1.

z is a primitive sixth root of unity; its conjugate is 1 - z.  An element is
stored as three Python ints (a, b, d) meaning (a + b z)/d, in canonical form:
d > 0 and gcd(a, b, d) = 1.  With z^2 always reduced to z - 1 the form is
unique, so equality compares the three ints.  Every operation is an integer
formula followed by at most one gcd (``FieldElement._raw``).  ``_scaled``
gives :mod:`braidops.multipoly` the integer numerators of a whole term map
over one denominator, so that it accumulates products in integers, and
``_unscaled`` turns the sums back into field elements.  The rational part
a/d and the z coefficient b/d are read as Fractions through ``rat_part``
and ``zeta_part``; an element is never changed after construction.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from typing import Mapping

__all__ = ["FieldElement", "ZETA", "ZETA_BAR", "ZERO", "ONE"]

_ELEM_RE = re.compile(
    r"^(?P<rat>-?\d+(?:/0*[1-9]\d*)?)(?:(?P<zsign>[+-])(?P<zeta>\d+(?:/0*[1-9]\d*)?)z)?$"
)


class FieldElement:
    """An element rat_part + zeta_part * z of Q(z), stored as (a + b z)/d."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, rat_part, zeta_part):
        """From two ints or Fractions p/q and r/s, as (p s + r q z)/(q s)."""
        p, q = rat_part.as_integer_ratio()
        r, s = zeta_part.as_integer_ratio()
        x = _raw(p * s, r * q, q * s)
        self._a, self._b, self._d = x._a, x._b, x._d

    @staticmethod
    def _raw(a: int, b: int, d: int) -> "FieldElement":
        """(a + b z)/d for any ints with d != 0, brought to canonical form."""
        if d < 0:
            a, b, d = -a, -b, -d
        if d != 1:
            g = gcd(a, b, d)
            if g != 1:
                a //= g
                b //= g
                d //= g
        return _canonical(a, b, d)

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
        rat = Fraction(m.group("rat"))
        zeta = Fraction(0)
        if m.group("zeta") is not None:
            zeta = Fraction(m.group("zeta"))
            if m.group("zsign") == "-":
                zeta = -zeta
        return FieldElement(rat, zeta)

    def __str__(self) -> str:
        a, b, d = self._a, self._b, self._d
        if not b:
            return _ratio(a, d)
        return f"{_ratio(a, d)}{'+' if b > 0 else '-'}{_ratio(abs(b), d)}z"

    def __repr__(self) -> str:
        return f"FieldElement({self})"

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    def __add__(self, other) -> "FieldElement":
        other = FieldElement.of(other)
        d, e = self._d, other._d
        if d == e:
            return _raw(self._a + other._a, self._b + other._b, d)
        return _raw(
            self._a * e + other._a * d, self._b * e + other._b * d, d * e
        )

    __radd__ = __add__

    def __neg__(self) -> "FieldElement":
        return _canonical(-self._a, -self._b, self._d)

    def __sub__(self, other) -> "FieldElement":
        other = FieldElement.of(other)
        d, e = self._d, other._d
        if d == e:
            return _raw(self._a - other._a, self._b - other._b, d)
        return _raw(
            self._a * e - other._a * d, self._b * e - other._b * d, d * e
        )

    def __rsub__(self, other) -> "FieldElement":
        return FieldElement.of(other) - self

    def __mul__(self, other) -> "FieldElement":
        other = FieldElement.of(other)
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


def _scaled(terms: Mapping) -> tuple[list, int]:
    """The values (a + b z)/d of a map as integer pairs over one common
    denominator: ([(key, a', b'), ...], D) with each value (a' + b' z)/D."""
    den = 1
    for c in terms.values():
        d = c._d
        if den % d:
            den = den // gcd(den, d) * d
    out = []
    for key, c in terms.items():
        k = den // c._d
        out.append((key, c._a * k, c._b * k))
    return out, den


def _unscaled(pairs: Mapping, den: int) -> dict:
    """The inverse of ``_scaled``: a map of integer pairs (a, b) to the map of
    the nonzero values (a + b z)/den."""
    return {key: _raw(a, b, den) for key, (a, b) in pairs.items() if a or b}


ZERO = _canonical(0, 0, 1)
ONE = _canonical(1, 0, 1)
ZETA = FieldElement.zeta()
ZETA_BAR = ONE - ZETA
