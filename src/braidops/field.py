"""Exact arithmetic in the ground field Q(z), where z^2 = z - 1.

z is a primitive sixth root of unity; its conjugate is 1 - z.  Elements are
stored as an ordered pair of rationals (rational part, coefficient of z),
which is a unique representation once z^2 is always reduced to z - 1.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

__all__ = ["FieldElement", "ZETA", "ZETA_BAR", "ZERO", "ONE"]

_ELEM_RE = re.compile(
    r"^(?P<rat>-?\d+(?:/0*[1-9]\d*)?)(?:(?P<zsign>[+-])(?P<zeta>\d+(?:/0*[1-9]\d*)?)z)?$"
)


@dataclass(frozen=True)
class FieldElement:
    """An element rat_part + zeta_part * z of Q(z)."""

    rat_part: Fraction
    zeta_part: Fraction

    @staticmethod
    def of(value) -> "FieldElement":
        """Coerce an int, Fraction, string, or FieldElement."""
        if isinstance(value, FieldElement):
            return value
        if isinstance(value, (int, Fraction)):
            return FieldElement(Fraction(value), Fraction(0))
        if isinstance(value, str):
            return FieldElement.parse(value)
        raise TypeError(f"cannot coerce {value!r} to FieldElement")

    @staticmethod
    def zeta() -> "FieldElement":
        return FieldElement(Fraction(0), Fraction(1))

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
        if self.zeta_part == 0:
            return str(self.rat_part)
        sign = "+" if self.zeta_part > 0 else "-"
        return f"{self.rat_part}{sign}{abs(self.zeta_part)}z"

    def __repr__(self) -> str:
        return f"FieldElement({self})"

    def __bool__(self) -> bool:
        return self.rat_part != 0 or self.zeta_part != 0

    def __add__(self, other) -> "FieldElement":
        other = FieldElement.of(other)
        return FieldElement(
            self.rat_part + other.rat_part, self.zeta_part + other.zeta_part
        )

    __radd__ = __add__

    def __neg__(self) -> "FieldElement":
        return FieldElement(-self.rat_part, -self.zeta_part)

    def __sub__(self, other) -> "FieldElement":
        return self + (-FieldElement.of(other))

    def __rsub__(self, other) -> "FieldElement":
        return FieldElement.of(other) - self

    def __mul__(self, other) -> "FieldElement":
        other = FieldElement.of(other)
        a, b = self.rat_part, self.zeta_part
        c, d = other.rat_part, other.zeta_part
        # (a + bz)(c + dz) = ac + (ad + bc)z + bd z^2, and z^2 = z - 1.
        return FieldElement(a * c - b * d, a * d + b * c + b * d)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse; raises ZeroDivisionError on zero."""
        if not self:
            raise ZeroDivisionError("inverse of zero field element")
        a, b = self.rat_part, self.zeta_part
        # (a + bz)(a + b - bz) = a^2 + ab + b^2, the norm to Q.
        norm = a * a + a * b + b * b
        return FieldElement((a + b) / norm, -b / norm)

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
        if isinstance(other, (int, Fraction)):
            other = FieldElement.of(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.rat_part == other.rat_part and self.zeta_part == other.zeta_part

    def __hash__(self) -> int:
        # A rational element equals its int or Fraction, so it hashes like one.
        if self.zeta_part == 0:
            return hash(self.rat_part)
        return hash((self.rat_part, self.zeta_part))


ZERO = FieldElement(Fraction(0), Fraction(0))
ONE = FieldElement(Fraction(1), Fraction(0))
ZETA = FieldElement.zeta()
ZETA_BAR = ONE - ZETA
