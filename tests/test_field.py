"""Tests for exact arithmetic in the quadratic extension Q(z), z^2 = z - 1."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, strategies as st

from braidops.field import FieldElement, ONE, ZERO, ZETA, ZETA_BAR

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=12
)
elements = st.builds(FieldElement, rationals, rationals)
nonzero_elements = elements.filter(bool)


class TestBasics:
    def test_zeta_satisfies_defining_relation(self):
        assert ZETA * ZETA == ZETA - ONE

    def test_zeta_is_a_sixth_root_of_unity(self):
        assert ZETA**6 == ONE
        for k in range(1, 6):
            assert ZETA**k != ONE

    def test_conjugate_identities(self):
        assert ZETA + ZETA_BAR == ONE
        assert ZETA * ZETA_BAR == ONE

    def test_of_accepts_ints_fractions_strings(self):
        assert FieldElement.of(3) == FieldElement(Fraction(3), Fraction(0))
        assert FieldElement.of(Fraction(1, 2)).rat_part == Fraction(1, 2)
        assert FieldElement.of("2/3-1/5z") == FieldElement(
            Fraction(2, 3), Fraction(-1, 5)
        )

    def test_of_rejects_floats(self):
        with pytest.raises(TypeError):
            FieldElement.of(0.5)

    def test_parse_rejects_garbage(self):
        for bad in ("", "z", "1+z", "1/0", "1+1/0z", "1.5", "one"):
            with pytest.raises(ValueError):
                FieldElement.parse(bad)

    def test_inverse_of_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            ZERO.inverse()

    def test_rational_elements_hash_like_their_value(self):
        assert len({FieldElement.of(1), 1}) == 1
        assert len({FieldElement.of("-3/4"), Fraction(-3, 4)}) == 1
        assert hash(ZERO) == hash(0)
        assert len({ZETA, ZETA_BAR, ONE, 1}) == 3

    def test_strings_are_not_equal_to_elements(self):
        assert FieldElement.of(1) != "1"
        assert "0+1/2z" != FieldElement.parse("0+1/2z")


class TestProperties:
    @given(elements)
    def test_string_round_trip(self, x):
        assert FieldElement.parse(str(x)) == x

    @given(st.integers(-10**30, 10**30), st.integers(-10**30, 10**30),
           st.integers(1, 10**30))
    @example(0, 0, 1)
    @example(0, -3, 6)
    @example(-4, 0, 6)
    @example(-5, -7, 10)
    def test_str_formats_each_part_as_its_fraction(self, a, b, d):
        rat, zeta = Fraction(a, d), Fraction(b, d)
        expected = str(rat) if not zeta else f"{rat}{'+' if zeta > 0 else '-'}{abs(zeta)}z"
        assert str(FieldElement(rat, zeta)) == expected

    @given(rationals)
    def test_rational_elements_equal_and_hash_like_fractions(self, q):
        x = FieldElement(q, Fraction(0))
        assert x == q and hash(x) == hash(q)

    @given(elements, elements, elements)
    def test_ring_axioms(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + y == y + x
        assert x * y == y * x

    @given(elements)
    def test_additive_inverse(self, x):
        assert x + (-x) == ZERO
        assert x - x == ZERO

    @given(nonzero_elements)
    def test_multiplicative_inverse(self, x):
        assert x * x.inverse() == ONE
        assert x / x == ONE

    @given(nonzero_elements, st.integers(min_value=-6, max_value=6))
    def test_integer_powers(self, x, k):
        expected = ONE
        for _ in range(abs(k)):
            expected = expected * (x if k >= 0 else x.inverse())
        assert x**k == expected

    @given(elements)
    def test_norm_form_inverse(self, x):
        # The inverse formula uses the conjugate a + b - bz over the norm
        # a^2 + ab + b^2; check the norm is multiplicative on a sample.
        a, b = x.rat_part, x.zeta_part
        norm = a * a + a * b + b * b
        assert (norm == 0) == (not x)


class Ref:
    """The reference Q(z): a (rational part, z part) pair of Fractions with
    the schoolbook formulas, sharing no code with braidops.field."""

    def __init__(self, r, s):
        self.r, self.s = Fraction(r), Fraction(s)

    def __add__(self, o):
        return Ref(self.r + o.r, self.s + o.s)

    def __sub__(self, o):
        return Ref(self.r - o.r, self.s - o.s)

    def __neg__(self):
        return Ref(-self.r, -self.s)

    def __mul__(self, o):
        # (a + bz)(c + dz) = ac - bd + (ad + bc + bd)z, as z^2 = z - 1.
        a, b, c, d = self.r, self.s, o.r, o.s
        return Ref(a * c - b * d, a * d + b * c + b * d)

    def inverse(self):
        a, b = self.r, self.s
        norm = a * a + a * b + b * b
        return Ref((a + b) / norm, -b / norm)

    def __truediv__(self, o):
        return self * o.inverse()

    def __pow__(self, k):
        base = self if k >= 0 else self.inverse()
        out = Ref(1, 0)
        for _ in range(abs(k)):
            out = out * base
        return out

    def __bool__(self):
        return bool(self.r or self.s)

    def key(self):
        return (self.r, self.s)

    def hash(self):
        return hash(self.r) if self.s == 0 else hash((self.r, self.s))

    def str(self):
        if self.s == 0:
            return str(self.r)
        return f"{self.r}{'+' if self.s > 0 else '-'}{abs(self.s)}z"


def is_canonical(x: FieldElement) -> bool:
    a, b, d = x._a, x._b, x._d
    return all(type(v) is int for v in (a, b, d)) and d > 0 and gcd(a, b, d) == 1


def agrees(x: FieldElement, ref: Ref) -> bool:
    return (is_canonical(x) and (x.rat_part, x.zeta_part) == ref.key()
            and hash(x) == ref.hash() and str(x) == ref.str())


pairs = st.tuples(rationals, rationals)


class TestAgainstReference:
    """The integer kernel against the Fraction-pair reference."""

    @given(pairs)
    def test_constructors(self, p):
        ref = Ref(*p)
        x = FieldElement(*p)
        assert agrees(x, ref)
        assert agrees(FieldElement.parse(str(x)), ref)
        assert agrees(FieldElement.of(str(x)), ref)
        assert agrees(FieldElement.of(p[0]), Ref(p[0], 0))
        assert agrees(FieldElement.of(p[0].numerator), Ref(p[0].numerator, 0))

    @given(pairs, pairs)
    def test_ring_operations(self, p, q):
        x, y, rx, ry = FieldElement(*p), FieldElement(*q), Ref(*p), Ref(*q)
        assert agrees(x + y, rx + ry)
        assert agrees(x - y, rx - ry)
        assert agrees(-x, -rx)
        assert agrees(x * y, rx * ry)
        assert (x == y) == (rx.key() == ry.key())
        if ry:
            assert agrees(y.inverse(), ry.inverse())
            assert agrees(x / y, rx / ry)

    @given(pairs, rationals)
    def test_mixed_with_rationals(self, p, q):
        x, rx, rq = FieldElement(*p), Ref(*p), Ref(q, 0)
        assert agrees(x + q, rx + rq) and agrees(q + x, rx + rq)
        assert agrees(x - q, rx - rq) and agrees(q - x, rq - rx)
        assert agrees(x * q, rx * rq) and agrees(q * x, rx * rq)
        assert (x == q) == (rx.key() == rq.key())
        if q:
            assert agrees(x / q, rx / rq)
        if rx:
            assert agrees(q / x, rq / rx)

    @given(pairs.filter(lambda p: any(p)), st.integers(min_value=-5, max_value=5))
    def test_powers(self, p, k):
        assert agrees(FieldElement(*p) ** k, Ref(*p) ** k)

    @given(pairs, st.integers(min_value=1, max_value=30), st.booleans())
    def test_raw_normalises_unreduced_input(self, p, k, negate):
        r, s = p
        den = r.denominator * s.denominator * k
        a, b = int(r * den), int(s * den)
        if negate:
            a, b, den = -a, -b, -den
        x = FieldElement._raw(a, b, den)
        assert is_canonical(x)
        assert x == FieldElement(r, s)
        d = r.denominator * s.denominator // gcd(r.denominator, s.denominator)
        assert FieldElement._raw(int(r * d), int(s * d), d) == FieldElement(r, s)

    def test_parts_are_read_only(self):
        x = FieldElement.of(2)
        for name in ("rat_part", "zeta_part", "extra"):
            with pytest.raises(AttributeError):
                setattr(x, name, Fraction(3))
