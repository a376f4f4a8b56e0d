"""Tests for exact arithmetic in the quadratic extension Q(z), z^2 = z - 1."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

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
