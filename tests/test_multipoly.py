"""Tests for sparse multivariate polynomials and bivariate slot templates."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from braidops.divdiff import ddiff, dpositive_lift, dpositive_split
from braidops.field import FieldElement, ONE
from braidops.multipoly import (
    DimensionMismatchError,
    InexactDivisionError,
    MultiPoly,
    SlotPoly,
    exact_div,
    instantiate,
    swap_vars,
)

coeffs = st.fractions(min_value=-20, max_value=20, max_denominator=8).map(
    FieldElement.of
)


def multipolys(n_vars: int, max_degree: int = 3):
    exponent = st.integers(min_value=0, max_value=max_degree)
    return st.dictionaries(
        st.tuples(*([exponent] * n_vars)), coeffs, max_size=6
    ).map(lambda t: MultiPoly(n_vars, t))


slotpolys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), coeffs, max_size=6
).map(SlotPoly)


class TestMultiPoly:
    def test_zero_and_const(self):
        assert MultiPoly.zero(3).is_zero()
        assert MultiPoly.const(3, 0).is_zero()
        assert MultiPoly.const(2, 5).degree() == 0
        assert MultiPoly.zero(2).degree() == -1

    def test_variable_bounds(self):
        with pytest.raises(IndexError):
            MultiPoly.variable(3, 0)
        with pytest.raises(IndexError):
            MultiPoly.variable(3, 4)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            MultiPoly.variable(2, 1) + MultiPoly.variable(3, 1)

    def test_formatting(self):
        x1 = MultiPoly.variable(2, 1)
        x2 = MultiPoly.variable(2, 2)
        assert str(x1 * x1 * x2 + x2) == "x1^2*x2 + x2"
        assert str(MultiPoly.zero(2)) == "0"

    def test_constants_hash_like_their_value(self):
        assert len({MultiPoly.zero(3), 0}) == 1
        assert len({MultiPoly.const(2, 5), 5, FieldElement.of(5)}) == 1
        assert MultiPoly.const(2, "1/2") == Fraction(1, 2)
        assert hash(MultiPoly.const(2, "1/2")) == hash(Fraction(1, 2))
        z = FieldElement.parse("1-2z")
        assert MultiPoly.const(4, z) == z and hash(MultiPoly.const(4, z)) == hash(z)
        assert len({MultiPoly.variable(2, 1), MultiPoly.variable(2, 2)}) == 2

    def test_immutable(self):
        p = MultiPoly.variable(2, 1)
        with pytest.raises(AttributeError):
            p.n_vars = 5

    @given(multipolys(3), multipolys(3), multipolys(3))
    def test_ring_axioms(self, f, g, h):
        assert (f + g) * h == f * h + g * h
        assert f * g == g * f
        assert (f + g) + h == f + (g + h)

    @given(multipolys(3), multipolys(3))
    def test_exact_division_round_trip(self, f, g):
        if g.is_zero():
            return
        assert exact_div(f * g, g) == f

    def test_inexact_division_raises(self):
        x1 = MultiPoly.variable(2, 1)
        x2 = MultiPoly.variable(2, 2)
        with pytest.raises(InexactDivisionError):
            exact_div(x1 * x1 + x2, x1 + 1)

    @given(multipolys(3), st.integers(min_value=1, max_value=2))
    def test_swap_is_an_involution(self, f, i):
        assert swap_vars(swap_vars(f, i), i) == f

    @given(multipolys(2))
    def test_evaluation_is_a_ring_map(self, f):
        point = (FieldElement.of(2), FieldElement.of("1/3"))
        g = MultiPoly.variable(2, 1) + MultiPoly.const(2, 1)
        assert (f * g).evaluate(point) == f.evaluate(point) * g.evaluate(point)
        assert (f + g).evaluate(point) == f.evaluate(point) + g.evaluate(point)


class TestSlotPoly:
    def test_constructors(self):
        u = SlotPoly.u()
        v = SlotPoly.v()
        assert u.terms == {(1, 0): ONE}
        assert v.terms == {(0, 1): ONE}
        assert SlotPoly.univariate([1, 2, 3], 0) == (
            SlotPoly.const(1) + u.scale(2) + (u * u).scale(3)
        )
        assert SlotPoly.univariate([0, 1], 1) == v

    def test_is_a_two_variable_multipoly(self):
        u, x1 = SlotPoly.u(), MultiPoly.variable(2, 1)
        assert isinstance(u, MultiPoly) and u.n_vars == 2
        assert u.terms == x1.terms and u != x1
        with pytest.raises(DimensionMismatchError):
            u + x1
        with pytest.raises(DimensionMismatchError):
            x1 * u

    @given(slotpolys, slotpolys, coeffs)
    def test_slot_operations_return_slot_polynomials(self, p, q, c):
        uv = SlotPoly.u() - SlotPoly.v()
        results = [
            p + q, p - q, p * q, -p, 1 + p, 2 - p, 3 * p, p.scale(c), p.swap(),
            p.ddiff(), (p * uv).exact_div(uv), *dpositive_split(p),
            dpositive_lift(p + p.swap()), swap_vars(p, 1), ddiff(p, 1),
        ]
        assert all(type(r) is SlotPoly for r in results)
        assert swap_vars(p, 1) == p.swap() and ddiff(p, 1) == p.ddiff()

    def test_univariate_rejects_bad_slot(self):
        with pytest.raises(ValueError):
            SlotPoly.univariate([1], 2)

    def test_swap(self):
        p = SlotPoly.monomial(2, 1)
        assert p.swap() == SlotPoly.monomial(1, 2)
        assert (p + p.swap()).is_symmetric()

    def test_constants_hash_like_their_value(self):
        assert len({SlotPoly.zero(), 0}) == 1
        assert len({SlotPoly.const("2/3"), Fraction(2, 3), FieldElement.of("2/3")}) == 1
        two_thirds = MultiPoly.const(3, "2/3")
        assert two_thirds == Fraction(2, 3) and hash(two_thirds) == hash(SlotPoly.const("2/3"))
        assert len({SlotPoly.const("1+1z"), FieldElement.parse("1+1z")}) == 1
        # Equality of constants is transitive, so no insertion order splits them.
        assert len({Fraction(2, 3), SlotPoly.const("2/3"), two_thirds}) == 1
        assert len({SlotPoly.const("2/3"), two_thirds, Fraction(2, 3)}) == 1
        assert SlotPoly.const(5) == MultiPoly.const(3, 5) != MultiPoly.const(2, 4)
        assert SlotPoly.u() != 0 and SlotPoly.u() != SlotPoly.v()

    def test_constant_queries(self):
        assert SlotPoly.const(7).is_constant()
        assert SlotPoly.const(7).constant_value() == 7
        assert not SlotPoly.u().is_constant()
        with pytest.raises(ValueError):
            SlotPoly.u().constant_value()

    def test_dpositive_predicate(self):
        assert SlotPoly.monomial(3, 1).is_dpositive()
        assert not SlotPoly.monomial(1, 1).is_dpositive()
        assert SlotPoly.zero().is_dpositive()

    @given(slotpolys)
    def test_ddiff_matches_definition(self, p):
        numerator = p - p.swap()
        if numerator.is_zero():
            assert p.ddiff().is_zero()
        else:
            uv = SlotPoly.u() - SlotPoly.v()
            assert p.ddiff() == numerator.exact_div(uv)

    @given(slotpolys)
    def test_ddiff_image_is_symmetric(self, p):
        assert p.ddiff().is_symmetric()

    @given(slotpolys)
    def test_instantiate_is_a_ring_map(self, p):
        q = SlotPoly.u() + SlotPoly.const(2)
        assert instantiate(p * q, 1, 3, 3) == (
            instantiate(p, 1, 3, 3) * instantiate(q, 1, 3, 3)
        )

    def test_instantiate_rejects_equal_slots(self):
        with pytest.raises(ValueError):
            instantiate(SlotPoly.u(), 2, 2, 3)

    def test_monomial_ddiff_closed_form(self):
        # d(u^3 v) = u^2 v + u v^2 at l = 1, 2.
        got = SlotPoly.monomial(3, 1).ddiff()
        assert got == SlotPoly.monomial(2, 1) + SlotPoly.monomial(1, 2)
