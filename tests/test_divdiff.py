"""Tests for divided differences and the symmetric / d-positive decomposition."""

import pytest
from hypothesis import given, strategies as st

from braidops.divdiff import ddiff, dpositive_lift, dpositive_split
from braidops.field import FieldElement
from braidops.multipoly import MultiPoly, SlotPoly, swap_vars

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=8)
coeffs = st.builds(FieldElement, rationals, rationals)  # a + b z in Q(z)


def multipolys(n_vars: int, max_degree: int = 3):
    exponent = st.integers(min_value=0, max_value=max_degree)
    return st.dictionaries(
        st.tuples(*([exponent] * n_vars)), coeffs, max_size=6
    ).map(lambda t: MultiPoly(n_vars, t))


slotpolys = st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(0, 5)), coeffs, max_size=6
).map(SlotPoly)

symmetric_slotpolys = slotpolys.map(lambda p: p + p.swap())


class TestDdiff:
    @given(multipolys(3), st.integers(1, 2))
    def test_squares_to_zero(self, f, i):
        assert ddiff(ddiff(f, i), i).is_zero()

    @given(multipolys(3), st.integers(1, 2))
    def test_image_is_symmetric(self, f, i):
        g = ddiff(f, i)
        assert swap_vars(g, i) == g

    @given(multipolys(3), multipolys(3), st.integers(1, 2))
    def test_twisted_leibniz(self, f, g, i):
        lhs = ddiff(f * g, i)
        rhs = ddiff(f, i) * g + swap_vars(f, i) * ddiff(g, i)
        assert lhs == rhs

    @given(multipolys(3), st.integers(1, 2))
    def test_kills_symmetric_polynomials(self, f, i):
        sym = f + swap_vars(f, i)
        assert ddiff(sym * sym, i).is_zero()

    def test_index_bounds(self):
        f = MultiPoly.monomial(3, (2, 1, 0))
        for i in (0, 3):
            with pytest.raises(IndexError):
                ddiff(f, i)

    def test_single_value(self):
        f = MultiPoly.monomial(2, (2, 0))
        x1 = MultiPoly.variable(2, 1)
        x2 = MultiPoly.variable(2, 2)
        assert ddiff(f, 1) == x1 + x2


class TestSplit:
    @given(slotpolys)
    def test_split_reassembles(self, p):
        sym, pos = dpositive_split(p)
        assert sym + pos == p
        assert sym.is_symmetric()
        assert pos.is_dpositive()

    @given(symmetric_slotpolys)
    def test_symmetric_input_has_no_positive_part(self, p):
        sym, pos = dpositive_split(p)
        assert pos.is_zero()
        assert sym == p

    def test_example(self):
        # u v^2 = (u v^2 + u^2 v) - u^2 v
        sym, pos = dpositive_split(SlotPoly.monomial(1, 2))
        assert sym == SlotPoly.monomial(1, 2) + SlotPoly.monomial(2, 1)
        assert pos == SlotPoly.monomial(2, 1).scale(-1)


class TestLift:
    @given(symmetric_slotpolys)
    def test_lift_round_trip(self, p):
        g = dpositive_lift(p)
        assert g.is_dpositive()
        assert g.ddiff() == p

    @given(slotpolys)
    def test_dpositive_side_round_trip(self, p):
        # On d-positive polynomials, lift after ddiff is the identity.
        _, pos = dpositive_split(p)
        assert dpositive_lift(pos.ddiff()) == pos

    def test_rejects_asymmetric_input(self):
        with pytest.raises(ValueError):
            dpositive_lift(SlotPoly.u())

    def test_constant_lifts_to_u_multiple(self):
        assert dpositive_lift(SlotPoly.const(3)) == SlotPoly.u().scale(3)
