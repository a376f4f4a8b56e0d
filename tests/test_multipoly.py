"""Tests for sparse multivariate polynomials and bivariate slot templates."""

import re
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from braidops import field, multipoly
from braidops.cli import poly_to_json
from braidops.divdiff import ddiff, dpositive_lift, dpositive_split
from braidops.families import preset
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
from braidops.pddo import PDDO
from term_reference import (_clean, ref_apply, ref_ddiff, ref_diagonal, ref_mul, ref_place,
                            ref_sum)

coeffs = st.fractions(min_value=-20, max_value=20, max_denominator=8).map(
    FieldElement.of
)


def multipolys(n_vars: int, max_degree: int = 3):
    exponent = st.integers(min_value=0, max_value=max_degree)
    return st.dictionaries(
        st.tuples(*([exponent] * n_vars)), coeffs, max_size=6
    ).map(lambda t: MultiPoly(n_vars, t))


# Coefficients and point values with a z part, and values of each kind
# that evaluate accepts.
zeta_coeffs = st.builds(FieldElement, st.fractions(-9, 9, max_denominator=6),
                        st.fractions(-9, 9, max_denominator=6))
point_values = st.one_of(st.integers(-30, 30), st.fractions(-9, 9, max_denominator=7), zeta_coeffs,
                         zeta_coeffs.map(str))


def zeta_multipolys(n_vars: int):
    return st.dictionaries(st.tuples(*[st.integers(0, 4)] * n_vars), zeta_coeffs,
                           max_size=6).map(lambda t: MultiPoly(n_vars, t))


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

    def test_exponents_must_be_non_negative_ints(self):
        for n, e in ((1, (2.0,)), (2, (1, -1)), (2, (True, 0)), (3, (0, 1, "2"))):
            with pytest.raises(ValueError, match=re.escape(str(e))):
                MultiPoly(n, {e: 1})
        with pytest.raises(ValueError, match=re.escape("(0, -1)")):
            SlotPoly({(0, -1): 1})

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

    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(zeta_multipolys(n), st.lists(
        point_values, min_size=n, max_size=n))))
    def test_evaluation_is_the_sum_of_its_terms(self, args):
        """evaluate, summed over the stored pairs, is each coefficient times
        its monomial's value, summed in field arithmetic, at points of ints,
        Fractions, strings and elements with a z part."""
        f, point = args
        values = [FieldElement.of(v) for v in point]
        want = FieldElement.of(0)
        for e, c in f.terms.items():
            for v, k in zip(values, e):
                c = c * v ** k
            want = want + c
        got = f.evaluate(point)
        assert type(got) is FieldElement and (got._a, got._b, got._d) == (want._a, want._b, want._d)

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


# -- the stored form against a field-element reference ------------------------
#
# The reference below works on plain {exponents: FieldElement} maps with the
# field's own arithmetic and never reads a polynomial's stored integers; the
# library's results are read through `terms`.  Two and three variables run the
# written-out product loops, four and five the general one.

qz_coeffs = st.builds(
    FieldElement,
    st.fractions(min_value=-40, max_value=40, max_denominator=12),
    st.fractions(min_value=-40, max_value=40, max_denominator=12),
)


def term_maps(n_vars: int, max_size: int = 6):
    return st.dictionaries(st.tuples(*[st.integers(0, 3)] * n_vars), qz_coeffs,
                           max_size=max_size)


U_MINUS_V = {(1, 0): ONE, (0, 1): -ONE}


def operands(count: int):
    """(n, count term maps in n variables) for n from 2 to 5."""
    return st.integers(2, 5).flatmap(
        lambda n: st.tuples(st.just(n), *[term_maps(n)] * count))


def ref_swap(a: dict, k: int) -> dict:
    """Exchange exponent positions k, k + 1."""
    return {e[:k] + (e[k + 1], e[k]) + e[k + 2:]: c for e, c in a.items()}


def assert_canonical(p: MultiPoly) -> None:
    """d > 0, content 1, no zero pair; pairs are int tuples, never lists."""
    num, den = p._num, p._den
    assert type(den) is int and den > 0
    for e, pair in num.items():
        assert type(e) is tuple and len(e) == p.n_vars
        assert type(pair) is tuple and len(pair) == 2
        assert all(type(x) is int for x in pair) and pair != (0, 0)
    assert gcd(den, *[x for pair in num.values() for x in pair]) == 1


def assert_stored_form(p: MultiPoly) -> None:
    """Canonical, the zero polynomial over d = 1, and the very stored form
    that the constructor gives p's own terms."""
    assert_canonical(p)
    assert p._num or p._den == 1
    rebuilt = MultiPoly(p.n_vars, p.terms)
    assert (rebuilt._num, rebuilt._den) == (p._num, p._den)


def _snapshot(p: MultiPoly):
    return dict(p._num), p._den


class TestStoredForm:
    @given(operands(3), qz_coeffs)
    @settings(max_examples=120, deadline=None)
    def test_ring_operations_match_the_reference(self, data, c):
        n, a, b, h = data
        f, g, k = (MultiPoly(n, t) for t in (a, b, h))
        before = [_snapshot(p) for p in (f, g, k)]
        m = n // 2  # x_m, x_{m+1} have variables on both sides once n >= 4
        cases = [
            (f, _clean(a)),
            (f + g, ref_sum(a, b)),
            (f - g, ref_sum(a, b, -1)),
            (-f, {e: -x for e, x in _clean(a).items()}),
            (f * g, ref_mul(a, b)),
            (f * g * k, ref_mul(ref_mul(a, b), h)),
            (f * g - g * k, ref_sum(ref_mul(a, b), ref_mul(b, h), -1)),
            (f.scale(c), _clean({e: x * c for e, x in a.items()})),
            (f + c, ref_sum(a, {(0,) * n: c})),
            (c.rat_part - f, ref_sum({(0,) * n: FieldElement.of(c.rat_part)}, a, -1)),
            (f * c, _clean({e: x * c for e, x in a.items()})),
            (swap_vars(f, n - 1), ref_swap(_clean(a), n - 2)),
            (ddiff(f, 1), ref_ddiff(a, 0)),
            (ddiff(f * g, n - 1), ref_ddiff(ref_mul(a, b), n - 2)),
            (ddiff(f, m), ref_ddiff(a, m - 1)),
            (preset("pure_ddiff", n)[m].apply(m, f), ref_ddiff(a, m - 1)),
        ]
        for result, expected in cases:
            assert type(result) is MultiPoly and result.n_vars == n
            assert_canonical(result)
            assert result.terms == expected
        assert [_snapshot(p) for p in (f, g, k)] == before

    @given(operands(2), term_maps(2), term_maps(2), qz_coeffs, st.integers(0, 3), st.data())
    @settings(max_examples=100, deadline=None)
    def test_every_result_is_in_canonical_stored_form(self, data, s, t, c, v, choice):
        """Every result built from an accumulator or a move of stored pairs:
        products, divided differences, v set to an integer, slot swaps,
        d-positive parts, an operator's T, sums and placements, among them
        results whose pairs cancel, results that are zero and results whose
        pairs share a factor with the denominator."""
        n, a, b = data
        f, g, p, q = MultiPoly(n, a), MultiPoly(n, b), SlotPoly(s), SlotPoly(t)
        i = choice.draw(st.integers(1, n))
        j = choice.draw(st.integers(1, n).filter(lambda j: j != i))
        k = choice.draw(st.integers(1, n - 1))
        u_minus_v = SlotPoly(U_MINUS_V)
        symmetric = p + p.swap()
        results = [
            f * g, f * c, f * 0, (f + g) * (f - g), f.scale(6) * g.scale(10),
            f + g, f - g, f - f, f + c, c - f, -f,
            ddiff(f, k), ddiff(f * f, k), swap_vars(f, k), instantiate(p, i, j, n),
            p * q, (p + q) * (p - q), p * u_minus_v, p.scale(6) * q.scale(4),
            p.ddiff(), symmetric.ddiff(), (p * u_minus_v).ddiff(),
            p._at_v(v), symmetric._at_v(v), (p * u_minus_v)._at_v(0),
            p.swap(), p._dpositive(), symmetric._dpositive(), *dpositive_split(p),
            dpositive_lift(symmetric), PDDO.from_q0_r0(p, q).T, PDDO.from_q0_r0(p, -p).T,
        ]
        for result in results:
            assert_stored_form(result)

    @given(operands(1), st.integers(1, 4))
    @settings(max_examples=100, deadline=None)
    def test_ddiff_solves_its_defining_equation(self, data, i):
        """(x_i - x_{i+1}) d_i f = f - s_i f, which fixes d_i f."""
        n, a = data
        i = min(i, n - 1)
        f = MultiPoly(n, a)
        x_minus_y = {tuple(int(k == i - 1) for k in range(n)): FieldElement.of(1),
                     tuple(int(k == i) for k in range(n)): FieldElement.of(-1)}
        assert ref_mul(x_minus_y, ddiff(f, i).terms) == ref_sum(
            _clean(a), ref_swap(_clean(a), i - 1), -1)

    @given(term_maps(2), term_maps(2), term_maps(2), st.integers(2, 5), st.data())
    @settings(max_examples=80, deadline=None)
    def test_slot_operations_match_the_reference(self, a, b, h, n, data):
        p, q, r = SlotPoly(a), SlotPoly(b), SlotPoly(h)
        f = MultiPoly(n, data.draw(term_maps(n)))
        before = [_snapshot(x) for x in (p, q, r, f)]
        i = data.draw(st.integers(1, n))
        j = data.draw(st.integers(1, n).filter(lambda j: j != i))
        k = data.draw(st.integers(1, n - 1))
        a = _clean(a)
        pos = ref_sum({(x, y): c for (x, y), c in a.items() if x > y},
                      {(y, x): c for (x, y), c in a.items() if x < y}, -1)
        phi = ref_sum(a, ref_swap(a, 0))
        lift = ref_sum({(x + 1, y): c for (x, y), c in phi.items() if x >= y},
                       {(x, y + 1): c for (x, y), c in phi.items() if x >= y + 2}, -1)
        applied = ref_sum(ref_mul(ref_place(b, k, k + 1, n), ref_ddiff(f.terms, k - 1)),
                          ref_mul(ref_place(h, k, k + 1, n), f.terms))
        sym, plus = dpositive_split(p)
        cases = [
            (p.swap(), ref_swap(a, 0)),
            (p.ddiff(), ref_ddiff(a, 0)),
            (p * q, ref_mul(a, b)),
            (plus, pos),
            (sym, ref_sum(a, pos, -1)),
            (dpositive_lift(p + p.swap()), lift),
            (instantiate(p, i, j, n), ref_place(a, i, j, n)),
            (PDDO.from_q0_r0(q, r).apply(k, f), applied),
        ]
        for result, expected in cases:
            assert_canonical(result)
            assert result.terms == expected
        assert [_snapshot(x) for x in (p, q, r, f)] == before

    @given(operands(2), term_maps(2), qz_coeffs, st.data())
    @settings(max_examples=60, deadline=None)
    def test_moves_divisions_and_scalars_are_canonical(self, data, s, c, choice):
        """Slot swaps, placements, swap_vars, exact_div and the constant that
        + makes of a scalar end in the same content check as sums and
        products, on coefficients with denominators and z parts."""
        n, a, b = data
        f, g, p = MultiPoly(n, a), MultiPoly(n, b), SlotPoly(s)
        i = choice.draw(st.integers(1, n))
        j = choice.draw(st.integers(1, n).filter(lambda j: j != i))
        k = choice.draw(st.integers(1, n - 1))
        s, a = _clean(s), _clean(a)
        cases = [
            (p.swap(), ref_swap(s, 0)),
            (instantiate(p, i, j, n), ref_place(s, i, j, n)),
            (swap_vars(f, k), ref_swap(a, k - 1)),
            (f._coerce(c), _clean({(0,) * n: c})),  # what f + c adds to f
            (p._coerce(c), _clean({(0, 0): c})),
            (f + c, ref_sum(a, {(0,) * n: c})),
        ]
        if g:
            cases.append((exact_div(f * g, g), a))
            cases.append((exact_div(f.scale(3), MultiPoly.const(n, 3)), a))
        for result, expected in cases:
            assert_canonical(result)
            assert result.terms == expected

    @given(term_maps(2), st.booleans())
    @example({}, False)
    @example({(2, 0): FieldElement.of("1/2+1z"), (0, 0): FieldElement.of(-3)}, False)
    @settings(max_examples=100, deadline=None)
    def test_at_v_matches_the_reference(self, terms, no_v):
        """p(u, c) for c = 0..3 against the sum of each term's value, its
        coefficient times Fraction(c)^s, for the zero polynomial and for
        polynomials with and without v."""
        if no_v:
            terms = {(r, 0): c for (r, s), c in terms.items()}
        p = SlotPoly(terms)
        for c in range(4):
            expected: dict = {}
            for (r, s), coeff in terms.items():
                value = coeff * Fraction(c) ** s
                expected[(r, 0)] = expected.get((r, 0), FieldElement.of(0)) + value
            result = p._at_v(c)
            assert type(result) is SlotPoly
            assert_canonical(result)
            assert result.terms == _clean(expected)
        if no_v:
            assert p._at_v(0) == p and p._at_v(3) == p

    @given(term_maps(2))
    @example({})
    @example({(0, 3): FieldElement.of(0), (2, 1): ONE})  # a zero coefficient is no term
    @settings(max_examples=100, deadline=None)
    def test_degrees_are_the_largest_exponents_of_the_terms(self, terms):
        """(deg_u, deg_v) is the largest u and v exponent of a nonzero term,
        (0, 0) for the zero polynomial."""
        kept = _clean(terms)
        assert SlotPoly(terms)._degrees() == (max((r for r, _ in kept), default=0),
                                              max((s for _, s in kept), default=0))

    @given(term_maps(2), qz_coeffs, st.sampled_from(["plain", "symmetrised", "mirrored"]))
    @example({(2, 1): ONE}, FieldElement.of(2), "mirrored")
    @example({(2, 1): ONE, (1, 1): ONE}, ONE, "mirrored")
    @settings(max_examples=150, deadline=None)
    def test_is_symmetric_is_equality_with_the_swap(self, terms, c, kind):
        """is_symmetric() is p == swap(p) for p with Q(z) coefficients, for
        p + swap(p), and for p + c swap(p), whose keys are mirrored but whose
        mirrored coefficients differ unless c = 1."""
        p = SlotPoly(terms)
        if kind == "symmetrised":
            p = p + p.swap()
            assert p.is_symmetric()
        elif kind == "mirrored":
            p = p + p.swap() * c
        assert p.is_symmetric() == (p == p.swap())

    @given(st.one_of(term_maps(2), term_maps(2).map(lambda h: ref_mul(h, U_MINUS_V))),
           term_maps(2))
    @example({(1, 0): ONE, (0, 0): -ONE}, {})  # p(1, 1) = 0, but p(v, v) = v - 1
    @example({(2, 1): ONE, (1, 2): -ONE, (3, 0): ONE, (0, 3): -ONE}, {(1, 1): ONE})
    @settings(max_examples=150, deadline=None)
    def test_quotient_by_u_minus_v_is_refused_exactly_off_the_diagonal(self, terms, q0_terms):
        """p / (u - v) is None exactly when the remainder p(v, v) of the
        reference is nonzero, and otherwise (u - v) times it gives p back;
        PDDO(Q0 + p, Q0) is refused for exactly those p, and otherwise has
        the quotient for its R0."""
        p, q0 = SlotPoly(terms), SlotPoly(q0_terms)
        quotient = p._over_u_minus_v()
        assert (quotient is None) is bool(ref_diagonal(terms))
        if quotient is None:
            with pytest.raises(InexactDivisionError, match="corrupted operator data"):
                PDDO(q0 + p, q0)
            return
        assert type(quotient) is SlotPoly
        assert_canonical(quotient)
        assert ref_mul(quotient.terms, U_MINUS_V) == _clean(terms)
        assert PDDO(q0 + p, q0).R0 == quotient

    @given(st.one_of(
        term_maps(2),
        st.builds(lambda a, b: ref_mul({(r, 0): c for (r, _), c in a.items()},
                                       {(0, s): c for (_, s), c in b.items()}),
                  term_maps(2, 3), term_maps(2, 3))))
    @example({(0, 0): FieldElement.of(1), (1, 0): FieldElement.of(1),
              (0, 1): FieldElement.of(1)})  # every minor with the pivot 1 vanishes
    @example({(1, 0): FieldElement.of(1), (0, 1): FieldElement.of(1)})
    @example({(1, 1): FieldElement(0, 1), (1, 0): FieldElement(-1, 1),
              (0, 1): FieldElement(-1, 0), (0, 0): FieldElement(0, -1)})  # (zu - 1)(v + z)
    @settings(max_examples=150, deadline=None)
    def test_separable_matches_every_minor(self, terms):
        """Rank at most 1 of the coefficient matrix, against every 2x2 minor
        of it in field arithmetic; products a(u) b(v) are drawn too."""
        c = _clean(terms)
        rows, cols = sorted({r for r, _ in c}), sorted({s for _, s in c})
        zero = FieldElement.of(0)
        rank_one = all(
            c.get((r1, s1), zero) * c.get((r2, s2), zero)
            == c.get((r1, s2), zero) * c.get((r2, s1), zero)
            for i, r1 in enumerate(rows) for r2 in rows[i + 1:]
            for j, s1 in enumerate(cols) for s2 in cols[j + 1:])
        assert SlotPoly(terms)._separable() is rank_one

    def test_only_multipoly_reads_stored_pairs(self):
        """The stored form is read and built in braidops.multipoly alone: no
        other library file names the stored numerators or denominator, the
        internal constructor or the accumulator pass, nor an operator's
        action, the pass that applies it or the monomial images it keeps.
        Names that begin with "_" are matched as whole identifiers, so that
        cli's _cmd_apply is not _apply."""
        names = ("._num", "._den", "_normal(", "_from_acc(", "_summed(", "_Action", "_apply(",
                 ".images")
        readers = {}
        for path in Path(multipoly.__file__).parent.glob("*.py"):
            if path.name != "multipoly.py":
                text = path.read_text()
                found = [name for name in names
                         if re.search((r"\b" if name[0] == "_" else "") + re.escape(name), text)]
                if found:
                    readers[path.name] = found
        assert readers == {}

    def test_two_variable_products_share_one_loop(self, monkeypatch):
        """An operator applied to a 4-variable polynomial and a product of two
        slot polynomials both run the one two-variable loop, _mul_slots, and
        give what they give without it; a 3-variable product does not reach it.
        A one-term slice reads the image of its monomial, which the action
        builds, through _mul_slots for q and for r, only the first time it
        meets it; a slice of more terms runs _mul_slots for q and for r on
        every application."""
        f = MultiPoly(4, {(2, 1, 0, 3): "1/2+1z", (0, 0, 1, 1): "3", (1, 3, 2, 0): "-2/3"})
        h = MultiPoly(4, {(1, 2, 0, 3): "1/5", (1, 0, 2, 3): "2-1z"})  # one slice at 2
        q = SlotPoly({(1, 1): "0+1z", (0, 0): "1/2"})
        r = SlotPoly({(1, 0): "-3/4", (0, 2): "1"})
        g = MultiPoly(3, {(1, 0, 2): "1/3", (0, 1, 0): "0-1z"})
        op = PDDO.from_q0_r0(q, r)
        expected = [op.apply(2, f), op.apply(2, h), q * r]
        act = multipoly._Action(q, r)
        calls, builds = [], []
        real, build = multipoly._mul_slots, multipoly._Action.build

        def counting(acc, terms, slots):
            calls.append(len(slots))
            return real(acc, terms, slots)

        def counting_build(self, rs):
            builds.append(rs)
            return build(self, rs)

        monkeypatch.setattr(multipoly, "_mul_slots", counting)
        monkeypatch.setattr(multipoly._Action, "build", counting_build)
        assert multipoly._apply(f, 1, act) == expected[0]
        assert sorted(builds) == [(0, 1), (1, 0), (3, 2)]  # f's three one-term slices
        assert len(calls) == 2 * 3  # q and r, for each image
        calls.clear()
        builds.clear()
        assert multipoly._apply(f, 1, act) == expected[0]
        assert calls == [] and builds == []  # the action keeps every image
        assert multipoly._apply(h, 1, act) == expected[1]
        assert sorted(calls) == sorted([len(q._num), len(r._num)]) and builds == []
        calls.clear()
        assert q * r == expected[2]
        assert calls == [len(r._num)]
        calls.clear()
        assert g * g == MultiPoly(3, {(2, 0, 4): "1/9", (1, 1, 2): "0-2/3z", (0, 2, 0): "-1+1z"})
        assert calls == []

    def test_a_slice_of_many_terms_is_merged_first(self, monkeypatch):
        """A slice of many terms goes through _ddiff_pairs once and builds no
        image.  Reading one image per term instead (an all-images kernel) took
        ``table --n 3 --family preset:demazure`` from x1^300 from 1.55 s to
        5.76 s on a 2-core machine under Python 3.11: each image of u^r v^s
        has about |r - s| terms, where the merged slice needs one pass."""
        dem = preset("demazure", 3)[1]
        f = dem.apply(1, MultiPoly.monomial(3, (300, 0, 0)))
        assert len(f._num) == 301 and {e[2] for e in f._num} == {0}  # one slice at 1
        expected = PDDO.from_q0_r0(dem.Q0, dem.R0).apply(1, f)
        act = multipoly._Action(dem.Q0, dem.R0)
        calls, builds = [], []
        real, build = multipoly._ddiff_pairs, multipoly._Action.build

        def counting(pairs):
            calls.append(len(pairs))
            return real(pairs)

        def counting_build(self, rs):
            builds.append(rs)
            return build(self, rs)

        monkeypatch.setattr(multipoly, "_ddiff_pairs", counting)
        monkeypatch.setattr(multipoly._Action, "build", counting_build)
        assert multipoly._apply(f, 0, act) == expected
        assert calls == [301] and builds == [] and act.images == {}

    @given(term_maps(2), term_maps(2))
    @settings(max_examples=100, deadline=None)
    def test_image_of_one_is_the_slot_list_of_r0(self, q, r):
        """Q0 d(1) + R0 = R0, since d(1) = 0: the image of 1 that an action
        builds is R0's slot list, the same terms in the same order."""
        act = multipoly._Action(SlotPoly(q), SlotPoly(r))
        assert act.build((0, 0)) == act.sr

    @given(operands(1), term_maps(2), term_maps(2), term_maps(2), st.data())
    @example((4, {(2, 1, 0, 1): FieldElement.of("1/2+1z"), (0, 1, 3, 1): FieldElement.of(3),
                  (1, 1, 1, 0): FieldElement.of("-2/3"), (0, 1, 0, 1): FieldElement.of(5)}),
             {(1, 0): FieldElement.of("0+1z")}, {(0, 2): FieldElement.of(-1)},
             {(2, 0): FieldElement.of(1), (0, 3): FieldElement.of("1/3")}, None)
    @settings(max_examples=100, deadline=None)
    def test_apply_matches_the_reference(self, data, q, r, s, choice):
        """Q0 d_k f + R0 f against the field-element reference, on slices of
        one term and of more, for zero Q0 and zero R0 and for a SlotPoly f,
        through PDDO.apply and through one action applied twice, the second
        time on the images it kept: a second application builds none.  The
        operator reference term_reference.ref_apply gives the same terms."""
        n, a = data
        k = 2 if choice is None else choice.draw(st.integers(1, n - 1))
        for qs, rs in ((q, r), ({}, r), (q, {})):
            op = PDDO.from_q0_r0(SlotPoly(qs), SlotPoly(rs))
            act = multipoly._Action(op.Q0, op.R0)
            for f, terms, i in ((MultiPoly(n, a), _clean(a), k), (SlotPoly(s), _clean(s), 1)):
                m = f.n_vars
                expected = ref_sum(ref_mul(ref_place(qs, i, i + 1, m), ref_ddiff(terms, i - 1)),
                                   ref_mul(ref_place(rs, i, i + 1, m), terms))
                assert ref_apply(op, i, terms, m) == expected
                for repeat in range(3):
                    result = multipoly._apply(f, i - 1, act) if repeat else op.apply(i, f)
                    assert type(result) is type(f)
                    assert_canonical(result)
                    assert result.terms == expected
                    images = dict(act.images)
                    if repeat == 2:
                        assert images == kept and all(images[e] is kept[e] for e in kept)
                    kept = images

    @given(operands(1), st.just(ONE) | qz_coeffs.filter(bool), st.data())
    @example((3, {(2, 0, 1): FieldElement.of("1/2+1z"), (0, 3, 1): FieldElement.of(-3),
                  (1, 1, 0): FieldElement.of(2)}), ONE, None)
    @settings(max_examples=100, deadline=None)
    def test_constant_q0_makes_no_product_pass(self, data, c, choice):
        """With R0 = 0 and Q0 a nonzero constant, as for d itself and
        pure_ddiff, an action scales d f in place, or keeps it as it is when
        Q0 = 1: no _mul_slots call, on slices of one term and of more, and
        the terms of term_reference.ref_apply.  divdiff.ddiff is Q0 = 1."""
        n, a = data
        i = 1 if choice is None else choice.draw(st.integers(1, n - 1))
        op = PDDO.from_q0_r0(SlotPoly.const(c), SlotPoly.zero())
        f, products, real = MultiPoly(n, a), [], multipoly._mul_slots

        def counting(*args):
            products.append(args)
            return real(*args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(multipoly, "_mul_slots", counting)
            results = [op.apply(i, f)] + ([ddiff(f, i)] if c == ONE else [])
        assert products == []
        for result in results:
            assert_canonical(result)
            assert result.terms == ref_apply(op, i, _clean(a), n)

    @given(operands(1), term_maps(2), qz_coeffs)
    @settings(max_examples=100, deadline=None)
    def test_scale_and_negation_match_the_reference(self, data, s, c):
        """scale and unary minus are products with a constant, zero included."""
        n, a = data
        for p, terms in ((MultiPoly(n, a), a), (SlotPoly(s), s), (MultiPoly.zero(n), {})):
            for k in (c, FieldElement.of(0), -1):
                result = p.scale(k)
                assert type(result) is type(p)
                assert_canonical(result)
                assert result.terms == _clean({e: x * k for e, x in terms.items()})
            assert type(-p) is type(p) and (-p).terms == p.scale(-1).terms

    @given(operands(1), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_equal_and_hash_follow_the_terms(self, data, rng):
        """Two routes to one polynomial give one stored form, so == and hash
        agree; insertion order and common factors do not matter."""
        n, a = data
        f = MultiPoly(n, a)
        items = list(a.items())
        rng.shuffle(items)
        shuffled = MultiPoly(n, dict(items))
        two = MultiPoly(n, {e: c * 2 for e, c in a.items()})
        third = MultiPoly(n, {e: c / 3 for e, c in a.items()})
        for g in (shuffled, two.scale("1/2"), third * 3, (f + f) - f, f * MultiPoly.const(n, 1)):
            assert g == f and hash(g) == hash(f)
            assert _snapshot(g) == _snapshot(f)
        assert_canonical(two)
        assert_canonical(third)
        if f and not f.is_constant():
            assert f != f + 1 and f != MultiPoly(n + 1, {e + (0,): c for e, c in a.items()})

    @given(qz_coeffs, st.integers(2, 5))
    def test_constants_equal_and_hash_like_their_value(self, c, n):
        values = [c]
        if not c.zeta_part:
            values += [c.rat_part] + ([int(c.rat_part)] if c.rat_part.denominator == 1 else [])
        polys = [MultiPoly.const(n, c), SlotPoly.const(c),
                 MultiPoly(n, {(0,) * n: c}) + MultiPoly.variable(n, 1)
                 - MultiPoly.variable(n, 1)]
        for p in polys:
            assert_canonical(p)
            assert p.is_constant() and p.constant_value() == c
            for value in values + polys:
                assert p == value and hash(p) == hash(value)

    def test_one_denominator_per_polynomial(self):
        # (1/2 + z/3) x1 + 5/6 x2 is stored as ((3 + 2z) x1 + 5 x2)/6.
        f = MultiPoly(2, {(1, 0): FieldElement(Fraction(1, 2), Fraction(1, 3)),
                          (0, 1): FieldElement.of(Fraction(5, 6))})
        assert (f._num, f._den) == ({(1, 0): (3, 2), (0, 1): (5, 0)}, 6)
        # Doubling cancels the 2 of the denominator in every term at once.
        assert (f.scale(2)._num, f.scale(2)._den) == ({(1, 0): (3, 2), (0, 1): (5, 0)}, 3)
        # z^2 = z - 1: (z x1)(z x1) = (z - 1) x1^2.
        z = MultiPoly(2, {(1, 0): FieldElement.zeta()})
        assert ((z * z)._num, (z * z)._den) == ({(2, 0): (-1, 1)}, 1)
        assert MultiPoly.zero(3)._den == 1 and (f - f)._den == 1

    @given(qz_coeffs, term_maps(2), operands(1))
    def test_field_element_on_the_left_defers_to_the_polynomial(self, c, s, data):
        """FieldElement arithmetic returns NotImplemented for a polynomial, so
        Python asks the polynomial's reflected method."""
        n, a = data
        for p in (SlotPoly(s), MultiPoly(n, a)):
            assert c * p == p * c and type(c * p) is type(p)
            assert c + p == p + c and type(c + p) is type(p)
            assert c - p == -(p - c) and type(c - p) is type(p)

    def test_field_element_times_a_slot(self):
        c = FieldElement.parse("1+1z")
        assert c * SlotPoly.u() == SlotPoly.monomial(1, 0, c) == SlotPoly.u() * c
        for bad in (0.5, object()):
            for op in (lambda: c + bad, lambda: c - bad, lambda: c * bad):
                with pytest.raises(TypeError):
                    op()


# -- sums of slot products: the one accumulator against MultiPoly arithmetic ---

# Slot polynomials over Q(z) with unequal denominators (each one's coefficients
# are scaled by its own 1/k), the zero polynomial and scalars among them.
sum_slots = st.one_of(
    st.just(SlotPoly.zero()),
    qz_coeffs.map(SlotPoly.const),
    st.tuples(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), qz_coeffs,
                              min_size=1, max_size=4),
              st.sampled_from([1, 5, 7, 9])).map(
        lambda t: SlotPoly({e: c * Fraction(1, t[1]) for e, c in t[0].items()})),
)

# An operand as the kernel reads it, and as MultiPoly arithmetic builds it.
VIEWS = {
    "pairs": (lambda p: p, lambda p: p),
    "swap": (SlotPoly._swap_view, SlotPoly.swap),
    "ddiff": (SlotPoly._ddiff_view, SlotPoly.ddiff),
}


@st.composite
def slot_products(draw, min_size=1):
    """[((a, b, sign), a * b)] with a view of b for the kernel and the
    product built by MultiPoly arithmetic; half the time a last product
    (b k, a / k) that cancels the first, over other denominators."""
    products = []
    for _ in range(draw(st.integers(min_size, 3))):
        a, b = draw(sum_slots), draw(sum_slots)
        view, built = VIEWS[draw(st.sampled_from(sorted(VIEWS)))]
        products.append(((a, view(b), draw(st.sampled_from([1, -1]))), a * built(b)))
        if len(products) == 1:
            first = built(b), a
    if draw(st.booleans()):
        (b, a), k = first, draw(qz_coeffs.filter(bool))
        products.append(((b * k, a * k.inverse(), -products[0][0][2]), products[0][1]))
    return products


def expected_sum(products) -> SlotPoly:
    return sum((built if sign == 1 else -built for (_, _, sign), built in products),
               SlotPoly.zero())


class TestSlotSum:
    """multipoly._slot_sum, the one accumulator for a sum of slot products."""

    @given(slot_products())
    @settings(max_examples=150, deadline=None)
    def test_polynomial_exit_is_the_canonical_sum(self, products):
        total = multipoly._slot_sum([kernel for kernel, _ in products])
        assert type(total) is SlotPoly
        assert_canonical(total)
        assert total == expected_sum(products)

    @given(slot_products())
    @settings(max_examples=150, deadline=None)
    def test_zero_exit_agrees_with_equality(self, products):
        """With one product moved to the right side, "the sum is zero" reads
        a * b == c * d and the rest."""
        (first, built), rest = products[0], products[1:]
        right = -expected_sum(rest) if first[2] == 1 else expected_sum(rest)
        assert multipoly._slot_sum([k for k, _ in products], "zero") is (built == right)

    @given(sum_slots, sum_slots, st.sampled_from(sorted(VIEWS)))
    @settings(max_examples=150, deadline=None)
    def test_symmetric_exit_agrees_with_is_symmetric(self, a, b, view):
        (read, built), product = VIEWS[view], a * VIEWS[view][1](b)
        assert multipoly._slot_sum([(a, read(b), 1)], "symmetric") is product.is_symmetric()
        # a b + swap(a b), the second product over other denominators.
        mirrored = [(a, read(b), 1), (a.swap() * 3, (built(b) * Fraction(1, 3))._swap_view(), 1)]
        assert multipoly._slot_sum(mirrored, "symmetric")

    def test_exits_of_an_empty_or_cancelling_sum(self):
        a = SlotPoly({(2, 0): "1/3+1/2z", (0, 1): "-5/7"})
        b = SlotPoly({(1, 1): "0+1/9z"})
        cancelling = [(a, b, 1), (b, a, -1)]
        assert multipoly._slot_sum([], "zero") and multipoly._slot_sum([], "symmetric")
        assert multipoly._slot_sum(cancelling, "zero")
        assert multipoly._slot_sum(cancelling, "symmetric")
        for products in ([], cancelling):
            total = multipoly._slot_sum(products)
            assert_canonical(total)
            assert total == SlotPoly.zero() and total._den == 1

    def test_views_build_no_polynomial(self, monkeypatch):
        """A swap or divided-difference operand, and the zero and symmetric
        exits, build no SlotPoly; the polynomial exit builds one."""
        a = SlotPoly({(2, 1): "1/3+1/2z", (0, 1): "-5/7"})
        b = SlotPoly({(3, 0): "1/4", (1, 1): "0+2/5z"})
        built = []
        real = multipoly.MultiPoly.__dict__["_normal"]
        monkeypatch.setattr(multipoly.MultiPoly, "_normal",
                            classmethod(lambda cls, *args: built.append(cls) or real.__func__(cls, *args)))
        products = [(a, b._swap_view(), 1), (b, a._ddiff_view(), -1)]
        multipoly._slot_sum(products, "zero")
        multipoly._slot_sum(products, "symmetric")
        assert built == []
        multipoly._slot_sum(products)
        assert built == [SlotPoly]


# -- text: the one term walk against a field-element reference -----------------

# Coefficients with z parts and denominators, and +-1, which str prints without
# a factor; an empty map is the zero polynomial.
text_coeffs = qz_coeffs | st.sampled_from([1, -1, "0+1z", "-1/2"]).map(FieldElement.of)


def text_polys(n_vars: int):
    exponent = st.integers(0, 4)
    return st.dictionaries(st.tuples(*[exponent] * n_vars), text_coeffs, max_size=6)


def ref_text(p: MultiPoly, names) -> tuple[str, list[dict]]:
    """str(p) and poly_to_json(p), from p.terms and str of each field element."""
    terms = sorted(p.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)
    parts = []
    for e, c in terms:
        body = "*".join(name if k == 1 else f"{name}^{k}" for name, k in zip(names, e) if k)
        parts.append(f"({c})" if not body else body if c == ONE else f"({c})*{body}")
    return " + ".join(parts) or "0", [{"e": list(e), "c": str(c)} for e, c in terms]


class TestText:
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), text_polys(n))),
           text_polys(2))
    @settings(max_examples=150, deadline=None)
    def test_str_and_json_match_the_field_element_reference(self, data, s):
        n, a = data
        for p, names in ((MultiPoly(n, a), [f"x{k}" for k in range(1, n + 1)]),
                         (SlotPoly(s), ["u", "v"])):
            assert (str(p), poly_to_json(p)) == ref_text(p, names)

    @given(st.integers(1, 4).flatmap(lambda n: st.lists(
        text_polys(n).map(lambda a: MultiPoly(n, a)), max_size=5)))
    @settings(max_examples=100, deadline=None)
    def test_a_shared_rank_walks_each_polynomial_as_its_own(self, polys):
        """_grlex_rank ranks the exponent vectors of several polynomials in
        descending graded-lex order, 0 first, and each polynomial's term walk
        by that rank is its walk by its own."""
        rank = multipoly._grlex_rank(polys)
        assert list(rank.values()) == list(range(len(rank)))
        assert list(rank) == sorted(rank, key=lambda e: (sum(e), e), reverse=True)
        for p in polys:
            assert p._printed_terms(rank) == p._printed_terms()

    def test_str_builds_no_field_element(self, monkeypatch):
        f = MultiPoly(3, {(2, 0, 1): "-3/4+2/3z", (0, 1, 0): "1", (0, 0, 0): "5/6"})
        p = SlotPoly({(1, 0): "0-1z", (0, 2): "-1"})
        expected = [(str(x), poly_to_json(x)) for x in (f, p)]

        def refused(*args):
            raise AssertionError("a field element was built")

        monkeypatch.setattr(multipoly, "_element", refused)
        monkeypatch.setattr(FieldElement, "_raw", refused)
        monkeypatch.setattr(field, "_canonical", refused)
        assert [(str(x), poly_to_json(x)) for x in (f, p)] == expected
        assert expected[0][0] == "(-3/4+2/3z)*x1^2*x3 + x2 + (5/6)"
        assert expected[1][0] == "(-1)*v^2 + (0-1z)*u"
