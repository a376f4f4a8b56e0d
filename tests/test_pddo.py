"""Tests for the operator class: invariants, action, canonical forms,
composition, and Hecke parameters."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from braidops import multipoly, sampling
from braidops.divdiff import ddiff
from braidops.families import (
    Case2Line,
    Interval,
    Isolated,
    degenerate_t_family,
    main_case1,
    main_case2,
    preset,
    with_vanishing_q0,
    zeta_pair,
)
from braidops.field import FieldElement, ZERO
from braidops.multipoly import (
    InexactDivisionError,
    MultiPoly,
    SlotPoly,
    exact_div,
    instantiate,
    swap_vars,
)
from braidops.pddo import PDDO, Degeneracy, identity_op, per_operator
from braidops.sampling import random_multipoly
from braidops.words import staircase

coeffs = st.fractions(min_value=-10, max_value=10, max_denominator=6).map(
    FieldElement.of
)

slotpolys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), coeffs, max_size=4
).map(SlotPoly)

quadruples = st.tuples(slotpolys, slotpolys, slotpolys, slotpolys)

# Q(z) coefficients with z parts and mixed denominators.
qz_coeffs = st.builds(
    FieldElement, *[st.fractions(min_value=-6, max_value=6, max_denominator=12)] * 2)
qz_slotpolys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), qz_coeffs, max_size=4
).map(SlotPoly)


def qz_polys(n):
    return st.dictionaries(st.tuples(*[st.integers(0, 3)] * n), qz_coeffs,
                           max_size=5).map(lambda terms: MultiPoly(n, terms))

U = SlotPoly.u()
V = SlotPoly.v()
ONE_P = SlotPoly.const(1)
ZERO_P = SlotPoly.zero()


def demazure() -> PDDO:
    return PDDO.from_pqrs(U, ZERO_P, ZERO_P, ZERO_P)


def pure_ddiff() -> PDDO:
    return PDDO.from_pqrs(ZERO_P, ONE_P, ZERO_P, ZERO_P)


class TestInvariants:
    def test_demazure_invariants(self):
        op = demazure()
        assert op.T == U
        assert op.Q0 == V
        assert op.R0 == ONE_P

    def test_transposition_summand_folds_into_q0(self):
        # f |-> uv s f has T = 0 and Q0 = -(u - v) uv.
        op = PDDO.from_pqrs(ZERO_P, ZERO_P, ZERO_P, U * V)
        assert op.T == ZERO_P
        assert op.Q0 == (V - U) * U * V

    @given(quadruples)
    def test_presentations_with_equal_invariants_act_equally(self, pqrs):
        op = PDDO.from_pqrs(*pqrs)
        rebuilt = PDDO.from_q0_r0(op.Q0, op.R0)
        assert op == rebuilt
        f = MultiPoly.monomial(2, (2, 1))
        assert op.apply(1, f) == rebuilt.apply(1, f)

    def test_corrupt_data_rejected(self):
        with pytest.raises(InexactDivisionError):
            PDDO(U, ZERO_P)  # T - Q0 = u is not divisible by u - v

    def test_immutable_and_hashable(self):
        op = demazure()
        with pytest.raises(AttributeError):
            op.T = ZERO_P
        assert hash(op) == hash(PDDO.from_pqrs(U, ZERO_P, ZERO_P, ZERO_P))


    def test_canonical_data_are_plain_slots(self):
        op = demazure()
        assert not hasattr(op, "__dict__")
        assert (op.R0, op.degeneracy) == (ONE_P, Degeneracy.NONDEGENERATE)
        with pytest.raises(AttributeError):
            op.R0 = ZERO_P


class TestAction:
    def test_action_matches_explicit_formula(self):
        # Demazure: pi f = d(x1 f).
        op = demazure()
        f = MultiPoly.monomial(3, (1, 1, 0))
        expected = ddiff(MultiPoly.variable(3, 1) * f, 1)
        assert op.apply(1, f) == expected

    def test_index_bounds(self):
        with pytest.raises(IndexError):
            demazure().apply(3, MultiPoly.zero(3))

    def test_linear_over_symmetric_polynomials(self):
        op = PDDO.from_pqrs(U, U * V, V, U + V)
        x1 = MultiPoly.variable(3, 1)
        x2 = MultiPoly.variable(3, 2)
        sym = x1 * x2 + x1 + x2
        f = MultiPoly.monomial(3, (2, 0, 1))
        assert op.apply(1, sym * f) == sym * op.apply(1, f)

    @given(quadruples)
    @settings(max_examples=50)
    def test_probe_identities(self, pqrs):
        """pi(1) and pi(x_i) determine the invariants:
        T = pi(x) - y pi(1) and Q0 = pi(x) - x pi(1)."""
        op = PDDO.from_pqrs(*pqrs)
        n = 2
        x = MultiPoly.variable(n, 1)
        y = MultiPoly.variable(n, 2)
        p1, px = op.apply(1, MultiPoly.const(n, 1)), op.apply(1, x)
        assert px - y * p1 == instantiate(op.T, 1, 2, n)
        assert px - x * p1 == instantiate(op.Q0, 1, 2, n)
        assert p1 == instantiate(op.R0, 1, 2, n)

    @given(qz_slotpolys, qz_slotpolys, st.integers(2, 5).flatmap(qz_polys))
    @example(ZERO_P, SlotPoly({(1, 0): FieldElement(Fraction(1, 2), Fraction(-2, 3))}),
             MultiPoly(3, {(2, 0, 1): FieldElement(Fraction(3, 4), Fraction(5))}))
    @example(SlotPoly({(0, 1): FieldElement(Fraction(-1, 6), Fraction(1, 4))}), ZERO_P,
             MultiPoly(4, {(0, 3, 1, 2): FieldElement(Fraction(2), Fraction(1, 3))}))
    @example(U * V - ONE_P, V, MultiPoly.zero(5))
    @settings(max_examples=150, deadline=None)
    def test_apply_matches_the_reference_formula(self, q0, r0, f):
        """apply is one integer pass; it equals Q0 d_i f + R0 f built from
        instantiate, ddiff, two products and a sum, at every index."""
        op = PDDO.from_q0_r0(q0, r0)
        n = f.n_vars
        for i in range(1, n):
            reference = (instantiate(q0, i, i + 1, n) * ddiff(f, i)
                         + instantiate(r0, i, i + 1, n) * f)
            assert op.apply(i, f) == reference


def _long_division(numerator, i):
    """numerator / (x_i - x_{i+1}) by generic long division."""
    if numerator.is_zero():
        return numerator
    n = numerator.n_vars
    return exact_div(numerator, MultiPoly.variable(n, i) - MultiPoly.variable(n, i + 1))


class TestNoDivisionOnApply:
    def test_apply_and_ddiff_never_divide(self, monkeypatch):
        n = 4
        lines = [Case2Line.LINE1, Case2Line.LINE4, Case2Line.LINE3]
        families = [
            main_case1(n, 1, 2, 1, 2, 3),
            main_case2(n, 1, 2, 1, 2, lines),
            preset("pure_ddiff", n, 2),
            preset("demazure", n),
            preset("grothendieck", n, FieldElement.parse("1/2+1z")),
        ]
        rng = random.Random(4)
        polys = [staircase(n)] + [random_multipoly(rng, n, 4, 6) for _ in range(2)]
        cases = [(fam[i], i, f) for fam in families for i in range(1, n) for f in polys]
        expected_apply = [
            _long_division(instantiate(op.T, i, i + 1, n) * f
                           - instantiate(op.Q0, i, i + 1, n) * swap_vars(f, i), i)
            for op, i, f in cases
        ]
        expected_ddiff = [_long_division(f - swap_vars(f, i), i)
                          for _, i, f in cases]

        def refuse(*args):
            raise AssertionError("long division on the apply path")

        monkeypatch.setattr(multipoly, "_divide_terms", refuse)
        assert [op.apply(i, f) for op, i, f in cases] == expected_apply
        assert [ddiff(f, i) for _, i, f in cases] == expected_ddiff

    def test_internal_constructions_never_divide(self, monkeypatch):
        """Every operator built inside the library carries R0 in closed form;
        only the public PDDO(T, Q0) divides."""
        rng = random.Random(5)
        qhat, p, pairs = sampling.draw_degent_data(rng, 4)
        mu = sampling.random_field_element(rng, 5, nonzero=True)
        phi, psi = sampling.draw_isolated_pair(rng, mu)
        presentations = [
            tuple(sampling.random_slotpoly(rng) for _ in range(4)) for _ in range(4)
        ]

        def refuse(*args):
            raise AssertionError("long division on construction")

        monkeypatch.setattr(multipoly, "_divide_terms", refuse)
        lines = [Case2Line.LINE1, Case2Line.LINE2, Case2Line.LINE3, Case2Line.LINE4]
        families = [
            main_case1(5, 1, 2, 1, 2, 3),
            main_case2(5, 1, 2, 1, 2, lines),
            degenerate_t_family(4, qhat, p, pairs),
            with_vanishing_q0(4, mu, [Isolated(1, phi, psi)]),
            with_vanishing_q0(5, 1, [Interval(1, 2, 0, 1, 0, 0, lines[2:])]),
            preset("pure_ddiff", 4, 2),
            preset("demazure", 4),
            preset("grothendieck", 4, FieldElement.parse("1/2+1z")),
        ]
        ops = [op for fam in families for op in fam.ops]
        ops += [op for variant in (1, 2, 3, 4) for op in zeta_pair(2, 1, variant)]
        ops += [PDDO.from_pqrs(*pqrs) for pqrs in presentations]
        ops += [PDDO.zero(), identity_op(3)]
        for op1, op2 in zip(ops, ops[1:]):
            composed = op1.compose(op2)
            assert composed.T == composed.Q0 + (U - V) * composed.R0
            assert (op1 + op2).R0 == op1.R0 + op2.R0
            assert (op1 - op2).R0 == op1.R0 - op2.R0
            assert op1.scale(3).R0 == op1.R0.scale(3)
        with pytest.raises(AssertionError, match="long division"):
            PDDO(U, V)


class TestDegeneracy:
    def test_classes(self):
        assert demazure().degeneracy is Degeneracy.NONDEGENERATE
        assert identity_op(3).degeneracy is Degeneracy.Q_ZERO
        flip = PDDO.from_pqrs(ZERO_P, ZERO_P, ZERO_P, ONE_P)
        assert flip.degeneracy is Degeneracy.T_ZERO
        assert PDDO.zero().degeneracy is Degeneracy.ZERO

    def test_qzero_acts_as_multiplication(self):
        op = PDDO.from_q0_r0(ZERO_P, U * V)
        f = MultiPoly.monomial(2, (1, 0))
        x1x2 = MultiPoly.monomial(2, (1, 1))
        assert op.apply(1, f) == x1x2 * f

    def test_tzero_acts_as_scaled_transposition(self):
        op = PDDO.from_pqrs(ZERO_P, ZERO_P, ZERO_P, U)
        f = MultiPoly.monomial(2, (2, 0))
        assert op.apply(1, f) == MultiPoly.monomial(2, (1, 2))


class TestCanonicalForms:
    @given(quadruples)
    @settings(max_examples=100)
    def test_three_forms_round_trip(self, pqrs):
        op = PDDO.from_pqrs(*pqrs)
        cf = op.canonical_forms()
        assert PDDO.from_q0_r0(cf.q0, cf.r0) == op
        assert PDDO.from_pqrs(cf.p_plus, cf.q_sup, cf.r_plus, ZERO_P) == op
        assert PDDO.from_pqrs(cf.p_sup, cf.q_plus, cf.r_plus, ZERO_P) == op
        assert cf.p_plus.is_dpositive()
        assert cf.q_plus.is_dpositive()
        assert cf.r_plus.is_dpositive()

    def test_demazure_forms(self):
        cf = demazure().canonical_forms()
        assert (cf.p_plus, cf.q_sup, cf.r_plus) == (U, ZERO_P, ZERO_P)
        assert (cf.p_sup, cf.q_plus) == (U, ZERO_P)

    def test_pure_ddiff_forms(self):
        cf = pure_ddiff().canonical_forms()
        assert (cf.p_plus, cf.q_sup, cf.r_plus) == (ZERO_P, ONE_P, ZERO_P)
        assert (cf.p_sup, cf.q_plus) == (ONE_P, ZERO_P)


class TestAlgebra:
    @given(quadruples, quadruples)
    @settings(max_examples=50)
    def test_compose_matches_iterated_application(self, pqrs1, pqrs2):
        op1 = PDDO.from_pqrs(*pqrs1)
        op2 = PDDO.from_pqrs(*pqrs2)
        composed = op1.compose(op2)
        for e in ((0, 0), (1, 0), (0, 1), (2, 1), (3, 0)):
            f = MultiPoly.monomial(2, e)
            assert composed.apply(1, f) == op1.apply(1, op2.apply(1, f))

    @given(quadruples, quadruples)
    @settings(max_examples=30)
    def test_sum_acts_pointwise(self, pqrs1, pqrs2):
        op1 = PDDO.from_pqrs(*pqrs1)
        op2 = PDDO.from_pqrs(*pqrs2)
        f = MultiPoly.monomial(2, (2, 1))
        assert (op1 + op2).apply(1, f) == op1.apply(1, f) + op2.apply(1, f)
        assert (op1 - op2).apply(1, f) == op1.apply(1, f) - op2.apply(1, f)
        assert op1.scale(3).apply(1, f) == op1.apply(1, f).scale(3)


class TestHecke:
    def test_classical_values(self):
        assert pure_ddiff().hecke_params() == (ZERO, ZERO)
        assert demazure().hecke_params() == (FieldElement.of(1), ZERO)

    def test_scaled_identity(self):
        assert identity_op(5).hecke_params() == (FieldElement.of(5), ZERO)

    def test_transposition_squares_to_one(self):
        flip = PDDO.from_pqrs(ZERO_P, ZERO_P, ZERO_P, SlotPoly.const(3))
        assert flip.hecke_params() == (ZERO, FieldElement.of(9))

    def test_no_relation_for_generic_operator(self):
        op = PDDO.from_pqrs(U * U, ZERO_P, ZERO_P, ZERO_P)
        assert op.hecke_params() is None

    def test_operator_relation_on_monomials(self):
        op = demazure()
        mu, nu = op.hecke_params()
        square = op.compose(op)
        expected = op.scale(mu) + identity_op(nu)
        assert square == expected


def test_per_operator_computes_once_per_tuple_of_objects():
    a, b = [1], [1]  # equal, unhashable, distinct
    calls = []

    def fn(*args):
        calls.append(args)
        return len(calls)

    argument_tuples = [(a,), (b,), (a,), (a, b), (b, a), (a, b), (b,)]
    assert per_operator(fn, iter(argument_tuples)) == [1, 2, 1, 3, 4, 3, 2]
    assert [tuple(map(id, args)) for args in calls] == [
        (id(a),), (id(b),), (id(a), id(b)), (id(b), id(a))]
