"""Tests for the operator class: invariants, action, canonical forms,
composition, and Hecke parameters."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from braidops import multipoly, pddo, sampling
from braidops.braid import relation_holds
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
qz_slots_or_zero = st.one_of(st.just(ZERO_P), qz_slotpolys)


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

    def test_negative_exponents_rejected(self):
        """u^-1 and v^-1 would give R0 = 0 with T != Q0 + (u - v)R0."""
        with pytest.raises(ValueError, match=r"\(-1, 0\)"):
            PDDO(SlotPoly({(-1, 0): 1}), SlotPoly({(0, -1): 1}))

    @given(qz_slotpolys, qz_slotpolys, qz_slotpolys, st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_r0_matches_long_division(self, t, q0, h, divisible):
        """PDDO(T, Q0) finds R0 = (T - Q0)/(u - v) by the one-sided quotient:
        the same polynomial, in the same term order, as exact_div, and the
        same refusal when u - v leaves a remainder."""
        if divisible:
            t = q0 + (U - V) * h
        try:
            expected = exact_div(t - q0, U - V)
        except InexactDivisionError:
            with pytest.raises(InexactDivisionError, match="corrupted operator data"):
                PDDO(t, q0)
            return
        r0 = PDDO(t, q0).R0
        assert r0 == expected
        assert list(r0.terms.items()) == list(expected.terms.items())

    @given(qz_slots_or_zero, qz_slots_or_zero, qz_slots_or_zero)
    @settings(max_examples=150, deadline=None)
    def test_stored_pair_round_trips(self, q0, r0, bump):
        """An operator is its pair (Q0, R0): T is read off it, PDDO(T, Q0)
        gives the same pair back, and refuses exactly the (T, Q0) whose
        difference u - v does not divide."""
        op = PDDO.from_q0_r0(q0, r0)
        assert op.T == q0 + (U - V) * r0
        rebuilt = PDDO(op.T, op.Q0)
        assert rebuilt == op and hash(rebuilt) == hash(op)
        t = op.T + bump
        try:
            exact_div(t - q0, U - V)
        except InexactDivisionError:
            with pytest.raises(InexactDivisionError, match="corrupted operator data"):
                PDDO(t, q0)
        else:
            assert PDDO(t, q0).T == t

    def test_from_q0_r0_runs_no_slot_arithmetic(self, monkeypatch):
        q0, r0 = U * V - ONE_P, V.scale(FieldElement.zeta())

        def refuse(*args):
            raise AssertionError("slot arithmetic in from_q0_r0")

        for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__"):
            monkeypatch.setattr(SlotPoly, name, refuse)
        op = PDDO.from_q0_r0(q0, r0)
        assert op.Q0 is q0 and op.R0 is r0

    def test_constructor_refuses_what_is_not_a_slot_polynomial(self):
        with pytest.raises(TypeError, match="Q0 must be a SlotPoly, not int"):
            PDDO(SlotPoly.const(3), 3)
        with pytest.raises(TypeError, match="T must be a SlotPoly, not MultiPoly"):
            PDDO(MultiPoly.monomial(2, (1, 0)), ZERO_P)

    def test_sum_refuses_what_is_not_an_operator(self):
        op = demazure()
        for other in (1, ONE_P):
            for combine in (lambda: op + other, lambda: other + op,
                            lambda: op - other, lambda: other - op):
                with pytest.raises(TypeError):
                    combine()

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
        """Every operator built inside the library carries R0 in closed form,
        and the public PDDO(T, Q0) gets it by the one-sided quotient: no
        constructor divides."""
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
        for op in ops:
            assert PDDO(op.T, op.Q0) == op
            assert PDDO(op.T, op.Q0).R0 == op.R0
        with pytest.raises(InexactDivisionError, match="corrupted operator data"):
            PDDO(U, ONE_P)


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


# Q(z) operators with zero Q0 or R0 drawn as often as nonzero ones, and ones
# with linear Q0 and constant R0, which satisfy a Hecke relation.
qz_ops = st.one_of(
    st.builds(PDDO.from_q0_r0, qz_slots_or_zero, qz_slots_or_zero),
    st.builds(lambda a, b, c, r: PDDO.from_q0_r0(U * a + V * b + c, SlotPoly.const(r)),
              qz_coeffs, qz_coeffs, qz_coeffs, qz_coeffs),
)


def product_formula_compose(op1: PDDO, op2: PDDO) -> PDDO:
    """The composite by the expanded product formula, d(g h) = d(g) h +
    swap(g) d(h) with d of a symmetric polynomial zero."""
    q1, r1, q2, r2 = op1.Q0, op1.R0, op2.Q0, op2.R0
    return PDDO.from_q0_r0(q1 * q2.ddiff() + r1 * q2 + q1 * r2.swap(),
                           q1 * r2.ddiff() + r1 * r2)


def action_hecke(op: PDDO):
    """(mu, nu) with mu = d(T) and nu = op(R0) - mu R0, read off the action
    at index 1, as the relation op^2 = mu op + nu reads at 1."""
    if not op.Q0:
        return (op.R0.constant_value(), ZERO) if op.R0.is_constant() else None
    dt = op.T.ddiff()
    if not dt.is_constant():
        return None
    mu = dt.constant_value()
    nu = op.apply(1, op.R0) - op.R0 * mu
    return (mu, nu.constant_value()) if nu.is_constant() else None


class TestApplyKeepsNothing:
    @given(qz_ops, qz_ops, qz_polys(3))
    @settings(max_examples=60, deadline=None)
    def test_applied_operator_changes_nothing_it_is_compared_by(self, op, other, f):
        """==, hash, repr, immutability, compose and hecke_params read the
        pair alone, whether or not the operator has been applied."""
        cold, warm = (PDDO.from_q0_r0(op.Q0, op.R0) for _ in range(2))
        for i in (1, 2):
            warm.apply(i, f)
        assert warm == cold and hash(warm) == hash(cold) and repr(warm) == repr(cold)
        for name in ("Q0", "R0", "T", "images"):
            with pytest.raises(AttributeError):
                setattr(warm, name, ZERO_P)
        for method in (lambda p: p.compose(other), lambda p: other.compose(p),
                       PDDO.hecke_params):
            assert method(warm) == method(cold)

    def test_apply_changes_no_attribute(self):
        """An operator is its pair with its kept T and Hecke parameters, every
        slot set by its constructor: applying it, at any index and on any
        polynomial, and composing it leave every slot holding the same
        object, the T its constructor kept included; reading its Hecke
        parameters sets their slot alone."""
        assert PDDO.__slots__ == ("Q0", "R0", "_t", "_hecke")
        op = main_case1(4, 1, 2, 1, 2, 3)[2]
        before = {name: getattr(op, name) for name in PDDO.__slots__}
        for i in (1, 2, 3):
            op.apply(i, staircase(4))
        op.compose(op)
        assert all(getattr(op, name) is kept for name, kept in before.items())
        params = op.hecke_params()
        assert op._hecke is params and before["_hecke"] is pddo._UNFORMED
        assert all(getattr(op, name) is before[name] for name in ("Q0", "R0", "_t"))
        assert not hasattr(op, "__dict__")


def assert_t_kept(op: PDDO, given: SlotPoly | None = None) -> None:
    """Every slot of op is set, its T is Q0 + (u - v)R0, the same object on
    every read, and the object its constructor was given, if any."""
    assert all(hasattr(op, name) for name in PDDO.__slots__)
    t = op.T
    assert t == op.Q0 + (U - V) * op.R0 and op.T is t
    assert given is None or t is given


def family_ops(rng: random.Random) -> list:
    """The operators of a zeta pair and of a family from every other family
    constructor, drawn from rng."""
    mu = sampling.random_fraction(rng, 5, nonzero=True)
    families = [
        main_case1(4, *sampling.draw_case1_params(rng)),
        main_case2(4, *sampling.draw_case2_params(rng), sampling.random_lines(rng, 3)),
        degenerate_t_family(4, *sampling.draw_degent_data(rng, 4)),
        with_vanishing_q0(6, mu, [Isolated(1, *sampling.draw_isolated_pair(rng, mu)),
                                  Interval(3, 4, 0, mu, 0, 0)]),
        *(preset(name, 4, param) for name, param in
          (("pure_ddiff", 2), ("demazure", None), ("grothendieck", 3))),
    ]
    return [*zeta_pair(*sampling.draw_zeta_params(rng)), *(op for fam in families for op in fam.ops)]


class TestKeptT:
    @given(qz_slots_or_zero, qz_slots_or_zero, quadruples, qz_coeffs, st.integers(0, 2 ** 32))
    @settings(max_examples=40, deadline=None)
    def test_every_constructor_keeps_the_t_of_its_pair(self, q0, r0, pqrs, c, seed):
        """Every constructor sets every slot.  PDDO(T, Q0) and _from_t_r0 keep
        the T given, _from_t_r0 with the Q0 of its pair; from_q0_r0,
        from_pqrs, compose, zero, identity_op, +, -, scale and the family
        constructors keep the T of their pair, whether set or built on the
        first read."""
        t = q0 + (U - V) * r0
        assert_t_kept(PDDO(t, q0), t)
        from_t = PDDO._from_t_r0(t, r0)
        assert_t_kept(from_t, t)
        assert (from_t.Q0, from_t.R0) == (q0, r0)
        plain, pqrs_op = PDDO.from_q0_r0(q0, r0), PDDO.from_pqrs(*pqrs)
        ops = [plain, pqrs_op, plain.compose(pqrs_op), pqrs_op.compose(plain), PDDO.zero(),
               identity_op(c), plain + pqrs_op, plain - pqrs_op, plain.scale(c),
               *family_ops(random.Random(seed))]
        for op in ops:
            assert_t_kept(op)


class TestReadOffTheAction:
    """compose is the product formula, summed in one accumulator, with the
    formula in MultiPoly arithmetic and apply as its oracles; hecke_params is
    slot arithmetic, with nu read off apply as its oracle."""

    @given(st.one_of(qz_ops, st.builds(identity_op, qz_coeffs)),
           st.one_of(qz_ops, st.builds(identity_op, qz_coeffs), st.none()))
    @settings(max_examples=80, deadline=None)
    def test_compose_is_the_word_of_its_factors(self, op1, op2):
        """The composite at index 1 agrees with the two-letter word on the
        Artin basis 1, x_1 of index 1; op2 None composes op1 with itself."""
        op2 = op1 if op2 is None else op2
        assert relation_holds([(1, op1.compose(op2))], [(1, op1), (1, op2)]) is None

    def test_compose_applies_no_operator(self, monkeypatch):
        """compose neither prepares an action nor runs the word loop."""
        op1, op2 = main_case1(3, 1, 2, 1, 2, 3)[1], PDDO.from_q0_r0(U * V + 1, U - 2)
        expected = [op1.compose(op2), op2.compose(op1), op1.compose(op1)]

        def refuse(*args):
            raise AssertionError("compose applied an operator")

        monkeypatch.setattr(multipoly, "_Action", refuse)
        for module in (multipoly, pddo):
            monkeypatch.setattr(module, "_run_word", refuse)
        assert [op1.compose(op2), op2.compose(op1), op1.compose(op1)] == expected
        assert expected == [product_formula_compose(*pair)
                            for pair in ((op1, op2), (op2, op1), (op1, op1))]

    @given(qz_ops, qz_ops, qz_polys(3))
    @settings(max_examples=80, deadline=None)
    def test_compose_matches_the_product_formula(self, op1, op2, f):
        composed = op1.compose(op2)
        assert composed == product_formula_compose(op1, op2)
        for i in (1, 2):
            assert composed.apply(i, f) == op1.apply(i, op2.apply(i, f))

    @given(qz_ops)
    @settings(max_examples=120, deadline=None)
    def test_hecke_params_match_the_action(self, op):
        """The parameters read off the action, formed once: a second call
        returns the kept result."""
        params = op.hecke_params()
        assert params == action_hecke(op) and op.hecke_params() is params
        if params is not None:
            mu, nu = params
            assert op.compose(op) == op.scale(mu) + identity_op(nu)

    def test_linear_q0_and_constant_r0_satisfy_a_relation(self):
        op = PDDO.from_q0_r0(U * 2 - V + FieldElement.zeta(), SlotPoly.const(3))
        assert op.hecke_params() == (FieldElement.of(9), FieldElement.of(-18))


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

    @given(qz_ops, qz_ops, st.integers(0, 2 ** 32))
    @settings(max_examples=40, deadline=None)
    def test_mu_is_the_leibniz_constant_of_the_pair(self, op1, op2, seed):
        """For random operators, their composites and the operators of every
        family constructor with Q0 != 0, mu is the constant d(T) = d(Q0) + R0 +
        swap(R0) (the Leibniz rule, with d(u - v) = 2), built from the pair,
        so no relation holds when that is not constant."""
        for op in (op1, op2, op1.compose(op2), op1.compose(op1), *family_ops(random.Random(seed))):
            if not op.Q0:
                continue
            leibniz, params = op.Q0.ddiff() + op.R0 + op.R0.swap(), op.hecke_params()
            if params is not None:
                assert leibniz == SlotPoly.const(params[0])


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
