"""Tests for the symbolic braid checks, the brute-force oracle, and the
almost-equality decision procedure."""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from braidops import braid, multipoly, pddo, sampling
from braidops.braid import (
    CubicReport,
    FamilyReport,
    Report,
    almost_equal,
    cubic_braid_check,
    family_braid_check,
    quad_commute_check,
    relation_holds,
)
from braidops.cli import _random_family
from braidops.commute import CommuteReport
from braidops.families import (
    Case2Line,
    OperatorFamily,
    case1_operator,
    case2_operator,
    isolated_operator,
    main_case1,
    main_case2,
    preset,
    transposition_scaled,
    zeta_pair,
)
from braidops.field import FieldElement
from braidops.multipoly import MultiPoly, SlotPoly
from braidops.pddo import PDDO, identity_op
from cubic_reference import (
    ARTIN_EXPONENTS,
    almost_equal_reference,
    cubic_braid_oracle,
    distant_commute_oracle,
    full_numerators,
    full_report,
)
from term_reference import ref_diagonal

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)
coeffs = rationals.map(FieldElement.of)

slotpolys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), coeffs, max_size=3
).map(SlotPoly)

zcoeffs = st.builds(FieldElement, rationals, rationals)

zslotpolys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), zcoeffs, max_size=3,
).map(SlotPoly)

U, V, ONE = SlotPoly.u(), SlotPoly.v(), SlotPoly.const(1)
UV = U - V


class TestCubicCheck:
    def test_classical_families_pass(self):
        for name in ("pure_ddiff", "demazure", "grothendieck"):
            fam = preset(name, 3, None if name == "demazure" else 2)
            report = cubic_braid_check(fam[1], fam[2])
            assert report.passed, (name, report.flags)
            assert report.failure is None

    def test_each_slot_polynomial_is_placed_once(self, monkeypatch):
        """A braiding case1 pair of two distinct, equal operators has T == T~
        in normal form, so sf, sigma_f and f are decided in two variables
        and nothing is placed in three.  A pair that fails all six flags
        refutes sf and sigma_f on the diagonal and f at one integer point,
        placing nothing, and builds f's difference, its witness, on the
        first read of failure from 6 placements, none repeated: T and T~ at
        three pairs, Q0 swap(Q0) and Q0~ swap(Q0~); R0 and R0~ are never
        placed."""
        calls = []
        real = braid.instantiate

        def counting(p, i, j, n):
            calls.append((p, i, j))
            return real(p, i, j, n)

        monkeypatch.setattr(braid, "instantiate", counting)
        pi, varpi = case1_operator(1, 2, 1, 2, 3), case1_operator(1, 2, 1, 2, 3)
        assert cubic_braid_check(pi, varpi).passed
        assert calls == []
        pi, varpi = case1_operator(1, 2, 1, 2, 3), case1_operator(0, 1, 0, 0, 3)
        report = cubic_braid_check(pi, varpi)
        assert not any(report.flags.values())
        assert calls == []
        assert report.failure == full_report(pi, varpi).failure
        assert len(calls) == 6
        assert len({(id(p), i, j) for p, i, j in calls}) == 6
        assert all(p is not pi.R0 and p is not varpi.R0 for p, _, _ in calls)

    def test_middle_flags_are_decided_by_t(self, monkeypatch):
        """With both Q0 nonzero and T != T~, s_sigma_f and sigma_s_f are False
        without T - T~ being placed: a failing pair places nothing until
        failure is read, then makes only the 6 placements of its f witness,
        and that witness is the multiplied-out difference."""
        calls = []
        real = braid.instantiate

        def counting(p, i, j, n):
            calls.append((p, i, j))
            return real(p, i, j, n)

        monkeypatch.setattr(braid, "instantiate", counting)
        op = case1_operator(1, 2, 1, 2, 3)
        h = U + 2
        bad = PDDO(op.T + h, op.Q0 + h)
        report = cubic_braid_check(op, bad)
        assert calls == []
        assert report.flags["s_sigma_f"] is False and report.flags["sigma_s_f"] is False
        assert report.failure == full_report(op, bad).failure
        assert len(calls) == len({(id(p), i, j) for p, i, j in calls}) == 6
        assert report.failure[0] == "f"
        mult = PDDO.from_q0_r0(SlotPoly.zero(), h)
        for pi, varpi in ((op, bad), (bad, op), (op, op), (op, mult)):
            parts = braid._factored_differences(pi, varpi)
            for name in ("s_sigma_f", "sigma_s_f"):
                assert parts[name][0] is (pi.T == varpi.T or not pi.Q0 or not varpi.Q0)

    @pytest.mark.parametrize("pair", [
        (case1_operator(1, 2, 1, 2, 3), case1_operator(1, 2, 1, 2, 3)),
        zeta_pair(1, 0, 1),
        (preset("grothendieck", 3, 2)[1], preset("grothendieck", 3, 2)[2]),
    ], ids=["case1", "zeta", "grothendieck"])
    def test_almost_equality_is_not_multiplied_out(self, pair, monkeypatch):
        """A braiding pair is decided in two variables: s_sigma_s_f by the
        almost-equality test, and sf, sigma_f and f by the normal-form and
        Hecke lemmas or, next to the zeta pair's multiplication operator, by
        the divisible-T step and the multiplication lemma.  The check makes no
        three-variable product, though building f's difference would."""
        pi, varpi = pair
        dims = []
        real = multipoly._mul_pairs

        def counting(a, b, n_vars):
            dims.append(n_vars)
            return real(a, b, n_vars)

        monkeypatch.setattr(multipoly, "_mul_pairs", counting)
        parts = braid._factored_differences(pi, varpi)
        assert parts["s_sigma_s_f"][0] is True
        assert cubic_braid_check(pi, varpi).passed
        assert 3 not in dims
        parts["f"][1]()
        assert dims.count(3) > 0  # what building f's difference would add

    def test_equal_q0_decides_almost_equality_alone(self, monkeypatch):
        """With Q0 == Q0~ both sides of the s_sigma_s_f identity are one
        product, so a uniform pair calls no _almost, with flags unchanged; a
        pair of distinct nonzero Q0 calls it once, on (Q0, Q0~)."""
        calls = []
        real = braid._almost

        def counting(q, qt):
            calls.append((q, qt))
            return real(q, qt)

        monkeypatch.setattr(braid, "_almost", counting)
        uniform = [(fam[1], fam[2]) for fam in (
            preset("demazure", 3), preset("pure_ddiff", 3), preset("grothendieck", 3, 2),
            main_case1(3, 1, 2, 1, 2, 3))]
        uniform.append((case1_operator(1, 2, 1, 2, 3), case1_operator(1, 2, 1, 2, 3)))
        for pi, varpi in uniform:
            calls.clear()
            assert cubic_braid_check(pi, varpi).flags == full_report(pi, varpi).flags
            assert calls == []
        dem = preset("demazure", 3)[1]
        for pi, varpi in ((dem, dem.scale(2)), (PDDO.from_q0_r0(V, U), PDDO.from_q0_r0(U, U))):
            calls.clear()
            assert cubic_braid_check(pi, varpi).flags == full_report(pi, varpi).flags
            assert len(calls) == 1
            assert calls[0][0] is pi.Q0 and calls[0][1] is varpi.Q0

    def test_failure_reports_a_witness(self):
        good = preset("demazure", 3)[1]
        bad = PDDO.from_pqrs(
            SlotPoly.u() * SlotPoly.u(), SlotPoly.zero(), SlotPoly.zero(),
            SlotPoly.zero(),
        )
        report = cubic_braid_check(good, bad)
        assert not report.passed
        name, witness = report.failure
        assert name in report.flags and not report.flags[name]
        assert not witness.is_zero()

    @given(slotpolys, slotpolys, slotpolys, slotpolys)
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_oracle_on_random_pairs(self, t1, q1, t2, q2):
        uv = SlotPoly.u() - SlotPoly.v()
        pi = PDDO(q1 + uv * t1, q1)  # R0 = t1 by construction
        varpi = PDDO(q2 + uv * t2, q2)
        assert cubic_braid_check(pi, varpi).passed == cubic_braid_oracle(pi, varpi)

    def test_zeta_pairs_pass_both_ways(self):
        rng = random.Random(0)
        for _ in range(4):
            a, b, variant = sampling.draw_zeta_params(rng)
            pi, varpi = zeta_pair(a, b, variant)
            assert cubic_braid_check(pi, varpi).passed

    def test_zeta_pair_oracle_agreement(self):
        pi, varpi = zeta_pair(1, 0, 1)
        assert cubic_braid_oracle(pi, varpi)


def assert_same_report(pi, varpi):
    got, want = cubic_braid_check(pi, varpi), full_report(pi, varpi)
    assert got.flags == want.flags
    assert got.failure == want.failure
    if got.failure is not None:
        assert str(got.failure[1]) == str(want.failure[1])
    return got


def perturbed(op, rng):
    """op plus h times the divided difference, for a random nonzero h."""
    h = sampling.random_slotpoly(rng, nonzero=True)
    return PDDO(op.T + h, op.Q0 + h)


class TestAgainstFullNumerators:
    """The factored check against the multiplied-out numerators of both
    triple compositions: same flags, failing name and witness polynomial."""

    @given(zslotpolys, zslotpolys, zslotpolys, zslotpolys,
           st.sampled_from(["random", "q_zero", "qt_zero", "t_zero", "same_t", "same_q",
                            "mult", "same_op"]))
    @settings(max_examples=80, deadline=None)
    def test_random_pairs(self, q1, r1, q2, r2, shape):
        if shape == "q_zero":
            q1 = SlotPoly.zero()
        elif shape == "qt_zero":
            q2 = SlotPoly.zero()
        elif shape == "t_zero":
            q1 = -UV * r1
        elif shape == "same_t":
            q2 = q1 + UV * (r1 - r2)
        elif shape == "same_q":
            q2 = q1
        elif shape == "mult":
            q1 = q2 = SlotPoly.zero()
        elif shape == "same_op":
            q2, r2 = q1, r1
        pi, varpi = PDDO(q1 + UV * r1, q1), PDDO(q2 + UV * r2, q2)
        assert_same_report(pi, varpi)
        assert_same_report(varpi, pi)

    def test_families_and_perturbed_copies(self):
        rng = random.Random(11)
        pairs = []
        for family in ("case1", "case2", "degen-t", "vanq0"):
            fam = _random_family(family, 5, rng)
            pairs += [(fam[i], fam[i + 1]) for i in range(1, 4)]
        for name in ("pure_ddiff", "demazure", "grothendieck"):
            fam = preset(name, 3, None if name == "demazure" else 2)
            pairs.append((fam[1], fam[2]))
        for _ in range(3):
            pairs.append(zeta_pair(*sampling.draw_zeta_params(rng)))
        failed = set()
        for pi, varpi in pairs:
            assert assert_same_report(pi, varpi).passed
            for broken in ((perturbed(pi, rng), varpi), (pi, perturbed(varpi, rng))):
                report = assert_same_report(*broken)
                failed.update(name for name, ok in report.flags.items() if not ok)
        assert failed == set(braid.COEFF_NAMES)

    @pytest.mark.parametrize("r0, rt0, braids", [
        (V + 1, U + 1, True),  # Q0~/Q0 = (u + 1)/(v + 1)
        (V + 1, (V + 1) * 2, False),
        (SlotPoly.const(1), U + 1, False),
    ])
    def test_almost_equality_decides_alone_when_t_is_zero(self, r0, rt0, braids):
        """With T = T~ = 0 every other difference vanishes, so s_sigma_s_f
        decides the pair, and its witness is built from the three-variable
        identity only there."""
        pi, varpi = PDDO.from_q0_r0(-UV * r0, r0), PDDO.from_q0_r0(-UV * rt0, rt0)
        assert pi.T.is_zero() and varpi.T.is_zero()
        report = assert_same_report(pi, varpi)
        assert report.passed == braids == cubic_braid_oracle(pi, varpi)
        assert braids or report.failure[0] == "s_sigma_s_f"


    @pytest.mark.parametrize("r0, rt0, braids", [
        (U, U, False),  # x y x against y x y
        (SlotPoly.const(1), SlotPoly.const(2), False),
        (SlotPoly.const(2), SlotPoly.const(2), True),
    ])
    def test_only_f_fails_for_multiplication_operators(self, r0, rt0, braids):
        """With both Q0 zero every factor after f vanishes, so f decides the
        pair, by the multiplication lemma on R0 and R0~ in two variables; its
        witness is built only when it fails."""
        pi, varpi = PDDO.from_q0_r0(SlotPoly.zero(), r0), PDDO.from_q0_r0(SlotPoly.zero(), rt0)
        report = assert_same_report(pi, varpi)
        assert all(report.flags[name] for name in braid.COEFF_NAMES[1:])
        assert report.passed == braids == cubic_braid_oracle(pi, varpi)
        assert braids or report.failure[0] == "f"


def three_variable_products(pi, varpi):
    """The report of cubic_braid_check(pi, varpi), failure unread, and the
    three-variable products the check made."""
    with mock.patch.object(multipoly, "_mul_pairs", wraps=multipoly._mul_pairs) as mul:
        report = cubic_braid_check(pi, varpi)
    return report, sum(call.args[2] == 3 for call in mul.call_args_list)


X0 = braid._POINT[0]


class TestPointRule:
    """f is refuted by a nonzero value of its reduced difference at one
    integer point; a zero value builds the difference in three variables.
    The witness is built on the first read of failure."""

    @pytest.mark.parametrize("pi, varpi, f", [
        (PDDO.from_q0_r0(UV, SlotPoly.zero()), PDDO.from_q0_r0(UV, SlotPoly.zero()), True),
        (PDDO.from_q0_r0((U - X0) * (V + 1), U - X0), case1_operator(1, 2, 1, 2, 3), False),
    ], ids=["t-equals-q0-equals-u-minus-v", "root-at-the-point"])
    def test_zero_value_builds_the_difference(self, pi, varpi, f):
        """T = Q0 = u - v on both sides is out of the normal form, and its f
        holds while the pair fails; Q0 and R0 both carrying u - x0, x0 the
        point's x, make f's reduced difference vanish at the point though it
        is nonzero.  Both build f's difference during the check; where f
        fails, that difference is the witness, and reading it builds nothing
        more."""
        report, products = three_variable_products(pi, varpi)
        assert products > 0
        assert report.flags["f"] is f and not report.passed
        if not f:
            with mock.patch.object(multipoly, "_mul_pairs", wraps=multipoly._mul_pairs) as mul:
                assert report.failure[0] == "f"
            assert not mul.called
        assert report == full_report(pi, varpi)
        assert_same_report(pi, varpi)

    @given(zslotpolys, zslotpolys, zslotpolys, zslotpolys, st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_random_pairs(self, q1, r1, q2, r2, root):
        """f's flag and the read witness, its name, polynomial and text, are
        the multiplied-out numerators'.  The check multiplies in three
        variables only when f's difference vanishes at the point, which a
        factor u - x0 of pi's Q0 and R0 forces."""
        if root:
            q1, r1 = q1 * (U - X0), r1 * (U - X0)
        pi, varpi = PDDO(q1 + UV * r1, q1), PDDO(q2 + UV * r2, q2)
        report, products = three_variable_products(pi, varpi)
        left, right = full_numerators(pi, varpi)
        assert not products or not (left["f"] - right["f"]).evaluate(braid._POINT)
        want = full_report(pi, varpi)
        assert report.flags["f"] == want.flags["f"]
        assert report.failure == want.failure
        assert report.failure is None or str(report.failure[1]) == str(want.failure[1])


def equal_t_pair(t, r0, rt0):
    """(pi, varpi) with T == T~ = t and R0, R0~ = r0, rt0."""
    return PDDO.from_q0_r0(t - UV * r0, r0), PDDO.from_q0_r0(t - UV * rt0, rt0)


symmetric = st.one_of(zcoeffs.map(SlotPoly.const), zslotpolys.map(lambda p: p + p.swap()))

quadratics = st.lists(zcoeffs, min_size=1, max_size=3).map(SlotPoly.univariate)

# T = T~ of every shape: symmetric + mu u (d(T) = mu), the normal form
# (pu + q)(rv + s), a(u) b(v) with a and b of degree at most 2, any slot
# polynomial, and 0.
equal_ts = st.one_of(
    st.builds(lambda s, mu: s + U * mu, symmetric, st.sampled_from([0, 1, -1, 2])),
    st.builds(lambda p, q, r, s: (U * p + q) * (V * r + s), zcoeffs, zcoeffs, zcoeffs, zcoeffs),
    st.builds(lambda a, b: a * b.swap(), quadratics, quadratics),
    zslotpolys,
    st.just(SlotPoly.zero()),
)


class TestEqualT:
    """Pairs with T == T~, where sf and sigma_f are decided by the normal-form
    lemma on T and f by equal Hecke nu, against the multiplied-out
    numerators."""

    @given(equal_ts, zslotpolys, zslotpolys, st.sampled_from(["same", "plus_one", "random"]))
    @settings(max_examples=80, deadline=None)
    def test_random_shapes(self, t, r0, rt0, choice):
        rt0 = {"same": r0, "plus_one": r0 + 1, "random": rt0}[choice]
        pi, varpi = equal_t_pair(t, r0, rt0)
        assert_same_report(pi, varpi)
        assert_same_report(varpi, pi)

    @pytest.mark.parametrize("t, r0, rt0, known", [
        (U * 2 + V, ONE, ONE, (False, False, False)),  # mu = 1, not separable
        (U + V, ONE, V, (False, False, False)),  # mu = 0, not separable
        ((U + 1) * (V + 2), ONE, ONE, (True, True, True)),  # nu = nu~ = 0
        ((U + 1) * (V + 2), ONE, ONE * 2, (True, True, False)),  # nu = 0, nu~ = 2
        (ONE * 3, U, U, (True, True, False)),  # nu = 3 + uv, not constant
        (U * U + V, ONE, ONE, (False, False, False)),  # d(T) = u + v - 1, not separable
        (SlotPoly.zero(), V + 1, U + 1, (True, True, True)),
        (U * U * (V + 2), ONE, ONE, (True, False, False)),  # deg_v T = 1, deg_u T = 2
        ((U + 1) * V * V, ONE, ONE, (False, True, False)),  # deg_u T = 1, deg_v T = 2
        # Symmetric with mu = 0, separable but of degree 2 in each slot.
        ((U + 1) * (U + 1) * (V + 1) * (V + 1) * 3, ONE, ONE, (False, False, False)),
    ], ids=["mu1-no-cocycle", "mu0-no-cocycle", "equal-nu", "unequal-nu",
            "nonconstant-nu", "nonconstant-dt", "t-zero", "sf-only", "sigma-f-only",
            "separable-quadratic"])
    def test_rules_decide_in_two_variables(self, t, r0, rt0, known):
        """The sf, sigma_f and f flags that the rules decide, f outside the
        normal form by its value at one integer point, and the full report
        in both orders."""
        pi, varpi = equal_t_pair(t, r0, rt0)
        for a, b in ((pi, varpi), (varpi, pi)):
            parts = braid._factored_differences(a, b)
            assert tuple(parts[name][0] for name in ("sf", "sigma_f", "f")) == known
            report = assert_same_report(a, b)
            assert tuple(report.flags[name] for name in ("sf", "sigma_f", "f")) == known


# The multiplier's R0: random, univariate in u, univariate in v, constant or zero.
multiplier_r0s = st.one_of(zslotpolys, quadratics, quadratics.map(SlotPoly.swap),
                           zcoeffs.map(SlotPoly.const), st.just(SlotPoly.zero()))

other_kinds = st.sampled_from(["case1", "case2", "isolated", "random", "zero", "t_zero"])


@st.composite
def other_operators(draw, kind):
    """The operator next to the multiplier: a case-1, case-2 or isolated
    operator from the samplers, a random one, the zero operator, or one
    with T = 0."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if kind == "case1":
        return case1_operator(*sampling.draw_case1_params(rng))
    if kind == "case2":
        return case2_operator(*sampling.draw_case2_params(rng), rng.choice(list(Case2Line)))
    if kind == "isolated":
        mu = sampling.random_field_element(rng, 5, nonzero=True)
        return isolated_operator(*sampling.draw_isolated_pair(rng, mu))
    if kind == "zero":
        return PDDO.zero()
    r0 = draw(zslotpolys)
    return PDDO.from_q0_r0(-UV * r0 if kind == "t_zero" else draw(zslotpolys), r0)


class TestMultiplicationLemma:
    """Pairs with a multiplication operator (Q0 = 0), every flag decided in
    two variables, sf and sigma_f by the divisible-T step and f by the
    multiplication lemma, against the multiplied-out numerators in both
    orders."""

    @given(multiplier_r0s, st.data(), other_kinds)
    @settings(max_examples=80, deadline=None)
    def test_random_pairs(self, g, data, kind):
        mult, other = PDDO.from_q0_r0(SlotPoly.zero(), g), data.draw(other_operators(kind))
        for pi, varpi in ((mult, other), (other, mult)):
            parts = braid._factored_differences(pi, varpi)
            assert None not in (parts[name][0] for name in braid.COEFF_NAMES)
            assert_same_report(pi, varpi)

    @pytest.mark.parametrize("pi, varpi, flags", [
        # Both multiply by g(y) = y + 2: the pair braids.
        (PDDO.from_q0_r0(SlotPoly.zero(), V + 2), PDDO.from_q0_r0(SlotPoly.zero(), U + 2),
         {"sf": True, "sigma_f": True, "f": True}),
        # mu = 1 gives sf, and nu = 6, not 0, refutes f.
        (case1_operator(1, 2, 1, 2, 3), identity_op(), {"sf": True, "f": False}),
        (identity_op(), case1_operator(1, 2, 1, 2, 3), {"sigma_f": True, "f": False}),
        (PDDO.zero(), PDDO.from_q0_r0(SlotPoly.zero(), U + V), {"sf": True, "f": True}),
        (PDDO.from_q0_r0(SlotPoly.zero(), U + V), PDDO.zero(), {"sigma_f": True, "f": True}),
        # g reaches the unshared variable, so the transposition flag fails,
        # though T = +-uv passes its two-variable test with that g.
        (PDDO.from_q0_r0(U * V, SlotPoly.zero()), PDDO.from_q0_r0(SlotPoly.zero(), V),
         {"sf": False, "f": False}),
        (PDDO.from_q0_r0(SlotPoly.zero(), U), PDDO.from_q0_r0(-U * V, SlotPoly.zero()),
         {"sigma_f": False, "f": False}),
    ], ids=["same-g-of-y", "case1-next-to-id", "id-next-to-case1", "zero-then-u-plus-v",
            "u-plus-v-then-zero", "g-of-z", "g-of-x"])
    def test_pinned_pairs(self, pi, varpi, flags):
        report = assert_same_report(pi, varpi)
        assert {name: report.flags[name] for name in flags} == flags
        assert report.passed == all(flags.values()) == cubic_braid_oracle(pi, varpi)

    def test_divides_nothing(self, monkeypatch):
        """g is the multiplier's stored R0, so no quotient by u - v is taken:
        on the 16 zeta_pair shapes, in both orders, and each case-2 line and
        case1 operator next to 1 Id and 2 Id, in both orders, the flags make
        no call of SlotPoly._over_u_minus_v and place nothing in three
        variables, and the whole check, witness included, makes no such
        call.  Flags and witness match the multiplied-out numerators."""
        zetas = [zeta_pair(a, b, variant) for a, b in ((1, 0), (-3, 5), (2, 1), (Fraction(1, 2), -1))
                 for variant in (1, 2, 3, 4)]
        ops = [case1_operator(1, 2, 1, 2, 3), *(case2_operator(1, 2, 1, 2, l) for l in Case2Line)]
        pairs = [pair for pi, varpi in zetas for pair in ((pi, varpi), (varpi, pi))]
        pairs += [pair for op in ops for m in (identity_op(1), identity_op(2))
                  for pair in ((op, m), (m, op))]
        calls = []
        for owner, name in ((SlotPoly, "_over_u_minus_v"), (braid, "instantiate")):
            def recording(*args, real=getattr(owner, name), name=name):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(owner, name, recording)
        for pi, varpi in pairs:
            braid._factored_differences(pi, varpi)
        assert calls == []
        for pi, varpi in pairs:
            assert_same_report(pi, varpi)
        assert "_over_u_minus_v" not in calls
        assert "instantiate" in calls  # the failing pairs' witnesses


def test_braiding_pairs_never_leave_two_variables(monkeypatch):
    """A braiding pair is decided in two variables: on the presets, zeta
    pairs, vanq0 families and case-2 families, the check places no slot
    polynomial in three variables and applies no operator, not even for the
    Hecke nu."""
    rng = random.Random(7)
    pairs = [(fam[1], fam[2]) for fam in (preset("pure_ddiff", 3), preset("demazure", 3),
                                          preset("grothendieck", 3, 1))]
    pairs += [zeta_pair(a, b, variant) for a, b in ((1, 0), (-3, 5)) for variant in (1, 2, 3, 4)]
    pairs += [zeta_pair(*sampling.draw_zeta_params(rng)) for _ in range(4)]
    for family in ("vanq0", "case2"):
        for n in (4, 5, 6):
            fam = _random_family(family, n, rng)
            pairs += [(fam[i], fam[i + 1]) for i in range(1, n - 1)]
    assert any(not pi.Q0 or not varpi.Q0 for pi, varpi in pairs)
    calls = []
    for module, name in ((braid, "instantiate"), (braid, "_run_word"), (pddo, "_run_word"),
                         (multipoly, "_apply")):
        def counting(*args, real=getattr(module, name)):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(module, name, counting)
    for pi, varpi in pairs:
        assert cubic_braid_check(pi, varpi).passed
    assert calls == []


univariates = st.lists(zcoeffs, min_size=1, max_size=2).map(SlotPoly.univariate).filter(bool)


@st.composite
def rule_operators(draw, kind):
    """An operator of one kind.  "separable": T = a(u) b(v) c(v) and Q0 =
    a(u) b(u) c(v), both separable with one diagonal.  "separable_uv": that
    Q0 times (u - v), so Q0(v,v) = T(v,v) = 0, with R0 random or -Q0 (T = 0).
    "nonseparable": Q0 random and not separable, R0 random."""
    if kind == "nonseparable":
        q0 = draw(zslotpolys.filter(lambda p: not p._separable()))
        return PDDO.from_q0_r0(q0, draw(zslotpolys))
    a, b, c = draw(univariates), draw(univariates), draw(univariates).swap()
    q0 = a * b * c
    if kind == "separable":
        return PDDO(a * b.swap() * c, q0)
    r0 = draw(st.one_of(st.just(-q0), zslotpolys))
    return PDDO.from_q0_r0(UV * q0, r0)


rule_kinds = st.sampled_from(["separable", "separable_uv", "nonseparable"])


class TestDiagonalAndSeparableRules:
    """Failing pairs refuted on the diagonal, and separable pairs, almost
    equal exactly when their diagonals agree, against the multiplied-out
    numerators."""

    @given(st.data(), rule_kinds, rule_kinds, st.sampled_from(["own", "same_r0", "same_t"]))
    @settings(max_examples=80, deadline=None)
    def test_random_kinds(self, data, kind, kind_t, r0_choice):
        """pi and varpi of the three kinds, varpi with its own R0, with R0~ =
        R0, or with T~ = T."""
        pi, varpi = data.draw(rule_operators(kind)), data.draw(rule_operators(kind_t))
        if r0_choice == "same_r0":
            varpi = PDDO.from_q0_r0(varpi.Q0, pi.R0)
        elif r0_choice == "same_t":
            varpi = PDDO.from_q0_r0(pi.T - UV * varpi.R0, varpi.R0)
        for a, b in ((pi, varpi), (varpi, pi)):
            parts = braid._factored_differences(a, b)
            assert None not in (parts["sf"][0], parts["sigma_f"][0])
            assert_same_report(a, b)

    @pytest.mark.parametrize("pi, varpi, known", [
        # T != T~ and both diagonals nonzero: both refuted, neither built.
        (PDDO(U + 2, U + 2), PDDO(V + 1, U + 1), (False, False)),
        # T~ = 0 with Q0~ = -(u - v): Q0~(v,v) = 0, and the divisible-T step,
        # with g = T~ / (u - v) = 0, decides that sf holds.
        (PDDO(U + 2, U + 2), PDDO.from_q0_r0(-UV, ONE), (True, False)),
        # Q0 = 0: sf holds through its factor, and pi multiplies by u, which
        # reaches x, the variable varpi does not touch: the divisible-T step,
        # with g = T / (u - v) = u, refutes sigma_f in two variables.
        (PDDO.from_q0_r0(SlotPoly.zero(), U), PDDO(V + 1, U + 1), (True, False)),
        # T != T~, both Q0 nonzero and one zero diagonal, where the divisible-T
        # step finds the transposition flag true: T = g(u)(s - v) next to
        # T~ = (u - v) g(u) with R0~ = g + 1, so Q0~ = -(u - v), for sf, and
        # T = (u - v) g(v) with R0 = g(v) + 1 next to T~ = (u + s) g(v) for
        # sigma_f.
        *((PDDO(g * (s - V), g * (s - V)), PDDO.from_q0_r0(-UV, g + 1), (True, False))
          for g in (1 + 2 * U, 3 + U * U, 2 * ONE) for s in (0, 3)),
        *((PDDO.from_q0_r0(-UV, g.swap() + 1), PDDO((U + s) * g.swap(), (U + s) * g.swap()),
           (False, True)) for g in (1 + 2 * U, 3 + U * U, 2 * ONE) for s in (0, 3)),
    ], ids=["both-refuted", "t-zero", "q-zero",
            *(f"{name}-g={g}-s={s}" for name in ("sf", "sigma_f")
              for g in ("1+2u", "3+u^2", "2") for s in (0, 3))])
    def test_diagonal_refutation(self, pi, varpi, known):
        """The sf and sigma_f flags that the diagonal lemma decides, or, where
        a Q0 or a diagonal is zero, a zero Q0 or the divisible-T step, all in
        two variables."""
        parts = braid._factored_differences(pi, varpi)
        assert (parts["sf"][0], parts["sigma_f"][0]) == known
        report = assert_same_report(pi, varpi)
        assert (report.flags["sf"], report.flags["sigma_f"]) == known

    @given(univariates, univariates, univariates, univariates,
           st.sampled_from(["own", "equal_diagonal", "swapped"]))
    @settings(max_examples=60, deadline=None)
    def test_separable_pairs_against_the_identity(self, a, b, at, bt, choice):
        """q = a(u) b(v) against qt = at(u) bt(v); q = a(u) (b at)(v) against
        qt = at(u) (a b)(v), whose diagonals are both a b at; and q against
        qt = b(u) a(v)."""
        q, qt = {"own": (a * b.swap(), at * bt.swap()),
                 "equal_diagonal": (a * (b * at).swap(), at * (a * b).swap()),
                 "swapped": (a * b.swap(), b * a.swap())}[choice]
        assert q._separable() and qt._separable()
        assert almost_equal(q, qt) == almost_equal_reference(q, qt)
        assert almost_equal(q, qt) == (ref_diagonal(q.terms) == ref_diagonal(qt.terms))


class TestQuadCheck:
    def test_distant_operators_commute(self):
        fam = preset("demazure", 4)
        assert quad_commute_check(fam[1], fam[3], 1, 3, 4)

    def test_rejects_close_indices(self):
        fam = preset("demazure", 4)
        with pytest.raises(ValueError):
            quad_commute_check(fam[1], fam[2], 1, 2, 4)

    def test_index_bounds(self):
        fam = preset("demazure", 4)
        with pytest.raises(IndexError):
            quad_commute_check(fam[1], fam[1], 1, 5, 4)



def braid_words(pi, varpi):
    """pi varpi pi and varpi pi varpi, pi at index 1 and varpi at 2."""
    return [(1, pi), (2, varpi), (1, pi)], [(2, varpi), (1, pi), (2, varpi)]


def shaped(q1, r1, q2, r2, shape):
    """An ordered pair (pi, varpi) of the given shape from four slot polynomials."""
    zero = SlotPoly.zero()
    q1, r1, q2, r2 = {
        "random": (q1, r1, q2, r2),
        "q_zero": (zero, r1, q2, r2),
        "qt_zero": (q1, r1, zero, r2),
        "t_zero": (-UV * r1, r1, q2, r2),
        "same_t": (q1, r1, q1 + UV * (r1 - r2), r2),
        "same_q": (q1, r1, q1, r2),
        "mult": (zero, r1, zero, r2),
        "same_op": (q1, r1, q1, r1),
    }[shape]
    return PDDO.from_q0_r0(q1, r1), PDDO.from_q0_r0(q2, r2)


def assert_relation_agrees(pi, varpi):
    """relation_holds on the braid words against the cubic check and the
    six-monomial oracle; returns the verdict."""
    holds = relation_holds(*braid_words(pi, varpi)) is None
    assert holds == cubic_braid_check(pi, varpi).passed == cubic_braid_oracle(pi, varpi)
    return holds


class TestRelationHolds:
    @given(zslotpolys, zslotpolys, zslotpolys, zslotpolys,
           st.sampled_from(["random", "q_zero", "qt_zero", "t_zero", "same_t", "same_q",
                            "mult", "same_op"]))
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_the_cubic_check_on_random_shapes(self, q1, r1, q2, r2, shape):
        pi, varpi = shaped(q1, r1, q2, r2, shape)
        assert_relation_agrees(pi, varpi)
        assert_relation_agrees(varpi, pi)

    def test_agrees_on_presets_zeta_pairs_and_perturbed_copies(self):
        rng = random.Random(5)
        pairs = []
        for name in ("pure_ddiff", "demazure", "grothendieck"):
            fam = preset(name, 3, None if name == "demazure" else 2)
            pairs.append((fam[1], fam[2]))
        for _ in range(4):
            pairs.append(zeta_pair(*sampling.draw_zeta_params(rng)))
        fam = _random_family("case1", 3, rng)
        pairs.append((fam[1], fam[2]))
        for pi, varpi in pairs:
            assert assert_relation_agrees(pi, varpi)
            for broken in ((perturbed(pi, rng), varpi), (pi, perturbed(varpi, rng))):
                assert not assert_relation_agrees(*broken)

    def test_agrees_with_the_distant_oracle(self):
        rng = random.Random(3)
        for family in ("case1", "case2", "degen-t", "vanq0"):
            fam = _random_family(family, 6, rng)
            for i, k in ((1, 3), (1, 5), (2, 4), (3, 5)):
                pi_i, pi_k = fam[i], perturbed(fam[k], rng)
                holds = relation_holds([(i, pi_i), (k, pi_k)], [(k, pi_k), (i, pi_i)])
                assert holds is None and quad_commute_check(pi_i, pi_k, i, k, 6)
                assert distant_commute_oracle(pi_i, pi_k, i, k, 6)

    @pytest.mark.parametrize("seed", range(6))
    def test_witness_is_the_first_differing_basis_vector(self, seed):
        rng = random.Random(seed)
        pi = perturbed(preset("demazure", 3)[1], rng)
        varpi = perturbed(preset("grothendieck", 3, 1)[2], rng)
        lhs, rhs = braid_words(pi, varpi)
        b, diff = relation_holds(lhs, rhs)

        def word(w, e):
            f = MultiPoly.monomial(3, e)
            for i, op in reversed(w):
                f = op.apply(i, f)
            return f

        basis = [(a, c, 0) for a, c in ARTIN_EXPONENTS]
        assert b in basis and diff
        assert diff == word(lhs, b) - word(rhs, b)
        for e in basis[:basis.index(b)]:
            assert word(lhs, e) == word(rhs, e)

    def test_negative_control_agrees_on_one_and_fails_later(self):
        """Both operators have R0 = -2, so both words send 1 to -8, yet the
        pair fails all six cubic flags: the monomial 1 alone does not decide."""
        pi, varpi = case1_operator(1, 2, 1, 2, 3), case1_operator(0, 1, 0, 0, 3)
        assert pi.R0 == varpi.R0 == -2
        lhs, rhs = braid_words(pi, varpi)
        one = MultiPoly.const(3, 1)
        left = pi.apply(1, varpi.apply(2, pi.apply(1, one)))
        assert left == varpi.apply(2, pi.apply(1, varpi.apply(2, one))) == -8
        assert not any(cubic_braid_check(pi, varpi).flags.values())
        b, diff = relation_holds(lhs, rhs)
        assert b != (0, 0, 0) and diff

    def test_nil_coxeter(self):
        d, zero = preset("pure_ddiff", 3)[1], PDDO.zero()
        assert relation_holds([(1, d), (1, d)], [(1, zero)]) is None
        assert relation_holds([(2, d), (2, d)], []) == ((0, 0, 0), -1)  # [] is the identity
        b, diff = relation_holds([(1, d)], [(1, zero)])
        assert b == (1, 0) and diff == 1

    @pytest.mark.parametrize("lhs, error", [
        ([(0, PDDO.zero())], IndexError),
        ([(-1, PDDO.zero())], IndexError),
        ([(1, SlotPoly.u())], TypeError),
        ([("1", PDDO.zero())], TypeError),
        ([(1.0, PDDO.zero())], TypeError),
    ])
    def test_refusals(self, lhs, error):
        with pytest.raises(error):
            relation_holds(lhs, [(1, PDDO.zero())])
        with pytest.raises(error):
            relation_holds([(1, PDDO.zero())], lhs)

    def test_index_message_is_the_apply_message(self):
        with pytest.raises(IndexError, match=r"operator index 0 out of range 1\.\.1"):
            relation_holds([(0, PDDO.zero())], [(1, PDDO.zero())])


class TestFamilyCheck:
    def test_small_n_rejected(self):
        fam = preset("demazure", 2)
        with pytest.raises(ValueError):
            family_braid_check(fam)

    def test_passing_family(self):
        rng = random.Random(1)
        fam = main_case1(4, *sampling.draw_case1_params(rng))
        report = family_braid_check(fam)
        assert report.passed
        assert set(report.cubic) == {(1, 2), (2, 3)}
        assert set(report.quad) == {(1, 3)}

    @pytest.mark.parametrize("n", [4, 5])
    @pytest.mark.parametrize("family", ["case1", "case2", "degen-t", "vanq0"])
    def test_distant_pairs_match_the_oracle(self, family, n):
        # The report fills distant pairs without computing; the probing
        # oracle and the term-map oracle, which shares no code with the
        # library's word loop, must agree on every one of them.
        fam = _random_family(family, n, random.Random(10 * n))
        report = family_braid_check(fam)
        distant = {(i, k) for i in range(1, n) for k in range(1, n) if k - i >= 2}
        assert set(report.quad) == distant
        for i, k in distant:
            assert report.quad[(i, k)]
            assert quad_commute_check(fam[i], fam[k], i, k, n)
            assert distant_commute_oracle(fam[i], fam[k], i, k, n)

    def test_mixed_lines_family(self):
        fam = main_case2(
            4, 1, 2, 1, 2, [Case2Line.LINE1, Case2Line.LINE4, Case2Line.LINE2]
        )
        assert family_braid_check(fam).passed

    def test_cubic_check_builds_no_variable_per_call(self, monkeypatch):
        """x - y, x - z and y - z are module constants: checking a family
        builds no variable polynomial."""
        fam = main_case2(
            5, 1, 2, 1, 2, [Case2Line.LINE1, Case2Line.LINE4, Case2Line.LINE2, Case2Line.LINE3]
        )
        calls = []
        real = MultiPoly.variable

        def counting(n_vars, i):
            calls.append((n_vars, i))
            return real(n_vars, i)

        monkeypatch.setattr(MultiPoly, "variable", staticmethod(counting))
        assert family_braid_check(fam).passed
        assert calls == []

    @staticmethod
    def counting(monkeypatch):
        calls = []

        def counted(pi, varpi):
            calls.append((pi, varpi))
            return cubic_braid_check(pi, varpi)

        monkeypatch.setattr(braid, "cubic_braid_check", counted)
        return calls

    def test_uniform_family_checks_one_pair(self, monkeypatch):
        calls = self.counting(monkeypatch)
        report = family_braid_check(preset("demazure", 6))
        assert len(calls) == 1
        assert set(report.cubic) == {(i, i + 1) for i in range(1, 5)}
        assert report.passed

    def test_cached_reports_match_per_pair_checks(self, monkeypatch):
        lines = [Case2Line.LINE1, Case2Line.LINE1, Case2Line.LINE4,
                 Case2Line.LINE2, Case2Line.LINE1, Case2Line.LINE1]
        fam = main_case2(7, 1, 2, 1, 2, lines)
        ops = list(fam.ops)
        bump = SlotPoly.u() + SlotPoly.const(1)  # adds (u + 1) d to pi_5
        ops[4] = PDDO(ops[4].T + bump, ops[4].Q0 + bump)
        broken = OperatorFamily(7, tuple(ops))
        calls = self.counting(monkeypatch)
        report = family_braid_check(fam)
        assert len(calls) == len(set(calls)) == 4  # lines (1,1) (1,4) (4,2) (2,1)
        broken_report = family_braid_check(broken)
        assert not broken_report.passed
        for f, r in ((fam, report), (broken, broken_report)):
            for i in range(1, 6):
                uncached = cubic_braid_check(f[i], f[i + 1])
                assert r.cubic[(i, i + 1)].flags == uncached.flags
                assert r.cubic[(i, i + 1)].failure == uncached.failure

    def test_equal_operators_that_are_distinct_objects(self, monkeypatch):
        # The checks run once per pair of operator objects; pairs that are
        # equal but not shared still get each pair's own report.
        dem = preset("demazure", 5)[1]
        bump = SlotPoly.u() + SlotPoly.const(1)

        def bumped():
            return PDDO(dem.T + bump, dem.Q0 + bump)

        fam = OperatorFamily(5, (bumped(), PDDO(dem.T, dem.Q0), bumped(),
                                 PDDO(dem.T, dem.Q0)))
        assert fam[1] == fam[3] and fam[1] is not fam[3]
        calls = self.counting(monkeypatch)
        report = family_braid_check(fam)
        assert len(calls) == 3
        assert not report.passed
        for i in range(1, 4):
            alone = cubic_braid_check(fam[i], fam[i + 1])
            assert report.cubic[(i, i + 1)].flags == alone.flags
            assert report.cubic[(i, i + 1)].failure == alone.failure

    def test_a_second_check_forms_no_mu(self, monkeypatch):
        """mu = d(T) is formed only with an operator's Hecke parameters, which
        it keeps: once a case-2 family's operators keep theirs, a second check
        of it differentiates no slot polynomial, with the same flags."""
        fam = main_case2(5, 1, 2, 1, 2, [Case2Line(k) for k in (1, 3, 4, 1)])
        first = family_braid_check(fam)
        calls = []
        real = SlotPoly.ddiff

        def counting(self):
            calls.append(self)
            return real(self)

        monkeypatch.setattr(SlotPoly, "ddiff", counting)
        second = family_braid_check(fam)
        assert calls == [] and first.passed and second.passed
        assert {p: r.flags for p, r in second.cubic.items()} == \
            {p: r.flags for p, r in first.cubic.items()}


@pytest.mark.parametrize("ok", [True, False])
def test_passed_and_bool_agree_on_every_report(ok):
    """A report passes when every verdict of its dict fields does; a nested
    CubicReport counts through bool() and its failure witness is no verdict."""
    cubic = CubicReport(flags={"f": True, "sf": ok},
                        failure=None if ok else ("sf", MultiPoly.variable(3, 1)))
    reports = [
        cubic,
        FamilyReport(cubic={(1, 2): cubic}, quad={(1, 3): True}),
        CommuteReport(same_index={1: True}, distant={(1, 3): True},
                      consecutive={(1, 2): ok}),
    ]
    for report in reports:
        assert report.passed is ok
        assert bool(report) is ok
        assert type(report).passed is Report.passed  # the rule is written once


class TestAlmostEqual:
    def test_rejects_zero_inputs(self):
        with pytest.raises(ValueError):
            almost_equal(SlotPoly.zero(), SlotPoly.u())

    def test_reflexive(self):
        q = SlotPoly.u() * SlotPoly.v() + SlotPoly.const(2)
        assert almost_equal(q, q)

    def test_shared_product_instances(self):
        rng = random.Random(2)
        qhat = sampling.random_slotpoly(rng, nonzero=True)
        op1 = transposition_scaled([1, 1], [2, 3], qhat)
        op2 = transposition_scaled([2, 3], [1, 1], qhat)
        assert almost_equal(op1.Q0, op2.Q0)

    def test_different_products_rejected(self):
        q1 = (SlotPoly.u() + 1) * SlotPoly.v()
        q2 = (SlotPoly.u() + 2) * SlotPoly.v()
        assert not almost_equal(q1, q2)

    def test_scalar_multiples_are_not_almost_equal(self):
        # Scaling changes the shared univariate product, so the triple
        # products pick up different powers of the scalar.
        q = SlotPoly.u() + SlotPoly.v() * SlotPoly.v()
        assert not almost_equal(q, q.scale(5))

    @pytest.mark.parametrize("q, qt, name", [
        (1, 2, "q"),
        (MultiPoly.variable(3, 1), SlotPoly.u(), "q"),
        (SlotPoly.u(), MultiPoly.variable(2, 1), "qt"),
    ], ids=["int", "three-variable", "two-variable-multipoly"])
    def test_rejects_what_is_not_a_slot_polynomial(self, q, qt, name):
        with pytest.raises(TypeError, match=f"^{name} must be a SlotPoly"):
            almost_equal(q, qt)

    @given(zslotpolys, zslotpolys)
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_three_variable_identity(self, q, qt):
        if q.is_zero() or qt.is_zero():
            return
        assert almost_equal(q, qt) == almost_equal_reference(q, qt)

    @given(st.lists(zcoeffs, min_size=1, max_size=3), zslotpolys, zslotpolys,
           st.sampled_from([1, 1, 5, Fraction(-1, 2), FieldElement(0, 1)]))
    @settings(max_examples=40, deadline=None)
    def test_built_pairs_agree_with_three_variable_identity(self, g, p, k, scalar):
        """q = g(v) p h and qt = scalar g(u) p h are almost equal exactly when
        scalar = 1.  h has the factors v, v - 1 and v - 2, so that q(u, c)
        and qt(u, c) vanish at c = 0, 1 and 2."""
        h = k * V * (V - 1) * (V - 2)
        q = SlotPoly.univariate(g, 1) * p * h
        qt = SlotPoly.univariate(g, 0) * p * h * scalar
        if q.is_zero():
            return
        assert almost_equal(q, qt) == almost_equal_reference(q, qt) == (scalar == 1)

    @pytest.mark.parametrize("q, qt", [
        (U * V, (U + 1) * V),  # both sides are 0 at c = 0
        (U * U + V + 3, (U * U + V + 3) * 5),
        ((V + 2) * (U - V * V), (U + 2) * (U - V * V) * 3),  # q g(u)/g(v), scaled
    ], ids=["zero-at-c-0", "scalar-multiple", "scaled-cocycle"])
    def test_negative_controls(self, q, qt):
        assert not almost_equal_reference(q, qt)
        assert not almost_equal(q, qt)
        assert not almost_equal(qt, q)

    @pytest.mark.parametrize("q, qt, expected", [
        ((U + 1) * (V + 2) * V * (V - 1), (U + 2) * (V + 1) * V * (V - 1), True),
        ((U + 1) * V * (V - 1), (U + 2) * V * (V - 1), False),
    ], ids=["separable-equal-diagonals", "separable-unequal-diagonals"])
    def test_separable_pairs_step_past_vanishing_c(self, q, qt, expected, monkeypatch):
        """Separable q and qt with q(u, 0) = q(u, 1) = 0: the z = c identity
        passes over c = 0 and c = 1 and decides at c = 2, almost equal
        exactly when the diagonals agree."""
        assert q._separable() and qt._separable()
        assert not (q._at_v(0) or q._at_v(1) or qt._at_v(0) or qt._at_v(1))
        assert (ref_diagonal(q.terms) == ref_diagonal(qt.terms)) is expected
        assert almost_equal_reference(q, qt) is expected
        seen = []
        real = SlotPoly._at_v

        def recording(p, c):
            seen.append(c)
            return real(p, c)

        monkeypatch.setattr(SlotPoly, "_at_v", recording)
        assert almost_equal(q, qt) is expected
        assert almost_equal(qt, q) is expected
        assert seen == [0, 0, 1, 1, 2, 2] * 2

    def test_makes_no_three_variable_product(self, monkeypatch):
        dims = []
        real = multipoly._mul_pairs

        def counting(a, b, n_vars):
            dims.append(n_vars)
            return real(a, b, n_vars)

        monkeypatch.setattr(multipoly, "_mul_pairs", counting)
        h = V * (V - 1) * (V - 2)
        assert almost_equal((V + 1) * h, (U + 1) * h)
        assert not almost_equal(U * V, (U + 1) * V)
        assert dims and set(dims) == {2}
