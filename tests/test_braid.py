"""Tests for the symbolic braid checks, the brute-force oracle, and the
almost-equality decision procedure."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from braidops import braid, sampling
from braidops.braid import (
    CubicReport,
    FamilyReport,
    Report,
    almost_equal,
    cubic_braid_check,
    family_braid_check,
    quad_commute_check,
)
from braidops.cli import _random_family
from braidops.commute import CommuteReport
from braidops.families import (
    Case2Line,
    OperatorFamily,
    main_case1,
    main_case2,
    preset,
    transposition_scaled,
    zeta_pair,
)
from braidops.field import FieldElement
from braidops.multipoly import MultiPoly, SlotPoly
from braidops.pddo import PDDO
from cubic_reference import cubic_braid_oracle, full_report

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)
coeffs = rationals.map(FieldElement.of)

slotpolys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), coeffs, max_size=3
).map(SlotPoly)

zslotpolys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.builds(FieldElement, rationals, rationals), max_size=3,
).map(SlotPoly)

UV = SlotPoly.u() - SlotPoly.v()


class TestCubicCheck:
    def test_classical_families_pass(self):
        for name in ("pure_ddiff", "demazure", "grothendieck"):
            fam = preset(name, 3, None if name == "demazure" else 2)
            report = cubic_braid_check(fam[1], fam[2])
            assert report.passed, (name, report.flags)
            assert report.failure is None

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
           st.sampled_from(["random", "q_zero", "qt_zero", "t_zero", "same_t", "same_q"]))
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
        # oracle must agree on every one of them.
        fam = _random_family(family, n, random.Random(10 * n))
        report = family_braid_check(fam)
        distant = {(i, k) for i in range(1, n) for k in range(1, n) if k - i >= 2}
        assert set(report.quad) == distant
        for i, k in distant:
            assert report.quad[(i, k)]
            assert quad_commute_check(fam[i], fam[k], i, k, n)

    def test_mixed_lines_family(self):
        fam = main_case2(
            4, 1, 2, 1, 2, [Case2Line.LINE1, Case2Line.LINE4, Case2Line.LINE2]
        )
        assert family_braid_check(fam).passed

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
