"""Tests for same-index, distant, and consecutive commutation checks."""

import random

import pytest

from braidops import commute, sampling
from braidops.braid import quad_commute_check
from braidops.commute import (
    CommuteReport,
    _consecutive_commute,
    commutes_same_index,
    cross_family_commute,
)
from braidops.families import (
    OperatorFamily,
    case1_operator,
    main_case1,
    preset,
)
from braidops.field import FieldElement
from braidops.multipoly import MultiPoly, SlotPoly
from braidops.pddo import PDDO, Degeneracy, identity_op
from cubic_reference import commutes_by_composition, consecutive_probe

U = SlotPoly.u()
V = SlotPoly.v()
UV = U - V
ZERO_P = SlotPoly.zero()


def _r0_shapes(rng):
    """R0 with neither u nor v, only u, only v, and both."""
    c = sampling.random_field_element(rng, nonzero=True)
    return [
        SlotPoly.const(c),
        U.scale(c) + SlotPoly.const(1),
        (V * V).scale(c) + V,
        sampling.random_slotpoly(rng, nonzero=True) + (U * V).scale(c),
    ]


def _operators(rng):
    """Seeded operators of all four degeneracies, over every R0 shape."""
    ops = [PDDO.zero()]
    for r0 in _r0_shapes(rng):
        q0 = sampling.random_slotpoly(rng, nonzero=True)
        ops.append(PDDO.from_q0_r0(q0, r0))  # nondegenerate
        ops.append(PDDO.from_q0_r0(ZERO_P, r0))  # Q_ZERO
        ops.append(PDDO.from_q0_r0(-UV * r0, r0))  # T_ZERO
    return ops


class TestExactCriteria:
    """The closed-form decisions against the compose and probe references."""

    def test_operators_cover_every_degeneracy(self):
        kinds = {op.degeneracy for op in _operators(random.Random(30))}
        assert kinds == set(Degeneracy)

    def test_same_index_matches_composition(self):
        rng = random.Random(31)
        for _ in range(3):
            ops = _operators(rng)
            for op1 in ops:
                for op2 in ops:
                    assert commutes_same_index(op1, op2) == commutes_by_composition(
                        op1, op2
                    ), (op1, op2)

    @pytest.mark.parametrize("i,k", [(1, 2), (2, 1), (2, 3)])
    def test_consecutive_matches_probe(self, i, k):
        rng = random.Random(32 + i + k)
        ops = _operators(rng)
        outcomes = set()
        for op_i in ops:
            for op_k in ops:
                lo, hi = (op_i, op_k) if i < k else (op_k, op_i)
                got = _consecutive_commute(lo, hi)
                assert got == consecutive_probe(op_i, op_k, i, k, 4), (op_i, op_k)
                outcomes.add(got)
        assert outcomes == {True, False}

    def test_commutation_neither_composes_nor_applies(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("commutation built an operator or a polynomial")

        fam1 = preset("grothendieck", 4, 2)
        fam2 = main_case1(4, 1, 2, 1, 2, 3)
        monkeypatch.setattr(PDDO, "compose", refuse)
        monkeypatch.setattr(PDDO, "apply", refuse)
        monkeypatch.setattr(MultiPoly, "monomial", refuse)
        for fam in (fam1, fam2):
            report = cross_family_commute(fam, fam2)
            assert not any(report.consecutive.values())


class TestSameIndex:
    def test_operator_commutes_with_itself(self):
        op = preset("demazure", 3)[1]
        assert commutes_same_index(op, op)

    def test_operator_commutes_with_scaled_identity(self):
        op = preset("grothendieck", 3, 2)[1]
        assert commutes_same_index(op, identity_op(7))

    def test_scalar_multiples_commute(self):
        op = case1_operator(1, 2, 1, 2, 3)
        assert commutes_same_index(op, op.scale(5))

    def test_hecke_translate_commutes(self):
        # Swapping b with c and shifting e to c - b + e reproduces the same
        # Q0 with a translated multiplier; the pair commutes.
        op1 = case1_operator(1, 2, 1, 2, 3)
        op2 = case1_operator(1, 1, 2, 2, 2)
        assert op1.Q0 == op2.Q0
        assert commutes_same_index(op1, op2)

    def test_shifted_e_alone_does_not_commute(self):
        op1 = case1_operator(1, 2, 1, 2, 3)
        op2 = case1_operator(1, 2, 1, 2, 4)
        assert not commutes_same_index(op1, op2)

    def test_demazure_and_pure_ddiff_do_not_commute(self):
        dem = preset("demazure", 3)[1]
        dd = preset("pure_ddiff", 3)[1]
        assert not commutes_same_index(dem, dd)

    def test_criterion_matches_composition(self):
        rng = random.Random(20)
        for _ in range(20):
            op1 = PDDO.from_q0_r0(
                sampling.random_slotpoly(rng), sampling.random_slotpoly(rng)
            )
            op2 = PDDO.from_q0_r0(
                sampling.random_slotpoly(rng), sampling.random_slotpoly(rng)
            )
            direct = op1.compose(op2) == op2.compose(op1)
            assert commutes_same_index(op1, op2) == direct

    def test_degenerate_operators_use_composition(self):
        flip = PDDO.from_pqrs(ZERO_P, ZERO_P, ZERO_P, SlotPoly.const(1))
        assert commutes_same_index(flip, flip)
        mult = PDDO.from_q0_r0(ZERO_P, U)
        assert not commutes_same_index(flip, mult)


class TestCrossFamily:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cross_family_commute(preset("demazure", 3), preset("demazure", 4))

    def test_identity_family_commutes_with_everything(self):
        rng = random.Random(21)
        fam = main_case1(4, *sampling.draw_case1_params(rng))
        ids = OperatorFamily(4, tuple(identity_op(3) for _ in range(3)))
        report = cross_family_commute(fam, ids)
        assert report.passed

    def test_consecutive_demazure_fails(self):
        dem = preset("demazure", 4)
        report = cross_family_commute(dem, dem)
        assert all(report.same_index.values())
        assert all(report.distant.values())
        assert not any(report.consecutive.values())
        assert not report.passed

    def test_distant_pairs_match_the_oracle(self):
        rng = random.Random(22)
        fam1 = main_case1(5, *sampling.draw_case1_params(rng))
        fam2 = preset("grothendieck", 5, 3)
        report = cross_family_commute(fam1, fam2)
        assert set(report.distant) == {(1, 3), (1, 4), (2, 4)}
        for i, k in report.distant:
            assert report.distant[(i, k)]
            assert quad_commute_check(fam1[i], fam2[k], i, k, 5)

    def test_uniform_families_check_one_same_index_pair(self, monkeypatch):
        calls = []

        def counted(op1, op2):
            calls.append((op1, op2))
            return commutes_same_index(op1, op2)

        monkeypatch.setattr(commute, "commutes_same_index", counted)
        fam1, fam2 = preset("demazure", 6), preset("grothendieck", 6, 2)
        report = cross_family_commute(fam1, fam2)
        assert len(calls) == 1
        direct = commutes_same_index(fam1[1], fam2[1])
        assert report.same_index == {i: direct for i in range(1, 6)}

    def test_report_shape(self):
        report = cross_family_commute(preset("demazure", 4), preset("demazure", 4))
        assert set(report.same_index) == {1, 2, 3}
        assert set(report.distant) == {(1, 3)}
        assert set(report.consecutive) == {(1, 2), (2, 1), (2, 3), (3, 2)}

    def test_empty_report_passes(self):
        assert CommuteReport().passed
