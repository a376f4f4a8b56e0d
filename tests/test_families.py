"""Tests for the family constructors: parameter validation, structural
invariants, and braid verification."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from braidops import families, sampling
from braidops.braid import almost_equal, cubic_braid_check, family_braid_check
from braidops.families import (
    Case2Line,
    ConstraintError,
    Interval,
    Isolated,
    OperatorFamily,
    case1_operator,
    case2_operator,
    coincident_lines,
    degenerate_t_family,
    isolated_operator,
    main_case1,
    main_case2,
    preset,
    transposition_scaled,
    with_vanishing_q0,
    zeta_pair,
)
from braidops.field import ZETA, ZETA_BAR, FieldElement
from braidops.multipoly import SlotPoly
from braidops.pddo import PDDO, Degeneracy, identity_op

U = SlotPoly.u()
V = SlotPoly.v()
ZERO_SLOT = SlotPoly.zero()

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=4)
qz = st.builds(FieldElement, rationals, rationals)
small_slotpolys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), qz, max_size=4
).map(SlotPoly)


class TestOperatorFamily:
    def test_indexing_is_one_based(self):
        fam = preset("demazure", 4)
        assert fam[1] is fam.ops[0]
        assert fam[3] is fam.ops[2]
        for bad in (0, 4):
            with pytest.raises(IndexError):
                fam[bad]

    def test_length_validated(self):
        with pytest.raises(ValueError):
            OperatorFamily(4, (identity_op(),))


class TestMainCase1:
    def test_invariants_match_printed_normal_form(self):
        fam = main_case1(3, 1, 2, 1, 2, 3)
        op = fam[1]
        a, b, c, d, e = map(FieldElement.of, (1, 2, 1, 2, 3))
        assert op.T == (U * V).scale(a) + U.scale(b) + V.scale(c) + SlotPoly.const(d)
        assert op.Q0 == (
            (U * V).scale(a) + U.scale(c + e) + V.scale(b - e) + SlotPoly.const(d)
        )
        assert op.R0 == SlotPoly.const(b - c - e)

    def test_operators_identical_across_indices(self):
        fam = main_case1(5, 0, 1, 0, 0, 2)
        assert len(set(fam.ops)) == 1

    def test_determinant_constraint(self):
        with pytest.raises(ConstraintError, match="ad"):
            main_case1(3, 1, 1, 1, 0, 1)

    def test_not_all_zero(self):
        with pytest.raises(ConstraintError, match="all"):
            main_case1(3, 0, 0, 0, 0, 1)

    def test_excluded_e_values(self):
        for e in (0, 1):  # b - c = 1 below
            with pytest.raises(ConstraintError, match="e must"):
                main_case1(3, 1, 2, 1, 2, e)

    def test_random_draws_pass_braid(self):
        rng = random.Random(10)
        for _ in range(5):
            fam = main_case1(4, *sampling.draw_case1_params(rng))
            assert family_braid_check(fam).passed


class TestNormalForm:
    """Every constructor against the (P, Q, R, S) presentation it replaced,
    kept here as the reference; no parameter constraint is needed."""

    @staticmethod
    def _reference(a, b, c, d, e) -> dict:
        uv, uu, k, zero = U * V, U * U, SlotPoly.const, ZERO_SLOT
        pqr = {  # (P, Q, R) with S = 0
            "case1": (U.scale(b - c - e),
                      uv.scale(a) + U.scale(c + e) + V.scale(c) + k(d), zero),
            Case2Line.LINE1: (uv.scale(a) + U.scale(b) + V.scale(c) + k(d), zero, zero),
            Case2Line.LINE2: (uv.scale(a) + U.scale(c) + V.scale(c) + k(d),
                              U.scale(b - c), zero),
            Case2Line.LINE3: (uu.scale(a) + U.scale(b + c) + V.scale(c) + k(d),
                              U.scale(-c), U.scale(-a)),
            Case2Line.LINE4: (V.scale(c) + k(d), uu.scale(a) + U.scale(b), U.scale(-a)),
        }
        return {key: PDDO.from_pqrs(p, q, r, zero) for key, (p, q, r) in pqr.items()}

    @staticmethod
    def _same(op: PDDO, reference: PDDO) -> bool:
        return (op.T, op.Q0, op.R0) == (reference.T, reference.Q0, reference.R0)

    @given(qz, qz, qz, qz, qz)
    def test_main_cases_share_one_t(self, a, b, c, d, e):
        t = (U * V).scale(a) + U.scale(b) + V.scale(c) + SlotPoly.const(d)
        reference = self._reference(a, b, c, d, e)
        built = {"case1": case1_operator(a, b, c, d, e)}
        built.update({line: case2_operator(a, b, c, d, line) for line in Case2Line})
        for key, op in built.items():
            assert self._same(op, reference[key]), key
            assert op.T == t and op.T.ddiff() == b - c

    @given(small_slotpolys, small_slotpolys, st.lists(qz, min_size=1, max_size=3),
           st.lists(qz, min_size=1, max_size=3))
    def test_transposition_and_isolated(self, phi, psi, q_l, q_r):
        m = SlotPoly.univariate(q_l, 0) * SlotPoly.univariate(q_r, 1) * phi
        assert self._same(transposition_scaled(q_l, q_r, phi),
                          PDDO.from_pqrs(ZERO_SLOT, ZERO_SLOT, ZERO_SLOT, m))
        assert self._same(
            isolated_operator(phi, psi),
            PDDO.from_pqrs(ZERO_SLOT, phi * psi.swap(), phi * psi.ddiff(), ZERO_SLOT),
        )

    @given(qz.filter(bool), qz, st.sampled_from([1, 2, 3, 4]))
    def test_zeta_pair(self, a, b, variant):
        u_b, v_b = U + SlotPoly.const(b), V + SlotPoly.const(b)
        w, w_bar = (ZETA, ZETA_BAR) if variant in (1, 3) else (ZETA_BAR, ZETA)
        mix = U.scale(w) + V.scale(w_bar) + SlotPoly.const(b)
        q, r = (u_b * mix, u_b.scale(w_bar)) if variant <= 2 else (
            v_b * mix, u_b + v_b.scale(w_bar))
        pi, varpi = zeta_pair(a, b, variant)
        zero = ZERO_SLOT
        assert self._same(pi, PDDO.from_pqrs(zero, q.scale(a), r.scale(a), zero))
        assert self._same(varpi, PDDO.from_pqrs(zero, zero, u_b.scale(a), zero))


class TestMainCase2:
    def test_line_count_validated(self):
        with pytest.raises(ConstraintError, match="line"):
            main_case2(4, 0, 1, 0, 0, [Case2Line.LINE1])

    def test_demazure_is_line1(self):
        fam = main_case2(3, 0, 1, 0, 0, [Case2Line.LINE1] * 2)
        assert fam[1].T == U
        assert fam[1].Q0 == V

    def test_consecutive_q0_almost_equal(self):
        rng = random.Random(11)
        for _ in range(5):
            params = sampling.draw_case2_params(rng)
            lines = sampling.random_lines(rng, 3)
            fam = main_case2(4, *params, lines)
            t_values = {op.T for op in fam.ops}
            assert len(t_values) == 1
            for i in range(1, 3):
                q1, q2 = fam[i].Q0, fam[i + 1].Q0
                if q1 and q2:
                    assert almost_equal(q1, q2)

    def test_coincident_lines_when_b_equals_c(self):
        groups = coincident_lines(1, 2, 2, 4)
        assert any({Case2Line.LINE1, Case2Line.LINE2} <= g for g in groups)

    def test_equal_line_choices_share_one_operator(self):
        fam = main_case2(5, 1, 2, 1, 2, [Case2Line.LINE1, Case2Line.LINE3,
                                         Case2Line.LINE1, Case2Line.LINE3])
        assert fam[1] is fam[3] and fam[2] is fam[4]
        assert fam[1] is not fam[2]

    def test_mixing_e_values_fails_cubic(self):
        # Two valid uniform operators with different e do not braid together.
        op1 = case1_operator(1, 2, 1, 2, 3)
        op2 = case1_operator(1, 2, 1, 2, 4)
        assert cubic_braid_check(op1, op1).passed
        assert not cubic_braid_check(op1, op2).passed


class TestDegenerateT:
    def test_operators_are_scaled_transpositions(self):
        fam = degenerate_t_family(
            3, SlotPoly.const(1), [0, 1], [([0, 1], [1]), ([1], [0, 1])]
        )
        for op in fam.ops:
            assert op.degeneracy is Degeneracy.T_ZERO
        assert fam[1].R0 == U
        assert fam[2].R0 == V

    def test_product_property_enforced(self):
        with pytest.raises(ConstraintError, match="product"):
            degenerate_t_family(
                3, SlotPoly.const(1), [0, 1], [([0, 1], [1]), ([1], [1])]
            )

    def test_zero_inputs_rejected(self):
        with pytest.raises(ConstraintError, match="qhat"):
            degenerate_t_family(3, SlotPoly.zero(), [1], [([1], [1])] * 2)
        with pytest.raises(ConstraintError, match="nonzero"):
            degenerate_t_family(3, SlotPoly.const(1), [1], [([1], [1]), ([0], [1])])

    def test_plain_transpositions_braid(self):
        fam = degenerate_t_family(4, SlotPoly.const(1), [1], [([1], [1])] * 3)
        assert family_braid_check(fam).passed

    def test_random_draws_pass_braid(self):
        rng = random.Random(12)
        for _ in range(5):
            qhat, p, pairs = sampling.draw_degent_data(rng, 4)
            fam = degenerate_t_family(4, qhat, p, pairs)
            assert family_braid_check(fam).passed

    def test_hecke_present_iff_multiplier_constant(self):
        const_fam = degenerate_t_family(3, SlotPoly.const(2), [3], [([3], [1])] * 2)
        assert const_fam[1].hecke_params() == (
            FieldElement.of(0), FieldElement.of(36)
        )
        var_fam = degenerate_t_family(
            3, SlotPoly.const(1), [0, 1], [([0, 1], [1]), ([1], [0, 1])]
        )
        assert var_fam[1].hecke_params() is None


class TestZetaPair:
    def test_requires_nonzero_leading_constant(self):
        with pytest.raises(ConstraintError):
            zeta_pair(0, 1, 1)
        with pytest.raises(ConstraintError):
            zeta_pair(1, 1, 5)

    def test_degeneracy_split(self):
        for variant in (1, 2, 3, 4):
            pi, varpi = zeta_pair(2, 3, variant)
            assert pi.degeneracy is Degeneracy.NONDEGENERATE
            assert varpi.degeneracy is Degeneracy.Q_ZERO

    def test_shared_t_polynomial(self):
        a, b = FieldElement.of(2), FieldElement.of(3)
        u_b = U + SlotPoly.const(b)
        for variant in (1, 2, 3, 4):
            pi, _ = zeta_pair(a, b, variant)
            assert pi.T == (u_b * u_b).scale(a)

    def test_cubic_relation_holds(self):
        rng = random.Random(13)
        for _ in range(6):
            a, b, variant = sampling.draw_zeta_params(rng)
            pi, varpi = zeta_pair(a, b, variant)
            assert cubic_braid_check(pi, varpi).passed


ONE_SLOT = SlotPoly.const(1)


def _interval(start, stop, lines=None):
    """An interval with b - c = 1, the mu of the layouts below."""
    return Interval(start, stop, a=1, b=2, c=1, d=2, lines=lines)


@st.composite
def vanq0_layouts(draw):
    """n <= 8 and up to three segments starting anywhere in 0..n, intervals
    possibly empty or of length one; isolated segments are Demazure operators."""
    n = draw(st.integers(4, 8))
    segments = []
    for _ in range(draw(st.integers(0, 3))):
        start = draw(st.integers(0, n))
        if draw(st.booleans()):
            segments.append(Isolated(start, ONE_SLOT, U))
            continue
        stop = start + draw(st.integers(-1, 3))
        size = stop - start + 1
        lines = draw(st.lists(st.sampled_from(list(Case2Line)),
                              min_size=size, max_size=size))
        segments.append(_interval(start, stop, lines))
    return n, segments


def _valid_layout(n, segments) -> bool:
    """The classification's conditions, read off index sets alone."""
    sets = [{seg.index} if isinstance(seg, Isolated)
            else set(range(seg.start, seg.stop + 1)) for seg in segments]
    covered = [i for indices in sets for i in indices]
    return (
        all(len(indices) >= 2 for indices, seg in zip(sets, segments)
            if isinstance(seg, Interval))
        and all(1 <= i <= n - 1 for i in covered)
        and len(covered) == len(set(covered))
        and not any(i + 1 in other for a, indices in enumerate(sets)
                    for b, other in enumerate(sets) if a != b for i in indices)
        and len(covered) < n - 1
    )


class TestWithVanishingQ0:
    @settings(max_examples=300, deadline=None)
    @given(vanq0_layouts())
    @example((6, [_interval(1, 2), _interval(3, 4)]))  # interval touching interval
    @example((6, [_interval(3, 4), _interval(1, 2)]))
    @example((5, [_interval(1, 2), Isolated(3, ONE_SLOT, U)]))  # interval, isolated
    @example((5, [Isolated(1, ONE_SLOT, U), _interval(2, 3)]))
    @example((6, [_interval(1, 2), _interval(4, 5)]))
    def test_accepts_exactly_the_valid_layouts(self, layout):
        n, segments = layout
        if _valid_layout(n, segments):
            assert family_braid_check(with_vanishing_q0(n, 1, segments)).passed
        else:
            with pytest.raises(ConstraintError):
                with_vanishing_q0(n, 1, segments)

    def test_basic_structural_errors(self):
        with pytest.raises(ConstraintError, match="n >= 4"):
            with_vanishing_q0(3, 1, [])
        with pytest.raises(ConstraintError, match="mu"):
            with_vanishing_q0(4, 0, [])

    def test_isolated_condition_enforced(self):
        with pytest.raises(ConstraintError, match="phi"):
            with_vanishing_q0(4, 1, [Isolated(1, U, U)])  # d(u^2) = u + v

    def test_interval_condition_enforced(self):
        with pytest.raises(ConstraintError, match="b - c"):
            with_vanishing_q0(
                5, 1, [Interval(start=1, stop=2, a=0, b=3, c=0, d=0)]
            )

    def test_interval_refusals_name_the_interval(self):
        """The line count and the (a, b, c, d) refusals of main_case2 read
        like every other interval refusal."""
        three = [Case2Line.LINE3, Case2Line.LINE4, Case2Line.LINE1]
        with pytest.raises(ConstraintError) as err:
            with_vanishing_q0(5, 1, [_interval(1, 2, three)])
        assert str(err.value) == "interval 1..2: need 2 line choices, got 3"
        with pytest.raises(ConstraintError) as err:
            with_vanishing_q0(5, 1, [Interval(start=2, stop=3, a=1, b=2, c=1, d=1)])
        assert str(err.value) == "interval 2..3: ad - bc must vanish (ad = bc)"

    def test_complement_must_be_nonempty(self):
        with pytest.raises(ConstraintError, match="non-empty"):
            with_vanishing_q0(
                4, 1, [Interval(start=1, stop=3, a=0, b=1, c=0, d=0)]
            )

    def test_adjacency_violations_rejected(self):
        phi, psi = SlotPoly.const(1), U
        with pytest.raises(ConstraintError, match="neighbor"):
            with_vanishing_q0(5, 1, [Isolated(1, phi, psi), Isolated(2, phi, psi)])
        with pytest.raises(ConstraintError, match="overlap"):
            with_vanishing_q0(
                5, 1,
                [Isolated(2, phi, psi), Interval(start=2, stop=3, a=0, b=1, c=0, d=0)],
            )

    def test_layout_is_checked_before_any_operator_is_built(self, monkeypatch):
        built = []
        monkeypatch.setattr(families, "main_case2", lambda *args: built.append(args))
        with pytest.raises(ConstraintError, match=r"segment index 4 out of range 1\.\.3"):
            with_vanishing_q0(4, 1, [_interval(1, 300_000)])
        assert built == []

    def test_scalar_indices_share_one_operator(self):
        fam = with_vanishing_q0(6, 1, [Isolated(3, ONE_SLOT, U)])
        assert fam[1] is fam[2] is fam[4] is fam[5] == identity_op(1)

    def test_demazure_id_demazure(self):
        fam = with_vanishing_q0(
            4, 1, [Isolated(1, SlotPoly.const(1), U), Isolated(3, SlotPoly.const(1), U)]
        )
        dem = preset("demazure", 4)
        assert fam[1] == dem[1]
        assert fam[2] == identity_op(1)
        assert fam[3] == dem[3]
        assert family_braid_check(fam).passed

    def test_interval_plus_complement(self):
        fam = with_vanishing_q0(
            4, 1, [Interval(start=1, stop=2, a=0, b=1, c=0, d=0)]
        )
        assert fam[3] == identity_op(1)
        assert family_braid_check(fam).passed

    def test_random_isolated_draws_pass_braid(self):
        rng = random.Random(14)
        for _ in range(5):
            mu = sampling.random_field_element(rng, 5, nonzero=True)
            phi, psi = sampling.draw_isolated_pair(rng, mu)
            fam = with_vanishing_q0(4, mu, [Isolated(2, phi, psi)])
            assert family_braid_check(fam).passed

    def test_isolated_operator_shape(self):
        op = isolated_operator(SlotPoly.const(2), U)
        assert op == preset("demazure", 2)[1].scale(2)


class TestPresets:
    def test_pure_ddiff_scale_validated(self):
        with pytest.raises(ConstraintError):
            preset("pure_ddiff", 3, 0)

    def test_demazure_takes_no_parameter(self):
        with pytest.raises(ConstraintError, match="demazure takes no parameter"):
            preset("demazure", 3, 1)

    def test_unknown_preset(self):
        with pytest.raises(ConstraintError):
            preset("schubert", 3)

    def test_hecke_parameters(self):
        zero = FieldElement.of(0)
        assert preset("pure_ddiff", 3)[1].hecke_params() == (zero, zero)
        assert preset("demazure", 3)[1].hecke_params() == (FieldElement.of(1), zero)
        beta = Fraction(2, 3)
        assert preset("grothendieck", 3, beta)[1].hecke_params() == (
            FieldElement.of(-beta), zero
        )

    @pytest.mark.parametrize("name, param, abcd", [
        ("pure_ddiff", Fraction(3, 2), (0, 0, 0, Fraction(3, 2))),
        ("demazure", None, (0, 1, 0, 0)),
        ("grothendieck", 2, (0, 0, 2, 1)),
    ])
    def test_one_line1_operator_at_every_index(self, name, param, abcd):
        fam = preset(name, 4, param)
        assert fam.provenance == f"preset:{name}"
        assert fam[1] is fam[2] is fam[3]
        assert fam.ops == main_case2(4, *abcd, [Case2Line.LINE1] * 3).ops

    def test_refuses_n_below_two(self):
        for n in (1, 0, -1):
            with pytest.raises(ValueError, match="a family needs n >= 2"):
                preset("demazure", n)

    def test_all_presets_pass_braid(self):
        for name in ("pure_ddiff", "demazure", "grothendieck"):
            param = None if name == "demazure" else 1
            assert family_braid_check(preset(name, 4, param)).passed
