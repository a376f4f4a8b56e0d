"""Acceptance suite: seven end-to-end criteria, each printing one summary line.

Every assertion is exact (rational or Q(z) arithmetic); there are no numeric
tolerances anywhere.  Randomness is seeded, so runs are reproducible.
"""

import json
import random
from fractions import Fraction
from itertools import product

import pytest

from braidops import sampling
from braidops.braid import (
    almost_equal,
    cubic_braid_check,
    family_braid_check,
)
from braidops.cli import main as cli_main, poly_from_json
from braidops.commute import commutes_same_index, cross_family_commute
from braidops.divdiff import ddiff, dpositive_lift, dpositive_split
from braidops.families import (
    Case2Line,
    Isolated,
    OperatorFamily,
    case1_operator,
    degenerate_t_family,
    isolated_operator,
    main_case1,
    main_case2,
    preset,
    transposition_scaled,
    with_vanishing_q0,
    zeta_pair,
)
from braidops.field import FieldElement, ZERO
from braidops.multipoly import MultiPoly, SlotPoly, instantiate, swap_vars
from braidops.pddo import PDDO, Degeneracy, identity_op
from cubic_reference import cubic_braid_oracle

U = SlotPoly.u()
V = SlotPoly.v()


def _emit(capsys, number: int, name: str, ok: bool) -> None:
    with capsys.disabled():
        print(f"acceptance criterion {number} ({name}): {'PASS' if ok else 'FAIL'}")


def _sample_positive_families(rng: random.Random):
    """Draws used by criteria 1, 3, and 5: one list of verified-constructible
    families per constructor."""
    case1 = [main_case1(4, *sampling.draw_case1_params(rng)) for _ in range(20)]
    case2_uniform = []
    for _ in range(20):
        params = sampling.draw_case2_params(rng)
        line = rng.choice(list(Case2Line))
        case2_uniform.append(main_case2(4, *params, [line] * 3))
    case2_mixed = [
        main_case2(4, *sampling.draw_case2_params(rng), sampling.random_lines(rng, 3))
        for _ in range(10)
    ]
    degen = []
    for _ in range(20):
        qhat, p, pairs = sampling.draw_degent_data(rng, 4)
        degen.append(degenerate_t_family(4, qhat, p, pairs))
    vanq0 = []
    for _ in range(20):
        mu = sampling.random_field_element(rng, 5, nonzero=True)
        phi, psi = sampling.draw_isolated_pair(rng, mu)
        index = rng.choice([1, 2, 3])
        vanq0.append(with_vanishing_q0(4, mu, [Isolated(index, phi, psi)]))
    return {
        "case1": case1,
        "case2_uniform": case2_uniform,
        "case2_mixed": case2_mixed,
        "degen_t": degen,
        "vanq0": vanq0,
    }


def test_criterion_1_classification_positive(capsys):
    """Every constructor's random constraint-satisfying draws pass the full
    braid verification."""
    rng = random.Random(101)
    ok = True
    try:
        for name, fams in _sample_positive_families(rng).items():
            for fam in fams:
                assert family_braid_check(fam).passed, name
        for _ in range(20):
            a, b, variant = sampling.draw_zeta_params(rng)
            pi, varpi = zeta_pair(a, b, variant)
            fam = OperatorFamily(3, (pi, varpi), provenance="ZetaPair")
            assert family_braid_check(fam).passed, "zeta_pair"
    except AssertionError:
        ok = False
    _emit(capsys, 1, "classification positive", ok)
    assert ok


def test_criterion_2_classification_negative(capsys):
    """Each single-constraint violation is detected by a failing cubic check,
    on every one of 10 random draws per violation."""
    rng = random.Random(102)
    ok = True
    try:
        # Violation: ad != bc in the uniform family.
        detected = 0
        for _ in range(10):
            while True:
                a = sampling.random_fraction(rng, 5)
                b = sampling.random_fraction(rng, 5)
                c = sampling.random_fraction(rng, 5)
                d = sampling.random_fraction(rng, 5)
                if a * d != b * c:
                    break
            e = sampling.random_fraction(rng, 5, nonzero=True)
            op = case1_operator(a, b, c, d, e)
            if not cubic_braid_check(op, op).passed:
                detected += 1
        assert detected == 10, f"ad != bc detected {detected}/10"

        # Violation: two different e values in the uniform family.
        detected = 0
        for _ in range(10):
            a, b, c, d, e = sampling.draw_case1_params(rng)
            while True:
                e2 = sampling.random_fraction(rng, 5)
                if e2 != e:
                    break
            op1 = case1_operator(a, b, c, d, e)
            op2 = case1_operator(a, b, c, d, e2)
            if not cubic_braid_check(op1, op2).passed:
                detected += 1
        assert detected == 10, f"mixed e detected {detected}/10"

        # Violation: factor pairs with different products.
        detected = 0
        for _ in range(10):
            qhat = sampling.random_slotpoly(rng, max_degree=1, n_terms=2, nonzero=True)
            a0 = sampling.random_fraction(rng, 5, nonzero=True)
            shift = sampling.random_fraction(rng, 5, nonzero=True)
            op1 = transposition_scaled([a0, 1], [1], qhat)
            op2 = transposition_scaled([a0 + shift, 1], [1], qhat)
            if not cubic_braid_check(op1, op2).passed:
                detected += 1
        assert detected == 10, f"product property detected {detected}/10"

        # Violation: d(phi psi) != mu next to the scalar mu * Id.
        detected = 0
        for _ in range(10):
            mu = sampling.random_field_element(rng, 5, nonzero=True)
            kappa = sampling.random_field_element(rng, 5, nonzero=True)
            if kappa == mu:
                kappa = kappa + FieldElement.of(1)
            op = isolated_operator(SlotPoly.const(1), U.scale(kappa))
            if not cubic_braid_check(op, identity_op(mu)).passed:
                detected += 1
        assert detected == 10, f"d(phi psi) != mu detected {detected}/10"
    except AssertionError:
        ok = False
    _emit(capsys, 2, "classification negative", ok)
    assert ok


def _hecke_relation_holds(op: PDDO, mu, nu) -> bool:
    """op^2 f = mu op f + nu f on all monomials of degree <= 4 in 2 variables."""
    for r in range(5):
        for s in range(5 - r):
            f = MultiPoly.monomial(2, (r, s))
            pf = op.apply(1, f)
            lhs = op.apply(1, pf)
            rhs = pf.scale(mu) + f.scale(nu)
            if lhs != rhs:
                return False
    return True


def test_criterion_3_hecke(capsys):
    rng = random.Random(103)
    ok = True
    try:
        for _ in range(20):
            a, b, c, d, e = sampling.draw_case1_params(rng)
            fam = main_case1(4, a, b, c, d, e)
            expected = (FieldElement.of(b - c), FieldElement.of(e * (e + c - b)))
            for i in range(1, 4):
                assert fam[i].hecke_params() == expected
            assert _hecke_relation_holds(fam[1], *expected)

        for _ in range(10):
            a, b, c, d = sampling.draw_case2_params(rng)
            fam = main_case2(4, a, b, c, d, sampling.random_lines(rng, 3))
            expected = (FieldElement.of(b - c), ZERO)
            for i in range(1, 4):
                assert fam[i].hecke_params() == expected
            assert _hecke_relation_holds(fam[1], *expected)

        for _ in range(10):
            mu = sampling.random_field_element(rng, 5, nonzero=True)
            phi, psi = sampling.draw_isolated_pair(rng, mu)
            fam = with_vanishing_q0(4, mu, [Isolated(2, phi, psi)])
            for i in range(1, 4):
                assert fam[i].hecke_params() == (mu, ZERO)
            assert _hecke_relation_holds(fam[2], mu, ZERO)
    except AssertionError:
        ok = False
    _emit(capsys, 3, "Hecke parameters", ok)
    assert ok


def test_criterion_4_invariants_and_oracle(capsys):
    rng = random.Random(104)
    ok = True
    try:
        # Divided difference identities on 200 random polynomials.
        for _ in range(200):
            f = sampling.random_multipoly(rng, 3)
            g = sampling.random_multipoly(rng, 3)
            i = rng.choice([1, 2])
            assert ddiff(ddiff(f, i), i).is_zero()
            assert swap_vars(ddiff(f, i), i) == ddiff(f, i)
            assert ddiff(f * g, i) == (
                ddiff(f, i) * g + swap_vars(f, i) * ddiff(g, i)
            )
            p = sampling.random_slotpoly(rng)
            sym, pos = dpositive_split(p)
            assert sym + pos == p and sym.is_symmetric() and pos.is_dpositive()
            assert dpositive_lift(sym).ddiff() == sym

        # Canonical forms and probe identities on 100 random quadruples.
        for _ in range(100):
            pqrs = [sampling.random_slotpoly(rng, max_degree=2) for _ in range(4)]
            op = PDDO.from_pqrs(*pqrs)
            cf = op.canonical_forms()
            zero = SlotPoly.zero()
            assert PDDO.from_q0_r0(cf.q0, cf.r0) == op
            assert PDDO.from_pqrs(cf.p_plus, cf.q_sup, cf.r_plus, zero) == op
            assert PDDO.from_pqrs(cf.p_sup, cf.q_plus, cf.r_plus, zero) == op
            x = MultiPoly.variable(2, 1)
            y = MultiPoly.variable(2, 2)
            p1, px = op.apply(1, MultiPoly.const(2, 1)), op.apply(1, x)
            assert px - y * p1 == instantiate(op.T, 1, 2, 2)
            assert px - x * p1 == instantiate(op.Q0, 1, 2, 2)

        # Symbolic cubic check vs the monomial-application oracle.
        for fam in (
            main_case1(3, *sampling.draw_case1_params(rng)),
            main_case2(3, *sampling.draw_case2_params(rng), sampling.random_lines(rng, 2)),
            preset("demazure", 3),
            preset("grothendieck", 3, 2),
        ):
            report = cubic_braid_check(fam[1], fam[2])
            assert report.passed == cubic_braid_oracle(fam[1], fam[2])
            assert report.passed
        qhat, p, pairs = sampling.draw_degent_data(rng, 3)
        fam = degenerate_t_family(3, qhat, p, pairs)
        assert cubic_braid_check(fam[1], fam[2]).passed == cubic_braid_oracle(fam[1], fam[2])
        for _ in range(100):
            pi = PDDO.from_q0_r0(
                sampling.random_slotpoly(rng, max_degree=1),
                sampling.random_slotpoly(rng, max_degree=1),
            )
            varpi = PDDO.from_q0_r0(
                sampling.random_slotpoly(rng, max_degree=1),
                sampling.random_slotpoly(rng, max_degree=1),
            )
            assert cubic_braid_check(pi, varpi).passed == cubic_braid_oracle(pi, varpi)
    except AssertionError:
        ok = False
    _emit(capsys, 4, "invariants and oracle agreement", ok)
    assert ok


def test_criterion_5_almost_equality(capsys):
    rng = random.Random(105)
    ok = True
    try:
        # Structural consequence in passing families: shared T and almost
        # equal nonzero Q0 polynomials at consecutive indices.
        for fams in _sample_positive_families(rng).values():
            for fam in fams[:5]:
                for i in range(1, fam.n - 1):
                    op1, op2 = fam[i], fam[i + 1]
                    if op1.Q0.is_zero() or op2.Q0.is_zero():
                        continue
                    assert op1.T == op2.T
                    assert almost_equal(op1.Q0, op2.Q0)

        # 50 constructed positive instances: q_l(u) q_r(v) Qhat against a
        # re-split of the same univariate product.
        for _ in range(50):
            qhat = sampling.random_slotpoly(rng, max_degree=1, n_terms=2, nonzero=True)
            fa = [sampling.random_fraction(rng, 5, nonzero=True),
                  sampling.random_fraction(rng, 5, nonzero=True)]
            fb = [sampling.random_fraction(rng, 5, nonzero=True),
                  sampling.random_fraction(rng, 5, nonzero=True)]
            q1 = transposition_scaled(fa, fb, qhat).Q0
            q2 = transposition_scaled(fb, fa, qhat).Q0
            assert almost_equal(q1, q2)

        # 50 negative instances, each certified by a rational evaluation
        # point where the triple products differ.
        negatives = 0
        while negatives < 50:
            q = sampling.random_slotpoly(rng, max_degree=2, nonzero=True)
            qt = sampling.random_slotpoly(rng, max_degree=2, nonzero=True)
            witness = None
            for _ in range(30):
                pt = [sampling.random_fraction(rng, 8) for _ in range(3)]
                lhs = (
                    q.evaluate(pt[0], pt[1])
                    * qt.evaluate(pt[0], pt[2])
                    * q.evaluate(pt[1], pt[2])
                )
                rhs = (
                    qt.evaluate(pt[0], pt[1])
                    * q.evaluate(pt[0], pt[2])
                    * qt.evaluate(pt[1], pt[2])
                )
                if lhs != rhs:
                    witness = pt
                    break
            if witness is None:
                continue  # the draw happened to be almost equal; redraw
            assert not almost_equal(q, qt)
            negatives += 1
    except AssertionError:
        ok = False
    _emit(capsys, 5, "almost equality", ok)
    assert ok


def _commuting_pair_case1(rng):
    """Two extended-uniform operators with symmetric Q0 (e = (b-c)/2 each)."""
    while True:
        a, b, c, d = sampling.draw_case2_params(rng)
        ah, bh, ch, dh = sampling.draw_case2_params(rng)
        op1 = case1_operator(a, b, c, d, Fraction(b - c, 2))
        op2 = case1_operator(ah, bh, ch, dh, Fraction(bh - ch, 2))
        if op1.Q0 and op2.Q0:
            return op1, op2


def _commuting_pair_case2(rng):
    """An operator and a scalar multiple of its Hecke translate."""
    while True:
        a, b, c, d = sampling.draw_case2_params(rng)
        if b == c:
            continue
        e = sampling.random_fraction(rng, 5)
        if b - c == 2 * e:
            continue
        lam = sampling.random_fraction(rng, 5, nonzero=True)
        op1 = case1_operator(a, b, c, d, e)
        op2 = (op1 - identity_op(FieldElement.of(b - c))).scale(lam)
        if op1.Q0 and op2.Q0:
            return op1, op2


def _commuting_pair_strict(rng, slot):
    """Strict second-case pairs: shared quadratic Q0 in one slot, multipliers
    differing by swapping b and c."""
    while True:
        a = sampling.random_fraction(rng, 5, nonzero=True)
        b = sampling.random_fraction(rng, 5)
        c = sampling.random_fraction(rng, 5)
        if b == c:
            continue
        d = b * c / a
        lam = sampling.random_fraction(rng, 5, nonzero=True)
        if slot == 0:
            q0 = (U * U).scale(a) + U.scale(b + c) + SlotPoly.const(d)
            r1 = (U.scale(a) + SlotPoly.const(c)).scale(-1)
            r2 = (U.scale(a) + SlotPoly.const(b)).scale(-1)
        else:
            q0 = (V * V).scale(a) + V.scale(b + c) + SlotPoly.const(d)
            r1 = V.scale(a) + SlotPoly.const(b)
            r2 = V.scale(a) + SlotPoly.const(c)
        op1 = PDDO.from_q0_r0(q0, r1)
        op2 = PDDO.from_q0_r0(q0, r2).scale(lam)
        return op1, op2


def test_criterion_6_commutation(capsys):
    rng = random.Random(106)
    ok = True
    try:
        builders = {
            "symmetric-q0": _commuting_pair_case1,
            "hecke-translate": _commuting_pair_case2,
            "strict-first-slot": lambda r: _commuting_pair_strict(r, 0),
            "strict-second-slot": lambda r: _commuting_pair_strict(r, 1),
        }
        for name, build in builders.items():
            for _ in range(10):
                op1, op2 = build(rng)
                assert commutes_same_index(op1, op2), name
                # Perturb one Q0 off the characterized locus.
                perturbed = PDDO.from_q0_r0(op2.Q0 + U * U * U, op2.R0)
                assert not commutes_same_index(op1, perturbed), name

        fam = main_case1(4, *sampling.draw_case1_params(rng))
        mu = sampling.random_field_element(rng, 5, nonzero=True)
        ids = OperatorFamily(4, tuple(identity_op(mu) for _ in range(3)))
        assert cross_family_commute(fam, ids).passed

        dem = preset("demazure", 4)
        report = cross_family_commute(dem, dem)
        assert all(report.same_index.values())
        assert all(report.distant.values())
        assert not any(report.consecutive.values())
    except AssertionError:
        ok = False
    _emit(capsys, 6, "same-index commutation", ok)
    assert ok


def test_criterion_7_table_reproduction(capsys):
    ok = True
    try:
        argv = [
            "table", "--n", "3", "--family", "preset:pure_ddiff",
            "--params", "1", "--output", "json",
        ]
        outputs = []
        for _ in range(2):
            code = cli_main(argv)
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1], "output not byte-identical"

        data = json.loads(outputs[0])
        got = {
            tuple(entry["perm"]): poly_from_json(entry["poly"], 3)
            for entry in data["entries"]
        }

        # Recompute the expected values by the divided difference recursion
        # from the staircase seed, independently of the library operators.
        def oracle_entry(word, f):
            for i in reversed(word):
                f = ddiff(f, i)
            return f

        seed = MultiPoly.monomial(3, (2, 1, 0))
        x1 = MultiPoly.variable(3, 1)
        x2 = MultiPoly.variable(3, 2)
        expected = {
            (3, 2, 1): oracle_entry([], seed),
            (3, 1, 2): oracle_entry([2], seed),
            (2, 3, 1): oracle_entry([1], seed),
            (2, 1, 3): oracle_entry([2, 1], seed),
            (1, 3, 2): oracle_entry([1, 2], seed),
            (1, 2, 3): oracle_entry([1, 2, 1], seed),
        }
        assert got == expected
        assert expected[(1, 2, 3)] == MultiPoly.const(3, 1)
        assert expected[(1, 3, 2)] == x1 + x2
        assert expected[(2, 1, 3)] == x1
        assert expected[(2, 3, 1)] == x1 * x2
        assert expected[(3, 1, 2)] == x1 * x1
        # Reduced-word independence where several words exist.
        assert oracle_entry([1, 2, 1], seed) == oracle_entry([2, 1, 2], seed)
    except AssertionError:
        ok = False
    _emit(capsys, 7, "table reproduction", ok)
    assert ok
