"""Brute-force references that the library's closed-form decisions are
tested against.

The twelve full numerator coefficients of both triple compositions, for
``braid.cubic_braid_check``.  Common denominator (x-y)^2 (x-z) (y-z)^2: the
pi varpi pi numerators are multiplied by (y-z) and the varpi pi varpi ones
by (x-y).  The library decides each identity through a factored difference
instead; this module multiplies everything out.

``almost_equal_reference`` multiplies out the three-variable
almost-equality identity that ``braid.almost_equal`` decides in two.
``cubic_braid_oracle`` and ``consecutive_probe`` apply two words of
operators to the six Artin monomials x^a y^b (a <= 2, b <= 1) of the three
touched variables x, y, z, and ``commutes_by_composition`` composes
operators in both orders.

Six monomials decide exactly.  Each word is a sum over g in S_3 of a rational
coefficient times g, so the difference of two words is linear over the
functions that S_3 fixes.  The Artin monomials are a basis over them: the
matrix [g(b)] of the six elements g at the six monomials b is invertible
(tests/test_artin_basis.py checks its determinant at a rational point).  So
two words that agree on the six monomials agree on every polynomial, at any
degree of the operators' coefficients.

``distant_commute_oracle`` applies pi_i pi_k and pi_k pi_i, |i - k| >= 2, to
the four Artin monomials 1, x_i, x_k and x_i x_k of the two distant
transpositions, through the field-element reference of ``term_reference``,
which shares no word loop, action or stored pair with the library.
"""

from braidops.braid import COEFF_NAMES, CubicReport
from braidops.field import FieldElement
from braidops.multipoly import MultiPoly, SlotPoly, instantiate
from braidops.pddo import PDDO
from term_reference import ref_apply


def full_numerators(pi: PDDO, varpi: PDDO) -> tuple[dict, dict]:
    n = 3

    def at(p: SlotPoly, i: int, j: int) -> MultiPoly:
        return instantiate(p, i, j, n)

    x = MultiPoly.variable(n, 1)
    y = MultiPoly.variable(n, 2)
    z = MultiPoly.variable(n, 3)
    xy, xz, yz = x - y, x - z, y - z

    # T from the pair, not the operator's kept T, which this oracle checks.
    uv = SlotPoly.u() - SlotPoly.v()
    T, Q = pi.Q0 + uv * pi.R0, pi.Q0
    Tt, Qt = varpi.Q0 + uv * varpi.R0, varpi.Q0
    t_xy, t_yx, t_xz, t_yz = at(T, 1, 2), at(T, 2, 1), at(T, 1, 3), at(T, 2, 3)
    q_xy, q_yx, q_xz, q_yz = at(Q, 1, 2), at(Q, 2, 1), at(Q, 1, 3), at(Q, 2, 3)
    tt_xy, tt_xz, tt_yz, tt_zy = at(Tt, 1, 2), at(Tt, 1, 3), at(Tt, 2, 3), at(Tt, 3, 2)
    qt_xy, qt_xz, qt_yz, qt_zy = at(Qt, 1, 2), at(Qt, 1, 3), at(Qt, 2, 3), at(Qt, 3, 2)

    left = {
        "f": yz * (t_xy * t_xy * tt_yz * xz - tt_xz * q_xy * q_yx * yz),
        "sf": -yz * q_xy * (t_xy * tt_yz * xz - t_yx * tt_xz * yz),
        "sigma_f": -xy * yz * t_xy * qt_yz * t_xz,
        "sigma_s_f": xy * yz * t_xy * qt_yz * q_xz,
        "s_sigma_f": xy * yz * q_xy * qt_xz * t_yz,
        "s_sigma_s_f": -xy * yz * q_xy * qt_xz * q_yz,
    }
    right = {
        "f": xy * (t_xy * tt_yz * tt_yz * xz - t_xz * qt_yz * qt_zy * xy),
        "sigma_f": -xy * qt_yz * (t_xy * tt_yz * xz - tt_zy * t_xz * xy),
        "sf": -xy * yz * tt_yz * q_xy * tt_xz,
        "s_sigma_f": xy * yz * tt_yz * q_xy * qt_xz,
        "sigma_s_f": xy * yz * qt_yz * q_xz * tt_xy,
        "s_sigma_s_f": -xy * yz * qt_yz * q_xz * qt_xy,  # coefficient of sigma s sigma f
    }
    return left, right


def full_report(pi: PDDO, varpi: PDDO) -> CubicReport:
    """The cubic report computed from the full numerators."""
    left, right = full_numerators(pi, varpi)
    flags = {}
    failure = None
    for name in COEFF_NAMES:
        diff = left[name] - right[name]
        flags[name] = diff.is_zero()
        if failure is None and not flags[name]:
            failure = (name, diff)
    return CubicReport(flags=flags, failure=failure)


def almost_equal_reference(q: SlotPoly, qt: SlotPoly) -> bool:
    """q(x,y) qt(x,z) q(y,z) == qt(x,y) q(x,z) qt(y,z), multiplied out."""
    def at(p: SlotPoly, i: int, j: int) -> MultiPoly:
        return instantiate(p, i, j, 3)

    return at(q, 1, 2) * at(qt, 1, 3) * at(q, 2, 3) == at(qt, 1, 2) * at(q, 1, 3) * at(qt, 2, 3)


ARTIN_EXPONENTS = tuple((a, b) for a in range(3) for b in range(2))


def cubic_braid_oracle(pi: PDDO, varpi: PDDO) -> bool:
    """pi varpi pi == varpi pi varpi, pi at index 1 and varpi at 2, applied
    to the six Artin monomials of x_1, x_2, x_3."""

    def lhs(f: MultiPoly) -> MultiPoly:
        return pi.apply(1, varpi.apply(2, pi.apply(1, f)))

    def rhs(f: MultiPoly) -> MultiPoly:
        return varpi.apply(2, pi.apply(1, varpi.apply(2, f)))

    for a, b in ARTIN_EXPONENTS:
        f = MultiPoly.monomial(3, (a, b, 0))
        if lhs(f) != rhs(f):
            return False
    return True


def commutes_by_composition(op1: PDDO, op2: PDDO) -> bool:
    """Same-index commutation: compose in both orders and compare."""
    return op1.compose(op2) == op2.compose(op1)


def consecutive_probe(op_i: PDDO, op_k: PDDO, i: int, k: int, n: int) -> bool:
    """Consecutive commutation pi_i pi_k = pi_k pi_i, |i - k| = 1, probed on
    the six Artin monomials of the three touched variables."""
    lo = min(i, k)
    for a, b in ARTIN_EXPONENTS:
        e = [0] * n
        e[lo - 1], e[lo] = a, b
        f = MultiPoly.monomial(n, e)
        if op_i.apply(i, op_k.apply(k, f)) != op_k.apply(k, op_i.apply(i, f)):
            return False
    return True


def distant_commute_oracle(pi_i: PDDO, pi_k: PDDO, i: int, k: int, n: int) -> bool:
    """pi_i pi_k == pi_k pi_i for |i - k| >= 2, through ref_apply on the four
    Artin monomials 1, x_i, x_k and x_i x_k of the group that s_i and s_k
    generate (tests/test_artin_basis.py checks its determinant)."""
    for a in range(2):
        for c in range(2):
            e = [0] * n
            e[i - 1], e[k - 1] = a, c
            f = {tuple(e): FieldElement.of(1)}
            if (ref_apply(pi_i, i, ref_apply(pi_k, k, f, n), n)
                    != ref_apply(pi_k, k, ref_apply(pi_i, i, f, n), n)):
                return False
    return True
