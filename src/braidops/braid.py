"""Exact verification of the braid relations and the almost-equality test.

The cubic check is fully symbolic.  Both triple compositions pi varpi pi and
varpi pi varpi are brought over the common denominator (x-y)^2 (x-z) (y-z)^2,
and their six numerator coefficients (of f, sf, sigma f, s sigma f,
sigma s f, and the matched pair s sigma s f / sigma s sigma f) must agree as
polynomials in three variables.  Each difference of two numerators is
written as factor * reduced difference.  Write q, t for Q0, T of pi and
qt, tt for those of varpi, instantiated at variable pairs (t_xy = T(x, y)
and so on), and B = t_xy tt_yz (x-z):

=========== ===================== ==============================================
name        factor                reduced difference
=========== ===================== ==============================================
f           1                     B ((y-z) t_xy - (x-y) tt_yz)
                                  - (y-z)^2 tt_xz q_xy q_yx
                                  + (x-y)^2 t_xz qt_yz qt_zy
sf          -(y-z) q_xy           B - tt_xz ((y-z) t_yx + (x-y) tt_yz)
sigma_f     -(x-y) qt_yz          t_xz ((y-z) t_xy + (x-y) tt_zy) - B
s_sigma_f   (x-y)(y-z) q_xy qt_xz t_yz - tt_yz
sigma_s_f   (x-y)(y-z) qt_yz q_xz t_xy - tt_xy
s_sigma_s_f -(x-y)(y-z)           q_xy qt_xz q_yz - qt_xy q_xz qt_yz
=========== ===================== ==============================================

Q(z)[x, y, z] is an integral domain, so a difference vanishes exactly when
its factor or its reduced difference does, and a factor vanishes exactly
when a Q0 or Q0~ in it does.  The last reduced difference is the almost-equality
identity, and the middle two vanish exactly when T == T~: a braiding pair
with both Q0 nonzero has T == T~.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from operator import sub
from typing import TYPE_CHECKING

from .multipoly import MultiPoly, SlotPoly, instantiate
from .pddo import PDDO, per_operator

if TYPE_CHECKING:  # pragma: no cover
    from .families import OperatorFamily

__all__ = [
    "Report",
    "CubicReport",
    "FamilyReport",
    "cubic_braid_check",
    "quad_commute_check",
    "almost_equal",
    "family_braid_check",
]

COEFF_NAMES = ("f", "sf", "sigma_f", "s_sigma_f", "sigma_s_f", "s_sigma_s_f")


class Report:
    """A verdict report: it passes when every verdict in every dict-valued
    field passes, a nested report through its own __bool__."""

    @property
    def passed(self) -> bool:
        return all(all(verdicts.values()) for verdicts in vars(self).values()
                   if isinstance(verdicts, dict))

    def __bool__(self) -> bool:
        return self.passed


@dataclass(frozen=True)
class CubicReport(Report):
    """Outcome of one cubic braid comparison, one flag per coefficient."""

    flags: dict[str, bool]
    failure: tuple[str, MultiPoly] | None = None


def _factored_differences(pi: PDDO, varpi: PDDO) -> dict:
    """The six numerator differences, left minus right, in the module's
    table: name -> (known to vanish, factor, reduced difference), the last
    two as functions that build the polynomial on demand.  A difference is
    known to vanish when its factor is zero, and the middle two also when
    T == T~."""
    n = 3

    def at(p: SlotPoly, i: int, j: int) -> MultiPoly:
        return instantiate(p, i, j, n)

    x = MultiPoly.variable(n, 1)
    y = MultiPoly.variable(n, 2)
    z = MultiPoly.variable(n, 3)
    xy, xz, yz = x - y, x - z, y - z

    T, Q = pi.T, pi.Q0
    Tt, Qt = varpi.T, varpi.Q0
    t_xy, t_yx, t_xz = at(T, 1, 2), at(T, 2, 1), at(T, 1, 3)
    q_xy, q_yx, q_xz = at(Q, 1, 2), at(Q, 2, 1), at(Q, 1, 3)
    tt_xz, tt_yz, tt_zy = at(Tt, 1, 3), at(Tt, 2, 3), at(Tt, 3, 2)
    qt_xz, qt_yz, qt_zy = at(Qt, 1, 3), at(Qt, 2, 3), at(Qt, 3, 2)
    B = t_xy * tt_yz * xz
    yz_t_xy, xy_tt_yz = yz * t_xy, xy * tt_yz
    same_t = Q.is_zero() or Qt.is_zero() or T == Tt
    return {
        "f": (False, lambda: MultiPoly.const(n, 1), lambda: (
            B * (yz_t_xy - xy_tt_yz)
            - yz * yz * tt_xz * q_xy * q_yx + xy * xy * t_xz * qt_yz * qt_zy)),
        "sf": (Q.is_zero(), lambda: -yz * q_xy,
               lambda: B - tt_xz * (yz * t_yx + xy_tt_yz)),
        "sigma_f": (Qt.is_zero(), lambda: -xy * qt_yz,
                    lambda: t_xz * (yz_t_xy + xy * tt_zy) - B),
        "s_sigma_f": (same_t, lambda: xy * yz * q_xy * qt_xz,
                      lambda: at(T - Tt, 2, 3)),
        "sigma_s_f": (same_t, lambda: xy * yz * qt_yz * q_xz,
                      lambda: at(T - Tt, 1, 2)),
        "s_sigma_s_f": (False, lambda: -xy * yz, lambda: sub(*_almost_products(Q, Qt))),
    }


def cubic_braid_check(pi: PDDO, varpi: PDDO) -> CubicReport:
    """Does pi at index i and varpi at index i+1 satisfy pi varpi pi = varpi pi varpi?

    A coefficient's flag is True when its factor is zero, and otherwise says
    whether its reduced difference is zero (see the module docstring); a
    zero factor and T == T~ are read off the slot polynomials.  So the full
    numerators, with their large shared factors, are never multiplied out.
    The failure witness, the full difference of the first failing
    coefficient, is built as factor * reduced difference for that name only.
    """
    parts = _factored_differences(pi, varpi)
    flags = {}
    failure = None
    for name in COEFF_NAMES:
        vanishes, factor, reduced = parts[name]
        diff = None if vanishes else reduced()
        flags[name] = diff is None or diff.is_zero()
        if failure is None and not flags[name]:
            failure = (name, factor() * diff)
    return CubicReport(flags=flags, failure=failure)


def quad_commute_check(pi_i: PDDO, pi_k: PDDO, i: int, k: int, n: int) -> bool:
    """Distant-index commutation pi_i pi_k = pi_k pi_i, checked on monomials.

    Probes every monomial in x_i, x_{i+1}, x_k, x_{k+1} with per-variable
    degree at most 2.  It holds for every pair of valid operators, so the
    library does not call it; it is the test oracle for distant pairs.
    """
    if abs(k - i) < 2:
        raise ValueError("quad_commute_check needs |k - i| >= 2")
    for idx in (i, k):
        if not 1 <= idx <= n - 1:
            raise IndexError(f"operator index {idx} out of range 1..{n - 1}")
    touched = (i, i + 1, k, k + 1)
    for degs in product(range(3), repeat=4):
        e = [0] * n
        for var, d in zip(touched, degs):
            e[var - 1] = d
        f = MultiPoly.monomial(n, e)
        if pi_i.apply(i, pi_k.apply(k, f)) != pi_k.apply(k, pi_i.apply(i, f)):
            return False
    return True


def almost_equal(q: SlotPoly, qt: SlotPoly) -> bool:
    """Decide almost-equality of two nonzero slot polynomials.

    Equivalent to the exact three-variable identity
    q(x,y) qt(x,z) q(y,z) = qt(x,y) q(x,z) qt(y,z).
    """
    if q.is_zero() or qt.is_zero():
        raise ValueError("almost_equal requires nonzero inputs")
    lhs, rhs = _almost_products(q, qt)
    return lhs == rhs  # cheaper than lhs - rhs when the term counts differ


def _almost_products(q: SlotPoly, qt: SlotPoly) -> tuple[MultiPoly, MultiPoly]:
    """The sides q(x,y) qt(x,z) q(y,z) and qt(x,y) q(x,z) qt(y,z) of almost-equality."""
    (q_xy, q_xz, q_yz), (qt_xy, qt_xz, qt_yz) = (
        [instantiate(p, i, j, 3) for i, j in ((1, 2), (1, 3), (2, 3))] for p in (q, qt))
    return q_xy * qt_xz * q_yz, qt_xy * q_xz * qt_yz


@dataclass(frozen=True)
class FamilyReport(Report):
    """Aggregated braid verification for a whole family."""

    cubic: dict[tuple[int, int], CubicReport] = field(default_factory=dict)
    quad: dict[tuple[int, int], bool] = field(default_factory=dict)


def family_braid_check(fam: "OperatorFamily") -> FamilyReport:
    """Run the cubic check on consecutive pairs of a family of n-1 operators;
    every distant pair (i, k), k >= i + 2, is reported as commuting.

    The cubic check is index-free, so it runs once per distinct pair of
    operator objects: a uniform family needs one check whatever n is."""
    ops, n = fam.ops, fam.n
    if n < 3:
        raise ValueError("braid relations need n >= 3")
    reports = per_operator(cubic_braid_check, zip(ops, ops[1:]))
    return FamilyReport(cubic={(i, i + 1): r for i, r in enumerate(reports, 1)},
                        quad=_distant_pairs(n))


def _distant_pairs(n: int) -> dict[tuple[int, int], bool]:
    """Every (i, k) with k >= i + 2 commutes: pi_i and pi_k act on disjoint
    variable pairs with coefficients in them."""
    return {(i, k): True for i in range(1, n) for k in range(i + 2, n)}
