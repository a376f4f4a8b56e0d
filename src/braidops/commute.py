"""Commutation tests for operators at equal, distant, and consecutive indices.

Every decision is a slot identity.  An operator at index i is the element
pi = a + b s of the twisted group algebra, with a = T/(x_i - x_{i+1}),
b = -Q0/(x_i - x_{i+1}) and s the transposition of x_i and x_{i+1}.
Distinct field automorphisms are linearly independent (Dedekind/Artin), so
two products of such elements are equal exactly when their coefficients of
each permutation are.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .braid import Report, _distant_pairs
from .families import OperatorFamily
from .multipoly import _slot_sum
from .pddo import PDDO, per_operator

__all__ = ["commutes_same_index", "CommuteReport", "cross_family_commute"]


def commutes_same_index(op1: PDDO, op2: PDDO) -> bool:
    """Do the two operators, acting at the same index, commute?

    The coefficients of 1 and s in pi pi' - pi' pi vanish exactly when
    Q0 d(Q0') = Q0' d(Q0) and Q0 d(R0') = Q0' d(R0).  This holds for every
    pair, degenerate or not.

    The first condition is decided with one product.  Q(z)[u, v] is a
    domain, so multiplying both sides by u - v keeps the equation true or
    false, and (u - v) d(g) = g - swap(g) turns it into Q0 (Q0' - swap Q0')
    = Q0' (Q0 - swap Q0), that is Q0 swap(Q0') = Q0' swap(Q0).  The right
    side is swap of the left, so the condition holds exactly when p =
    Q0 swap(Q0') is symmetric.  Each condition is one sum of slot products
    (``multipoly._slot_sum``), decided in its accumulator with no polynomial
    built: the first by the symmetry of one product, the second by the
    vanishing of Q0 d(R0') - Q0' d(R0).
    """
    q1, r1 = op1.Q0, op1.R0
    q2, r2 = op2.Q0, op2.R0
    return (_slot_sum([(q1, q2._swap_view(), 1)], "symmetric")
            and _slot_sum([(q1, r2._ddiff_view(), 1), (q2, r1._ddiff_view(), -1)], "zero"))


def _consecutive_commute(lo: PDDO, hi: PDDO) -> bool:
    """Does the operator lo at index i commute with hi at index i + 1?

    Write the lower operator as a + b s and the upper one as a' + b' sigma.
    The s sigma and sigma s coefficients of the two products, b s(b') and
    b' sigma(b), vanish only when a Q0 is zero.  A lower multiplication
    operator R0(x_i, x_i+1) then commutes exactly when it has no term in v,
    and an upper one R0(x_i+1, x_i+2) exactly when it has none in u.
    """
    if not lo.Q0 and not hi.Q0:
        return True
    if not lo.Q0:
        return not lo.R0._degrees()[1]
    if not hi.Q0:
        return not hi.R0._degrees()[0]
    return False


@dataclass(frozen=True)
class CommuteReport(Report):
    """Per-index-pair commutation of two families."""

    same_index: dict[int, bool] = field(default_factory=dict)
    distant: dict[tuple[int, int], bool] = field(default_factory=dict)
    consecutive: dict[tuple[int, int], bool] = field(default_factory=dict)


def cross_family_commute(fam1: OperatorFamily, fam2: OperatorFamily) -> CommuteReport:
    """Check whether every operator of fam1 commutes with every one of fam2.

    A consecutive-index pair commutes only when one of its Q0 is zero.
    Distant pairs (i, k), k >= i + 2, are reported as commuting without
    computation.
    """
    if fam1.n != fam2.n:
        raise ValueError("families must act on the same number of variables")
    n = fam1.n
    same = dict(enumerate(per_operator(commutes_same_index, zip(fam1.ops, fam2.ops)), 1))
    consecutive = {}
    for i in range(1, n - 1):
        consecutive[(i, i + 1)] = _consecutive_commute(fam1[i], fam2[i + 1])
        consecutive[(i + 1, i)] = _consecutive_commute(fam2[i], fam1[i + 1])
    return CommuteReport(same_index=same, distant=_distant_pairs(n), consecutive=consecutive)
