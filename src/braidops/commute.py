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
from .pddo import PDDO, per_operator

__all__ = ["commutes_same_index", "CommuteReport", "cross_family_commute"]


def commutes_same_index(op1: PDDO, op2: PDDO) -> bool:
    """Do the two operators, acting at the same index, commute?

    The coefficients of 1 and s in pi pi' - pi' pi vanish exactly when
    Q0 d(Q0') = Q0' d(Q0) and Q0 d(R0') = Q0' d(R0).  This holds for every
    pair, degenerate or not.
    """
    q1, r1 = op1.Q0, op1.R0
    q2, r2 = op2.Q0, op2.R0
    return q1 * q2.ddiff() == q2 * q1.ddiff() and q1 * r2.ddiff() == q2 * r1.ddiff()


def _consecutive_commute(lo: PDDO, hi: PDDO) -> bool:
    """Does the operator lo at index i commute with hi at index i + 1?

    Write the lower operator as a + b s and the upper one as a' + b' sigma.
    The s sigma and sigma s coefficients of the two products, b s(b') and
    b' sigma(b), vanish only when a Q0 is zero.  A lower multiplication
    operator R0(x_i, x_i+1) then commutes exactly when it has no v, and an
    upper one R0(x_i+1, x_i+2) exactly when it has no u.
    """
    if not lo.Q0 and not hi.Q0:
        return True
    if not lo.Q0:
        return all(s == 0 for _, s in lo.R0.terms)
    if not hi.Q0:
        return all(r == 0 for r, _ in hi.R0.terms)
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
