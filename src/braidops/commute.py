"""Commutation tests for operators at equal, distant, and consecutive indices."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .families import OperatorFamily
from .multipoly import MultiPoly
from .pddo import PDDO, Degeneracy

__all__ = ["commutes_same_index", "CommuteReport", "cross_family_commute"]


def _commutes_by_composition(op1: PDDO, op2: PDDO) -> bool:
    return op1.compose(op2) == op2.compose(op1)


def commutes_same_index(op1: PDDO, op2: PDDO) -> bool:
    """Do the two operators, acting at the same index, commute?

    Nondegenerate pairs use the closed-form criterion
    Q0 d(Q0') = Q0' d(Q0) and Q0 d(R0') = Q0' d(R0); degenerate operators
    fall back to composing in both orders and comparing.
    """
    if (
        op1.degeneracy is not Degeneracy.NONDEGENERATE
        or op2.degeneracy is not Degeneracy.NONDEGENERATE
    ):
        return _commutes_by_composition(op1, op2)
    q1, r1 = op1.Q0, op1.R0
    q2, r2 = op2.Q0, op2.R0
    return q1 * q2.ddiff() == q2 * q1.ddiff() and q1 * r2.ddiff() == q2 * r1.ddiff()


def _consecutive_commute(op_i: PDDO, op_k: PDDO, i: int, k: int, n: int) -> bool:
    """Probe pi_i pi_k = pi_k pi_i for |i - k| = 1 on degree-<=4 monomials in
    the three touched variables."""
    lo = min(i, k)
    touched = (lo, lo + 1, lo + 2)
    for degs in product(range(5), repeat=3):
        if sum(degs) > 4:
            continue
        e = [0] * n
        for var, d in zip(touched, degs):
            e[var - 1] = d
        f = MultiPoly.monomial(n, e)
        if op_i.apply(i, op_k.apply(k, f)) != op_k.apply(k, op_i.apply(i, f)):
            return False
    return True


@dataclass(frozen=True)
class CommuteReport:
    """Per-index-pair commutation of two families."""

    same_index: dict[int, bool] = field(default_factory=dict)
    distant: dict[tuple[int, int], bool] = field(default_factory=dict)
    consecutive: dict[tuple[int, int], bool] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return (
            all(self.same_index.values())
            and all(self.distant.values())
            and all(self.consecutive.values())
        )

    def __bool__(self) -> bool:
        return self.passed


def cross_family_commute(fam1: OperatorFamily, fam2: OperatorFamily) -> CommuteReport:
    """Check whether every operator of fam1 commutes with every one of fam2.

    Consecutive-index pairs almost never commute unless one family consists
    of scalar multiples of the identity.  Distant pairs (i, k), k >= i + 2,
    are reported as commuting without computation.
    """
    if fam1.n != fam2.n:
        raise ValueError("families must act on the same number of variables")
    n = fam1.n
    same = {i: commutes_same_index(fam1[i], fam2[i]) for i in range(1, n)}
    # pi_i and pi_k act on disjoint variable pairs with coefficients in them: commute.
    distant = {(i, k): True for i in range(1, n) for k in range(i + 2, n)}
    consecutive = {}
    for i in range(1, n):
        for k in range(1, n):
            if abs(i - k) == 1:
                consecutive[(i, k)] = _consecutive_commute(fam1[i], fam2[k], i, k, n)
    return CommuteReport(same_index=same, distant=distant, consecutive=consecutive)
