"""Polynomial divided difference operators.

An operator f |-> d_i(P f) + Q d_i f + R f + S s_i f is kept in its first
canonical form, Q0(x_i, x_{i+1}) d_i f + R0(x_i, x_{i+1}) f, with
Q0 = swap(P) + Q - (u - v)S and R0 = d(P) + R + S.  The action is
(T(x_i, x_{i+1}) f - Q0(x_i, x_{i+1}) s_i f) / (x_i - x_{i+1}) with
T = P + (u - v)R + Q = Q0 + (u - v)R0, so T is a product and every operator
built inside the library, and its action, needs no polynomial division.
Only the public constructor PDDO(T, Q0) divides, once, to check outside
input and recover R0 = (T - Q0)/(u - v).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .divdiff import dpositive_lift, dpositive_split
from .field import FieldElement
from .multipoly import InexactDivisionError, MultiPoly, SlotPoly, _apply_terms

__all__ = ["Degeneracy", "PDDO", "CanonicalForms", "identity_op", "per_operator"]

_UV = SlotPoly.u() - SlotPoly.v()


class Degeneracy(Enum):
    NONDEGENERATE = "nondegenerate"
    Q_ZERO = "q_zero"  # operator is multiplication by R0
    T_ZERO = "t_zero"  # operator is R0 times the transposition
    ZERO = "zero"


@dataclass(frozen=True)
class CanonicalForms:
    """The three canonical presentations of one operator.

    First form: P = S = 0 with coefficients (Q0, R0).
    Second form: S = 0 with P and R d-positive, (p_plus, q_sup, r_plus).
    Third form: S = 0 with Q and R d-positive, (p_sup, q_plus, r_plus).
    """

    q0: SlotPoly
    r0: SlotPoly
    p_plus: SlotPoly
    q_sup: SlotPoly
    p_sup: SlotPoly
    q_plus: SlotPoly
    r_plus: SlotPoly


class PDDO:
    """One polynomial divided difference operator in the first canonical
    form (Q0, R0), with T = Q0 + (u - v)R0; compared and hashed by (T, Q0)."""

    __slots__ = ("T", "Q0", "R0")

    def __init__(self, T: SlotPoly, Q0: SlotPoly):
        """Build from outside (T, Q0); T - Q0 must be divisible by u - v."""
        try:
            R0 = (T - Q0).exact_div(_UV)
        except InexactDivisionError as exc:
            raise InexactDivisionError(
                "T - Q0 must be divisible by u - v; corrupted operator data"
            ) from exc
        self._fill(T, Q0, R0)

    def _fill(self, T: SlotPoly, Q0: SlotPoly, R0: SlotPoly) -> None:
        for name, value in zip(PDDO.__slots__, (T, Q0, R0)):
            object.__setattr__(self, name, value)

    def __setattr__(self, *args):
        raise AttributeError("PDDO is immutable")

    @property
    def degeneracy(self) -> Degeneracy:
        if self.Q0:
            return Degeneracy.NONDEGENERATE if self.T else Degeneracy.T_ZERO
        return Degeneracy.Q_ZERO if self.T else Degeneracy.ZERO

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_pqrs(cls, P: SlotPoly, Q: SlotPoly, R: SlotPoly, S: SlotPoly) -> "PDDO":
        """Build from any presentation f |-> d(Pf) + Q df + R f + S sf."""
        return cls.from_q0_r0(P.swap() + Q - _UV * S, P.ddiff() + R + S)

    @classmethod
    def from_q0_r0(cls, Q0: SlotPoly, R0: SlotPoly) -> "PDDO":
        """The operator f |-> Q0 d f + R0 f."""
        op = object.__new__(cls)
        op._fill(Q0 + _UV * R0, Q0, R0)
        return op

    @classmethod
    def zero(cls) -> "PDDO":
        return cls.from_q0_r0(SlotPoly.zero(), SlotPoly.zero())

    # -- operator algebra --------------------------------------------------

    def __add__(self, other: "PDDO") -> "PDDO":
        return PDDO.from_q0_r0(self.Q0 + other.Q0, self.R0 + other.R0)

    def __sub__(self, other: "PDDO") -> "PDDO":
        return PDDO.from_q0_r0(self.Q0 - other.Q0, self.R0 - other.R0)

    def scale(self, c) -> "PDDO":
        c = FieldElement.of(c)
        return PDDO.from_q0_r0(self.Q0.scale(c), self.R0.scale(c))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PDDO):
            return NotImplemented
        return self.T == other.T and self.Q0 == other.Q0

    def __hash__(self) -> int:
        return hash((self.T, self.Q0))

    def __repr__(self) -> str:
        return f"PDDO(T={self.T}, Q0={self.Q0})"

    # -- action ------------------------------------------------------------

    def apply(self, i: int, f: MultiPoly) -> MultiPoly:
        """Apply at index i: Q0 d_i f + R0 f at (x_i, x_{i+1}), in one
        integer pass."""
        n = f.n_vars
        if not 1 <= i <= n - 1:
            raise IndexError(f"operator index {i} out of range 1..{n - 1}")
        return MultiPoly._wrap(n, _apply_terms(f._terms, i - 1, self.Q0._terms, self.R0._terms))

    # -- derived data ------------------------------------------------------

    def canonical_forms(self) -> CanonicalForms:
        r_sym, r_plus = dpositive_split(self.R0)
        p_plus = dpositive_lift(r_sym)
        q_sup = self.Q0 - p_plus.swap()
        q_sym, q_plus = dpositive_split(q_sup)
        p_sup = p_plus + q_sym
        return CanonicalForms(
            q0=self.Q0,
            r0=self.R0,
            p_plus=p_plus,
            q_sup=q_sup,
            p_sup=p_sup,
            q_plus=q_plus,
            r_plus=r_plus,
        )

    def compose(self, other: "PDDO") -> "PDDO":
        """The operator f |-> self(other(f)), same index on both."""
        q1, r1 = self.Q0, self.R0
        q2, r2 = other.Q0, other.R0
        q = q1 * q2.ddiff() + r1 * q2 + q1 * r2.swap()
        r = q1 * r2.ddiff() + r1 * r2
        return PDDO.from_q0_r0(q, r)

    def hecke_params(self) -> tuple[FieldElement, FieldElement] | None:
        """(mu, nu) with op^2 = mu*op + nu*Id, when such constants exist.

        op o op is f |-> Q0 d(T) d f + (Q0 d(R0) + R0^2) f.  When Q0 != 0 the
        relation holds iff mu = d(T) and nu = Q0 d(R0) + (R0 - mu) R0 are
        both constant; for T = 0 these are mu = 0 and nu = R0 swap(R0), which
        is constant iff R0 is.  When Q0 = 0 the operator is multiplication by R0,
        which satisfies one iff R0 = r is constant, and then op^2 = r * op.
        """
        if not self.Q0:
            if self.R0.is_constant():
                return self.R0.constant_value(), FieldElement.of(0)
            return None
        dt = self.T.ddiff()
        if not dt.is_constant():
            return None
        mu = dt.constant_value()
        nu = self.Q0 * self.R0.ddiff() + (self.R0 - mu) * self.R0
        if not nu.is_constant():
            return None
        return mu, nu.constant_value()


def identity_op(c=1) -> PDDO:
    """The operator c * Id."""
    return PDDO.from_q0_r0(SlotPoly.zero(), SlotPoly.const(c))


def per_operator(fn, argument_tuples) -> list:
    """[fn(*args) for args in argument_tuples], calling fn once per distinct
    tuple of argument objects.  Keyed on identity, not on PDDO.__hash__, which
    builds frozensets on every call and costs more than it would save."""
    memo: dict = {}
    results = []
    for args in argument_tuples:
        key = tuple(map(id, args))
        if key not in memo:
            memo[key] = args, fn(*args)  # holding args keeps their ids from reuse
        results.append(memo[key][1])
    return results
