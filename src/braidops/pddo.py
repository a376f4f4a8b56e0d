"""Polynomial divided difference operators.

An operator f |-> d_i(P f) + Q d_i f + R f + S s_i f is stored through its
two presentation invariants: the slot polynomials T = P + (u - v)R + Q and
Q0 = swap(P) + Q - (u - v)S.  The action on a polynomial is
(T(x_i, x_{i+1}) f - Q0(x_i, x_{i+1}) s_i f) / (x_i - x_{i+1}), and
R0 = (T - Q0)/(u - v) is the multiplier of f in the P = S = 0 presentation.
As T = Q0 + (u - v)R0, the action is computed in that first canonical form,
Q0(x_i, x_{i+1}) d_i f + R0(x_i, x_{i+1}) f, with no polynomial division.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .divdiff import ddiff, dpositive_lift, dpositive_split
from .field import FieldElement
from .multipoly import InexactDivisionError, MultiPoly, SlotPoly, instantiate

__all__ = ["Degeneracy", "PDDO", "CanonicalForms", "identity_op"]

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
    """One polynomial divided difference operator, keyed by (T, Q0)."""

    __slots__ = ("T", "Q0", "__dict__")

    def __init__(self, T: SlotPoly, Q0: SlotPoly):
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "Q0", Q0)
        self.R0  # eager: validates divisibility of T - Q0 by (u - v)
        self.degeneracy

    def __setattr__(self, *args):
        raise AttributeError("PDDO is immutable")

    @cached_property
    def R0(self) -> SlotPoly:
        diff = self.T - self.Q0
        if diff.is_zero():
            return SlotPoly.zero()
        try:
            return diff.exact_div(_UV)
        except InexactDivisionError as exc:
            raise InexactDivisionError(
                "T - Q0 must be divisible by u - v; corrupted operator data"
            ) from exc

    @cached_property
    def degeneracy(self) -> Degeneracy:
        if self.T.is_zero() and self.Q0.is_zero():
            return Degeneracy.ZERO
        if self.Q0.is_zero():
            return Degeneracy.Q_ZERO
        if self.T.is_zero():
            return Degeneracy.T_ZERO
        return Degeneracy.NONDEGENERATE

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_pqrs(cls, P: SlotPoly, Q: SlotPoly, R: SlotPoly, S: SlotPoly) -> "PDDO":
        """Build from any presentation f |-> d(Pf) + Q df + R f + S sf."""
        q0 = P.swap() + Q - _UV * S
        t = P + _UV * R + Q
        return cls(t, q0)

    @classmethod
    def from_q0_r0(cls, Q0: SlotPoly, R0: SlotPoly) -> "PDDO":
        return cls(Q0 + _UV * R0, Q0)

    @classmethod
    def zero(cls) -> "PDDO":
        return cls(SlotPoly.zero(), SlotPoly.zero())

    # -- operator algebra --------------------------------------------------

    def __add__(self, other: "PDDO") -> "PDDO":
        return PDDO(self.T + other.T, self.Q0 + other.Q0)

    def __sub__(self, other: "PDDO") -> "PDDO":
        return PDDO(self.T - other.T, self.Q0 - other.Q0)

    def scale(self, c) -> "PDDO":
        c = FieldElement.of(c)
        return PDDO(self.T.scale(c), self.Q0.scale(c))

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
        """Apply at index i, computed as Q0 d_i f + R0 f at (x_i, x_{i+1})."""
        n = f.n_vars
        if not 1 <= i <= n - 1:
            raise IndexError(f"operator index {i} out of range 1..{n - 1}")
        q0 = instantiate(self.Q0, i, i + 1, n)
        r0 = instantiate(self.R0, i, i + 1, n)
        return q0 * ddiff(f, i) + r0 * f

    def probe(self, i: int, n: int | None = None) -> tuple[MultiPoly, MultiPoly]:
        """Return (pi(1), pi(x_i)) as polynomials in n variables."""
        if n is None:
            n = i + 1
        one = MultiPoly.const(n, 1)
        xi = MultiPoly.variable(n, i)
        return self.apply(i, one), self.apply(i, xi)

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
        """(mu, nu) with op^2 = mu*op + nu*Id, when such constants exist."""
        deg = self.degeneracy
        if deg in (Degeneracy.Q_ZERO, Degeneracy.ZERO):
            # Multiplication by R0 satisfies a Hecke relation iff R0 = r is
            # constant, and then op^2 = r * op.
            if self.R0.is_constant():
                return self.R0.constant_value(), FieldElement.of(0)
            return None
        if deg is Degeneracy.T_ZERO:
            # R0 * s squares to R0(u,v) R0(v,u); Hecke iff R0 is a scalar.
            if self.R0.is_constant():
                lam = self.R0.constant_value()
                return FieldElement.of(0), lam * lam
            return None
        dt = self.T.ddiff()
        if not dt.is_constant():
            return None
        mu = dt.constant_value()
        nu_poly = (self.R0 * self.T.swap()).ddiff() + self.R0 * self.R0.swap()
        if not nu_poly.is_constant():
            return None
        return mu, nu_poly.constant_value()


def identity_op(c=1) -> PDDO:
    """The operator c * Id."""
    return PDDO.from_q0_r0(SlotPoly.zero(), SlotPoly.const(c))
