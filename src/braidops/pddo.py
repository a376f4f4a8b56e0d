"""Polynomial divided difference operators.

An operator f |-> d_i(P f) + Q d_i f + R f + S s_i f is stored as its first
canonical form, the pair (Q0, R0) of Q0(x_i, x_{i+1}) d_i f + R0(x_i, x_{i+1}) f,
with Q0 = swap(P) + Q - (u - v)S and R0 = d(P) + R + S.  The action is
(T(x_i, x_{i+1}) f - Q0(x_i, x_{i+1}) s_i f) / (x_i - x_{i+1}) with
T = P + (u - v)R + Q = Q0 + (u - v)R0.  The operator is the one owner of what
it derives from its pair, and every constructor sets all of it, so a wrong
kept T cannot be built.  It keeps its T: the public PDDO(T, Q0) keeps the T
it checks, ``PDDO._from_t_r0(T, R0)`` derives Q0 = T - (u - v)R0 and keeps T,
and ``PDDO.from_q0_r0(Q0, R0)`` stores the pair with no arithmetic and builds
T on the first read.  PDDO(T, Q0) checks outside input: R0 is the quotient
of T - Q0 by u - v, found without long division, and the input is refused
when u - v does not divide T - Q0, which ``SlotPoly._over_u_minus_v`` alone
decides.
Composition is slot arithmetic, by the product formula.  The Leibniz rule
d(g h) = d(g) h + swap(g) d(h) and d(d f) = 0 give, for pi = Q0 d + R0 after
pi~ = Q0~ d + R0~,

    Q0' = Q0 d(Q0~) + Q0 swap(R0~) + R0 Q0~,    R0' = Q0 d(R0~) + R0 R0~,

each a sum of slot products summed in one accumulator
(``multipoly._slot_sum``), with no operator applied.  The Hecke parameters
are slot arithmetic too: mu = d(T) and nu = pi(R0) - mu R0 = Q0 d(R0) +
R0 (R0 - mu), the R0' of pi o pi less mu R0.  ``PDDO.hecke_params`` forms
them on its first call and keeps the result, None included; the cubic
check's f rule reads it too, so a family's check forms them once per
operator.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .divdiff import dpositive_lift, dpositive_split
from .field import FieldElement
from .multipoly import InexactDivisionError, MultiPoly, SlotPoly, _run_word, _slot_sum

__all__ = ["Degeneracy", "PDDO", "CanonicalForms", "identity_op", "per_operator"]

_UV = SlotPoly({(1, 0): 1, (0, 1): -1})
_UNFORMED = object()  # the Hecke slot of an operator that has not formed its parameters
_set = object.__setattr__


class Degeneracy(Enum):
    NONDEGENERATE = "nondegenerate"
    Q_ZERO = "q_zero"  # operator is multiplication by R0
    T_ZERO = "t_zero"  # operator is R0 times the transposition
    ZERO = "zero"


class CanonicalForms(NamedTuple):
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


def _filled(op: "PDDO", Q0: SlotPoly, R0: SlotPoly, T: SlotPoly | None) -> "PDDO":
    """op with every slot set: the pair, T = Q0 + (u - v)R0 or None until it
    is built on the first read, and no Hecke parameters formed."""
    _set(op, "Q0", Q0)
    _set(op, "R0", R0)
    _set(op, "_t", T)
    _set(op, "_hecke", _UNFORMED)
    return op


class PDDO:
    """One polynomial divided difference operator, stored as its first
    canonical form (Q0, R0) and compared and hashed by it.  It keeps
    T = Q0 + (u - v)R0, set by its constructor or built on the first read,
    and its Hecke parameters once formed; neither is compared, hashed or
    printed apart from the pair."""

    __slots__ = ("Q0", "R0", "_t", "_hecke")

    def __init__(self, T: SlotPoly, Q0: SlotPoly):
        """Build from outside (T, Q0), two SlotPolys, with R0 = (T - Q0)/(u - v);
        refused when u - v does not divide T - Q0.  T is kept."""
        for name, value in (("T", T), ("Q0", Q0)):
            if not isinstance(value, SlotPoly):
                raise TypeError(f"{name} must be a SlotPoly, not {type(value).__name__}")
        r0 = (T - Q0)._over_u_minus_v()
        if r0 is None:
            raise InexactDivisionError(
                "T - Q0 must be divisible by u - v; corrupted operator data")
        _filled(self, Q0, r0, T)

    def __setattr__(self, *args):
        raise AttributeError("PDDO is immutable")

    @property
    def T(self) -> SlotPoly:
        """Q0 + (u - v)R0, kept: the constructor's, or built on the first read."""
        if self._t is None:
            _set(self, "_t", self.Q0 + _UV * self.R0)
        return self._t

    @property
    def degeneracy(self) -> Degeneracy:
        if self.Q0:
            return Degeneracy.NONDEGENERATE if self.T else Degeneracy.T_ZERO
        return Degeneracy.Q_ZERO if self.R0 else Degeneracy.ZERO  # T = (u - v)R0

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_pqrs(cls, P: SlotPoly, Q: SlotPoly, R: SlotPoly, S: SlotPoly) -> "PDDO":
        """Build from any presentation f |-> d(Pf) + Q df + R f + S sf."""
        return cls.from_q0_r0(P.swap() + Q - _UV * S, P.ddiff() + R + S)

    @classmethod
    def from_q0_r0(cls, Q0: SlotPoly, R0: SlotPoly) -> "PDDO":
        """The operator f |-> Q0 d f + R0 f; T is built on the first read."""
        return _filled(object.__new__(cls), Q0, R0, None)

    @classmethod
    def _from_t_r0(cls, T: SlotPoly, R0: SlotPoly) -> "PDDO":
        """The operator with this T and R0, so Q0 = T - (u - v)R0; T is kept."""
        return _filled(object.__new__(cls), T - _UV * R0, R0, T)

    @classmethod
    def zero(cls) -> "PDDO":
        return cls.from_q0_r0(SlotPoly.zero(), SlotPoly.zero())

    # -- operator algebra --------------------------------------------------

    def __add__(self, other: "PDDO") -> "PDDO":
        if not isinstance(other, PDDO):
            return NotImplemented
        return PDDO.from_q0_r0(self.Q0 + other.Q0, self.R0 + other.R0)

    def __sub__(self, other: "PDDO") -> "PDDO":
        if not isinstance(other, PDDO):
            return NotImplemented
        return PDDO.from_q0_r0(self.Q0 - other.Q0, self.R0 - other.R0)

    def scale(self, c) -> "PDDO":
        c = FieldElement.of(c)
        return PDDO.from_q0_r0(self.Q0.scale(c), self.R0.scale(c))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PDDO):
            return NotImplemented
        return self.Q0 == other.Q0 and self.R0 == other.R0

    def __hash__(self) -> int:
        return hash((self.Q0, self.R0))

    def __repr__(self) -> str:
        return f"PDDO(T={self.T}, Q0={self.Q0})"

    # -- action ------------------------------------------------------------

    def apply(self, i: int, f: MultiPoly) -> MultiPoly:
        """Apply at index i: Q0 d_i f + R0 f at (x_i, x_{i+1}), in one
        integer pass, as the one-letter word [(i, self)]."""
        return _run_word([(i, self)], f, {})

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
        """The operator f |-> self(other(f)), same index on both, by the
        product formula.  With self = Q0 d + R0 and other = Q0~ d + R0~,
        self(other f) = Q0 d(Q0~ d f) + Q0 d(R0~ f) + R0 Q0~ d f + R0 R0~ f,
        and d(g h) = d(g) h + swap(g) d(h) with d(d f) = 0 gives d(Q0~ d f) =
        d(Q0~) d f and d(R0~ f) = d(R0~) f + swap(R0~) d f.  So the composite
        has Q0' = Q0 d(Q0~) + Q0 swap(R0~) + R0 Q0~ and R0' = Q0 d(R0~) +
        R0 R0~, each summed in one accumulator."""
        q, r, qt, rt = self.Q0, self.R0, other.Q0, other.R0
        return PDDO.from_q0_r0(
            _slot_sum([(q, qt._ddiff_view(), 1), (q, rt._swap_view(), 1), (r, qt, 1)]),
            _slot_sum([(q, rt._ddiff_view(), 1), (r, rt, 1)]))

    def hecke_params(self) -> tuple[FieldElement, FieldElement] | None:
        """(mu, nu) with op^2 = mu*op + nu*Id, when such constants exist,
        formed on the first call and kept, None included.

        When Q0 != 0, op o op has Q0 d(T) for its Q0 (see compose), so mu must
        be d(T), a constant.  Then op o op - mu op has Q0 d(T) - mu Q0 = 0
        for its Q0 and nu = op(R0) - mu R0 = Q0 d(R0) + R0 (R0 - mu) for its
        R0, summed in one accumulator with no operator applied: it is
        multiplication by nu, and the relation holds exactly when nu is
        constant.  When Q0 = 0 the operator is multiplication by R0, which
        satisfies one iff R0 = r is constant, and then op^2 = r * op.
        """
        if self._hecke is not _UNFORMED:
            return self._hecke
        q, r, params = self.Q0, self.R0, None
        if not q:
            if r.is_constant():
                params = r.constant_value(), FieldElement.of(0)
        else:
            dt = self.T.ddiff()
            if dt.is_constant():
                mu = dt.constant_value()
                nu = _slot_sum([(q, r._ddiff_view(), 1), (r, r - mu, 1)])
                if nu.is_constant():
                    params = mu, nu.constant_value()
        _set(self, "_hecke", params)
        return params


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
