"""Constructors for the classified operator families.

Each constructor validates the defining parameter constraints strictly and
returns an OperatorFamily; the construction realizes exactly the normalized
coefficient polynomials recorded for each family, so every family built here
passes the braid verification in :mod:`braidops.braid`.

Every operator is built straight in the first canonical form (Q0, R0), and
a polynomial whose terms are known is written as its term map.  The main
cases and the degenerate-T family are built from their T and R0
(``PDDO._from_t_r0``), so the operator keeps its T.
The main cases share one normal form: T = a uv + b u + c v + d with ad = bc,
and Q0 = T - (u - v)R0, where R0 is b - c - e for case 1 and b - c, 0,
a v + b, -(a u + c) for the four lines of case 2.  So case 1 at e = 0 is
line 1 and at e = b - c is line 2, which is why case 1 excludes those two
values.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .field import FieldElement, ZERO, ZETA, ZETA_BAR
from .multipoly import SlotPoly
from .pddo import PDDO, identity_op

__all__ = [
    "ConstraintError",
    "OperatorFamily",
    "Case2Line",
    "Isolated",
    "Interval",
    "main_case1",
    "main_case2",
    "degenerate_t_family",
    "zeta_pair",
    "with_vanishing_q0",
    "preset",
    "case1_operator",
    "case2_operator",
    "coincident_lines",
]

class ConstraintError(ValueError):
    """A family constructor was given parameters violating its constraints."""


@dataclass(frozen=True)
class OperatorFamily:
    """A sequence of n-1 operators indexed 1..n-1."""

    n: int
    ops: tuple[PDDO, ...]
    provenance: str = "user-supplied"

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("a family needs n >= 2")
        if len(self.ops) != self.n - 1:
            raise ValueError(f"expected {self.n - 1} operators, got {len(self.ops)}")

    def __getitem__(self, i: int) -> PDDO:
        """The operator at index i (1-based)."""
        if not 1 <= i <= self.n - 1:
            raise IndexError(f"operator index {i} out of range 1..{self.n - 1}")
        return self.ops[i - 1]


class Case2Line(Enum):
    """The four independent per-index operator shapes of the second main case.

    Every line has T = a uv + b u + c v + d and differs only in R0, with
    Q0 = T - (u - v)R0; the table _LINE_R0 gives R0 per line."""

    LINE1 = 1  # R0 = b - c
    LINE2 = 2  # R0 = 0
    LINE3 = 3  # R0 = a v + b
    LINE4 = 4  # R0 = -(a u + c)


def _fe(x) -> FieldElement:
    return FieldElement.of(x)


def _check_abcd(a, b, c, d) -> tuple[FieldElement, ...]:
    a, b, c, d = _fe(a), _fe(b), _fe(c), _fe(d)
    if not (a or b or c or d):
        raise ConstraintError("a, b, c, d must not all be zero")
    if a * d - b * c != ZERO:
        raise ConstraintError("ad - bc must vanish (ad = bc)")
    return a, b, c, d


def _abcd_operator(a, b, c, d, r0: SlotPoly) -> PDDO:
    """The main-case operator with T = a uv + b u + c v + d, which it keeps,
    and this R0."""
    return PDDO._from_t_r0(SlotPoly({(1, 1): a, (1, 0): b, (0, 1): c, (0, 0): d}), r0)


def case1_operator(a, b, c, d, e) -> PDDO:
    """The uniform operator with T = a uv + b u + c v + d and constant
    R0 = b - c - e, without parameter validation.

    It acts as f |-> (b-c-e) d(x_i f) + [a x_i x_{i+1} + (c+e) x_i
    + c x_{i+1} + d] d f.  At e = b - c (R0 = 0) and e = 0 (R0 = b - c) it
    is Case2Line.LINE2 and LINE1."""
    a, b, c, d, e = map(_fe, (a, b, c, d, e))
    return _abcd_operator(a, b, c, d, SlotPoly.const(b - c - e))


def main_case1(n: int, a, b, c, d, e) -> OperatorFamily:
    """The five-constant uniform family; requires ad = bc, (a,b,c,d) not all
    zero, and e outside {0, b - c}."""
    a, b, c, d = _check_abcd(a, b, c, d)
    e = _fe(e)
    if e == ZERO or e == b - c:
        raise ConstraintError(
            "e must equal neither 0 nor b - c; those values belong to the "
            "per-index family (main_case2 lines 1-2)"
        )
    op = case1_operator(a, b, c, d, e)
    return OperatorFamily(n, (op,) * (n - 1), provenance="MainCase1")


_LINE_R0 = {
    Case2Line.LINE1: lambda a, b, c: SlotPoly.const(b - c),
    Case2Line.LINE2: lambda a, b, c: SlotPoly.zero(),
    Case2Line.LINE3: lambda a, b, c: SlotPoly({(0, 1): a, (0, 0): b}),
    Case2Line.LINE4: lambda a, b, c: SlotPoly({(1, 0): -a, (0, 0): -c}),
}


def case2_operator(a, b, c, d, line: Case2Line) -> PDDO:
    """One per-index operator of the second main case, unvalidated."""
    a, b, c, d = map(_fe, (a, b, c, d))
    return _abcd_operator(a, b, c, d, _LINE_R0[line](a, b, c))


def main_case2(n: int, a, b, c, d, lines: Sequence[Case2Line]) -> OperatorFamily:
    """The per-index family: any of the four lines independently per index."""
    a, b, c, d = _check_abcd(a, b, c, d)
    lines = list(lines)
    if len(lines) != n - 1:
        raise ConstraintError(f"need {n - 1} line choices, got {len(lines)}")
    ops = _line_operators(a, b, c, d, lines)
    return OperatorFamily(n, tuple(ops[line] for line in lines), provenance="MainCase2")


def _line_operators(a, b, c, d, lines) -> dict[Case2Line, PDDO]:
    """One operator per distinct line choice, so equal choices share it."""
    return {line: case2_operator(a, b, c, d, line) for line in dict.fromkeys(lines)}


def coincident_lines(a, b, c, d) -> list[set[Case2Line]]:
    """Groups of line choices that yield the same operator at these parameters."""
    groups: dict[PDDO, set[Case2Line]] = {}
    for line, op in _line_operators(a, b, c, d, Case2Line).items():
        groups.setdefault(op, set()).add(line)
    return [members for members in groups.values() if len(members) > 1]


def transposition_scaled(q_l, q_r, qhat: SlotPoly) -> PDDO:
    """The operator f |-> q_l(x_i) q_r(x_{i+1}) qhat(x_i, x_{i+1}) s_i f,
    which keeps T = 0."""
    multiplier = SlotPoly.univariate(q_l, 0) * SlotPoly.univariate(q_r, 1) * qhat
    return PDDO._from_t_r0(SlotPoly.zero(), multiplier)


def degenerate_t_family(
    n: int,
    qhat: SlotPoly,
    p: Sequence,
    factor_pairs: Sequence[tuple[Sequence, Sequence]],
) -> OperatorFamily:
    """All operators are polynomial multiples of the transposition.

    Each index i gets pi_i f = q_l^i(x_i) q_r^i(x_{i+1}) qhat s_i f, where
    every pair must factor the shared univariate product p; this makes the
    multipliers of consecutive operators almost equal by construction.
    """
    if qhat.is_zero():
        raise ConstraintError("qhat must be nonzero")
    product = SlotPoly.univariate(p)
    if not product:
        raise ConstraintError("shared product p must be nonzero")
    if len(factor_pairs) != n - 1:
        raise ConstraintError(f"need {n - 1} factor pairs, got {len(factor_pairs)}")
    ops = []
    for idx, (q_l, q_r) in enumerate(factor_pairs, start=1):
        left = SlotPoly.univariate(q_l)
        right = SlotPoly.univariate(q_r)
        if not left or not right:
            raise ConstraintError(f"factor pair at index {idx} must be nonzero")
        if left * right != product:
            raise ConstraintError(
                f"factor pair at index {idx} violates the product property "
                "q_l * q_r = p"
            )
        ops.append(transposition_scaled(q_l, q_r, qhat))
    return OperatorFamily(n, tuple(ops), provenance="DegenT")


def zeta_pair(a, b, variant: int) -> tuple[PDDO, PDDO]:
    """A consecutive pair (pi, varpi) over Q(z) with varpi a multiplication
    operator with vanishing Q0 and pi nondegenerate; the pair satisfies the
    cubic braid relation.  variant selects one of the four shapes of pi."""
    a = _fe(a)
    b = _fe(b)
    if a == ZERO:
        raise ConstraintError("leading constant a must be nonzero")
    if variant not in (1, 2, 3, 4):
        raise ConstraintError("variant must be 1, 2, 3, or 4")
    u_b = SlotPoly({(1, 0): 1, (0, 0): b})
    v_b = SlotPoly({(0, 1): 1, (0, 0): b})
    # Variants 2 and 4 are variants 1 and 3 with zeta and zeta-bar swapped.
    w, w_bar = (ZETA, ZETA_BAR) if variant in (1, 3) else (ZETA_BAR, ZETA)
    mix = SlotPoly({(1, 0): w, (0, 1): w_bar, (0, 0): b})
    if variant <= 2:
        q, r = u_b * mix, u_b.scale(w_bar)
    else:
        q, r = v_b * mix, u_b + v_b.scale(w_bar)
    pi = PDDO.from_q0_r0(q.scale(a), r.scale(a))
    # varpi multiplies f by a(x_{i+1} + b): in its own slots, a(u + b).
    varpi = PDDO.from_q0_r0(SlotPoly.zero(), u_b.scale(a))
    return pi, varpi


@dataclass(frozen=True)
class Isolated:
    """An isolated non-scalar index with pi_i f = phi d_i(psi f)."""

    index: int
    phi: SlotPoly
    psi: SlotPoly

    @property
    def indices(self) -> range:
        return range(self.index, self.index + 1)

    def operators(self, mu: FieldElement) -> dict[int, PDDO]:
        """{index: operator}; requires d(phi psi) = mu."""
        if (self.phi * self.psi).ddiff() != mu:
            raise ConstraintError(
                f"isolated index {self.index}: d(phi * psi) must equal mu")
        return {self.index: isolated_operator(self.phi, self.psi)}


@dataclass(frozen=True)
class Interval:
    """A maximal run start..stop (inclusive, length >= 2) of second-main-case
    operators sharing one (a, b, c, d)."""

    start: int
    stop: int
    a: object
    b: object
    c: object
    d: object
    lines: Sequence[Case2Line] | None = None

    @property
    def indices(self) -> range:
        return range(self.start, self.stop + 1)

    def operators(self, mu: FieldElement) -> dict[int, PDDO]:
        """{index: operator} over start..stop via main_case2, whose refusals
        name the interval; requires b - c = mu."""
        indices = self.indices
        where = f"interval {self.start}..{self.stop}"
        if len(indices) < 2:
            raise ConstraintError(
                f"{where} must contain at least two indices; use an Isolated segment")
        lines = [Case2Line.LINE1] * len(indices) if self.lines is None else self.lines
        try:
            fam = main_case2(len(indices) + 1, self.a, self.b, self.c, self.d, lines)
        except ConstraintError as err:
            raise ConstraintError(f"{where}: {err}") from None
        if _fe(self.b) - _fe(self.c) != mu:
            raise ConstraintError(f"{where}: b - c must equal mu")
        return dict(zip(indices, fam.ops))


def isolated_operator(phi: SlotPoly, psi: SlotPoly) -> PDDO:
    """f |-> phi * d(psi f) = phi swap(psi) d f + phi d(psi) f."""
    return PDDO.from_q0_r0(phi * psi.swap(), phi * psi.ddiff())


def with_vanishing_q0(
    n: int, mu, segments: Sequence[Isolated | Interval]
) -> OperatorFamily:
    """Families containing scalar operators mu*Id at some indices.

    Indices not covered by a segment get mu*Id, and at least one must.
    Segments lie in 1..n-1, are disjoint and do not touch (no i and i + 1 in
    two segments), so each is a maximal non-scalar run.  This layout is
    checked before any operator is built: a segment's index range may be
    far larger than n.
    """
    mu = _fe(mu)
    if n < 4:
        raise ConstraintError("the vanishing-Q0 classification requires n >= 4")
    if mu == ZERO:
        raise ConstraintError("mu must be nonzero")
    owner: dict[int, int] = {}
    for k, seg in enumerate(segments):
        for i in seg.indices:
            if not 1 <= i <= n - 1:
                raise ConstraintError(f"segment index {i} out of range 1..{n - 1}")
            if i in owner:
                raise ConstraintError(f"segments overlap at index {i}")
            owner[i] = k
    if len(owner) == n - 1:
        raise ConstraintError("the set of scalar indices must be non-empty")
    for i, k in owner.items():
        if owner.get(i + 1, k) != k:
            raise ConstraintError(
                f"index {i} has a non-scalar neighbor {i + 1} in another segment"
            )
    ops = [identity_op(mu)] * (n - 1)
    for seg in segments:
        for i, op in seg.operators(mu).items():
            ops[i - 1] = op
    return OperatorFamily(n, tuple(ops), provenance="WithVanQ0")


def preset(name: str, n: int, param=None) -> OperatorFamily:
    """Classical presets: pure_ddiff(d), demazure, grothendieck(beta)."""
    if name == "pure_ddiff":
        d = _fe(1 if param is None else param)
        if d == ZERO:
            raise ConstraintError("pure_ddiff needs a nonzero scale d")
        fam = main_case2(n, 0, 0, 0, d, [Case2Line.LINE1] * (n - 1))
    elif name == "demazure":
        if param is not None:
            raise ConstraintError("demazure takes no parameter")
        fam = main_case2(n, 0, 1, 0, 0, [Case2Line.LINE1] * (n - 1))
    elif name == "grothendieck":
        beta = _fe(0 if param is None else param)
        fam = main_case2(n, 0, 0, beta, 1, [Case2Line.LINE1] * (n - 1))
    else:
        raise ConstraintError(f"unknown preset {name!r}")
    return OperatorFamily(fam.n, fam.ops, provenance=f"preset:{name}")
