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
s_sigma_f   (x-y)(y-z) q_xy qt_xz t_yz - tt_yz, zero exactly when T == T~
sigma_s_f   (x-y)(y-z) qt_yz q_xz t_xy - tt_xy, zero exactly when T == T~
s_sigma_s_f -(x-y)(y-z)           q_xy qt_xz q_yz - qt_xy q_xz qt_yz,
                                  zero exactly when q and qt are almost equal
                                  (decided in two variables, below)
=========== ===================== ==============================================

Q(z)[x, y, z] is an integral domain, so a difference vanishes exactly when
its factor or its reduced difference does, and a factor vanishes exactly
when a Q0 or Q0~ in it does.  The middle two reduced differences vanish
exactly when T == T~: a braiding pair with both Q0 nonzero has T == T~.

*Diagonal lemma.*  Setting y = z in sf's reduced difference and x = y in
sigma_f's, as the table writes them, gives

    sf:      (x-z) tt(z,z) (t - tt)(x,z)
    sigma_f: (y-z) t(y,y) (t - tt)(y,z),

and T = Q0 + (u-v) R0 gives T(v,v) = Q0(v,v).  A polynomial with a nonzero
specialisation is nonzero, so when T != T~, sf's reduced difference is
nonzero whenever Q0~(v,v) != 0, and sigma_f's whenever Q0(v,v) != 0: those
flags are False with nothing placed in three variables.  T~(v,v) is the
remainder of T~ by u - v, so the check computes no diagonal: the quotient
T~ / (u - v) that the divisible-T step below takes is refused exactly when
the diagonal is nonzero, and the refusal refutes the flag.

The last reduced difference is the almost-equality identity, and it is
decided in two variables.  For nonzero q and qt let r = qt/q.  The identity
says r(x,z) = r(x,y) r(y,z): r is a multiplicative cocycle, so the identity
holds exactly when r(u,v) = g(u)/g(v) for some rational function g.  Setting
z = c and renaming x, y to u, v gives

    q(u,v) qt(u,c) q(v,c) == qt(u,v) q(u,c) qt(v,c).

Conversely, when this holds for a constant c at which q(u,c) and qt(u,c) are
nonzero, g(w) = r(w,c) gives r(u,v) = g(u)/g(v), so the three-variable
identity holds.  c is the first of 0, 1, 2, ... at which q(u,c) and qt(u,c)
are nonzero; q(u,c) vanishes exactly when v - c divides q, so at most
deg_v q + deg_v qt values are passed over.

*Normal-form lemma.*  Pairs with T == T~ = t != 0 (every braiding pair with
both Q0 nonzero) are decided further in two variables: sf's reduced
difference vanishes exactly when t = A(u) B(v) with deg B <= 1, and
sigma_f's exactly when t = A(u) B(v) with deg A <= 1.  Both vanish exactly
for t = (pu + q)(rv + s), the normal form a uv + b u + c v + d with ad = bc
of every classified family, and then d(t) = mu is the constant ps - qr.
(<=)  For t = A(u) B(v), with P[x,y,z] the second divided difference of P,
zero exactly when deg P <= 1, the two reduced differences are

    sf:      -(x-y)(x-z)(y-z) A(x) A(y) B(z) B[x,y,z]
    sigma_f:  (x-y)(x-z)(y-z) A(x) B(y) B(z) A[x,y,z].

(=>)  Let c be an integer with t(c,c) != 0.  At x = c, sf's reduced
difference is (y-z) (t(y,z) E(y,z) - t(y,c) t(c,z)), where the polynomial
E(y,z) = (t(c,y) (c-z) - t(c,z) (c-y)) / (y-z) has E(y,c) = E(c,z) =
t(c,c).  When it vanishes, t E = t(y,c) t(c,z), nonzero at y = z = c, is a
product of univariates, and so are t and E, by unique factorisation.
E(y,c) and E(c,z) are constant, so E is the constant t(c,c), t(y,z) =
t(y,c) t(c,z)/t(c,c) is separable, and (<=) gives deg B <= 1.  sigma_f mirrors this at z = c: there it is -(x-y)
(t(x,y) E'(x,y) - t(x,c) t(c,y)), E'(x,y) = ((x-c) t(y,c) - (y-c) t(x,c)) /
(x-y), E'(x,c) = E'(c,y) = t(c,c).  With a zero diagonal neither vanishes:
at a c with t(y,c) t(c,z) != 0 the same step gives t = A(u) B(v), so
t(v,v) = A(v) B(v) != 0.  The check reads the lemma off t's coefficients.
t is such a product a(u) b(v) exactly when its coefficient matrix [c_rs]
has rank at most 1, which the check decides by the matrix's 2x2 minors: t
must pass that rank test with no term v^s, s > 1, for sf, and no term u^r,
r > 1, for sigma_f.

*Hecke lemma.*  Let d(t) = mu be a constant, as in the normal form.  Let
nu = pi(R0) - mu R0 = Q0 d(R0) + R0 (R0 - mu), a slot polynomial, and nu~
that of varpi (the Hecke nu: pi^2 = mu pi + nu when nu is constant).
Writing q = t - (u-v) R0 gives q(u,v) q(v,u) = t(u,v) t(v,u) - (u-v)^2
nu(u,v), and with this f's reduced difference is

    (t_xy (y-z) - t_yz (x-y)) * (sf's reduced difference)
    + (x-y)^2 (y-z)^2 t_xz (nu(x,y) - nu~(y,z)),

the terms without nu cancelling by t_yx = t_xy - mu (x-y) and t_zy =
t_yz - mu (y-z).  So once sf's reduced difference vanishes and t != 0, f
holds exactly when nu(x,y) = nu~(y,z).  nu is symmetric: pi^2 - mu pi is
multiplication by nu and commutes with pi, which forces d(nu) = 0 when
Q0 != 0, and nu = -R0 swap(R0) when Q0 = 0.  So f holds exactly when nu and
nu~ are one constant, that is when both operators have the same Hecke
parameters (mu, nu), read from ``PDDO.hecke_params``, which each operator
forms once and keeps, as it keeps its T.  T = T~ = 0 makes the f, sf and
sigma_f reduced differences zero outright, each of their terms having a t
factor.

The Hecke lemma is an identity with integer coefficients in those of T, R0
and R0~, and the normal-form lemma needs only unique factorisation and an
integer c off the finitely many at which t(c,c) or t(u,c) t(c,v) vanishes,
so both hold over any field of characteristic 0, parameters included.

*Divisible-T step.*  sf's reduced difference reads only T and T~.  When
T~(v,v) = Q0~(v,v) = 0, T~ = (u-v) g (g = R0~ when Q0~ = 0, with nothing
divided), and with t for T, whatever Q0~ is, sf's reduced difference is

    (x-z)(y-z) [t_xy g_yz - t_yx g_xz - (x-y) g_xz g_yz].

Let g have degree K in its second slot, z here, the one variable varpi
touches and pi does not, with leading coefficient g_K.  When K >= 1, the
bracket's z^{2K} coefficient is -(x-y) g_K(x) g_K(y), every other term
having degree at most K in z, so the reduced difference is nonzero.  When
K = 0, g_yz = g(y) and g_xz = g(x), and with gs = swap(g) the bracket in
u = x, v = y is

    t gs - swap(t) g - (u-v) g gs = (t - T~) gs - swap(t) g.

sigma_f mirrors this when T(v,v) = Q0(v,v) = 0, with T = (u-v) g, t for T~
and x, g's first slot, as the unshared variable: its reduced difference is

    (x-y)(x-z) [(y-z) g_xy g_xz + g_xz t_zy - g_xy t_yz],

with x^{2K} coefficient (y-z) g_K(y) g_K(z), and at K = 0, in u = y, v = z,
the same bracket, negated.  So for a pair with T != T~ and both Q0
nonzero, sf fails when u - v does not divide T~ (the diagonal lemma) and is
otherwise decided by this step on g = T~ / (u-v); sigma_f likewise with T
and T~ exchanged.  For a pair with a zero Q0, g is the multiplier's stored
R0: sf holds when Q0 = 0 (its factor) and sigma_f when Q0~ = 0, and the
other flag of the two, the multiplier's transposition flag, is this step on
that g, sharing g, swap(g) and the test K = 0 with the multiplication lemma
below.  No pair decides sf or sigma_f in three variables.

*Multiplication lemma.*  A pair with a zero Q0 also has f decided in two
variables, from g, the multiplier's R0.  Take Q0~ = 0, so T~ = (u-v) g,
and write t, q for T, Q0 of pi.  f's reduced difference is then

    (x-z)(y-z)^2 [t_xy^2 g_yz - q_xy q_yx g_xz - (x-y) t_xy g_yz^2].

With K as above, when K >= 1 the bracket's z^{2K} coefficient is -(x-y)
t_xy g_K(y)^2, so it vanishes only when t = 0, where the bracket is
-q_xy q_yx g_xz: f holds exactly when q = t = 0.  When K = 0 the bracket in
u = x, v = y is

    t^2 gs - q swap(q) g - (u-v) t gs^2 = t gs (t + swap(T~)) - q swap(q) g.

When Q0 = 0 and Q0~ != 0, pi multiplies by g, T = (u-v) g, and t, q are T~,
Q0~.  The proof mirrors this with x as the unshared variable: f's reduced
difference is

    (x-y)^2 (x-z) [(y-z) g_xy^2 t_yz - g_xy t_yz^2 + g_xz q_yz q_zy],

with x^{2K} coefficient (y-z) g_K(y)^2 t_yz, and at K = 0, in u = y, v = z,
the same bracket, negated.

So sf and sigma_f are always decided in two variables, and so is f for
every braiding pair: one with a zero Q0 by the multiplication lemma, one
with both Q0 nonzero by T == T~ in normal form and the Hecke lemma.

*Point rule.*  The lemmas leave f open only for a pair with both Q0
nonzero and T != T~, or T == T~ out of the normal form.  A polynomial with
a nonzero value is nonzero, so f's reduced difference is first evaluated
at one integer point (x, y, z), each slot polynomial it reads evaluated at
two of the point's coordinates (``SlotPoly.evaluate``, an integer sum over
the stored pairs; q_xy q_yx is two such values), with nothing built, and a
nonzero value makes f's flag False.  Only a zero value, from an f that holds
or a point that falls on a root, builds f's difference in three variables;
it decides the flag and is kept as f's witness.

The failure witness, the difference of the first failing coefficient, is
built in three variables when ``CubicReport.failure`` is first read, so a
check whose witness is not read multiplies nothing in three variables but
f's difference after a zero value at the point.  Each difference places
each slot polynomial it reads once; in f's, q_xy q_yx and qt_yz qt_zy are
the two-variable products Q0 swap(Q0) and Q0~ swap(Q0~) placed.
Each two-variable identity above, of almost-equality, the divisible-T step
and the multiplication lemma, is a sum of slot products, decided zero or not
in one integer accumulator (``multipoly._slot_sum``) with no polynomial
built for the sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count, product
from typing import TYPE_CHECKING

from .multipoly import MultiPoly, SlotPoly, _run_word, _slot_sum, instantiate
from .pddo import PDDO, per_operator

if TYPE_CHECKING:  # pragma: no cover
    from .families import OperatorFamily

__all__ = [
    "Report",
    "CubicReport",
    "FamilyReport",
    "cubic_braid_check",
    "quad_commute_check",
    "relation_holds",
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


class CubicReport(Report):
    """Outcome of one cubic braid comparison, one flag per coefficient, and
    failure, None or the name and difference of the first failing
    coefficient.  failure may be given as the function that builds it (a
    witness is not callable), called on the first read; the report is
    immutable."""

    def __init__(self, flags: dict[str, bool], failure=None):
        vars(self).update(flags=flags, _failure=failure)

    @property
    def failure(self) -> tuple[str, MultiPoly] | None:
        if callable(self._failure):
            vars(self)["_failure"] = self._failure()
        return self._failure

    def __setattr__(self, *args):
        raise AttributeError("CubicReport is immutable")

    def __eq__(self, other) -> bool:
        return (isinstance(other, CubicReport)
                and (self.flags, self.failure) == (other.flags, other.failure))

    def __repr__(self) -> str:
        return f"CubicReport(flags={self.flags!r}, failure={self.failure!r})"


# x - y, x - z and y - z in Q(z)[x, y, z], built once for every cubic check,
# and the integer point (x, y, z) where f's reduced difference is tried first
# (the point rule), away from the small integer roots of the linear factors
# that the families' coefficients carry.
_XY, _XZ, _YZ = (MultiPoly.variable(3, i) - MultiPoly.variable(3, j)
                 for i, j in ((1, 2), (1, 3), (2, 3)))
_POINT = _X0, _Y0, _Z0 = (19, -7, 11)


def _at_point(p: SlotPoly, i: int, j: int):
    """p placed at the i-th and j-th coordinates of the point: a value."""
    return p.evaluate(_POINT[i - 1], _POINT[j - 1])


def _factored_differences(pi: PDDO, varpi: PDDO) -> dict:
    """The six numerator differences, left minus right, in the module's
    table: name -> (flag, difference), the difference a function that builds
    factor * reduced difference on demand.  Every flag is decided by the
    slot polynomials and, for sf and sigma_f, the multiplier's R0 or, when
    both Q0 are nonzero, T / (u - v) and T~ / (u - v) (module docstring).
    f's is decided by the Hecke parameters or the multiplier's R0, or else by
    its reduced difference at one integer point, and only when that value is
    0 by its difference, built in three variables and kept as f's witness.
    Each difference places each slot polynomial it reads once, so a pair
    decided in two variables places none; a pair with a zero Q0 divides
    nothing."""
    T, Q = pi.T, pi.Q0
    Tt, Qt = varpi.T, varpi.Q0
    same_t = T == Tt
    f_known = built = None  # built: f's difference, when its flag needed it
    if same_t and not T:
        sf_known = sigma_f_known = f_known = True
    elif same_t and Q and Qt:  # the normal-form lemma
        separable, (deg_u, deg_v) = T._separable(), T._degrees()
        sf_known, sigma_f_known = separable and deg_v <= 1, separable and deg_u <= 1
        if sf_known and sigma_f_known:  # the Hecke lemma: T == T~ gives mu == mu~
            hp = pi.hecke_params()
            f_known = hp is not None and hp == varpi.hecke_params()
    elif not (Q and Qt):  # the multiplication lemma and the divisible-T step on the
        # multiplier's stored R0 = g: pi multiplies when Qt != 0, and tg = (u - v) g is its T
        g, t, q, tg = (pi.R0, Tt, Qt, T) if Qt else (varpi.R0, T, Q, Tt)
        unshared, qq = 0 if Qt else 1, _times_swap(q)
        transposition = not q or _divisible_t(t, tg, g, unshared)
        k0 = not g._degrees()[unshared]  # K = 0, K the degree in the unshared slot
        t_gs = k0 and _slot_sum([(t, g._swap_view(), 1)])  # t swap(g), for K = 0
        f_known = _slot_sum([(t_gs, t + tg.swap(), 1), (qq, g, -1)], "zero") if k0 else not (q or t)
        sf_known, sigma_f_known = (True, transposition) if Qt else (transposition, True)
    else:  # T != T~ with both Q0 nonzero: the diagonal lemma and the divisible-T step
        sf_known = _divisible_t(T, Tt, Tt._over_u_minus_v(), 1)
        sigma_f_known = _divisible_t(Tt, T, T._over_u_minus_v(), 0)
    middle = Q.is_zero() or Qt.is_zero() or same_t

    def at(p: SlotPoly, i: int, j: int) -> MultiPoly:
        return instantiate(p, i, j, 3)

    def f(at=at, xy=_XY, xz=_XZ, yz=_YZ, at_both=lambda q, i, j: at(_times_swap(q), i, j)):
        """f's difference, which is its reduced difference, in x, y, z; or
        its value at a point, with at placing a slot polynomial at two of the
        point's coordinates, xy, xz, yz their differences and at_both(q, i, j)
        placing q(i, j) q(j, i)."""
        t_xy, tt_yz = at(T, 1, 2), at(Tt, 2, 3)
        return (t_xy * tt_yz * xz * (yz * t_xy - xy * tt_yz)
                - yz * yz * at(Tt, 1, 3) * at_both(Q, 1, 2)
                + xy * xy * at(T, 1, 3) * at_both(Qt, 2, 3))

    if f_known is None:  # a polynomial with a nonzero value is nonzero
        f_known = not f(_at_point, _X0 - _Y0, _X0 - _Z0, _Y0 - _Z0,
                        lambda q, i, j: _at_point(q, i, j) * _at_point(q, j, i)) \
            and (built := f()).is_zero()

    def sf() -> MultiPoly:
        tt_yz = at(Tt, 2, 3)
        return -_YZ * at(Q, 1, 2) * (
            at(T, 1, 2) * tt_yz * _XZ - at(Tt, 1, 3) * (_YZ * at(T, 2, 1) + _XY * tt_yz))

    def sigma_f() -> MultiPoly:
        t_xy = at(T, 1, 2)
        return -_XY * at(Qt, 2, 3) * (
            at(T, 1, 3) * (_YZ * t_xy + _XY * at(Tt, 3, 2)) - t_xy * at(Tt, 2, 3) * _XZ)

    return {
        "f": (f_known, f if built is None else lambda: built),
        "sf": (sf_known, sf),
        "sigma_f": (sigma_f_known, sigma_f),
        "s_sigma_f": (middle, lambda: _XY * _YZ * at(Q, 1, 2) * at(Qt, 1, 3) * at(T - Tt, 2, 3)),
        "sigma_s_f": (middle, lambda: _XY * _YZ * at(Qt, 2, 3) * at(Q, 1, 3) * at(T - Tt, 1, 2)),
        "s_sigma_s_f": (Q.is_zero() or Qt.is_zero() or Q == Qt or _almost(Q, Qt),
                        lambda: -_XY * _YZ * (at(Q, 1, 2) * at(Qt, 1, 3) * at(Q, 2, 3)
                                              - at(Qt, 1, 2) * at(Q, 1, 3) * at(Qt, 2, 3))),
    }


def _times_swap(q: SlotPoly) -> SlotPoly:
    """q swap(q), the slot product that f's difference places."""
    return _slot_sum([(q, q._swap_view(), 1)])


def _divisible_t(t: SlotPoly, tt: SlotPoly, g: SlotPoly | None, unshared: int) -> bool:
    """Whether sf's reduced difference vanishes, with t, tt = T, T~ and the
    unshared slot 1 (v), or sigma_f's, with t, tt = T~, T and slot 0 (u)
    (module docstring), given g = tt / (u - v), None when u - v does not
    divide tt.  A pair with both Q0 nonzero passes the quotient: when it is
    refused, the diagonal tt(v,v) is nonzero and refutes the flag (the
    diagonal lemma).  A pair with a zero Q0 passes the multiplier's R0.  By
    the divisible-T step the flag holds exactly when g has degree 0 in the
    unshared slot and (t - tt) swap(g) - swap(t) g is zero, decided with no
    polynomial built."""
    return (g is not None and not g._degrees()[unshared]
            and _slot_sum([(t - tt, g._swap_view(), 1), (g, t._swap_view(), -1)], "zero"))


def cubic_braid_check(pi: PDDO, varpi: PDDO) -> CubicReport:
    """Does pi at index i and varpi at index i+1 satisfy pi varpi pi = varpi pi varpi?

    Each flag is decided as the module docstring says, so the full
    numerators are never multiplied out.  The failure witness, the
    difference of the first failing coefficient, is built on its first read.
    """
    parts = _factored_differences(pi, varpi)
    flags = {name: parts[name][0] for name in COEFF_NAMES}
    name = next((name for name in COEFF_NAMES if not flags[name]), None)
    return CubicReport(flags, name and (lambda: (name, parts[name][1]())))


def quad_commute_check(pi_i: PDDO, pi_k: PDDO, i: int, k: int, n: int) -> bool:
    """Distant-index commutation pi_i pi_k = pi_k pi_i, decided by relation_holds
    on its Artin basis 1, x_i, x_k, x_i x_k; it holds for every valid pair, so
    the library does not call it: it is the test oracle for distant pairs."""
    if abs(k - i) < 2:
        raise ValueError("quad_commute_check needs |k - i| >= 2")
    for idx in (i, k):
        if not 1 <= idx <= n - 1:
            raise IndexError(f"operator index {idx} out of range 1..{n - 1}")
    return relation_holds([(i, pi_i), (k, pi_k)], [(k, pi_k), (i, pi_i)]) is None


def relation_holds(lhs: list, rhs: list) -> tuple[tuple[int, ...], MultiPoly] | None:
    """Decide lhs = rhs for two words, lists of (index, PDDO) pairs applied
    right to left: None when it holds, else (b, lhs(x^b) - rhs(x^b)) for the
    first basis vector b where they differ, in 1 + the largest index entries.

    The basis is the product of the Artin monomials of each block of
    consecutive touched indices: x_j^a, a at most the number of consecutive
    touched indices from j on.  An operator at index i is a + b s_i with a, b
    in L = Q(z)(x), so a word is sum_g c_g g over the group W that the
    touched s_i generate, and K-linear for K = L^W.  The |W| monomials are a
    K-basis of L (Artin, Galois Theory, 1944) and the g are L-linearly
    independent (Dedekind), so the words agree on the basis exactly when
    every c_g of their difference vanishes."""
    for i, op in (*lhs, *rhs):
        if type(i) is not int or not isinstance(op, PDDO):
            raise TypeError(f"{(type(i).__name__, type(op).__name__)} is not an (int, PDDO) pair")
    touched = {i for i, _ in (*lhs, *rhs)}
    runs = (next(a for a in count() if j + a not in touched)
            for j in range(1, max((1, *touched)) + 2))
    actions: dict = {}  # one per operator
    for b in product(*(range(a + 1) for a in runs)):
        x_b = MultiPoly._monomial(b)
        left, right = _run_word(lhs, x_b, actions), _run_word(rhs, x_b, actions)
        if left != right:
            return b, left - right


def almost_equal(q: SlotPoly, qt: SlotPoly) -> bool:
    """Decide almost-equality of two nonzero slot polynomials: the identity
    q(x,y) qt(x,z) q(y,z) = qt(x,y) q(x,z) qt(y,z) in three variables,
    decided in two by its specialisation at one z = c (module docstring)."""
    for name, value in (("q", q), ("qt", qt)):
        if not isinstance(value, SlotPoly):
            raise TypeError(f"{name} must be a SlotPoly, not {type(value).__name__}")
    if q.is_zero() or qt.is_zero():
        raise ValueError("almost_equal requires nonzero inputs")
    return _almost(q, qt)


def _almost(q: SlotPoly, qt: SlotPoly) -> bool:
    """The almost-equality of nonzero q and qt (module docstring):
    q(u,v) qt(u,c) q(v,c) == qt(u,v) q(u,c) qt(v,c) at the first
    c = 0, 1, 2, ... at which q(u,c) and qt(u,c) are nonzero.  The product
    m = qt(u,c) q(v,c) is formed once: its swap is q(u,c) qt(v,c), so the
    identity reads q m - qt swap(m) = 0, decided with no polynomial built."""
    for c in count():
        q_c, qt_c = q._at_v(c), qt._at_v(c)
        if q_c and qt_c:
            m = _slot_sum([(qt_c, q_c._swap_view(), 1)])
            return _slot_sum([(q, m, 1), (qt, m._swap_view(), -1)], "zero")


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
