"""The transposition and divided difference operators, and the canonical
decomposition of slot polynomials into symmetric plus d-positive parts.

``ddiff`` is the operator Q0 d_i + R0 with (Q0, R0) = (1, 0), applied by the
one pass ``multipoly._apply`` through an action that ``ddiff`` prepares: an
action lives for the call that prepares it; the table sweep keeps one per
operator.  The two-variable kernel uses the closed
form d_i(x_i^r x_{i+1}^s) = sum_{l=s}^{r-1} x_i^l x_{i+1}^{r+s-1-l} for
r > s, term by term; ``SlotPoly.ddiff`` runs the same kernel on its own terms.

A monomial u^r v^s is d-positive when r > s; the d-positive polynomials are
a complement of the symmetric ones, and the divided difference restricts to
a bijection from d-positive onto symmetric polynomials.  Both directions are
closed forms.  Writing p[cond] for the terms u^r v^s of p whose (r, s)
satisfy cond, the split is pos = p[r > s] - swap(p[r < s]), sym = p - pos.
With h_{r,s} = d(u^{r+1} v^s) = sum_{l=s}^{r} u^l v^{r+s-l}, telescoping
gives u^r v^s + u^s v^r = h_{r,s} - h_{r-1,s+1} for r > s (and u^r v^r =
h_{r,r}), so the lift of a symmetric phi is u phi[r >= s] - v phi[r >= s + 2].
"""

from __future__ import annotations

from .multipoly import MultiPoly, SlotPoly, _Action, _apply

__all__ = ["ddiff", "dpositive_split", "dpositive_lift"]

_Q0, _R0 = SlotPoly.const(1), SlotPoly.zero()


def ddiff(f: MultiPoly, i: int) -> MultiPoly:
    """(f - s_i f) / (x_i - x_{i+1}); the result is symmetric in x_i, x_{i+1}.
    The action of (1, 0) and its monomial images live for this call alone."""
    if not 1 <= i <= f.n_vars - 1:
        raise IndexError(f"transposition index {i} out of range 1..{f.n_vars - 1}")
    return _apply(f, i - 1, _Action(_Q0, _R0))


def dpositive_split(p: SlotPoly) -> tuple[SlotPoly, SlotPoly]:
    """Write p = sym + pos with sym symmetric and pos d-positive.

    pos = p[r > s] - swap(p[r < s]) and sym = p - pos: a monomial u^r v^s
    with r < s is (u^r v^s + u^s v^r) - u^s v^r, a symmetric basis element
    minus a d-positive monomial.
    """
    num, den = p._num.items(), p._den
    above = SlotPoly._normal(2, {(r, s): c for (r, s), c in num if r > s}, den)
    below = SlotPoly._normal(2, {(s, r): c for (r, s), c in num if r < s}, den)
    pos = above - below
    return p - pos, pos


def dpositive_lift(phi: SlotPoly) -> SlotPoly:
    """The unique d-positive g with ddiff(g) = phi, for symmetric phi.

    g = u phi[r >= s] - v phi[r >= s + 2], because u^r v^s + u^s v^r =
    d(u^{r+1} v^s) - d(u^r v^{s+1}) for r > s, where the second term is
    zero when r = s + 1, and u^r v^r = d(u^{r+1} v^r).
    """
    if not phi.is_symmetric():
        raise ValueError("dpositive_lift requires a slot-symmetric input")
    num, den = phi._num.items(), phi._den
    lifted = SlotPoly._normal(2, {(r + 1, s): c for (r, s), c in num if r >= s}, den)
    return lifted - SlotPoly._normal(2, {(r, s + 1): c for (r, s), c in num if r >= s + 2}, den)
