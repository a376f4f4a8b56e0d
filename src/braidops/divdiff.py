"""The transposition and divided difference operators, and the canonical
decomposition of slot polynomials into symmetric plus d-positive parts.

``ddiff`` uses the closed form d_i(x_i^r x_{i+1}^s) = sum_{l=s}^{r-1}
x_i^l x_{i+1}^{r+s-1-l} for r > s, term by term, as ``SlotPoly.ddiff`` does.

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

from .multipoly import MultiPoly, SlotPoly, _ddiff_terms

__all__ = ["ddiff", "dpositive_split", "dpositive_lift"]


def ddiff(f: MultiPoly, i: int) -> MultiPoly:
    """(f - s_i f) / (x_i - x_{i+1}); the result is symmetric in x_i, x_{i+1}."""
    if not 1 <= i <= f.n_vars - 1:
        raise IndexError(f"transposition index {i} out of range 1..{f.n_vars - 1}")
    return MultiPoly._wrap(f.n_vars, _ddiff_terms(f._terms, i - 1))


def dpositive_split(p: SlotPoly) -> tuple[SlotPoly, SlotPoly]:
    """Write p = sym + pos with sym symmetric and pos d-positive.

    pos = p[r > s] - swap(p[r < s]) and sym = p - pos: a monomial u^r v^s
    with r < s is (u^r v^s + u^s v^r) - u^s v^r, a symmetric basis element
    minus a d-positive monomial.
    """
    terms = p._terms.items()
    above = SlotPoly._wrap(2, {(r, s): c for (r, s), c in terms if r > s})
    below = SlotPoly._wrap(2, {(s, r): c for (r, s), c in terms if r < s})
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
    terms = phi._terms.items()
    lifted = SlotPoly._wrap(2, {(r + 1, s): c for (r, s), c in terms if r >= s})
    return lifted - SlotPoly._wrap(2, {(r, s + 1): c for (r, s), c in terms if r >= s + 2})
