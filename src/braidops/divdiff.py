"""The transposition and divided difference operators, and the canonical
decomposition of slot polynomials into symmetric plus d-positive parts.

``ddiff`` uses the closed form d_i(x_i^r x_{i+1}^s) = sum_{l=s}^{r-1}
x_i^l x_{i+1}^{r+s-1-l} for r > s, term by term, as ``SlotPoly.ddiff`` does.

A monomial u^r v^s is d-positive when r > s; the d-positive polynomials are
a complement of the symmetric ones, and the divided difference restricts to
a bijection from d-positive onto symmetric polynomials.  ``dpositive_lift``
inverts that bijection.
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

    A monomial u^r v^s with r > s is already d-positive; one with r < s is
    rewritten as (u^r v^s + u^s v^r) - u^s v^r, a symmetric basis element
    minus a d-positive monomial.
    """
    sym: dict = {}
    pos: dict = {}

    def bump(acc, key, c):
        new = acc.get(key, None)
        new = c if new is None else new + c
        acc[key] = new

    for (r, s), c in p.terms.items():
        if r == s:
            bump(sym, (r, s), c)
        elif r > s:
            bump(pos, (r, s), c)
        else:
            bump(sym, (r, s), c)
            bump(sym, (s, r), c)
            bump(pos, (s, r), -c)
    return SlotPoly(sym), SlotPoly(pos)


def dpositive_lift(phi: SlotPoly) -> SlotPoly:
    """The unique d-positive g with ddiff(g) = phi, for symmetric phi.

    Peels the leading symmetric multiple a * sum_{l=d-r}^{r} u^l v^{d-l}
    using ddiff(u^{r+1} v^{d-r}) = that sum, then recurses on the lower
    variable degree that remains.
    """
    if not phi.is_symmetric():
        raise ValueError("dpositive_lift requires a slot-symmetric input")
    remainder = phi
    lifted = SlotPoly.zero()
    while remainder:
        (r, s), coeff = remainder.sorted_terms()[0]
        # Leading term in graded lex has r >= s by symmetry.
        step = SlotPoly.monomial(r + 1, s, coeff)
        lifted = lifted + step
        remainder = remainder - step.ddiff()
    return lifted
