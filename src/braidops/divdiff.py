"""The transposition and divided difference operators, and the canonical
decomposition of slot polynomials into symmetric plus d-positive parts.

``ddiff`` is Q0 d_i + R0 with (Q0, R0) = (1, 0), a one-letter word of
``multipoly._run_word``.  Its two-variable kernel, which ``SlotPoly.ddiff``
runs too, is the closed form d_i(x_i^r x_{i+1}^s) =
sum_{l=s}^{r-1} x_i^l x_{i+1}^{r+s-1-l} for r > s, term by term.

A monomial u^r v^s is d-positive when r > s; the d-positive polynomials are
a complement of the symmetric ones, and the divided difference restricts to
a bijection from d-positive onto symmetric polynomials.  Both directions are
closed forms.  Writing p[cond] for the terms u^r v^s of p whose (r, s)
satisfy cond, the split is pos = p[r > s] - swap(p[r < s]), sym = p - pos;
``SlotPoly._dpositive`` forms pos in one pass over the terms of p.
For symmetric phi, d(u phi) = phi, and d is injective on d-positive
polynomials, so the lift of phi is the d-positive part of u phi.
"""

from __future__ import annotations

from types import SimpleNamespace

from .multipoly import MultiPoly, SlotPoly, _run_word

__all__ = ["ddiff", "dpositive_split", "dpositive_lift"]

_D, _U = SimpleNamespace(Q0=SlotPoly.const(1), R0=SlotPoly.zero()), SlotPoly.u()


def ddiff(f: MultiPoly, i: int) -> MultiPoly:
    """(f - s_i f) / (x_i - x_{i+1}); the result is symmetric in x_i, x_{i+1}."""
    if not 1 <= i <= f.n_vars - 1:
        raise IndexError(f"transposition index {i} out of range 1..{f.n_vars - 1}")
    return _run_word([(i, _D)], f, {})


def dpositive_split(p: SlotPoly) -> tuple[SlotPoly, SlotPoly]:
    """Write p = sym + pos with sym symmetric and pos d-positive.

    pos = p[r > s] - swap(p[r < s]) and sym = p - pos: a monomial u^r v^s
    with r < s is (u^r v^s + u^s v^r) - u^s v^r, a symmetric basis element
    minus a d-positive monomial.
    """
    pos = p._dpositive()
    return p - pos, pos


def dpositive_lift(phi: SlotPoly) -> SlotPoly:
    """The unique d-positive g with ddiff(g) = phi, for symmetric phi: the
    d-positive part of u phi (module docstring)."""
    if not phi.is_symmetric():
        raise ValueError("dpositive_lift requires a slot-symmetric input")
    return (_U * phi)._dpositive()
