"""Field-element references for polynomial arithmetic, sharing no code with
the library but FieldElement.

A polynomial is a term map {exponent tuple: FieldElement}; every result has
its zero coefficients dropped.  ``ref_apply`` forms Q0 d_i f + R0 f for an
operator from its slot polynomials' terms, by the closed form of d_i on
monomials, term by term, with no stored pair, action or monomial image.
``ref_diagonal`` sets u to v in a two-variable term map, the remainder of
its division by u - v.
"""

from braidops.field import FieldElement


def _clean(terms: dict) -> dict:
    return {e: c for e, c in terms.items() if c}


def ref_sum(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, FieldElement.of(0)) + c * sign
    return _clean(out)


def ref_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, FieldElement.of(0)) + ca * cb
    return _clean(out)


def ref_ddiff(a: dict, k: int) -> dict:
    """d(x^r y^s) = sum_{l=s}^{r-1} x^l y^{r+s-1-l} for r > s, antisymmetric."""
    out: dict = {}
    for e, c in a.items():
        r, s = e[k], e[k + 1]
        sign = 1 if r > s else -1
        for l in range(min(r, s), max(r, s)):
            key = e[:k] + (l, r + s - 1 - l) + e[k + 2:]
            out[key] = out.get(key, FieldElement.of(0)) + c * sign
    return _clean(out)


def ref_diagonal(a: dict) -> dict:
    """p(v, v): each term's coefficient summed onto v^(r+s)."""
    out: dict = {}
    for (r, s), c in a.items():
        out[(0, r + s)] = out.get((0, r + s), FieldElement.of(0)) + c
    return _clean(out)


def ref_place(a: dict, i: int, j: int, n: int) -> dict:
    out = {}
    for (r, s), c in a.items():
        e = [0] * n
        e[i - 1], e[j - 1] = r, s
        out[tuple(e)] = c
    return out


def ref_apply(op, i: int, f: dict, n: int) -> dict:
    """Q0(x_i, x_{i+1}) d_i f + R0(x_i, x_{i+1}) f for a term map f in n
    variables, Q0 and R0 read from op.Q0.terms and op.R0.terms."""
    return ref_sum(ref_mul(ref_place(op.Q0.terms, i, i + 1, n), ref_ddiff(f, i - 1)),
                   ref_mul(ref_place(op.R0.terms, i, i + 1, n), f))
