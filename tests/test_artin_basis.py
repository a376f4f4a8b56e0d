"""The monomial probes of the decider and of the test oracles are bases.

``braid.relation_holds`` compares two words of operators on the product of
the Artin monomials of each block of consecutive touched indices: x_j^a,
with a at most the number of consecutive touched indices from j on.  For
indices 1, 2 these are the six monomials x^a y^b (a <= 2, b <= 1) that
``cubic_reference.cubic_braid_oracle`` and ``consecutive_probe`` use too,
and for two distant indices i, k they are 1, x_i, x_k and x_i x_k, on which
``braid.quad_commute_check`` decides.  A word is a sum of rational
coefficients times group elements, so agreement on a set of monomials b_j
decides the words exactly when the matrix [g(b_j)] of the group's elements g
at the monomials is invertible.  These tests evaluate its determinant at a
rational point, in exact arithmetic and with no library code; the decider's
exponent vectors are read off its calls and checked against lists written
here.
"""

from fractions import Fraction
from itertools import permutations

from braidops.braid import relation_holds
from braidops.families import preset
from braidops.multipoly import MultiPoly


def _det(rows):
    """The determinant of a square matrix of Fractions, by elimination."""
    m = [list(row) for row in rows]
    det = Fraction(1)
    for c in range(len(m)):
        pivot = next((r for r in range(c, len(m)) if m[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            k = m[r][c] / m[c][c]
            m[r] = [a - k * b for a, b in zip(m[r], m[c])]
    return det


def _matrix(point, group, exponents):
    """[g(b)] with b = prod x_v^e_v over the exponent vectors, and g(b) the
    monomial at the point with its coordinates permuted by g."""
    rows = []
    for e in exponents:
        row = []
        for g in group:
            value = Fraction(1)
            for v, k in enumerate(e):
                value *= point[g[v]] ** k
            row.append(value)
        rows.append(row)
    return rows


def test_artin_monomials_are_a_basis_for_s3():
    x, y, z = point = (Fraction(1, 2), Fraction(-3), Fraction(7, 5))
    exponents = [(a, b, 0) for a in range(3) for b in range(2)]
    det = _det(_matrix(point, list(permutations(range(3))), exponents))
    vandermonde = (x - y) * (x - z) * (y - z)
    assert det != 0 and abs(det) == abs(vandermonde) ** 3


def test_four_monomials_are_a_basis_for_two_distant_transpositions():
    # Variables x_i, x_{i+1}, x_k, x_{k+1} in that order; the group is
    # generated by exchanging the first two and exchanging the last two.
    point = (Fraction(2, 3), Fraction(-5, 4), Fraction(3), Fraction(1, 7))
    e, s_i, s_k = (0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2)
    group = [e, s_i, s_k, (1, 0, 3, 2)]
    exponents = [(0, 0, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (1, 0, 1, 0)]
    det = _det(_matrix(point, group, exponents))
    a, b, c, d = point
    assert det != 0 and abs(det) == (a - b) ** 2 * (c - d) ** 2


def _decider_exponents(monkeypatch, lhs, rhs):
    """The exponent vectors on which relation_holds applies both words, for
    a relation that holds, so that every basis vector is visited."""
    seen = []
    real = MultiPoly._monomial
    monkeypatch.setattr(MultiPoly, "_monomial", staticmethod(lambda e: seen.append(e) or real(e)))
    assert relation_holds(lhs, rhs) is None
    return seen


def test_decider_basis_for_two_distant_indices(monkeypatch):
    d = preset("pure_ddiff", 4)[1]
    seen = _decider_exponents(monkeypatch, [(1, d), (3, d)], [(3, d), (1, d)])
    expected = [(a, 0, c, 0) for a in range(2) for c in range(2)]
    assert len(seen) == 4 and sorted(seen) == expected and seen[0] == (0, 0, 0, 0)
    point = (Fraction(3, 4), Fraction(-2), Fraction(5, 3), Fraction(1, 6))
    group = [(0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2)]
    assert _det(_matrix(point, group, expected)) != 0


def test_decider_basis_for_a_block_and_a_distant_index(monkeypatch):
    # Indices {1, 2, 4} of an n = 6 family: the block {1, 2} gives x1^a x2^b
    # (a <= 2, b <= 1), index 4 gives x4^c (c <= 1).  The decider writes the
    # vectors in 1 + 4 = 5 variables; x6, which no operator touches, has
    # exponent 0 and every group element fixes it.
    d = preset("pure_ddiff", 6)[1]
    seen = _decider_exponents(monkeypatch, [(1, d), (2, d), (1, d), (4, d)],
                              [(2, d), (1, d), (2, d), (4, d)])
    expected = [(a, b, 0, c, 0) for a in range(3) for b in range(2) for c in range(2)]
    assert len(seen) == 12 and sorted(seen) == expected and seen[0] == (0, 0, 0, 0, 0)
    point = (Fraction(1, 3), Fraction(-4, 5), Fraction(2), Fraction(7, 2), Fraction(-1, 9),
             Fraction(5))
    group = [p + q + (5,) for p in permutations(range(3)) for q in ((3, 4), (4, 3))]
    exponents = [e + (0,) for e in expected]
    assert _det(_matrix(point, group, exponents)) != 0
