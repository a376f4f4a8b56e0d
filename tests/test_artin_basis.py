"""The monomial probes of the test oracles are bases.

``cubic_reference.cubic_braid_oracle`` and ``consecutive_probe`` compare two
words of operators on the six Artin monomials x^a y^b (a <= 2, b <= 1), and
``braid.quad_commute_check`` compares two on 1, x_i, x_k and x_i x_k.  A word
is a sum of rational coefficients times group elements, so agreement on a set
of monomials b_j decides the words exactly when the matrix [g(b_j)] of the
group's elements g at the monomials is invertible.  These tests evaluate its
determinant at a rational point, in exact arithmetic and with no library code.
"""

from fractions import Fraction
from itertools import permutations


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
