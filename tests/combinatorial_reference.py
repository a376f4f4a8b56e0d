"""Combinatorial formulas for the preset tables, sharing no code with the
library.

A polynomial is a term map {exponent tuple: Fraction}; a permutation is its
one-line tuple.

Pipe dreams.  P ranges over the subsets of the staircase cells (i, j),
i + j <= n.  Reading the rows top to bottom, each row right to left, cell
(i, j) gives the letter s_{i+j-1}; delta(P) is the Demazure product of that
word, and wt(P) counts the crosses of each row.  Then

    G^beta_w = sum over delta(P) = w of beta^(|P| - l(w)) x^wt(P)

is the beta-Grothendieck polynomial (Fomin-Kirillov 1994), and the terms with
|P| = l(w), which are all that beta = 0 keeps, give the Schubert polynomial
(Billey-Jockusch-Stanley 1993).

Keys.  The key polynomial of a composition a sums x^wt(D) over the diagrams D
that Kohnert moves reach from the key diagram of a, row r holding columns
1..a_r: a move takes the rightmost cell of a row up to the nearest empty cell
of its column (Kohnert 1991).
"""

from fractions import Fraction
from itertools import combinations


def length(w: tuple) -> int:
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])


def inverse(w: tuple) -> tuple:
    out = [0] * len(w)
    for i, v in enumerate(w, start=1):
        out[v - 1] = i
    return tuple(out)


def demazure_product(word, n: int) -> tuple:
    """w * s_i is w s_i when that is longer and w otherwise, from w = id."""
    w = list(range(1, n + 1))
    for i in word:
        if w[i - 1] < w[i]:
            w[i - 1], w[i] = w[i], w[i - 1]
    return tuple(w)


def grothendieck(n: int, beta) -> dict:
    """{w: G^beta_w} for every w in S_n, from the pipe dreams; beta = 0 gives
    the Schubert polynomials."""
    beta = Fraction(beta)
    cells = [(i, j) for i in range(1, n) for j in range(n - i, 0, -1)]  # reading order
    out: dict = {}
    for size in range(len(cells) + 1):
        for chosen in combinations(cells, size):  # keeps the reading order
            w = demazure_product([i + j - 1 for i, j in chosen], n)
            coeff = beta ** (size - length(w))
            if not coeff:
                continue
            wt = [0] * n
            for i, _ in chosen:
                wt[i - 1] += 1
            poly = out.setdefault(w, {})
            e = tuple(wt)
            poly[e] = poly.get(e, Fraction(0)) + coeff
    return {w: {e: c for e, c in poly.items() if c} for w, poly in out.items()}


def key(a: tuple) -> dict:
    """The key polynomial of the composition a, by Kohnert's rule."""
    start = frozenset((r, c) for r, size in enumerate(a) for c in range(size))
    seen = {start}
    todo = [start]
    while todo:
        diagram = todo.pop()
        for r in range(len(a)):
            row = [c for rr, c in diagram if rr == r]
            if not row:
                continue
            c = max(row)
            above = [rr for rr in range(r) if (rr, c) not in diagram]
            if above:
                moved = diagram - {(r, c)} | {(max(above), c)}
                if moved not in seen:
                    seen.add(moved)
                    todo.append(moved)
    out: dict = {}
    for diagram in seen:
        wt = [0] * len(a)
        for r, _ in diagram:
            wt[r] += 1
        e = tuple(wt)
        out[e] = out.get(e, Fraction(0)) + 1
    return out
