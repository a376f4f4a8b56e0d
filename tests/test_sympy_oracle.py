"""PDDO.apply and divdiff.ddiff against sympy rational functions.

The oracle shares no arithmetic with the library: polynomials become sympy
expressions in x_1..x_n and a symbol z, divided differences are formed with
``cancel``, and z is reduced modulo its minimal polynomial z^2 - z + 1 only
when two results are compared.
"""

import random
from fractions import Fraction

import pytest
import sympy

from braidops.divdiff import ddiff
from braidops.families import Case2Line, main_case1, main_case2, preset
from braidops.field import FieldElement
from braidops.multipoly import MultiPoly, SlotPoly
from braidops.pddo import PDDO

Z, U, V = sympy.symbols("z u v")
MINPOLY = Z**2 - Z + 1


def xs(n):
    return sympy.symbols(f"x1:{n + 1}")


def to_sympy(c: FieldElement):
    return sympy.Rational(c.rat_part) + sympy.Rational(c.zeta_part) * Z


def slot_expr(p: SlotPoly):
    return sum((to_sympy(c) * U**r * V**s for (r, s), c in p.terms.items()),
               sympy.Integer(0))


def poly_expr(f: MultiPoly, x):
    return sum((to_sympy(c) * sympy.prod([xk**ek for xk, ek in zip(x, e)])
                for e, c in f.terms.items()), sympy.Integer(0))


def at(expr, x, i):
    """Put the slots u, v at (x_i, x_{i+1})."""
    return expr.subs({U: x[i - 1], V: x[i]}, simultaneous=True)


def swapped(expr, x, i):
    return expr.subs({x[i - 1]: x[i], x[i]: x[i - 1]}, simultaneous=True)


def quotient(numerator, x, i):
    """numerator / (x_i - x_{i+1}) by cancel; it must be a polynomial."""
    num, den = sympy.fraction(sympy.cancel(numerator / (x[i - 1] - x[i])))
    assert not den.free_symbols
    return num / den


def sympy_ddiff(expr, x, i):
    return quotient(expr - swapped(expr, x, i), x, i)


def assert_same(lib_expr, oracle):
    diff = sympy.Poly(sympy.expand(lib_expr - oracle), Z)
    assert diff.rem(sympy.Poly(MINPOLY, Z)).is_zero


def random_element(rng):
    def q():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return FieldElement(q(), q() if rng.random() < 0.6 else Fraction(0))


def random_slot(rng):
    return SlotPoly({(r, rng.randint(0, 2 - r)): random_element(rng)
                     for r in (rng.randint(0, 2) for _ in range(3))})


def random_poly(rng, n):
    terms = {}
    for _ in range(4):
        e = [0] * n
        budget = 3
        for k in rng.sample(range(n), n):
            e[k] = rng.randint(0, budget)
            budget -= e[k]
        terms[tuple(e)] = random_element(rng)
    return MultiPoly(n, terms)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("seed", [1, 2])
def test_apply_matches_both_presentations(seed, n):
    """f -> d(Pf) + Q df + R f + S sf, and (T f - Q0 sf)/(x_i - x_{i+1})."""
    rng = random.Random(100 * seed + n)
    P, Q, R, S = (random_slot(rng) for _ in range(4))
    op = PDDO.from_pqrs(P, Q, R, S)
    f = random_poly(rng, n)
    p, q, r, s = map(slot_expr, (P, Q, R, S))
    T = p + (U - V) * r + q
    Q0 = p.subs({U: V, V: U}, simultaneous=True) + q - (U - V) * s
    x = xs(n)
    fx = poly_expr(f, x)
    for i in range(1, n):
        got = poly_expr(op.apply(i, f), x)
        canonical = quotient(at(T, x, i) * fx - at(Q0, x, i) * swapped(fx, x, i), x, i)
        defining = (sympy_ddiff(at(p, x, i) * fx, x, i)
                    + at(q, x, i) * sympy_ddiff(fx, x, i)
                    + at(r, x, i) * fx + at(s, x, i) * swapped(fx, x, i))
        assert_same(got, canonical)
        assert_same(got, defining)


@pytest.mark.parametrize("n", [3, 4])
def test_family_operators_match(n):
    rng = random.Random(n)
    lines = [Case2Line.LINE3, Case2Line.LINE4, Case2Line.LINE2][: n - 1]
    families = [
        main_case1(n, 1, 2, 1, 2, 3),
        main_case2(n, 1, 2, 1, 2, lines),
        preset("grothendieck", n, FieldElement.parse("1-1z")),
    ]
    f = random_poly(rng, n)
    x = xs(n)
    fx = poly_expr(f, x)
    for fam in families:
        for i in range(1, n):
            T, Q0 = slot_expr(fam[i].T), slot_expr(fam[i].Q0)
            oracle = quotient(at(T, x, i) * fx - at(Q0, x, i) * swapped(fx, x, i), x, i)
            assert_same(poly_expr(fam[i].apply(i, f), x), oracle)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_ddiff_matches(seed, n):
    f = random_poly(random.Random(10 * seed + n), n)
    x = xs(n)
    fx = poly_expr(f, x)
    for i in range(1, n):
        assert_same(poly_expr(ddiff(f, i), x), sympy_ddiff(fx, x, i))
