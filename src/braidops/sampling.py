"""Random generation of constraint-satisfying parameters and polynomials.

Used by the CLI's --random-trials mode and by the test suites.  Rationals are
drawn with numerators and denominators bounded by 10 to keep coefficient
growth in repeated compositions small.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .field import FieldElement, ZERO
from .multipoly import MultiPoly, SlotPoly
from .families import Case2Line

__all__ = [
    "random_fraction",
    "random_field_element",
    "random_slotpoly",
    "random_multipoly",
    "draw_case1_params",
    "draw_case2_params",
    "random_lines",
    "draw_degent_data",
    "draw_isolated_pair",
    "draw_zeta_params",
]


def random_fraction(rng: random.Random, bound: int = 10, nonzero: bool = False) -> Fraction:
    while True:
        f = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
        if f or not nonzero:
            return f


def random_field_element(
    rng: random.Random, bound: int = 10, with_zeta: bool = False, nonzero: bool = False
) -> FieldElement:
    """p/q + (r/s) z from the same four draws as random_fraction twice (two
    when with_zeta is False), built as one canonical (p s + r q z)/(q s)."""
    while True:
        p, q = rng.randint(-bound, bound), rng.randint(1, bound)
        r, s = (rng.randint(-bound, bound), rng.randint(1, bound)) if with_zeta else (0, 1)
        fe = FieldElement._raw(p * s, r * q, q * s)
        if fe or not nonzero:
            return fe


def random_slotpoly(
    rng: random.Random,
    max_degree: int = 2,
    n_terms: int = 3,
    nonzero: bool = False,
) -> SlotPoly:
    while True:
        terms = {}
        for _ in range(n_terms):
            r = rng.randint(0, max_degree)
            s = rng.randint(0, max_degree - r)
            terms[(r, s)] = random_field_element(rng)
        p = SlotPoly(terms)
        if p or not nonzero:
            return p


def random_multipoly(
    rng: random.Random, n_vars: int, max_degree: int = 3, n_terms: int = 4
) -> MultiPoly:
    terms = {}
    for _ in range(n_terms):
        e = [0] * n_vars
        budget = max_degree
        for k in range(n_vars):
            e[k] = rng.randint(0, budget)
            budget -= e[k]
        terms[tuple(e)] = random_field_element(rng)
    return MultiPoly(n_vars, terms)


def _abcd(rng: random.Random) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Draw (a, b, c, d), not all zero, with ad = bc."""
    while True:
        a = random_fraction(rng, 5)
        b = random_fraction(rng, 5)
        c = random_fraction(rng, 5)
        if a:
            d = b * c / a
        else:
            if rng.random() < 0.5:
                b = Fraction(0)
            else:
                c = Fraction(0)
            d = random_fraction(rng, 5)
        if a or b or c or d:
            return a, b, c, d


def draw_case1_params(rng: random.Random) -> tuple[Fraction, ...]:
    a, b, c, d = _abcd(rng)
    while True:
        e = random_fraction(rng, 5)
        if e != 0 and e != b - c:
            return a, b, c, d, e


def draw_case2_params(rng: random.Random) -> tuple[Fraction, ...]:
    return _abcd(rng)


def random_lines(rng: random.Random, count: int) -> list[Case2Line]:
    return [rng.choice(list(Case2Line)) for _ in range(count)]


def draw_degent_data(rng: random.Random, n: int):
    """(qhat, p, factor_pairs) satisfying the shared-product constraint."""
    qhat = random_slotpoly(rng, max_degree=1, n_terms=2, nonzero=True)
    a = [random_fraction(rng, 5, nonzero=True), random_fraction(rng, 5)]
    b = [random_fraction(rng, 5, nonzero=True), random_fraction(rng, 5)]
    p = [
        a[0] * b[0],
        a[0] * b[1] + a[1] * b[0],
        a[1] * b[1],
    ]
    splits = [(a, b), (b, a), (p, [Fraction(1)]), ([Fraction(1)], p)]
    pairs = [rng.choice(splits) for _ in range(n - 1)]
    return qhat, p, pairs


def draw_isolated_pair(rng: random.Random, mu) -> tuple[SlotPoly, SlotPoly]:
    """(phi, psi) with d(phi * psi) equal to the constant mu."""
    mu = FieldElement.of(mu)
    kappa = random_field_element(rng, 5, nonzero=True)
    sym_seed = random_slotpoly(rng, max_degree=1, n_terms=1)
    symmetric = sym_seed + sym_seed.swap()
    product = SlotPoly.u().scale(mu) + symmetric
    if rng.random() < 0.5:
        return SlotPoly.const(kappa), product.scale(kappa.inverse())
    return product.scale(kappa.inverse()), SlotPoly.const(kappa)


def draw_zeta_params(rng: random.Random) -> tuple[Fraction, Fraction, int]:
    return (
        random_fraction(rng, 5, nonzero=True),
        random_fraction(rng, 5),
        rng.randint(1, 4),
    )
