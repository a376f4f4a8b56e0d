"""Sparse multivariate polynomials over Q(z), with two-variable slot templates.

MultiPoly is a polynomial in x_1..x_n with a canonical term map (no zero
coefficients stored).  SlotPoly is a two-variable MultiPoly in slots u, v
(x_1, x_2) that can be instantiated at any ordered pair of variables; it
carries the coefficient polynomials of the operators built in
:mod:`braidops.pddo`.  Term order for printing and leading terms is graded
lexicographic.

Products, divided differences (one loop, ``_ddiff_pairs``) and operator
applications (``_apply_terms``) accumulate in integers: operands are brought
over one common denominator, the (a, b) numerator pairs of a + b z are summed
per exponent vector, and one field element is built per output term.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import add
from typing import Iterable, Mapping

from .field import FieldElement, ONE, ZERO, _scaled, _unscaled

__all__ = [
    "MultiPoly",
    "SlotPoly",
    "DimensionMismatchError",
    "InexactDivisionError",
    "swap_vars",
    "exact_div",
    "instantiate",
]


class DimensionMismatchError(ValueError):
    """Arithmetic between polynomials in different numbers of variables."""


class InexactDivisionError(ArithmeticError):
    """exact_div was called with a divisor that leaves a remainder."""


def _grlex(exponents: tuple[int, ...]) -> tuple:
    return (sum(exponents), exponents)


def _add_terms(a: Mapping, b: Mapping, subtract: bool = False) -> dict:
    """a + b, or a - b, of two term maps without zero coefficients."""
    out = dict(a)
    for e, c in b.items():
        old = out.get(e)
        if old is None:
            out[e] = -c if subtract else c
        else:
            new = old - c if subtract else old + c
            if new:
                out[e] = new
            else:
                del out[e]
    return out


def _mul_terms(a: Mapping, b: Mapping) -> dict:
    """The product of two term maps, accumulated in integers."""
    if not a or not b:
        return {}
    sa, da = _scaled(a)
    sb, db = _scaled(b)
    acc: dict = {}
    for ea, ra, za in sa:
        for eb, rb, zb in sb:
            # (ra + za z)(rb + zb z) with z^2 = z - 1.
            e = tuple(map(add, ea, eb))
            pair = acc.get(e)
            if pair is None:
                acc[e] = [ra * rb - za * zb, ra * zb + za * (rb + zb)]
            else:
                pair[0] += ra * rb - za * zb
                pair[1] += ra * zb + za * (rb + zb)
    return _unscaled(acc, da * db)


def _divide_terms(f: Mapping, g: Mapping) -> dict:
    """Exact division of term maps; raises InexactDivisionError."""
    if not g:
        raise ZeroDivisionError("division of polynomial by zero")
    lead_g = max(g, key=_grlex)
    coeff_g = g[lead_g]
    rem = dict(f)
    quo: dict = {}
    while rem:
        lead = max(rem, key=_grlex)
        diff = tuple(a - b for a, b in zip(lead, lead_g))
        if any(d < 0 for d in diff):
            raise InexactDivisionError("nonzero remainder in exact division")
        c = rem[lead] / coeff_g
        quo[diff] = c
        for e, ce in g.items():
            shifted = tuple(a + b for a, b in zip(diff, e))
            new = rem.get(shifted, ZERO) - c * ce
            if new:
                rem[shifted] = new
            else:
                rem.pop(shifted, None)
    return quo


def _ddiff_pairs(scaled: list, k: int) -> dict:
    """d in exponent positions k, k + 1 (variables x, y) of the integer pairs
    [(e, a, b), ...] of ``_scaled``, as (e[:k], e[k + 2:]) -> {(x, y exponents):
    [a, b]} over the same denominator, from d(x^r y^s) = sum_{l=s}^{r-1} x^l
    y^{r+s-1-l} for r > s, d antisymmetric."""
    acc: dict = {}
    for e, a, b in scaled:
        r, s = e[k], e[k + 1]
        if r == s:
            continue
        lo, hi, a, b = (s, r, a, b) if r > s else (r, s, -a, -b)
        pairs = acc.setdefault((e[:k], e[k + 2:]), {})
        for l in range(lo, hi):
            key = (l, lo + hi - 1 - l)
            pair = pairs.get(key)
            if pair is None:
                pairs[key] = [a, b]
            else:
                pair[0] += a
                pair[1] += b
    return acc


def _ddiff_terms(terms: Mapping, k: int) -> dict:
    """The divided difference of a term map in exponent positions k, k + 1."""
    scaled, den = _scaled(terms)
    return _unscaled({head + xy + tail: pair for (head, tail), pairs
                      in _ddiff_pairs(scaled, k).items() for xy, pair in pairs.items()}, den)


def _apply_terms(f: Mapping, k: int, q0: Mapping, r0: Mapping) -> dict:
    """Q0(x, y) d f + R0(x, y) f for slot term maps q0, r0 placed at exponent
    positions k, k + 1 (variables x, y), accumulated in integers over one
    denominator."""
    sf, df = _scaled(f)
    sq, dq = _scaled(q0)
    sr, dr = _scaled(r0)
    den = dq // gcd(dq, dr) * dr
    sq = [(e, a * (den // dq), b * (den // dq)) for e, a, b in sq]
    sr = [(e, a * (den // dr), b * (den // dr)) for e, a, b in sr]
    f_groups: dict = {}
    for e, a, b in sf:
        f_groups.setdefault((e[:k], e[k + 2:]), {})[e[k], e[k + 1]] = (a, b)
    acc: dict = {}
    for slots, groups in ((sq, _ddiff_pairs(sf, k) if sq else {}), (sr, f_groups)):
        for (head, tail), pairs in groups.items():
            for (x, y), (a, b) in pairs.items():
                # (a + b z)(c + g z) with z^2 = z - 1, as in _mul_terms.
                for (u, v), c, g in slots:
                    key = head + (x + u, y + v) + tail
                    pair = acc.get(key)
                    if pair is None:
                        acc[key] = [a * c - b * g, a * g + b * (c + g)]
                    else:
                        pair[0] += a * c - b * g
                        pair[1] += a * g + b * (c + g)
    return _unscaled(acc, df * den)


def _fmt_terms(terms: Mapping, names) -> str:
    if not terms:
        return "0"
    parts = []
    for e in sorted(terms, key=_grlex, reverse=True):
        factors = []
        for name, exp in zip(names, e):
            if exp == 1:
                factors.append(name)
            elif exp > 1:
                factors.append(f"{name}^{exp}")
        coeff = terms[e]
        body = "*".join(factors)
        if not body:
            parts.append(f"({coeff})")
        elif coeff == ONE:
            parts.append(body)
        else:
            parts.append(f"({coeff})*{body}")
    return " + ".join(parts)


class MultiPoly:
    """A polynomial in variables x_1..x_n over Q(z)."""

    __slots__ = ("n_vars", "_terms")

    def __init__(self, n_vars: int, terms: Mapping[tuple[int, ...], FieldElement]):
        if n_vars < 1:
            raise ValueError("n_vars must be positive")
        cleaned = {}
        for e, c in terms.items():
            if len(e) != n_vars:
                raise ValueError(f"exponent vector {e} does not have {n_vars} entries")
            c = FieldElement.of(c)
            if c:
                cleaned[tuple(e)] = c
        object.__setattr__(self, "n_vars", n_vars)
        object.__setattr__(self, "_terms", cleaned)

    @classmethod
    def _wrap(cls, n_vars: int, terms: dict) -> "MultiPoly":
        """Take a clean term map as is: tuple exponents of length n_vars and
        nonzero FieldElement coefficients, built by this module and not
        shared."""
        self = object.__new__(cls)
        object.__setattr__(self, "n_vars", n_vars)
        object.__setattr__(self, "_terms", terms)
        return self

    def __setattr__(self, *args):
        raise AttributeError(f"{type(self).__name__} is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(n_vars: int) -> "MultiPoly":
        return MultiPoly(n_vars, {})

    @staticmethod
    def const(n_vars: int, value) -> "MultiPoly":
        return MultiPoly(n_vars, {(0,) * n_vars: FieldElement.of(value)})

    @staticmethod
    def variable(n_vars: int, i: int) -> "MultiPoly":
        """The variable x_i (1-based)."""
        if not 1 <= i <= n_vars:
            raise IndexError(f"variable index {i} out of range 1..{n_vars}")
        e = tuple(1 if k == i - 1 else 0 for k in range(n_vars))
        return MultiPoly(n_vars, {e: ONE})

    @staticmethod
    def monomial(n_vars: int, exponents: Iterable[int], coeff=1) -> "MultiPoly":
        return MultiPoly(n_vars, {tuple(exponents): FieldElement.of(coeff)})

    # -- queries -----------------------------------------------------------

    @property
    def terms(self) -> dict:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self._terms), default=-1)

    def is_constant(self) -> bool:
        return not any(any(e) for e in self._terms)

    def constant_value(self) -> FieldElement:
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return self._terms.get((0,) * self.n_vars, ZERO)

    def sorted_terms(self) -> list:
        return [(e, self._terms[e]) for e in sorted(self._terms, key=_grlex, reverse=True)]

    def evaluate(self, point) -> FieldElement:
        values = [FieldElement.of(p) for p in point]
        if len(values) != self.n_vars:
            raise DimensionMismatchError("evaluation point has wrong length")
        total = ZERO
        for e, c in self._terms.items():
            term = c
            for val, exp in zip(values, e):
                term = term * val**exp
            total = total + term
        return total

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "MultiPoly":
        """other as a polynomial of this class and dimension; a scalar
        becomes a constant."""
        if isinstance(other, MultiPoly):
            if type(other) is not type(self):
                raise DimensionMismatchError(
                    f"mixing {type(self).__name__} and {type(other).__name__}")
            if other.n_vars != self.n_vars:
                raise DimensionMismatchError(
                    f"mixing {self.n_vars}-variable and {other.n_vars}-variable polynomials"
                )
            return other
        c = FieldElement.of(other)
        return type(self)._wrap(self.n_vars, {(0,) * self.n_vars: c} if c else {})

    def __add__(self, other) -> "MultiPoly":
        terms = _add_terms(self._terms, self._coerce(other)._terms)
        return type(self)._wrap(self.n_vars, terms)

    __radd__ = __add__

    def __sub__(self, other) -> "MultiPoly":
        terms = _add_terms(self._terms, self._coerce(other)._terms, subtract=True)
        return type(self)._wrap(self.n_vars, terms)

    def __rsub__(self, other) -> "MultiPoly":
        return self._coerce(other) - self

    def __neg__(self) -> "MultiPoly":
        return type(self)._wrap(self.n_vars, {e: -c for e, c in self._terms.items()})

    def __mul__(self, other) -> "MultiPoly":
        terms = _mul_terms(self._terms, self._coerce(other)._terms)
        return type(self)._wrap(self.n_vars, terms)

    __rmul__ = __mul__

    def scale(self, c) -> "MultiPoly":
        c = FieldElement.of(c)
        terms = {e: c * v for e, v in self._terms.items()}
        return type(self)._wrap(self.n_vars, terms if c else {})

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, FieldElement)):
            return self.is_constant() and self.constant_value() == other
        if not isinstance(other, MultiPoly):
            return NotImplemented
        if type(self) is type(other) and self.n_vars == other.n_vars:
            return self._terms == other._terms
        # Constants equal their value whatever the class or dimension, which
        # keeps equality transitive.
        return (self.is_constant() and other.is_constant()
                and self.constant_value() == other.constant_value())

    def __hash__(self) -> int:
        if self.is_constant():  # equals its constant, so hashes like it
            return hash(self.constant_value())
        return hash((self.n_vars, frozenset(self._terms.items())))

    def __str__(self) -> str:
        return _fmt_terms(self._terms, [f"x{k+1}" for k in range(self.n_vars)])

    __repr__ = __str__


def swap_vars(f: MultiPoly, i: int) -> MultiPoly:
    """Exchange x_i and x_{i+1} in every term (1 <= i <= n_vars - 1)."""
    if not 1 <= i <= f.n_vars - 1:
        raise IndexError(f"transposition index {i} out of range 1..{f.n_vars - 1}")
    out = {}
    for e, c in f._terms.items():
        le = list(e)
        le[i - 1], le[i] = le[i], le[i - 1]
        out[tuple(le)] = c
    return type(f)._wrap(f.n_vars, out)


def exact_div(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """The quotient f/g when g divides f exactly in the polynomial ring."""
    return type(f)._wrap(f.n_vars, _divide_terms(f._terms, f._coerce(g)._terms))


class SlotPoly(MultiPoly):
    """A two-variable MultiPoly in the slots u = x_1 and v = x_2: a bivariate
    template that :func:`instantiate` places at any ordered pair of variables."""

    __slots__ = ()

    def __init__(self, terms: Mapping[tuple[int, int], FieldElement]):
        super().__init__(2, terms)

    # bench/tracer.py patches these by name in this class's own dict, so that
    # slot arithmetic is counted apart from MultiPoly arithmetic.
    __add__ = __radd__ = MultiPoly.__add__
    __sub__, __rsub__, __neg__ = MultiPoly.__sub__, MultiPoly.__rsub__, MultiPoly.__neg__
    __mul__ = __rmul__ = MultiPoly.__mul__
    scale = MultiPoly.scale

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "SlotPoly":
        return SlotPoly({})

    @staticmethod
    def const(value) -> "SlotPoly":
        return SlotPoly({(0, 0): FieldElement.of(value)})

    @staticmethod
    def u() -> "SlotPoly":
        return SlotPoly({(1, 0): ONE})

    @staticmethod
    def v() -> "SlotPoly":
        return SlotPoly({(0, 1): ONE})

    @staticmethod
    def monomial(r: int, s: int, coeff=1) -> "SlotPoly":
        return SlotPoly({(r, s): FieldElement.of(coeff)})

    @staticmethod
    def univariate(coeffs, slot: int = 0) -> "SlotPoly":
        """Build sum coeffs[k] * slot^k; slot 0 is u, slot 1 is v."""
        if slot not in (0, 1):
            raise ValueError("slot must be 0 (u) or 1 (v)")
        terms = {}
        for k, c in enumerate(coeffs):
            e = (k, 0) if slot == 0 else (0, k)
            terms[e] = FieldElement.of(c)
        return SlotPoly(terms)

    # -- slot operations ---------------------------------------------------

    def is_symmetric(self) -> bool:
        return self == self.swap()

    def is_dpositive(self) -> bool:
        return all(r > s for r, s in self._terms)

    def swap(self) -> "SlotPoly":
        """Exchange the two slots."""
        return SlotPoly._wrap(2, {(s, r): c for (r, s), c in self._terms.items()})

    def ddiff(self) -> "SlotPoly":
        """The divided difference (p - swap p)/(u - v), taken in the slots."""
        return SlotPoly._wrap(2, _ddiff_terms(self._terms, 0))

    def exact_div(self, g: "SlotPoly") -> "SlotPoly":
        return exact_div(self, g)

    def evaluate(self, uval, vval) -> FieldElement:
        return super().evaluate((uval, vval))

    def __str__(self) -> str:
        return _fmt_terms(self._terms, ["u", "v"])

    __repr__ = __str__


def instantiate(p: SlotPoly, i: int, j: int, n: int) -> MultiPoly:
    """Substitute u -> x_i, v -> x_j; requires i != j, both in 1..n."""
    if i == j:
        raise ValueError("slot instantiation needs two distinct variables")
    for idx in (i, j):
        if not 1 <= idx <= n:
            raise IndexError(f"variable index {idx} out of range 1..{n}")
    out = {}
    for (r, s), c in p._terms.items():  # i != j, so no two terms meet
        e = [0] * n
        e[i - 1] = r
        e[j - 1] = s
        out[tuple(e)] = c
    return MultiPoly._wrap(n, out)
