"""Sparse multivariate polynomials over Q(z), with two-variable slot templates.

MultiPoly is a polynomial in x_1..x_n.  It is stored as integers: a map from
exponent vector to a numerator pair (a, b) and one denominator d > 0, the
coefficient of each term being (a + b z)/d.  The form is canonical, with no
pair (0, 0) and gcd(d, every a, every b) = 1, so equality compares d and the
map.  SlotPoly is a two-variable MultiPoly in slots u, v (x_1, x_2) that can
be instantiated at any ordered pair of variables; it carries the coefficient
polynomials of the operators built in :mod:`braidops.pddo`.  Term order for
printing and leading terms is graded lexicographic.

The constructor reads outside coefficients (``_pairs``).  Every polynomial
built inside ends in ``_normal``, the one internal constructor, which
divides out the content and sets the three slots through their member
descriptors, with at most one gcd pass over its integers.  A result summed
in an integer accumulator {e: [a, b]}, a product, a sum of slot products,
``SlotPoly.ddiff``, ``SlotPoly._at_v``, ``SlotPoly._dpositive`` or a
quotient by u - v, comes out of ``_from_acc``, one pass that drops the zero
pairs and takes the gcd.
A move of stored pairs (a slot swap, ``swap_vars``, a placement) keeps the
content, as do the stored forms that ``_pairs`` gives ``exact_div`` and a
coerced scalar, so these pass it as 1 and take no gcd pass.  A sum skips the
coercion of an operand of its own class and dimension, and so does a product.
``_apply`` applies an operator Q0 d_i + R0 (d_i is (Q0, R0) = (1, 0)) to
the slices of f that agree outside x_i, x_{i+1}.  Its ``_Action`` has one
body, ``act``: d p by ``_ddiff_pairs``, then ``_mul_slots`` by Q0 and by R0,
each skipped when zero.  A one-term slice reads the image of its monomial,
built by ``act`` once per action; a slice of more terms goes through ``act``
merged.  Both paths stay (2-core machine, Python 3.11, alternating runs in
one process, best of 10 or 3): with every slice merged, the n = 6 demazure
and grothendieck (beta = 1) sweeps went 733 -> 828 and 30.1 -> 36.0 ms;
with every term read from its image, the n = 3 demazure table on x1^300
went 0.88 -> 5.16 s and 43 -> 439 MiB, since the image of u^r v^s has
about |r - s| terms and images are kept per (r, s) met.  ``_action`` prepares
one action per operator object, kept in its caller's dict; every
application runs the word loop ``_run_word`` but the table sweep's, which
calls ``_apply`` once per entry.  Every two-variable product runs
``_mul_slots``, and every sum of slot products ``_slot_sum``.

This is the only module that reads stored pairs.  Other modules work on
polynomials through their methods, among them the slot helpers
``SlotPoly._at_v`` (v set to an integer), ``SlotPoly._dpositive`` (the
d-positive part of :func:`braidops.divdiff.dpositive_split`) and
``SlotPoly._over_u_minus_v`` (the quotient by u - v, or None when u - v does
not divide it: the one test of that divisibility).  A slot test that is
answered by a yes or no or a number reads the stored pairs and builds no
polynomial: ``SlotPoly.is_symmetric`` (each pair against the pair under its
mirrored key), ``SlotPoly._degrees`` (the largest exponent of each slot)
and ``SlotPoly._separable`` (whether it is a product a(u) b(v), by the 2x2
minors of its coefficients).  Stored pairs are tuples, shared between
polynomials and never changed.  Field elements are built only where a
coefficient is read out as a value: ``terms``, ``constant_value``,
``evaluate`` (a sum over the stored pairs, in integers at an integer
point) and the long division of ``exact_div``.
A polynomial becomes text in one way, the term walk ``_printed_terms``,
which prints each stored pair through ``field._text`` with no field
element, in the order of a ``_grlex_rank``: its own, or one that a caller
formed once for many polynomials, as the CLI's table writer does.  ``str``,
``poly_to_json`` and the CLI's JSON writers read it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from operator import add, sub
from typing import Iterable, Mapping

from .field import FieldElement, ONE, ZERO, ZETA, _text

__all__ = [
    "MultiPoly",
    "SlotPoly",
    "DimensionMismatchError",
    "InexactDivisionError",
    "swap_vars",
    "exact_div",
    "instantiate",
]

_element = FieldElement._raw


class DimensionMismatchError(ValueError):
    """Arithmetic between polynomials in different numbers of variables."""


class InexactDivisionError(ArithmeticError):
    """exact_div was called with a divisor that leaves a remainder, or
    PDDO(T, Q0) with T - Q0 not divisible by u - v."""


def _grlex(exponents: tuple[int, ...]) -> tuple:
    return (sum(exponents), exponents)


def _pairs(n_vars: int, terms: Mapping) -> tuple[dict, int]:
    """The stored form (exponent -> (a, b), d) of a map to coefficients: the
    nonzero coefficients are checked and kept, then written over d.

    d is the least common multiple of the coefficients' denominators.  Each
    coefficient is in lowest terms, so a prime power that divides d exactly
    divides one coefficient's denominator exactly, and that coefficient's
    numerators, scaled by a factor prime to it, are not both multiples of the
    prime: the content is 1 with no gcd pass.
    """
    kept, den = {}, 1
    for e, c in terms.items():
        if len(e) != n_vars:
            raise ValueError(f"exponent vector {e} does not have {n_vars} entries")
        if not all(type(k) is int and k >= 0 for k in e):
            raise ValueError(f"exponent vector {e} has an entry that is not an int >= 0")
        c = FieldElement.of(c)
        if c:
            kept[tuple(e)] = c
            den = lcm(den, c._d)
    return {e: (c._a * den // c._d, c._b * den // c._d) for e, c in kept.items()}, den


def _mul_pairs(a: Mapping, b: Mapping, n_vars: int) -> dict:
    """The product of two numerator maps, before zero pairs are dropped.
    Two variables go through _mul_slots, and any other number through one
    loop that sums exponent vectors with map(add, ...).  The cubic check
    multiplies in three variables only to build a failure witness that is
    read, or f's difference when its value at the check's point is 0."""
    acc: dict = {}
    get = acc.get
    if n_vars == 2:
        _mul_slots(acc, a, _slots(b, 1))
    else:
        bs = [(eb, rb, zb, rb + zb) for eb, (rb, zb) in b.items()]
        for ea, (ra, za) in a.items():
            for eb, rb, zb, sb in bs:
                e = tuple(map(add, ea, eb))
                pair = get(e)
                if pair is None:
                    acc[e] = [ra * rb - za * zb, ra * zb + za * sb]
                else:
                    pair[0] += ra * rb - za * zb
                    pair[1] += ra * zb + za * sb
    return acc


def _slots(num: Mapping, k: int) -> list:
    """The slot list [(r, s, c, g, c + g)] of a two-variable numerator map
    {(r, s): (c, g)} times k."""
    return [(r, s, c * k, g * k, (c + g) * k) for (r, s), (c, g) in num.items()]


def _mul_slots(acc: dict, terms: Mapping, slots: list) -> None:
    """The one two-variable product loop: adds into acc a numerator map times
    the terms (c + g z) u^r v^s of a slot list [(r, s, c, g, c + g)], with
    (a + b z)(c + g z) = ac - bg + (ag + b(c + g)) z, as z^2 = z - 1."""
    get = acc.get
    for (x, y), (a, b) in terms.items():
        for r, s, c, g, cg in slots:
            key = (x + r, y + s)
            pair = get(key)
            if pair is None:
                acc[key] = [a * c - b * g, a * g + b * cg]
            else:
                pair[0] += a * c - b * g
                pair[1] += a * g + b * cg


def _slot_sum(products: Iterable, exit: str = "poly") -> "SlotPoly | bool":
    """The sum of signed slot products [(a, b, sign)] in one integer
    accumulator over the lcm of the products' denominators.  a is a SlotPoly
    and b a SlotPoly or a (pairs, den) view of one (``SlotPoly._swap_view``,
    ``_ddiff_view``).  Exit "poly" builds the sum; "zero" and "symmetric"
    decide whether it is zero or its own slot swap, building nothing."""
    views = [(a, b if type(b) is tuple else (b._num, b._den), sign) for a, b, sign in products]
    den = lcm(*[a._den * db for a, (_, db), _ in views])
    acc: dict = {}
    for a, (nb, db), sign in views:
        _mul_slots(acc, a._num, _slots(nb, sign * den // (a._den * db)))
    if exit == "zero":
        return not any(map(any, acc.values()))
    if exit == "symmetric":
        return all(acc.get((s, r), [0, 0]) == pair for (r, s), pair in acc.items())
    return SlotPoly._from_acc(2, acc, den)


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
        diff = tuple(map(sub, lead, lead_g))
        if min(diff) < 0:
            raise InexactDivisionError("nonzero remainder in exact division")
        c = rem[lead] / coeff_g
        quo[diff] = c
        for e, ce in g.items():
            shifted = tuple(map(add, diff, e))
            new = rem.get(shifted, ZERO) - c * ce
            if new:
                rem[shifted] = new
            else:
                rem.pop(shifted, None)
    return quo


def _ddiff_pairs(pairs: Mapping) -> dict:
    """d of a two-variable numerator map {(x, y exponents): (a, b)}, as
    {(x, y): [a, b]} over the same denominator, from d(x^r y^s) =
    sum_{l=s}^{r-1} x^l y^{r+s-1-l} for r > s, d antisymmetric."""
    acc: dict = {}
    for (r, s), (a, b) in pairs.items():
        if r == s:
            continue
        lo, hi, a, b = (s, r, a, b) if r > s else (r, s, -a, -b)
        for l in range(lo, hi):
            key = (l, lo + hi - 1 - l)
            pair = acc.get(key)
            if pair is None:
                acc[key] = [a, b]
            else:
                pair[0] += a
                pair[1] += b
    return acc


class _Action:
    """An operator Q0 d + R0 prepared for _apply: the common denominator of
    q0 and r0, each as a slot list [(r, s, c, g, c + g)] over it, and the
    images Q0 d(u^r v^s) + R0 u^r v^s of the monomials met so far, as lists of
    the same form keyed by (r, s), each built on first use."""

    __slots__ = ("den", "sq", "sr", "images")

    def __init__(self, q0: "SlotPoly", r0: "SlotPoly"):
        self.den = den = lcm(q0._den, r0._den)
        self.sq, self.sr = _slots(q0._num, den // q0._den), _slots(r0._num, den // r0._den)
        self.images: dict = {}

    def act(self, pairs: Mapping) -> dict:
        """Q0 d p + R0 p for a two-variable numerator map p, as an accumulator
        {(x, y): [a, b]} over self.den times p's denominator, zero pairs kept:
        d p by _ddiff_pairs, then one _mul_slots pass for Q0 and one for R0,
        each skipped when that polynomial is zero."""
        acc: dict = {}
        if self.sq:
            _mul_slots(acc, _ddiff_pairs(pairs), self.sq)
        if self.sr:
            _mul_slots(acc, pairs, self.sr)
        return acc

    def build(self, rs: tuple) -> list:
        """Build and keep the image of u^r v^s."""
        image = self.images[rs] = [
            (x, y, c, g, c + g) for (x, y), (c, g) in self.act({rs: (1, 0)}).items() if c or g]
        return image


def _apply(f: "MultiPoly", k: int, action: _Action) -> "MultiPoly":
    """Q0(x, y) d f + R0(x, y) f for the operator of action, its slots placed at
    exponent positions k, k + 1 (variables x, y), accumulated in integers over
    one denominator.  f is split once by the exponents outside the two
    positions.  A slice of one term (a + b z) x^r y^s is (a + b z) times the
    image of u^r v^s; a slice of more goes through action.act once, summed in
    its two variables, since its terms stay in it, so that a slice of many
    terms is merged before it is multiplied.  Q(z) is a field, so no product
    of a nonzero pair with an image term is zero."""
    images = action.images
    slices: dict = {}
    for e, pair in f._num.items():
        slices.setdefault((e[:k], e[k + 2:]), {})[e[k], e[k + 1]] = pair
    num: dict = {}
    for (head, tail), pairs in slices.items():
        if len(pairs) == 1:
            (rs, (a, b)), = pairs.items()
            image = images.get(rs)
            if image is None:
                image = action.build(rs)
            for x, y, c, g, cg in image:
                num[head + (x, y) + tail] = (a * c - b * g, a * g + b * cg)
            continue
        for xy, (a, b) in action.act(pairs).items():
            if a or b:
                num[head + xy + tail] = (a, b)
    return type(f)._normal(f.n_vars, num, f._den * action.den)


def _action(op, actions: dict) -> _Action:
    """The action of op (slots Q0, R0): actions[id(op)], prepared on first use,
    so one per operator object, living as long as the caller's actions dict."""
    return actions.get(id(op)) or actions.setdefault(id(op), _Action(op.Q0, op.R0))


def _run_word(word: list, f: "MultiPoly", actions: dict) -> "MultiPoly":
    """The one loop that applies a word of (index, operator) pairs to f, right
    to left, each operator through _action(operator, actions), the one
    preparer."""
    n = f.n_vars
    for i, op in reversed(word):
        if not 1 <= i <= n - 1:
            raise IndexError(f"operator index {i} out of range 1..{n - 1}")
        f = _apply(f, i - 1, _action(op, actions))
    return f


def _summed(triples: Iterable) -> dict:
    """The accumulator {key: [a, b]} of (key, a, b) triples, equal keys summed."""
    acc: dict = {}
    for key, a, b in triples:
        pair = acc.get(key)
        if pair is None:
            acc[key] = [a, b]
        else:
            pair[0] += a
            pair[1] += b
    return acc


def _grlex_rank(polys: Iterable["MultiPoly"]) -> dict:
    """Each exponent vector of the polynomials -> its place, 0 first, in
    descending graded-lex order among them: the order _printed_terms sorts by."""
    exponents = sorted(set().union(*[p._num for p in polys]), reverse=True)
    # A stable sort by degree keeps equal degrees in descending lex order.
    return {e: k for k, e in enumerate(sorted(exponents, key=sum, reverse=True))}


def _fmt_terms(p: "MultiPoly", names) -> str:
    parts = []
    for e, coeff in p._printed_terms():
        body = "*".join([name if k == 1 else f"{name}^{k}" for name, k in zip(names, e) if k])
        parts.append(f"({coeff})" if not body else body if coeff == "1" else f"({coeff})*{body}")
    return " + ".join(parts) or "0"


class MultiPoly:
    """A polynomial in variables x_1..x_n over Q(z), stored as numerator pairs
    (a, b) per exponent vector over one denominator d: coefficients (a + b z)/d."""

    __slots__ = ("n_vars", "_num", "_den")

    def __init__(self, n_vars: int, terms: Mapping[tuple[int, ...], FieldElement]):
        if n_vars < 1:
            raise ValueError("n_vars must be positive")
        num, den = _pairs(n_vars, terms)
        _set_n_vars(self, n_vars)
        _set_num(self, num)
        _set_den(self, den)

    @classmethod
    def _normal(cls, n_vars: int, num: dict, den: int, g: int = 0) -> "MultiPoly":
        """The one internal constructor.  Its contract: num maps tuple
        exponents of length n_vars to tuple pairs, none of them (0, 0), over
        den > 0.  It divides out g, the gcd of den and every numerator, found
        here when not given; the map is built by this module and never
        changed afterwards."""
        if not g:
            g = den
            if g != 1:
                for a, b in num.values():
                    g = gcd(g, a, b)
                    if g == 1:
                        break
        if g != 1:  # the zero polynomial has g = den, so d = 1
            num = {e: (a // g, b // g) for e, (a, b) in num.items()}
            den //= g
        self = object.__new__(cls)
        _set_n_vars(self, n_vars)
        _set_num(self, num)
        _set_den(self, den)
        return self

    @classmethod
    def _from_acc(cls, n_vars: int, acc: Mapping, den: int) -> "MultiPoly":
        """The polynomial of an accumulator {e: [a, b]} over den: zero pairs
        are dropped and the gcd taken in one pass."""
        num = {}
        g = den
        for e, (a, b) in acc.items():
            if a or b:
                num[e] = (a, b)
                if g != 1:
                    g = gcd(g, a, b)
        return cls._normal(n_vars, num, den, g)

    def __setattr__(self, *args):
        raise AttributeError(f"{type(self).__name__} is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(n_vars: int) -> "MultiPoly":
        return MultiPoly(n_vars, {})

    @staticmethod
    def const(n_vars: int, value) -> "MultiPoly":
        return MultiPoly(n_vars, {(0,) * n_vars: value})

    @staticmethod
    def variable(n_vars: int, i: int) -> "MultiPoly":
        """The variable x_i (1-based)."""
        if not 1 <= i <= n_vars:
            raise IndexError(f"variable index {i} out of range 1..{n_vars}")
        e = tuple(1 if k == i - 1 else 0 for k in range(n_vars))
        return MultiPoly(n_vars, {e: ONE})

    @staticmethod
    def monomial(n_vars: int, exponents: Iterable[int], coeff=1) -> "MultiPoly":
        return MultiPoly(n_vars, {tuple(exponents): coeff})

    @classmethod
    def _monomial(cls, e: tuple) -> "MultiPoly":
        """x^e for an exponent tuple built by the library, unchecked."""
        return cls._normal(len(e), {e: (1, 0)}, 1)

    # -- queries -----------------------------------------------------------

    @property
    def terms(self) -> dict:
        d = self._den
        return {e: _element(a, b, d) for e, (a, b) in self._num.items()}

    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self) -> bool:
        return bool(self._num)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self._num), default=-1)

    def is_constant(self) -> bool:
        return not any(any(e) for e in self._num)

    def constant_value(self) -> FieldElement:
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        pair = self._num.get((0,) * self.n_vars)
        return ZERO if pair is None else _element(*pair, self._den)

    def _printed_terms(self, rank: Mapping | None = None) -> list:
        """The (exponents, coefficient text) of each term in descending
        graded-lex order, the text read from the stored pair as str of its
        field element reads: the one way a polynomial becomes text.  rank is
        a _grlex_rank over a set of polynomials that holds self, such as a
        table's entries, ranked once for all of them; by default self's own.
        Ranks are distinct, so the sort compares ints only."""
        if rank is None:
            rank = _grlex_rank((self,))
        d = self._den
        terms = sorted([(rank[e], e, a, b) for e, (a, b) in self._num.items()])
        return [(e, _text(a, b, d)) for _, e, a, b in terms]

    def evaluate(self, point) -> FieldElement:
        """self at a point of field elements, or values that coerce to them,
        summed over the stored pairs: (sum w a + (sum w b) z)/d, w the value
        of each term's monomial.  Ints and Fractions are kept as they are, so
        at an integer point every w and both sums are ints, and the value is
        built from them with no field arithmetic."""
        values = [p if isinstance(p, (int, Fraction)) else FieldElement.of(p) for p in point]
        if len(values) != self.n_vars:
            raise DimensionMismatchError("evaluation point has wrong length")
        terms = [(prod(map(pow, values, e)), a, b) for e, (a, b) in self._num.items()]
        a, b = sum(w * a for w, a, _ in terms), sum(w * b for w, _, b in terms)
        return _element(a, b, self._den) if type(a) is type(b) is int else (a + b * ZETA) / self._den

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "MultiPoly":
        """other as a polynomial of this class and dimension; a scalar
        becomes a constant."""
        if isinstance(other, MultiPoly):
            if type(other) is not type(self) or other.n_vars != self.n_vars:
                raise DimensionMismatchError(f"mixing {type(self).__name__} and {type(other).__name__}"
                                             f" in {self.n_vars} and {other.n_vars} variables")
            return other
        return type(self)._normal(self.n_vars, *_pairs(self.n_vars, {(0,) * self.n_vars: other}), 1)

    def _sum(self, other, sign: int) -> "MultiPoly":
        """self + sign * other over the least common denominator; other is
        coerced unless it has self's class and dimension."""
        if type(other) is not type(self) or other.n_vars != self.n_vars:
            other = self._coerce(other)
        den = lcm(self._den, other._den)
        ka, kb = den // self._den, sign * den // other._den
        out = {e: (a * ka, b * ka) for e, (a, b) in self._num.items()} if ka != 1 else dict(self._num)
        for e, (a, b) in other._num.items():
            pa, pb = out.get(e, (0, 0))
            a, b = pa + a * kb, pb + b * kb
            if a or b:
                out[e] = (a, b)
            else:
                del out[e]
        return type(self)._normal(self.n_vars, out, den)

    def __add__(self, other) -> "MultiPoly":
        return self._sum(other, 1)

    __radd__ = __add__

    def __sub__(self, other) -> "MultiPoly":
        return self._sum(other, -1)

    def __rsub__(self, other) -> "MultiPoly":
        return self._coerce(other) - self

    def __neg__(self) -> "MultiPoly":
        return self * -1

    def __mul__(self, other) -> "MultiPoly":
        if type(other) is not type(self) or other.n_vars != self.n_vars:
            other = self._coerce(other)
        acc = _mul_pairs(self._num, other._num, self.n_vars)
        return type(self)._from_acc(self.n_vars, acc, self._den * other._den)

    __rmul__ = __mul__

    def scale(self, c) -> "MultiPoly":
        return self * c

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, FieldElement)):
            return self.is_constant() and self.constant_value() == other
        if not isinstance(other, MultiPoly):
            return NotImplemented
        if type(self) is type(other) and self.n_vars == other.n_vars:
            return self._den == other._den and self._num == other._num
        # Constants equal their value whatever the class or dimension, which
        # keeps equality transitive.
        return (self.is_constant() and other.is_constant()
                and self.constant_value() == other.constant_value())

    def __hash__(self) -> int:
        if self.is_constant():  # equals its constant, so hashes like it
            return hash(self.constant_value())
        return hash((self.n_vars, self._den, frozenset(self._num.items())))

    def __str__(self) -> str:
        return _fmt_terms(self, [f"x{k+1}" for k in range(self.n_vars)])

    __repr__ = __str__


_set_n_vars, _set_num, _set_den = (MultiPoly.n_vars.__set__, MultiPoly._num.__set__,
                                   MultiPoly._den.__set__)


def swap_vars(f: MultiPoly, i: int) -> MultiPoly:
    """Exchange x_i and x_{i+1} in every term (1 <= i <= n_vars - 1)."""
    if not 1 <= i <= f.n_vars - 1:
        raise IndexError(f"transposition index {i} out of range 1..{f.n_vars - 1}")
    out = {e[:i - 1] + (e[i], e[i - 1]) + e[i + 1:]: pair for e, pair in f._num.items()}
    return type(f)._normal(f.n_vars, out, f._den, 1)  # a move keeps the content


def exact_div(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """The quotient f/g when g divides f exactly in the polynomial ring."""
    quo = _divide_terms(f.terms, f._coerce(g).terms)
    return type(f)._normal(f.n_vars, *_pairs(f.n_vars, quo), 1)


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
        return SlotPoly({(0, 0): value})

    @staticmethod
    def u() -> "SlotPoly":
        return SlotPoly({(1, 0): ONE})

    @staticmethod
    def v() -> "SlotPoly":
        return SlotPoly({(0, 1): ONE})

    @staticmethod
    def monomial(r: int, s: int, coeff=1) -> "SlotPoly":
        return SlotPoly({(r, s): coeff})

    @staticmethod
    def univariate(coeffs, slot: int = 0) -> "SlotPoly":
        """Build sum coeffs[k] * slot^k; slot 0 is u, slot 1 is v."""
        if slot not in (0, 1):
            raise ValueError("slot must be 0 (u) or 1 (v)")
        return SlotPoly({(k, 0) if slot == 0 else (0, k): c for k, c in enumerate(coeffs)})

    # -- slot operations ---------------------------------------------------

    def is_symmetric(self) -> bool:
        """self == swap(self), read off the stored pairs with no swap built:
        each pair must be the one under its mirrored key (a swap keeps the
        denominator, as it keeps the content)."""
        return all(self._num.get(rs[::-1]) == pair for rs, pair in self._num.items())

    def is_dpositive(self) -> bool:
        return all(r > s for r, s in self._num)

    def swap(self) -> "SlotPoly":
        """Exchange the two slots."""
        return SlotPoly._normal(2, *self._swap_view(), 1)

    def ddiff(self) -> "SlotPoly":
        """The divided difference (p - swap p)/(u - v), taken in the slots."""
        return SlotPoly._from_acc(2, *self._ddiff_view())

    def _swap_view(self) -> tuple:
        """(pairs, den) of swap(self), a _slot_sum operand."""
        return {(s, r): pair for (r, s), pair in self._num.items()}, self._den

    def _ddiff_view(self) -> tuple:
        """(pairs, den) of ddiff(self), a _slot_sum operand."""
        return _ddiff_pairs(self._num), self._den

    def _dpositive(self) -> "SlotPoly":
        """self[r > s] - swap(self[r < s]) in one pass (braidops.divdiff)."""
        return SlotPoly._from_acc(2, _summed(((r, s), a, b) if r > s else ((s, r), -a, -b)
                                             for (r, s), (a, b) in self._num.items() if r != s),
                                  self._den)

    def exact_div(self, g: "SlotPoly") -> "SlotPoly":
        return exact_div(self, g)

    def _degrees(self) -> tuple[int, int]:
        """(deg_u, deg_v), the largest exponents of u and v; (0, 0) for zero."""
        return tuple(map(max, zip((0, 0), *self._num)))

    def _at_v(self, c: int) -> "SlotPoly":
        """self(u, c), summed from the stored integer pairs over self's denominator."""
        return SlotPoly._from_acc(2, _summed(((r, 0), a * c ** s, b * c ** s)
                                             for (r, s), (a, b) in self._num.items()), self._den)

    def _separable(self) -> bool:
        """Whether self is a(u) b(v): its coefficient matrix [c_rs] has rank
        at most 1.  With a pivot c_r0s0 != 0 that holds exactly when every
        minor c_rs c_r0s0 - c_rs0 c_r0s vanishes, zero entries included: the
        terms fill exactly the grid of the rows r with c_rs0 != 0 by the
        columns s with c_r0s != 0, and each passes its minor.  The minors are
        formed on the stored pairs, with (a + b z)(c + g z) = ac - bg +
        (ag + b(c + g)) z, as z^2 = z - 1."""
        num = self._num
        if not num:
            return True
        (r0, s0), (pa, pb) = next(iter(num.items()))
        rows = {r: pair for (r, s), pair in num.items() if s == s0}
        cols = {s: pair for (r, s), pair in num.items() if r == r0}
        if len(rows) * len(cols) != len(num):
            return False
        for (r, s), (a, b) in num.items():
            if r not in rows or s not in cols:
                return False
            (c, g), (e, h) = rows[r], cols[s]
            if (a * pa - b * pb != c * e - g * h
                    or a * pb + b * (pa + pb) != c * h + g * (e + h)):
                return False
        return True

    def _over_u_minus_v(self) -> "SlotPoly | None":
        """self / (u - v), or None when u - v does not divide self: the one
        test of that divisibility, with no long division.  u^r v^s =
        v^s (u^r - v^r) + v^(r+s), so p = (u - v) sum c_rs sum_{l<r}
        u^l v^(r-1-l+s) + p(v, v), and the remainder p(v, v) is zero exactly
        when each degree's coefficients c_rs, r + s = k, sum to zero.  It is
        tested first, so a refusal builds no quotient."""
        num = self._num
        if any(map(any, _summed((r + s, a, b) for (r, s), (a, b) in num.items()).values())):
            return None
        acc = _summed(((l, r - 1 - l + s), a, b) for (r, s), (a, b) in num.items() for l in range(r))
        # In descending term order, as long division yields its quotient.
        return SlotPoly._from_acc(2, {e: acc[e] for e in sorted(acc, key=_grlex, reverse=True)},
                                  self._den)

    def evaluate(self, uval, vval) -> FieldElement:
        return super().evaluate((uval, vval))

    def __str__(self) -> str:
        return _fmt_terms(self, ["u", "v"])

    __repr__ = __str__


def instantiate(p: SlotPoly, i: int, j: int, n: int) -> MultiPoly:
    """Substitute u -> x_i, v -> x_j; requires i != j, both in 1..n."""
    if i == j:
        raise ValueError("slot instantiation needs two distinct variables")
    for idx in (i, j):
        if not 1 <= idx <= n:
            raise IndexError(f"variable index {idx} out of range 1..{n}")
    out = {}
    for (r, s), pair in p._num.items():  # i != j, so no two terms meet
        e = [0] * n
        e[i - 1] = r
        e[j - 1] = s
        out[tuple(e)] = pair
    return MultiPoly._normal(n, out, p._den, 1)
