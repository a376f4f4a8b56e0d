"""PDDO.apply, PDDO.compose, PDDO.hecke_params, divdiff.ddiff, the cubic
braid numerators and braid.almost_equal against sympy, a sympy negative
control for the monomial basis of braid.relation_holds, and the lemmas
behind the cubic check's two-variable rules (the normal-form and Hecke
lemmas for T == T~, the multiplication lemma for pairs with a zero Q0, the
diagonal refutation of failing pairs and the divisible-T step for a zero
diagonal) as identities in symbolic coefficients.

The oracle shares no arithmetic with the library: polynomials become sympy
expressions in x_1..x_n and a symbol z, divided differences are formed with
``cancel``, and z is reduced modulo its minimal polynomial z^2 - z + 1 only
when two results are compared.  Compositions are expanded in the twisted
group algebra: an operator at index i is f |-> alpha f + beta s_i f with
alpha = T/(x_i - x_{i+1}) and beta = -Q0/(x_i - x_{i+1}), and
beta s_i (c w f) = beta s_i(c) (s_i w) f.  Their coefficients are kept as
sympy ring polynomials over a power of the Vandermonde product, with z
reduced after every step.
"""

import random
from fractions import Fraction
from itertools import permutations

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

from braidops.braid import COEFF_NAMES, _factored_differences, almost_equal, relation_holds
from braidops.divdiff import ddiff
from braidops.families import Case2Line, case1_operator, main_case1, main_case2, preset
from braidops.field import FieldElement
from braidops.multipoly import MultiPoly, SlotPoly
from braidops.pddo import PDDO, Degeneracy, identity_op
from cubic_reference import full_numerators

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


def zero_mod_minpoly(expr) -> bool:
    """expr expands to zero once z is reduced modulo z^2 - z + 1."""
    return sympy.Poly(sympy.expand(expr), Z).rem(sympy.Poly(MINPOLY, Z)).is_zero


def assert_same(lib_expr, oracle):
    assert zero_mod_minpoly(lib_expr - oracle)


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


def act(op: PDDO, R, x, i, combo, m):
    """Apply op at index i to sum_w N_w / V^m (w f), given as {w: N_w} over
    the polynomial ring R in x and z, where V is the Vandermonde product of x
    and a permutation w is the tuple p with (w f)(x) = f(x_p[0], x_p[1], ...).
    Returns the numerators over V^(m + 1): as s_i V = -V and V/(x_i - x_{i+1})
    is a polynomial, no division is needed."""
    vdm = sympy.prod([x[a] - x[b] for a in range(len(x)) for b in range(a + 1, len(x))])
    cofactor = R(sympy.cancel(vdm / (x[i - 1] - x[i])))
    T = R(at(slot_expr(op.T), x, i)) * cofactor
    Q0 = R(at(slot_expr(op.Q0), x, i)) * cofactor
    gens = R.gens
    swap = [(gens[i - 1], gens[i]), (gens[i], gens[i - 1])]
    t = list(range(len(x)))
    t[i - 1], t[i] = i, i - 1
    out: dict = {}
    for w, num in combo.items():
        # alpha = T/(x_i - x_{i+1}) and beta = -Q0/(x_i - x_{i+1}).
        out[w] = out.get(w, R.zero) + T * num
        sw = tuple(t[k] for k in w)
        out[sw] = out.get(sw, R.zero) - (-1) ** m * Q0 * num.compose(swap)
    return {w: reduce_z(R, num) for w, num in out.items()}


def in_ring(R, f: MultiPoly):
    """f as an element of R = Q[x_1..x_n, z]."""
    terms = {}
    for e, c in f.terms.items():
        for k, q in enumerate((c.rat_part, c.zeta_part)):
            if q:
                terms[e + (k,)] = sympy.QQ(q.numerator, q.denominator)
    return R.from_dict(terms)


# z^k = a + b z for k mod 6, from z^2 = z - 1 (z^3 = -1).
Z_POWERS = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))


def reduce_z(R, p):
    """p with every power of z reduced modulo z^2 - z + 1."""
    out = {}
    for e, c in p.items():
        for k, m in enumerate(Z_POWERS[e[-1] % 6]):
            if m:
                key = e[:-1] + (k,)
                out[key] = out.get(key, R.domain.zero) + m * c
    return R.from_dict({e: c for e, c in out.items() if c})


def assert_same_poly(R, lib, oracle):
    """lib == oracle in R, with z reduced modulo z^2 - z + 1."""
    assert reduce_z(R, lib) == reduce_z(R, oracle)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_compose_matches(seed):
    """c = a.compose(b) against a(b f) = N_id/(u - v)^2 f + N_s/(u - v)^2 sf,
    so T_c (u - v) = N_id and Q0_c (u - v) = -N_s."""
    rng = random.Random(1000 + seed)
    a, b = (PDDO.from_pqrs(*(random_slot(rng) for _ in range(4))) for _ in range(2))
    c = a.compose(b)
    x = (U, V)
    R = sympy.polys.rings.ring(x + (Z,), sympy.QQ)[0]
    ident, s = (0, 1), (1, 0)
    composed = act(a, R, x, 1, act(b, R, x, 1, {ident: R.one}, 0), 1)
    uv = R(U - V)
    assert_same_poly(R, R(slot_expr(c.T)) * uv, composed.get(ident, R.zero))
    assert_same_poly(R, R(slot_expr(c.Q0)) * uv, -composed.get(s, R.zero))


def random_op(rng):
    return PDDO.from_pqrs(*(random_slot(rng) for _ in range(4)))


def triple_compositions(pi, varpi):
    """The ring R, and for each coefficient name the oracle numerators
    (lhs, rhs) of pi varpi pi and varpi pi varpi over the common denominator
    D = (x-y)^2 (x-z) (y-z)^2, multiplied by V^3 so they live in R: a
    library numerator N matches when N V^3 equals the returned value."""
    x = xs(3)
    R = sympy.polys.rings.ring(x + (Z,), sympy.QQ)[0]

    def word(*letters):
        combo = {(0, 1, 2): R.one}
        for m, (op, i) in enumerate(reversed(letters)):
            combo = act(op, R, x, i, combo, m)
        return combo

    def then(p, q):  # the permutation q applied after p
        return tuple(q[k] for k in p)

    ident, s1, s2 = (0, 1, 2), (1, 0, 2), (0, 2, 1)
    perm = {
        "f": ident, "sf": s1, "sigma_f": s2,
        "s_sigma_f": then(s2, s1), "sigma_s_f": then(s1, s2),
        "s_sigma_s_f": then(then(s1, s2), s1),
    }
    den = R((x[0] - x[1]) ** 2 * (x[0] - x[2]) * (x[1] - x[2]) ** 2)
    lhs = word((pi, 1), (varpi, 2), (pi, 1))
    rhs = word((varpi, 2), (pi, 1), (varpi, 2))
    return R, {name: (den * lhs.get(perm[name], R.zero), den * rhs.get(perm[name], R.zero))
               for name in COEFF_NAMES}


def vdm3(R):
    x = R.gens
    return ((x[0] - x[1]) * (x[0] - x[2]) * (x[1] - x[2])) ** 3


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cubic_numerators_match(seed):
    """The twelve full numerators of the test-side reference, for random
    (non-braiding) operators: each times V^3 equals D N_w."""
    rng = random.Random(2000 + seed)
    pi, varpi = random_op(rng), random_op(rng)
    left, right = full_numerators(pi, varpi)
    R, oracle = triple_compositions(pi, varpi)
    for name in COEFF_NAMES:
        for lib, num in zip((left, right), oracle[name]):
            assert_same_poly(R, in_ring(R, lib[name]) * vdm3(R), num)


def degenerate_pairs(rng):
    """Random pairs with Q0 = 0, Q0~ = 0, T = 0, T == T~ and Q0 == Q0~."""
    uv = SlotPoly.u() - SlotPoly.v()
    q_zero = PDDO.from_q0_r0(SlotPoly.zero(), random_slot(rng))
    t_zero = PDDO(SlotPoly.zero(), uv * random_slot(rng))
    a = random_op(rng)
    same_t = PDDO(a.T, a.Q0 + uv * random_slot(rng))
    same_q = PDDO.from_q0_r0(a.Q0, random_slot(rng))
    assert q_zero.degeneracy is Degeneracy.Q_ZERO
    assert t_zero.degeneracy is Degeneracy.T_ZERO
    assert same_t.Q0 != a.Q0 and same_q.T != a.T
    return [(q_zero, random_op(rng)), (random_op(rng), q_zero),
            (t_zero, random_op(rng)), (random_op(rng), t_zero), (a, same_t),
            (same_q, a)]


@pytest.mark.parametrize("seed", [1, 2])
def test_factored_differences_match(seed):
    """The difference of every name, factor * reduced difference, equals
    D (N_lhs - N_rhs), and it is zero when the library reports it as known
    to vanish."""
    rng = random.Random(3000 + seed)
    pairs = [(random_op(rng), random_op(rng))] + degenerate_pairs(rng)
    for pi, varpi in pairs:
        R, oracle = triple_compositions(pi, varpi)
        for name, (vanishes, difference) in _factored_differences(pi, varpi).items():
            lib = difference()
            assert lib.is_zero() or not vanishes
            lhs, rhs = oracle[name]
            assert_same_poly(R, in_ring(R, lib) * vdm3(R), lhs - rhs)


def test_almost_equal_matches_sympy():
    """almost_equal against the three-variable identity
    q(x,y) qt(x,z) q(y,z) = qt(x,y) q(x,z) qt(y,z), expanded by sympy, for 20
    pairs: random ones, and ones built as q = g(v) p, qt = k g(u) p, which
    are almost equal exactly when k = 1."""
    rng = random.Random(5000)
    x, y, z = xs(3)

    def placed(p, a, b):
        return slot_expr(p).subs({U: a, V: b}, simultaneous=True)

    seen = set()
    for trial in range(20):
        q = qt = SlotPoly.zero()
        while q.is_zero() or qt.is_zero():
            if trial % 2:
                g = [random_element(rng) for _ in range(2)]
                p = random_slot(rng)
                k = 1 if trial % 4 == 1 else random_element(rng)
                q = SlotPoly.univariate(g, 1) * p
                qt = SlotPoly.univariate(g, 0) * p * k
            else:
                q, qt = random_slot(rng), random_slot(rng)
        holds = zero_mod_minpoly(placed(q, x, y) * placed(qt, x, z) * placed(q, y, z)
                                 - placed(qt, x, y) * placed(q, x, z) * placed(qt, y, z))
        assert almost_equal(q, qt) == holds
        seen.add(holds)
    assert seen == {True, False}


def hecke_equations(op: PDDO):
    """Linear equations in the unknowns (m0, m1, n0, n1) whose solutions are
    the (mu, nu) = (m0 + m1 z, n0 + n1 z) with op op = mu op + nu Id."""
    x = (U, V)
    R = sympy.polys.rings.ring(x + (Z,), sympy.QQ)[0]
    ident = (0, 1)
    once = act(op, R, x, 1, {ident: R.one}, 0)  # over (u - v)
    twice = act(op, R, x, 1, once, 1)  # over (u - v)^2
    m0, m1, n0, n1 = unknowns = sympy.symbols("m0 m1 n0 n1")
    uv = U - V
    equations = []
    for w in (ident, (1, 0)):
        expr = (twice.get(w, R.zero).as_expr()
                - (m0 + m1 * Z) * uv * once.get(w, R.zero).as_expr()
                - (n0 + n1 * Z) * uv**2 * (1 if w == ident else 0))
        reduced = sympy.Poly(sympy.expand(expr), Z).rem(sympy.Poly(MINPOLY, Z))
        equations += sympy.Poly(reduced.as_expr(), U, V, Z).coeffs()
    return equations, unknowns


def hecke_cases(rng):
    """Hecke operators with Q(z) coefficients (a case1 or Grothendieck
    operator times a, plus b Id), random operators (almost never Hecke), one
    with d T constant but nu not (T = u, R0 = u + c), and the Q0 = 0 and
    T = 0 branches with constant and non-constant R0."""
    uv = SlotPoly.u() - SlotPoly.v()

    def nonzero():
        return random_element(rng) or FieldElement.of(1)

    a, c, k = nonzero(), nonzero(), nonzero()
    case1 = case1_operator(a, k * a, c, k * c, random_element(rng))
    groth = preset("grothendieck", 3, random_element(rng))[1]
    return [
        case1.scale(nonzero()) + identity_op(random_element(rng)),
        groth.scale(nonzero()) + identity_op(random_element(rng)),
        random_op(rng), random_op(rng),
        PDDO(SlotPoly.u(), SlotPoly.u() - uv * (SlotPoly.u() + nonzero())),
        PDDO.from_q0_r0(SlotPoly.zero(), SlotPoly.const(nonzero())),
        PDDO.from_q0_r0(SlotPoly.zero(), SlotPoly.u() + random_element(rng)),
        PDDO(SlotPoly.zero(), uv.scale(nonzero())),
        PDDO(SlotPoly.zero(), uv * (SlotPoly.v() + random_element(rng))),
    ]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_hecke_params_match(seed):
    """hecke_params satisfies op op = mu op + nu Id, and is None exactly when
    no constant pair does."""
    rng = random.Random(4000 + seed)
    found_in = set()
    for op in hecke_cases(rng):
        found = op.hecke_params()
        equations, unknowns = hecke_equations(op)
        if found is None:
            assert sympy.linsolve(equations, unknowns) == sympy.EmptySet
            continue
        found_in.add(op.degeneracy)
        mu, nu = found
        values = dict(zip(unknowns, map(sympy.Rational, (
            mu.rat_part, mu.zeta_part, nu.rat_part, nu.zeta_part))))
        assert all(eq.subs(values) == 0 for eq in equations)
    assert found_in == {Degeneracy.NONDEGENERATE, Degeneracy.Q_ZERO, Degeneracy.T_ZERO}


def test_five_artin_monomials_do_not_decide(monkeypatch):
    """A negative control for the basis of relation_holds.  For each of the
    six exponent vectors b0 it uses for indices {1, 2}, the matrix [g(x^b)]
    of the six g in S_3 at the other five monomials has a nonzero nullspace
    vector c over Q(x1, x2, x3), and sum_g c_g g(x^b0) != 0: the element
    sum_g c_g g of the twisted group algebra vanishes on five monomials and
    not on the sixth, so a five-monomial decider would call it zero and the
    full decider does not.  The six nullspaces take about 0.4 s."""
    seen = []
    real = MultiPoly._monomial
    monkeypatch.setattr(MultiPoly, "_monomial", staticmethod(lambda e: seen.append(e) or real(e)))
    d = preset("demazure", 3)
    assert relation_holds([(1, d[1]), (2, d[2]), (1, d[1])],
                          [(2, d[2]), (1, d[1]), (2, d[2])]) is None
    assert len(set(seen)) == len(seen) == 6
    x = xs(3)
    K = sympy.QQ.frac_field(*x)
    rows = [[K.from_sympy(sympy.prod([x[g[v]] ** k for v, k in enumerate(b)]))
             for g in permutations(range(3))] for b in seen]
    matrix = DomainMatrix(rows, (6, 6), K)
    for k in range(6):
        c = DomainMatrix(rows[:k] + rows[k + 1:], (5, 6), K).nullspace()
        assert c.shape == (1, 6)
        values = (matrix * c.transpose()).to_Matrix()  # sum_g c_g g(x^b), one row per b
        assert [j for j in range(6) if values[j] != 0] == [k]


def test_equal_t_lemmas_hold_with_symbolic_coefficients():
    """The Hecke lemma behind the cubic check's f rule for T == T~ with
    d(T) = mu, as an identity in the coefficients, with no braidops code:
    T = S + mu u with S a generic symmetric polynomial of degree at most 2,
    and R0, R0~ generic of degree at most 2 (22 symbols with x, y, z).  The
    reduced differences are the module table's (braid.py), t_xy = T(x, y)
    and so on, and nu = Q0 d(R0) + R0^2 - mu R0 is op(R0) - mu R0.

    f_red = (t_xy (y-z) - t_yz (x-y)) sf_red + (x-y)^2 (y-z)^2 t_xz (nu(x,y) - nu~(y,z))

    and the step the module docstring takes with it: Q0(u,v) Q0(v,u) =
    T(u,v) T(v,u) - (u-v)^2 nu(u,v).  sigma_f_red is sf_red with x and z
    exchanged.
    """
    R, *gens = sympy.polys.rings.ring("x y z u v mu s0:4 r0:6 rt0:6", sympy.QQ)
    x, y, z, u, v, mu = gens[:6]
    s, r, rt = gens[6:10], gens[10:16], gens[16:22]

    def at(p, a, b):
        return p.compose([(u, a), (v, b)])

    def d(p):
        return (p - at(p, v, u)).exquo(u - v)

    def generic(c):
        return c[0] + c[1] * u + c[2] * v + c[3] * u**2 + c[4] * u * v + c[5] * v**2

    assert at(u * v**2, v, u) == v * u**2  # the substitution is simultaneous
    T = s[0] + s[1] * (u + v) + s[2] * (u**2 + v**2) + s[3] * u * v + mu * u
    assert d(T) == mu
    r0, rt0 = generic(r), generic(rt)
    q0, qt0 = T - (u - v) * r0, T - (u - v) * rt0
    nu, nut = q0 * d(r0) + r0**2 - mu * r0, qt0 * d(rt0) + rt0**2 - mu * rt0

    def t(a, b):
        return at(T, a, b)

    B = t(x, y) * t(y, z) * (x - z)
    f_red = (B * ((y - z) * t(x, y) - (x - y) * t(y, z))
             - (y - z)**2 * t(x, z) * at(q0, x, y) * at(q0, y, x)
             + (x - y)**2 * t(x, z) * at(qt0, y, z) * at(qt0, z, y))
    sf_red = B - t(x, z) * ((y - z) * t(y, x) + (x - y) * t(y, z))
    sf_part = (t(x, y) * (y - z) - t(y, z) * (x - y)) * sf_red
    nu_part = (x - y)**2 * (y - z)**2 * t(x, z) * (at(nu, x, y) - at(nut, y, z))
    assert f_red == sf_part + nu_part
    assert nu_part != 0  # with sf_red = 0, f still turns on nu
    assert sf_red != 0
    sigma_f_red = t(x, z) * ((y - z) * t(x, y) + (x - y) * t(z, y)) - B
    assert sigma_f_red == sf_red.compose([(x, z), (z, x)])
    assert q0 * at(q0, v, u) == T * at(T, v, u) - (u - v)**2 * nu


def test_normal_form_lemma_holds_with_symbolic_coefficients():
    """The cubic check's normal-form lemma for T == T~, with no braidops
    code.  For T generic of degree at most 2 in each slot (9 symbols) and an
    integer symbol c: sf's reduced difference at x = c is (y-z) (T(y,z)
    E(y,z) - T(y,c) T(c,z)) and sigma_f's at z = c is -(x-y) (T(x,y) E'(x,y)
    - T(x,c) T(c,y)), E and E' polynomials equal to T(c,c) when either
    argument is c.  For T = A(u) B(v), A and B generic of degree at most 2,
    sf's is -(x-y)(x-z)(y-z) A(x) A(y) B(z) B[x,y,z] and sigma_f's is
    (x-y)(x-z)(y-z) A(x) B(y) B(z) A[x,y,z], P[x,y,z] the second divided
    difference, zero exactly when deg P <= 1."""
    R, *gens = sympy.polys.rings.ring("x y z u v c t0:9 a0:3 b0:3", sympy.QQ)
    x, y, z, u, v, c = gens[:6]
    t, a, b = gens[6:15], gens[15:18], gens[18:21]

    def at(p, p_u, p_v):
        return p.compose([(u, p_u), (v, p_v)])

    def reduced(T):
        B = at(T, x, y) * at(T, y, z) * (x - z)
        sf = B - at(T, x, z) * ((y - z) * at(T, y, x) + (x - y) * at(T, y, z))
        sigma_f = at(T, x, z) * ((y - z) * at(T, x, y) + (x - y) * at(T, z, y)) - B
        return sf, sigma_f

    T = sum(t[3 * i + j] * u**i * v**j for i in range(3) for j in range(3))
    sf, sigma_f = reduced(T)
    E = (at(T, c, y) * (c - z) - at(T, c, z) * (c - y)).exquo(y - z)
    assert sf.compose(x, c) == (y - z) * (at(T, y, z) * E - at(T, y, c) * at(T, c, z))
    assert E.compose(z, c) == E.compose(y, c).compose(z, y) == at(T, c, c)
    E_ = ((x - c) * at(T, y, c) - (y - c) * at(T, x, c)).exquo(x - y)
    assert sigma_f.compose(z, c) == -(x - y) * (at(T, x, y) * E_ - at(T, x, c) * at(T, c, y))
    assert E_.compose(y, c) == E_.compose(x, c).compose(y, x) == at(T, c, c)

    def second_difference(P, w):
        first = [(P.compose(w, p) - P.compose(w, q)).exquo(p - q) for p, q in ((x, y), (y, z))]
        return (first[0] - first[1]).exquo(x - z)

    A, B = (k[0] + k[1] * u + k[2] * u**2 for k in (a, b))
    sf, sigma_f = reduced(A * B.compose(u, v))
    vandermonde = (x - y) * (x - z) * (y - z)
    assert sf == -vandermonde * A.compose(u, x) * A.compose(u, y) * B.compose(u, z) * second_difference(B, u)
    assert sigma_f == vandermonde * A.compose(u, x) * B.compose(u, y) * B.compose(u, z) * second_difference(A, u)
    assert second_difference(B, u) == b[2]  # zero exactly when deg B <= 1


def test_diagonal_lemma_holds_with_symbolic_coefficients():
    """The cubic check's diagonal lemma, with no braidops code: for generic T,
    T~ and R0 of degree at most 2 in u, v, sf's reduced difference at y = z is
    (x-z) T~(z,z) (T - T~)(x,z), sigma_f's at x = y is (y-z) T(y,y)
    (T - T~)(y,z), and Q0 = T - (u-v) R0 has Q0(v,v) = T(v,v)."""
    R, *gens = sympy.polys.rings.ring("x y z u v t0:6 tt0:6 r0:6", sympy.QQ)
    x, y, z, u, v = gens[:5]
    c, ct, cr = gens[5:11], gens[11:17], gens[17:23]

    def at(p, a, b):
        return p.compose([(u, a), (v, b)])

    def generic(k):
        return k[0] + k[1] * u + k[2] * v + k[3] * u**2 + k[4] * u * v + k[5] * v**2

    T, Tt, r0 = generic(c), generic(ct), generic(cr)
    B = at(T, x, y) * at(Tt, y, z) * (x - z)
    sf_red = B - at(Tt, x, z) * ((y - z) * at(T, y, x) + (x - y) * at(Tt, y, z))
    sigma_f_red = at(T, x, z) * ((y - z) * at(T, x, y) + (x - y) * at(Tt, z, y)) - B
    assert sf_red.compose(y, z) == (x - z) * at(Tt, z, z) * at(T - Tt, x, z)
    assert sigma_f_red.compose(x, y) == (y - z) * at(T, y, y) * at(T - Tt, y, z)
    assert at(T - (u - v) * r0, v, v) == at(T, v, v)


def test_separable_rule_holds_with_symbolic_coefficients():
    """The almost-equality of separable pairs, with no braidops code: for
    q = a(u) b(v) and qt = at(u) bt(v), a, b, at, bt generic of degree at
    most 2,

        q(x,y) qt(x,z) q(y,z) - qt(x,y) q(x,z) qt(y,z)
            = a(x) at(x) b(z) bt(z) (q(y,y) - qt(y,y)),

    and every 2x2 minor of q's coefficient matrix vanishes, while a generic
    polynomial of degree 1 in each slot has a nonzero one.  The first backs
    the tests that hold separable pairs almost equal exactly when their
    diagonals agree; the second backs SlotPoly._separable, the rank test of
    the normal-form lemma."""
    R, *gens = sympy.polys.rings.ring("x y z u v a0:3 b0:3 at0:3 bt0:3 g0:4", sympy.QQ)
    x, y, z, u, v = gens[:5]
    a, b, at_, bt, g = gens[5:8], gens[8:11], gens[11:14], gens[14:17], gens[17:21]

    def poly(k, w):
        return sum((k_i * w**i for i, k_i in enumerate(k)), R.zero)

    def at(p, s, t):
        return p.compose([(u, s), (v, t)])

    q, qt = poly(a, u) * poly(b, v), poly(at_, u) * poly(bt, v)
    lhs = at(q, x, y) * at(qt, x, z) * at(q, y, z) - at(qt, x, y) * at(q, x, z) * at(qt, y, z)
    rhs = (poly(a, x) * poly(at_, x) * poly(b, z) * poly(bt, z)
           * (at(q, y, y) - at(qt, y, y)))
    assert lhs == rhs != 0

    def minors(p):
        """The 2x2 minors of [c_rs], c_rs the coefficient of u^r v^s in the
        other symbols."""
        c = {(r, s): R.from_dict({m[:3] + (0, 0) + m[5:]: k for m, k in p.terms()
                                  if m[3:5] == (r, s)})
             for r in range(3) for s in range(3)}
        return [c[r1, s1] * c[r2, s2] - c[r1, s2] * c[r2, s1]
                for r1 in range(3) for r2 in range(r1 + 1, 3)
                for s1 in range(3) for s2 in range(s1 + 1, 3)]

    assert not any(minors(q))
    assert any(minors(g[0] + g[1] * u + g[2] * v + g[3] * u * v))


def test_multiplication_lemma_holds_with_symbolic_coefficients():
    """The cubic check's multiplication lemma, with no braidops code.  The
    other operator has T = t and Q0 = q generic of degree at most 2 (12
    symbols), and the multiplier has Q0 = 0 and T = (u-v) g, g generic of
    degree at most 2 in each slot (9 symbols).  The table's reduced
    differences factor as the module docstring says, in both orders:

        varpi multiplies, sf: (x-z)(y-z) [t_xy g_yz - t_yx g_xz - (x-y) g_xz g_yz]
                          f:  (x-z)(y-z)^2 [t_xy^2 g_yz - q_xy q_yx g_xz - (x-y) t_xy g_yz^2]
        pi multiplies, sigma_f: (x-y)(x-z) [(y-z) g_xy g_xz + g_xz t_zy - g_xy t_yz]
                       f:       (x-y)^2 (x-z) [(y-z) g_xy^2 t_yz - g_xy t_yz^2 + g_xz q_yz q_zy]

    With g univariate in the shared variable (K = 0), the brackets are the
    two-variable tests t gs - swap(t) g - (u-v) g gs and t^2 gs - q swap(q) g
    - (u-v) t gs^2, gs = swap(g), placed at (x, y) and, negated, at (y, z).
    With g of degree K = 2 in the unshared variable, each bracket has degree
    2K there, with the top coefficients the docstring names."""
    R, *gens = sympy.polys.rings.ring("x y z u v t0:6 q0:6 g0:9", sympy.QQ)
    x, y, z, u, v = gens[:5]
    ct, cq, cg = gens[5:11], gens[11:17], gens[17:26]

    def at(p, a, b):
        return p.compose([(u, a), (v, b)])

    def generic(k):
        return k[0] + k[1] * u + k[2] * v + k[3] * u**2 + k[4] * u * v + k[5] * v**2

    def coeff(p, w, k):
        """The coefficient of w^k in p, w one of x, y, z."""
        i = gens.index(w)
        return R.from_dict({m[:i] + (0,) + m[i + 1:]: c for m, c in p.terms() if m[i] == k})

    def reduced(T, Q, Tt, Qt):
        """The module table's sf, sigma_f and f reduced differences."""
        B = at(T, x, y) * at(Tt, y, z) * (x - z)
        sf = B - at(Tt, x, z) * ((y - z) * at(T, y, x) + (x - y) * at(Tt, y, z))
        sigma_f = at(T, x, z) * ((y - z) * at(T, x, y) + (x - y) * at(Tt, z, y)) - B
        f = (B * ((y - z) * at(T, x, y) - (x - y) * at(Tt, y, z))
             - (y - z)**2 * at(Tt, x, z) * at(Q, x, y) * at(Q, y, x)
             + (x - y)**2 * at(T, x, z) * at(Qt, y, z) * at(Qt, z, y))
        return sf, sigma_f, f

    t, q = generic(ct), generic(cq)

    def varpi_multiplies(g):
        sf, _, f = reduced(t, q, (u - v) * g, R.zero)
        g_xz, g_yz, t_xy = at(g, x, z), at(g, y, z), at(t, x, y)
        brackets = (t_xy * g_yz - at(t, y, x) * g_xz - (x - y) * g_xz * g_yz,
                    t_xy**2 * g_yz - at(q, x, y) * at(q, y, x) * g_xz - (x - y) * t_xy * g_yz**2)
        assert sf == (x - z) * (y - z) * brackets[0]
        assert f == (x - z) * (y - z)**2 * brackets[1]
        return brackets

    def pi_multiplies(g):
        _, sigma_f, f = reduced((u - v) * g, R.zero, t, q)
        g_xy, g_xz, t_yz = at(g, x, y), at(g, x, z), at(t, y, z)
        brackets = ((y - z) * g_xy * g_xz + g_xz * at(t, z, y) - g_xy * t_yz,
                    (y - z) * g_xy**2 * t_yz - g_xy * t_yz**2 + g_xz * at(q, y, z) * at(q, z, y))
        assert sigma_f == (x - y) * (x - z) * brackets[0]
        assert f == (x - y)**2 * (x - z) * brackets[1]
        return brackets

    def two_variable_tests(g):
        gs = at(g, v, u)
        return (t * gs - at(t, v, u) * g - (u - v) * g * gs,
                t * t * gs - q * at(q, v, u) * g - (u - v) * t * gs * gs)

    g_u = sum(cg[i] * u**i for i in range(3))
    g_v = at(g_u, v, u)
    assert varpi_multiplies(g_u) == tuple(at(e, x, y) for e in two_variable_tests(g_u))
    assert pi_multiplies(g_v) == tuple(-at(e, y, z) for e in two_variable_tests(g_v))

    # K = 2, with a degree-1 and a degree-2 term in the unshared variable.
    g = sum(cg[3 * i + j] * u**i * v**j for i in range(3) for j in range(3))
    top = sum(cg[3 * i + 2] * u**i for i in range(3))  # g_K, the coefficient of v^2
    sf, f = varpi_multiplies(g)
    assert sf.degree(z) == f.degree(z) == 4
    assert coeff(sf, z, 4) == -(x - y) * top.compose(u, x) * top.compose(u, y)
    assert coeff(f, z, 4) == -(x - y) * at(t, x, y) * top.compose(u, y)**2
    g, top = at(g, v, u), at(top, v, u)  # now of degree 2 in its first slot
    sigma_f, f = pi_multiplies(g)
    assert sigma_f.degree(x) == f.degree(x) == 4
    assert coeff(sigma_f, x, 4) == (y - z) * top.compose(v, y) * top.compose(v, z)
    assert coeff(f, x, 4) == (y - z) * top.compose(v, y)**2 * at(t, y, z)


def test_divisible_t_step_holds_with_nonzero_q0():
    """The cubic check's divisible-T step, with no braidops code.  varpi has
    Q0~ = (u-v) h, nonzero for generic h, and T~ = Q0~ + (u-v) R0~ = (u-v) g
    with g = h + R0~; pi has T generic and Q0 = T - (u-v) R0 (h, R0~, T and
    R0 generic of degree at most 2, 24 symbols).  sf's difference of the
    full numerators, written as cubic_reference.full_numerators writes them,
    is -(x-z)(y-z)^2 q_xy times the module docstring's bracket

        t_xy g_yz - t_yx g_xz - (x-y) g_xz g_yz,

    and, mirrored with Q0 = (u-v) h and T = (u-v) g, sigma_f's is
    -(x-y)^2 (x-z) qt_yz times

        (y-z) g_xy g_xz + g_xz t_zy - g_xy t_yz,

    t being the other operator's T.  So the step holds when the divided Q0
    is nonzero, not only when it is zero.  With g univariate in the shared
    variable, the brackets are the two-variable test (t - (u-v) g) gs -
    swap(t) g, gs = swap(g), placed at (x, y) and, negated, at (y, z)."""
    R, *gens = sympy.polys.rings.ring("x y z u v t0:6 r0:6 h0:6 rt0:6", sympy.QQ)
    x, y, z, u, v = gens[:5]
    ct, cr, ch, crt = gens[5:11], gens[11:17], gens[17:23], gens[23:29]
    xy, xz, yz = x - y, x - z, y - z

    def at(p, a, b):
        return p.compose([(u, a), (v, b)])

    def generic(k):
        return k[0] + k[1] * u + k[2] * v + k[3] * u**2 + k[4] * u * v + k[5] * v**2

    def differences(T, Q, Tt, Qt):
        """left - right of sf and sigma_f in full_numerators."""
        t_xy, t_yx, t_xz = at(T, x, y), at(T, y, x), at(T, x, z)
        tt_xz, tt_yz, tt_zy = at(Tt, x, z), at(Tt, y, z), at(Tt, z, y)
        q_xy, qt_yz = at(Q, x, y), at(Qt, y, z)
        sf = (-yz * q_xy * (t_xy * tt_yz * xz - t_yx * tt_xz * yz)
              + xy * yz * tt_yz * q_xy * tt_xz)
        sigma_f = (-xy * yz * t_xy * qt_yz * t_xz
                   + xy * qt_yz * (t_xy * tt_yz * xz - tt_zy * t_xz * xy))
        return sf, sigma_f

    def two_variable_test(t, g):
        gs = at(g, v, u)
        return (t - (u - v) * g) * gs - at(t, v, u) * g

    t, r0 = generic(ct), generic(cr)

    def sf_bracket(h, rt0):
        g = h + rt0
        sf, _ = differences(t, t - (u - v) * r0, (u - v) * g, (u - v) * h)
        g_xz, g_yz = at(g, x, z), at(g, y, z)
        bracket = at(t, x, y) * g_yz - at(t, y, x) * g_xz - xy * g_xz * g_yz
        assert sf == -xz * yz**2 * at(t - (u - v) * r0, x, y) * bracket
        return bracket

    def sigma_f_bracket(h, r0_pi):
        g = h + r0_pi
        _, sigma_f = differences((u - v) * g, (u - v) * h, t, t - (u - v) * r0)
        g_xy, g_xz = at(g, x, y), at(g, x, z)
        bracket = yz * g_xy * g_xz + g_xz * at(t, z, y) - g_xy * at(t, y, z)
        assert sigma_f == -xy**2 * xz * at(t - (u - v) * r0, y, z) * bracket
        return bracket

    h, rt0 = generic(ch), generic(crt)
    assert h and sf_bracket(h, rt0) and sigma_f_bracket(h, rt0)
    # K = 0: g univariate in the shared variable, with h nonzero.
    h_u, rt0_u = sum(ch[i] * u**i for i in range(3)), sum(crt[i] * u**i for i in range(3))
    h_v, rt0_v = at(h_u, v, u), at(rt0_u, v, u)
    assert sf_bracket(h_u, rt0_u) == at(two_variable_test(t, h_u + rt0_u), x, y)
    assert sigma_f_bracket(h_v, rt0_v) == -at(two_variable_test(t, h_v + rt0_v), y, z)
