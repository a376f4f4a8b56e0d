"""Tests for permutations, reduced words, and table generation."""

import gc
import itertools
import math
import random

import pytest

from braidops import multipoly, sampling, words
from braidops.braid import FamilyReport
from braidops.families import Case2Line, OperatorFamily, main_case1, main_case2, preset
from braidops.multipoly import MultiPoly, SlotPoly
from braidops.pddo import PDDO
from braidops.words import (
    BraidCheckError,
    Permutation,
    SizeLimitError,
    apply_word,
    polynomial_table,
    reduced_words,
    staircase,
)
from combinatorial_reference import grothendieck, inverse, key


class TestPermutation:
    def test_validation(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 2))

    def test_composition_and_inverse(self):
        w = Permutation((2, 3, 1))
        assert w * w.inverse() == Permutation.identity(3)
        assert w.inverse() * w == Permutation.identity(3)
        assert (w * w).one_line == (3, 1, 2)

    def test_length_counts_inversions(self):
        assert Permutation.identity(4).length() == 0
        assert Permutation.longest(4).length() == 6
        assert Permutation((2, 1, 3)).length() == 1

    def test_descents(self):
        assert Permutation.longest(3).descents() == [1, 2]
        assert Permutation((1, 3, 2)).descents() == [2]

    def test_all_enumerates_the_group(self):
        assert len(Permutation.all(4)) == 24


class TestReducedWords:
    def test_identity(self):
        assert reduced_words(Permutation.identity(3)) == [[]]

    def test_simple_transposition(self):
        assert reduced_words(Permutation((2, 1, 3))) == [[1]]

    def test_longest_element_of_s3(self):
        words = sorted(reduced_words(Permutation.longest(3)))
        assert words == [[1, 2, 1], [2, 1, 2]]

    def test_counts_match_brute_force(self):
        # The longest element of S4 has 16 reduced words.
        assert len(reduced_words(Permutation.longest(4))) == 16

    def test_size_cap(self):
        with pytest.raises(SizeLimitError):
            reduced_words(Permutation.identity(7))


class TestApplyWord:
    def test_empty_word_is_identity(self):
        fam = preset("demazure", 3)
        f = staircase(3)
        assert apply_word(fam, [], f) == f

    def test_single_letter(self):
        fam = preset("pure_ddiff", 3)
        f = MultiPoly.monomial(3, (2, 0, 0))
        expected = MultiPoly.variable(3, 1) + MultiPoly.variable(3, 2)
        assert apply_word(fam, [1], f) == expected

    def test_braid_equivalent_words_agree(self):
        fam = preset("demazure", 3)
        f = staircase(3)
        assert apply_word(fam, [1, 2, 1], f) == apply_word(fam, [2, 1, 2], f)

    def test_rightmost_letter_applied_first(self):
        fam = preset("pure_ddiff", 3)
        f = staircase(3)  # x1^2 x2
        # [1, 2] means d1 (d2 f); d2(x1^2 x2) = x1^2, then d1 -> x1 + x2.
        expected = MultiPoly.variable(3, 1) + MultiPoly.variable(3, 2)
        assert apply_word(fam, [1, 2], f) == expected

    def test_one_action_per_operator_object(self, monkeypatch):
        """The word loop prepares one action per distinct operator object and
        gives what letter-by-letter PDDO.apply gives."""
        fam = main_case2(4, 1, 2, 1, 2, [Case2Line.LINE1, Case2Line.LINE4, Case2Line.LINE1])
        word, f = [1, 2, 3, 1, 2, 1, 3], staircase(4)
        expected = f
        for i in reversed(word):
            expected = fam[i].apply(i, expected)
        built = []
        real = multipoly._Action.__init__

        def counting(self, q0, r0):
            built.append((q0, r0))
            real(self, q0, r0)

        monkeypatch.setattr(multipoly._Action, "__init__", counting)
        assert apply_word(fam, word, f) == expected
        assert len(built) == len({id(op) for op in fam.ops}) == 2

    def test_index_beyond_the_polynomial_keeps_the_apply_message(self):
        fam = preset("demazure", 4)
        with pytest.raises(IndexError, match=r"^operator index 3 out of range 1\.\.1$"):
            apply_word(fam, [3], MultiPoly.variable(2, 1))


class TestTable:
    def test_schubert_values(self):
        table = polynomial_table(preset("pure_ddiff", 3))
        x1 = MultiPoly.variable(3, 1)
        x2 = MultiPoly.variable(3, 2)
        expected = {
            (1, 2, 3): MultiPoly.const(3, 1),
            (1, 3, 2): x1 + x2,
            (2, 1, 3): x1,
            (2, 3, 1): x1 * x2,
            (3, 1, 2): x1 * x1,
            (3, 2, 1): x1 * x1 * x2,
        }
        assert {e.perm.one_line: e.poly for e in table} == expected

    def test_demazure_table_gives_key_polynomials(self):
        key = {
            e.perm.one_line: e.poly for e in polynomial_table(preset("demazure", 3))
        }
        # Demazure operators preserve degree, so every entry stays degree 3.
        assert all(p.degree() == 3 for p in key.values())
        assert key[(3, 2, 1)] == staircase(3)
        # The identity entry is the full symmetrization of the staircase,
        # the Schur polynomial of shape (2, 1) in three variables.
        schur_21 = MultiPoly(
            3,
            {
                (2, 1, 0): 1, (2, 0, 1): 1, (1, 2, 0): 1, (0, 2, 1): 1,
                (1, 0, 2): 1, (0, 1, 2): 1, (1, 1, 1): 2,
            },
        )
        assert key[(1, 2, 3)] == schur_21

    def test_braid_failure_aborts(self):
        dem = preset("demazure", 3)
        bad_op = PDDO.from_pqrs(
            SlotPoly.u() * SlotPoly.u(), SlotPoly.zero(), SlotPoly.zero(),
            SlotPoly.zero(),
        )
        bad = OperatorFamily(3, (dem[1], bad_op))
        with pytest.raises(BraidCheckError):
            polynomial_table(bad)

    def test_size_cap(self):
        with pytest.raises(SizeLimitError):
            polynomial_table(preset("demazure", 7))

    def test_custom_seed(self):
        seed = MultiPoly.const(3, 1)
        table = polynomial_table(preset("pure_ddiff", 3), seed)
        # Divided differences kill constants except at the longest element.
        for entry in table:
            if entry.perm == Permutation.longest(3):
                assert entry.poly == seed
            else:
                assert entry.poly.is_zero()


def _reduced_word_table(fam, seed):
    """Reference construction: apply every reduced word of w^{-1} w0 to the
    seed, require agreement, and report the first word.  Words that end
    alike share the application of that ending."""
    applied = {(): seed}

    def apply(word):
        if word not in applied:
            applied[word] = apply_word(fam, word[:1], apply(word[1:]))
        return applied[word]

    w0 = Permutation.longest(fam.n)
    table = {}
    for w in Permutation.all(fam.n):
        ws = [tuple(word) for word in reduced_words(w.inverse() * w0)]
        polys = [apply(word) for word in ws]
        assert all(p == polys[0] for p in polys)
        table[w.one_line] = (ws[0], polys[0])
    return table


def _first_word(v):
    """reduced_words(v)[0] with no enumeration: the first word of v s_d, then
    d, for the smallest right descent d of v."""
    if v.is_identity():
        return []
    d = v.descents()[0]
    return _first_word(v.apply_transposition(d)) + [d]


def _family(kind, n):
    if kind == "case2-mixed":
        lines = [Case2Line.LINE1, Case2Line.LINE4, Case2Line.LINE2][: n - 1]
        return main_case2(n, 1, 2, 1, 2, lines)
    return preset(kind, n, 1 if kind == "grothendieck" else None)


class TestTableAgainstReducedWords:
    # At n = 5 a case2 reference makes 3,060 applications to polynomials of up
    # to 2,000 terms, about 35 s, so case2-mixed stops at n = 4.
    @pytest.mark.parametrize("kind,n", [
        (kind, n) for n in (2, 3, 4, 5)
        for kind in ("pure_ddiff", "demazure", "grothendieck", "case2-mixed", "dense")
        if (kind, n) != ("case2-mixed", 5)
    ])
    def test_entries_and_words_match(self, kind, n):
        if kind == "dense":
            fam = preset("pure_ddiff", n)
            seed = sampling.random_multipoly(random.Random(n), n, 4, 8)
        else:
            fam, seed = _family(kind, n), staircase(n)
        table = polynomial_table(fam, seed)
        assert [e.perm for e in table] == Permutation.all(n)
        got = {e.perm.one_line: (e.word, e.poly) for e in table}
        assert got == _reduced_word_table(fam, seed)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_sweep_puts_each_predecessor_first(self, n):
        """polynomial_table sweeps S_n in descending lexicographic order, from
        w0; there, for every w, each ascent successor w s_i and the w' whose
        word precedes w's last letter come before w."""
        sweep = list(itertools.permutations(range(n, 0, -1)))
        assert sweep[0] == Permutation.longest(n).one_line
        assert sorted(sweep, reverse=True) == sweep
        position = {w: k for k, w in enumerate(sweep)}
        for w in sweep[1:]:
            for i in range(1, n):
                if w[i - 1] < w[i]:
                    ws = Permutation(w).apply_transposition(i).one_line
                    assert position[ws] < position[w]
            m = max(m for m in range(2, n + 1) if w.index(m) > w.index(m - 1))
            w_prime = tuple({m: m - 1, m - 1: m}.get(x, x) for x in w)
            assert position[w_prime] < position[w]

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_schedule_gives_each_entry_its_parent_and_first_word(self, n):
        """_schedule lists S_n but w0 in the sweep's order with, for each w,
        the word reduced_words(w^{-1} w0)[0], its first letter k + 1 and the
        parent w s_{k+1}, whose word is word[1:].  At n >= 6 that enumeration
        is too large, so the word is read by its recursion on the smallest
        right descent, which agrees with it at n <= 5."""
        w0 = Permutation.longest(n)
        schedule = words._schedule(n)
        assert [w for w, _, _, _ in schedule] == list(itertools.permutations(range(n, 0, -1)))[1:]
        row_words = {w0.one_line: ()}
        for w, k, parent, word in schedule:
            perm = Permutation(w)
            assert k + 1 == word[0]
            assert parent == perm.apply_transposition(k + 1).one_line
            assert word[1:] == row_words[parent]
            row_words[w] = word
            v = perm.inverse() * w0
            first = _first_word(v)
            assert word == tuple(first)
            if n <= 5:
                assert first == reduced_words(v)[0]

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_one_application_per_entry(self, n, monkeypatch):
        """A table, braid check included, makes one operator application per
        entry but w0's, n! - 1 in all."""
        calls = []
        apply = multipoly._apply

        def counting_apply(f, k, action):
            calls.append(k)
            return apply(f, k, action)

        monkeypatch.setattr(multipoly, "_apply", counting_apply)
        polynomial_table(preset("grothendieck", n, 1))
        assert len(calls) == math.factorial(n) - 1

    @pytest.mark.parametrize("n", [3, 4])
    def test_each_entry_applies_its_own_word(self, n, monkeypatch):
        """Past a braid check that wrongly passes, different reduced words give
        different entries, and each entry is still its own JSON word applied
        to the seed."""
        dem = preset("demazure", n)
        h = SlotPoly.u()
        ops = list(dem.ops)
        ops[0] = PDDO(ops[0].T + h, ops[0].Q0 + h)
        bad = OperatorFamily(n, tuple(ops))
        monkeypatch.setattr(words, "family_braid_check", lambda fam: FamilyReport())
        seed = staircase(n)
        table = polynomial_table(bad, seed)
        assert [e.perm for e in table] == Permutation.all(n)
        assert all(e.poly == apply_word(bad, e.word, seed) for e in table)
        assert apply_word(bad, [1, 2, 1], seed) != apply_word(bad, [2, 1, 2], seed)


class TestTableActions:
    """The table sweep keeps one action per operator for the length of the
    call and no longer; the operators themselves keep nothing."""

    def test_no_action_outlives_the_table(self, monkeypatch):
        """No action built during a table, by the braid check or the sweep,
        is alive once it returns.  An _Action takes no weak reference (its
        __slots__ hold none), so survivors are looked for among the objects
        the garbage collector tracks."""
        fam = main_case2(4, 1, 2, 1, 2, [Case2Line.LINE1, Case2Line.LINE3, Case2Line.LINE4])
        built, init = set(), multipoly._Action.__init__

        def recording_init(self, q0, r0):
            built.add(id(self))
            init(self, q0, r0)

        monkeypatch.setattr(multipoly._Action, "__init__", recording_init)
        table = polynomial_table(fam)
        assert len(table) == 24 and len(built) >= 3
        gc.collect()
        assert not [o for o in gc.get_objects()
                    if type(o) is multipoly._Action and id(o) in built]

    def test_each_image_is_built_once_per_table(self, monkeypatch):
        """Within one table each action builds the image of a monomial at
        most once, and a second table of the same family builds the same
        images again: nothing is carried from one table to the next."""
        fam = preset("grothendieck", 4, 1)
        builds, build = [], multipoly._Action.build

        def recording_build(self, rs):
            builds.append((self, rs))  # holding self keeps its id from reuse
            return build(self, rs)

        monkeypatch.setattr(multipoly._Action, "build", recording_build)
        per_table = []
        for _ in range(2):
            builds.clear()
            polynomial_table(fam)
            assert len({(id(act), rs) for act, rs in builds}) == len(builds) > 0
            per_table.append(sorted(rs for _, rs in builds))
        assert per_table[0] == per_table[1]

    def test_a_seed_with_too_few_variables_is_refused_first(self, monkeypatch):
        """A seed in fewer than n variables raises IndexError once, before the
        braid check and before any operator is applied."""
        def no_check(fam):
            raise AssertionError("braid check ran")

        monkeypatch.setattr(words, "family_braid_check", no_check)
        with pytest.raises(IndexError, match=r"operator index 3 out of range 1\.\.2"):
            polynomial_table(preset("demazure", 4), staircase(3))
        with pytest.raises(IndexError, match=r"operator index 1 out of range 1\.\.0"):
            polynomial_table(preset("demazure", 2), MultiPoly.const(1, 1))


HECKE_FAMILIES = {
    "pure_ddiff": lambda n: preset("pure_ddiff", n, 2),
    "demazure": lambda n: preset("demazure", n),
    "grothendieck-rational": lambda n: preset("grothendieck", n, "-2/3"),
    "grothendieck-zeta": lambda n: preset("grothendieck", n, "1/2+1z"),
    "case1": lambda n: main_case1(n, 1, 2, 1, 2, 3),
    "case2-mixed": lambda n: main_case2(
        n, 1, 2, 1, 2, [Case2Line.LINE1, Case2Line.LINE3, Case2Line.LINE4][: n - 1]),
}


def _hecke_identities(fam, shift=0):
    """For every ascent i of every w in the table of fam, E_{w s_i} and
    whether pi_i E_w == mu E_w + (nu + shift) E_{w s_i}, (mu, nu) the Hecke
    parameters of pi_i."""
    table = {e.perm: e.poly for e in polynomial_table(fam)}
    params = {i: fam[i].hecke_params() for i in range(1, fam.n)}
    assert None not in params.values()
    results = []
    for w, poly in table.items():
        for i in range(1, fam.n):
            if w(i) < w(i + 1):
                mu, nu = params[i]
                longer = table[w.apply_transposition(i)]
                applied = fam[i].apply(i, poly)
                results.append((longer, applied == poly.scale(mu) + longer.scale(nu + shift)))
    return results


class TestHeckeRepresentation:
    """E_w = pi_i E_{w s_i} for an ascent i of w, so pi_i^2 = mu pi_i + nu
    gives pi_i E_w = mu E_w + nu E_{w s_i}: the table entries span a
    representation of the Hecke algebra."""

    # At n = 5 the case1 and case2 tables take 2.5-2.8 s each, so they stop
    # at n = 4.
    @pytest.mark.parametrize("kind,n", [
        (kind, n) for n in (3, 4, 5) for kind in HECKE_FAMILIES
        if n < 5 or not kind.startswith("case")
    ])
    def test_every_ascent_satisfies_the_quadratic_relation(self, kind, n):
        results = _hecke_identities(HECKE_FAMILIES[kind](n))
        assert len(results) == math.factorial(n) * (n - 1) // 2
        assert all(holds for _, holds in results)

    @pytest.mark.parametrize("kind", HECKE_FAMILIES)
    def test_a_wrong_nu_fails(self, kind):
        # nu + 1 adds E_{w s_i}, so exactly the ascents where it is nonzero fail.
        results = _hecke_identities(HECKE_FAMILIES[kind](3), shift=1)
        assert any(longer for longer, _ in results)
        assert all(holds == (not longer) for longer, holds in results)


def _rational_table(fam) -> dict:
    """{one-line w: entry as {exponents: Fraction}}; the presets are rational."""
    out = {}
    for entry in polynomial_table(fam):
        terms = entry.poly.terms
        assert not any(c.zeta_part for c in terms.values())
        out[entry.perm.one_line] = {e: c.rat_part for e, c in terms.items()}
    return out


class TestTableAgainstCombinatorics:
    """The table convention means: entry w of pure_ddiff is the Schubert
    polynomial of w, of grothendieck(beta) the beta-Grothendieck polynomial of
    w, and of demazure the key polynomial of (w(1) - 1, ..., w(n) - 1).  The
    formulas in combinatorial_reference share no code with the library."""

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_pure_ddiff_gives_schubert_polynomials(self, n):
        schubert = grothendieck(n, 0)
        table = _rational_table(preset("pure_ddiff", n, 1))
        assert table == {w: schubert.get(w, {}) for w in table}
        # Negative control: the pipe-dream sum indexed by w^{-1}.
        assert table != {w: schubert.get(inverse(w), {}) for w in table}

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("beta", [1, -1, 2])
    def test_grothendieck_gives_beta_grothendieck_polynomials(self, n, beta):
        expected = grothendieck(n, beta)
        table = _rational_table(preset("grothendieck", n, beta))
        assert table == {w: expected.get(w, {}) for w in table}
        assert table != {w: expected.get(inverse(w), {}) for w in table}

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_demazure_gives_key_polynomials(self, n):
        table = _rational_table(preset("demazure", n))
        assert table == {w: key(tuple(x - 1 for x in w)) for w in table}
        if n >= 3:
            # Negative control: a_j = delta_{v(j)} = n - v(j), v = w^{-1} w0.
            assert table != {w: key(tuple(n - inverse(w)[n - j] for j in range(1, n + 1)))
                             for w in table}
