"""Tests for permutations, reduced words, and table generation."""

import random

import pytest

from braidops import sampling, words
from braidops.braid import FamilyReport
from braidops.families import Case2Line, OperatorFamily, main_case2, preset
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

    def test_one_application_per_ascent(self, monkeypatch):
        calls = []
        apply = PDDO.apply

        def counting_apply(self, i, f):
            calls.append(i)
            return apply(self, i, f)

        monkeypatch.setattr(PDDO, "apply", counting_apply)
        polynomial_table(preset("grothendieck", 4, 1))
        assert len(calls) == 36  # n!(n-1)/2 at n = 4

    @pytest.mark.parametrize("n", [3, 4])
    def test_ascent_audit_catches_a_non_braid_family(self, n, monkeypatch):
        # Past a braid check that wrongly passes, the audit must still see
        # that different reduced words give different entries.
        dem = preset("demazure", n)
        h = SlotPoly.u()
        ops = list(dem.ops)
        ops[0] = PDDO(ops[0].T + h, ops[0].Q0 + h)
        bad = OperatorFamily(n, tuple(ops))
        monkeypatch.setattr(words, "family_braid_check", lambda fam: FamilyReport())
        with pytest.raises(AssertionError, match="reduced-word dependence"):
            polynomial_table(bad)
