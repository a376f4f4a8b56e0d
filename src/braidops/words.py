"""Permutations, reduced words, and polynomial tables built by iterated
operator application along reduced words."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations as _permutations
from typing import Sequence

from .braid import family_braid_check
from .families import OperatorFamily
from .multipoly import MultiPoly

__all__ = [
    "Permutation",
    "SizeLimitError",
    "BraidCheckError",
    "TableEntry",
    "reduced_words",
    "apply_word",
    "staircase",
    "polynomial_table",
]

MAX_TABLE_N = 6


class SizeLimitError(ValueError):
    """Enumeration request beyond the supported symmetric-group size."""


class BraidCheckError(RuntimeError):
    """A table was requested for a family that fails the braid relations."""


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1..n} in one-line notation."""

    one_line: tuple[int, ...]

    def __post_init__(self):
        n = len(self.one_line)
        if sorted(self.one_line) != list(range(1, n + 1)):
            raise ValueError(f"{self.one_line} is not a permutation of 1..{n}")

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(1, n + 1)))

    @staticmethod
    def longest(n: int) -> "Permutation":
        return Permutation(tuple(range(n, 0, -1)))

    @staticmethod
    def all(n: int) -> list["Permutation"]:
        return [Permutation(p) for p in _permutations(range(1, n + 1))]

    @property
    def n(self) -> int:
        return len(self.one_line)

    def __call__(self, i: int) -> int:
        return self.one_line[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """(self * other)(i) = self(other(i))."""
        return Permutation(tuple(self(other(i)) for i in range(1, self.n + 1)))

    def inverse(self) -> "Permutation":
        out = [0] * self.n
        for i, v in enumerate(self.one_line, start=1):
            out[v - 1] = i
        return Permutation(tuple(out))

    def length(self) -> int:
        """Number of inversions; equals the length of any reduced word."""
        return _inversions(self.one_line)

    def descents(self) -> list[int]:
        """Indices i with w(i) > w(i+1)."""
        return [i for i in range(1, self.n) if self(i) > self(i + 1)]

    def apply_transposition(self, i: int) -> "Permutation":
        """Right multiplication by s_i (swaps positions i, i+1)."""
        w = list(self.one_line)
        w[i - 1], w[i] = w[i], w[i - 1]
        return Permutation(tuple(w))

    def is_identity(self) -> bool:
        return self.one_line == tuple(range(1, self.n + 1))


def _inversions(w: tuple[int, ...]) -> int:
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])


def reduced_words(w: Permutation) -> list[list[int]]:
    """All reduced words of w: for each right descent i, smallest first, the
    words of w s_i, each followed by i."""
    if w.n > MAX_TABLE_N:
        raise SizeLimitError(f"reduced word enumeration capped at n = {MAX_TABLE_N}")
    if w.is_identity():
        return [[]]
    return [word + [i] for i in w.descents()
            for word in reduced_words(w.apply_transposition(i))]


def apply_word(fam: OperatorFamily, word: Sequence[int], f: MultiPoly) -> MultiPoly:
    """Right-to-left application pi_{w1}(pi_{w2}(...f))."""
    for i in reversed(list(word)):
        f = fam[i].apply(i, f)
    return f


def staircase(n: int) -> MultiPoly:
    """The monomial x1^{n-1} x2^{n-2} ... x_{n-1}."""
    return MultiPoly.monomial(n, tuple(n - k for k in range(1, n + 1)))


@dataclass(frozen=True)
class TableEntry:
    perm: Permutation
    word: tuple[int, ...]
    poly: MultiPoly


def polynomial_table(
    fam: OperatorFamily, seed: MultiPoly | None = None
) -> list[TableEntry]:
    """One polynomial per permutation of S_n, from the seed downward.

    Convention: the entry for w applies the operators along the reduced word
    reduced_words(w^{-1} w0)[0] to the seed (default: the staircase monomial).
    Entries are built down the weak order: entry(w) = pi_i(entry(w s_i)),
    asserted equal for every ascent i of w (n!(n-1)/2 applications).  The
    ascents are the first letters of the reduced words of w^{-1} w0, so by
    induction on length this is agreement across all reduced words.
    """
    n = fam.n
    if n > MAX_TABLE_N:
        raise SizeLimitError(f"tables capped at n = {MAX_TABLE_N}")
    report = family_braid_check(fam) if n >= 3 else None  # S_2 has no braid relation
    if report is not None and not report.passed:
        bad = ", ".join(f"cubic{p}" for p, rep in report.cubic.items() if not rep.passed)
        raise BraidCheckError(
            "family fails the braid relations; table entries would depend "
            f"on the chosen reduced words (failing: {bad})"
        )
    if seed is None:
        seed = staircase(n)
    # One-line tuples by decreasing length; w0, the only longest, comes first,
    # and w s_i for an ascent i, and w' below, are longer than w.
    sweep = sorted(_permutations(range(1, n + 1)), key=_inversions, reverse=True)
    polys, words = {sweep[0]: seed}, {sweep[0]: ()}
    for w in sweep[1:]:
        values = [fam[i].apply(i, polys[w[:i - 1] + (w[i], w[i - 1]) + w[i + 1:]])
                  for i in range(1, n) if w[i - 1] < w[i]]
        if any(p != values[0] for p in values[1:]):
            raise AssertionError(f"reduced-word dependence at {w} despite braid check")
        polys[w] = values[0]
        # The first reduced word of w^{-1} w0 ends in its smallest right
        # descent d = n + 1 - m, m the largest value standing right of m - 1
        # in w; before it comes the word of w' = w with m - 1, m exchanged.
        m = max(m for m in range(2, n + 1) if w.index(m) > w.index(m - 1))
        w_prime = tuple(m - 1 if x == m else m if x == m - 1 else x for x in w)
        words[w] = words[w_prime] + (n + 1 - m,)
    return [TableEntry(perm=Permutation(w), word=words[w], poly=polys[w])
            for w in _permutations(range(1, n + 1))]
