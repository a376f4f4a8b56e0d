"""Permutations, reduced words, and polynomial tables built by iterated
operator application along reduced words."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations as _permutations
from typing import Sequence

from . import multipoly
from .braid import family_braid_check
from .families import OperatorFamily
from .multipoly import MultiPoly, _action, _run_word

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

    @classmethod
    def _of(cls, one_line: tuple[int, ...]) -> "Permutation":
        """The permutation of a tuple that itertools.permutations gave, unchecked."""
        p = object.__new__(cls)
        object.__setattr__(p, "one_line", one_line)
        return p

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(1, n + 1)))

    @staticmethod
    def longest(n: int) -> "Permutation":
        return Permutation(tuple(range(n, 0, -1)))

    @staticmethod
    def all(n: int) -> list["Permutation"]:
        return [Permutation._of(p) for p in _permutations(range(1, n + 1))]

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
    """Right-to-left application pi_{w1}(pi_{w2}(...f)), by the one word loop."""
    return _run_word([(i, fam[i]) for i in word], f, {})


def staircase(n: int) -> MultiPoly:
    """The monomial x1^{n-1} x2^{n-2} ... x_{n-1}."""
    return MultiPoly.monomial(n, tuple(n - k for k in range(1, n + 1)))


@dataclass(frozen=True)
class TableEntry:
    perm: Permutation
    word: tuple[int, ...]
    poly: MultiPoly


def _schedule(n: int) -> list:
    """(w, k, w s_{k+1}, word) for each one-line tuple w != w0 of S_n, in
    descending lexicographic order, in one pass.  word is the first reduced
    word of w^{-1} w0, reduced_words(w^{-1} w0)[0], and k + 1 = word[0].
    word[1:] is the word of w s_{k+1}, by induction on length: the last
    letter of a first word is its smallest right descent, and for a left
    descent i of v each right descent of s_i v is one of v.  k + 1 is an
    ascent of w, so w s_{k+1} puts the larger of w(k+1), w(k+2) first, and
    w' below puts m before m - 1: both are lexicographically larger and come
    earlier."""
    sweep = _permutations(range(n, 0, -1))
    words, schedule, at = {next(sweep): ()}, [], [0] * (n + 1)  # at[v]: v's position in w
    for w in sweep:
        for k, v in enumerate(w):
            at[v] = k
        # The first reduced word ends in its smallest right descent
        # n + 1 - m, m the largest value standing right of m - 1 in w;
        # before it comes the word of w' = w with m - 1, m exchanged.
        m = n
        while at[m] < at[m - 1]:
            m -= 1
        w_prime = list(w)
        w_prime[at[m]], w_prime[at[m - 1]] = m - 1, m
        word = words[w] = words[tuple(w_prime)] + (n + 1 - m,)
        k = word[0] - 1
        schedule.append((w, k, w[:k] + (w[k + 1], w[k]) + w[k + 2:], word))
    return schedule


def polynomial_table(
    fam: OperatorFamily, seed: MultiPoly | None = None
) -> list[TableEntry]:
    """One polynomial per permutation of S_n, from the seed downward.

    Convention: the entry for w applies the operators along the reduced word
    reduced_words(w^{-1} w0)[0] to the seed (default: the staircase monomial).
    Entries are built down the weak order of _schedule, one application each
    (n! - 1 in all): entry(w) = pi_{word[0]}(entry(w s_{word[0]})), whose
    entry applies word[1:], so each entry is its own word applied to the
    seed.  The family must pass its braid check first; Matsumoto's theorem
    then makes every reduced word give the same entry.  Each application is
    one multipoly._apply with the action of fam[i], prepared once per
    operator object; the schedule is built afresh on every call.
    """
    n = fam.n
    if n > MAX_TABLE_N:
        raise SizeLimitError(f"tables capped at n = {MAX_TABLE_N}")
    if seed is None:
        seed = staircase(n)
    elif seed.n_vars < n:
        raise IndexError(f"operator index {n - 1} out of range 1..{seed.n_vars - 1}")
    report = family_braid_check(fam) if n >= 3 else None  # S_2 has no braid relation
    if report is not None and not report.passed:
        bad = ", ".join(f"cubic{p}" for p, rep in report.cubic.items() if not rep.passed)
        raise BraidCheckError(
            "family fails the braid relations; table entries would depend "
            f"on the chosen reduced words (failing: {bad})"
        )
    apply, actions = multipoly._apply, {}  # looked up on each call, so a patched _apply is used
    acts = [_action(op, actions) for op in fam.ops]  # acts[k] acts at positions k, k + 1
    w0 = Permutation.longest(n)
    polys, schedule = {w0.one_line: seed}, _schedule(n)
    for w, k, parent, _ in schedule:
        polys[w] = apply(polys[parent], k, acts[k])
    entries = [TableEntry(Permutation._of(w), word, polys[w]) for w, _, _, word in reversed(schedule)]
    return entries + [TableEntry(w0, (), seed)]
