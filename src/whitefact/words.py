"""Reduced words: normal forms for elements of the free product.

A word is an alternating sequence of nontrivial factor elements, read as a
product left to right.  The empty word is the group identity.  Reduction
merges adjacent same-factor syllables and drops identities, which yields
the unique normal form of the free product.  normal_form is the one loop
that does so: the wire decoder hands it its letters, and only the
Whitehead kernel (autos._push_move) keeps a one-pass loop of its own.

A syllable is a plain (factor, payload) tuple.  factors.FactorElement is
the public constructor and equals, and hashes like, that tuple; every
syllable the engine builds is the exact tuple, because CPython specializes
indexing and unpacking on exact tuples only, and hot loops read f, p = s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import OracleUnavailableError, SystemMismatchError
from .factors import FactorSystem


@dataclass(frozen=True)
class Word:
    system: FactorSystem
    syllables: tuple[tuple[int, int], ...]

    def syllable_count(self) -> int:
        return len(self.syllables)

    def leading_factor(self) -> int | None:
        return self.syllables[0][0] if self.syllables else None

    def trailing_factor(self) -> int | None:
        return self.syllables[-1][0] if self.syllables else None

    def is_identity(self) -> bool:
        return not self.syllables

    def inverse(self) -> "Word":
        inv = self.system.inverse
        return Word(self.system, tuple(inv(s) for s in reversed(self.syllables)))

    def __mul__(self, other: "Word") -> "Word":
        return word_mul(self, other)

    def __str__(self) -> str:
        if not self.syllables:
            return "1"
        parts = []
        for f, p in self.syllables:
            parts.append(f"{f}:{self.system.factor(f).element_name(p)}")
        return ".".join(parts)


def _check_same_system(u: Word, v: Word) -> None:
    if u.system is not v.system and u.system != v.system:
        raise SystemMismatchError("words belong to different factor systems")


def normal_form(system: FactorSystem, letters: Iterable[tuple[int, int]]) -> Word:
    """Reduce a letter sequence to the unique normal form of its product;
    unmerged letters are kept as given, merged ones built as exact tuples."""
    backends = system.backends
    ident = system.identity_payloads
    n = system.n
    out: list[tuple[int, int]] = []
    for s in letters:
        f, p = s
        if not 0 < f <= n:
            system.factor(f)  # raises FactorMismatchError
        e = ident[f - 1]
        if p == e:
            continue
        if out and out[-1][0] == f:
            merged = backends[f - 1].op(out[-1][1], p)
            if merged == e:
                out.pop()
            else:
                out[-1] = (f, merged)
        else:
            out.append(s)
    return Word(system, tuple(out))


def split_own_head(w: Word, j: int) -> tuple[tuple[int, int] | None, Word]:
    """(b, r) with w = b . r: b is w's leading G_j syllable (None when it has
    none) and r the canonical rep of the right coset G_j w."""
    if w.syllables and w.syllables[0][0] == j:
        return w.syllables[0], Word(w.system, w.syllables[1:])
    return None, w


def word(system: FactorSystem, pairs: Sequence[tuple[int, int]]) -> Word:
    """Build a word from (factor, payload) pairs, normalizing payloads."""
    return normal_form(system, [system.element(f, p) for f, p in pairs])


def empty_word(system: FactorSystem) -> Word:
    return Word(system, ())


def letter(system: FactorSystem, element: tuple[int, int]) -> Word:
    if system.is_identity(element):
        return Word(system, ())
    f, p = element
    return Word(system, ((f, p),))


def word_mul(u: Word, v: Word) -> Word:
    _check_same_system(u, v)
    if not u.syllables:
        return v
    if not v.syllables:
        return u
    return normal_form(u.system, u.syllables + v.syllables)


def enumerate_words(system: FactorSystem, max_syllables: int) -> Iterator[Word]:
    """Yield every reduced word with at most the given syllable count.

    Requires finite factors.  Output order: by length, then factor index,
    then payload, so the enumeration is deterministic.
    """
    if not system.all_finite:
        raise OracleUnavailableError("oracle requires finite factors")
    frontier = [empty_word(system)]
    yield frontier[0]
    for _ in range(max_syllables):
        new_frontier = []
        for w in frontier:
            last = w.trailing_factor()
            for i in range(1, system.n + 1):
                if i == last:
                    continue
                for payload in system.nontrivial_payloads(i):
                    extended = Word(system, w.syllables + ((i, payload),))
                    new_frontier.append(extended)
                    yield extended
        frontier = new_frontier
