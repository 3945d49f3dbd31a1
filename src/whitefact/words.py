"""Reduced words: normal forms for elements of the free product.

A word is an alternating sequence of nontrivial factor elements, read as a
product left to right.  The empty word is the group identity.  Reduction
merges adjacent same-factor syllables and drops identities, which yields
the unique normal form of the free product.  normal_form is the one loop
that does so: the wire decoder and the image core _image hand it their
letters, and only the Whitehead kernel (autos._push_moves) and the seam
product _join, whose inputs are reduced already, keep loops of their own.

A syllable is a plain (factor, payload) tuple.  factors.FactorElement is
the public constructor and equals, and hashes like, that tuple; every
syllable the engine builds is the exact tuple, because CPython specializes
indexing and unpacking on exact tuples only, and hot loops read f, p = s.

Every product u . v^-1 in labellings, explorer and autos is one rule,
right_divide, on syllable tuples: it cancels the common suffix and makes at
most one merge, so it needs no normal_form.  A product a . b of reduced
words, word_mul too, is _join: it cancels at the seam and makes at most
one merge after the cancellations.  An image head . psi(w) is _image, one
normal_form pass, for apply, compose and act_on_label alike.  The engine
computes on syllable tuples; Word, a frozen slotted dataclass, is built
only for a value that is handed back.  _same_system is every public check
that two values share a factor system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import OracleUnavailableError, SystemMismatchError
from .factors import FactorSystem


@dataclass(frozen=True)
class Word:
    """A reduced word over system.  Slots are declared by hand: with
    slots=True, assigning a name that is no field raises TypeError, not
    AttributeError (CPython 3.10-3.13).  Unpickling would set the slots by
    setattr, which a frozen class refuses, hence __reduce__."""

    __slots__ = ("system", "syllables")
    system: FactorSystem
    syllables: tuple[tuple[int, int], ...]

    def __reduce__(self):
        return Word, (self.system, self.syllables)

    def syllable_count(self) -> int:
        return len(self.syllables)

    def leading_factor(self) -> int | None:
        return self.syllables[0][0] if self.syllables else None

    def trailing_factor(self) -> int | None:
        return self.syllables[-1][0] if self.syllables else None

    def is_identity(self) -> bool:
        return not self.syllables

    def inverse(self) -> "Word":
        inverses = self.system.inverses
        return Word(self.system, tuple(map(inverses.__getitem__, reversed(self.syllables))))

    def __mul__(self, other: "Word") -> "Word":
        return word_mul(self, other)

    def __str__(self) -> str:
        names = (f"{f}:{self.system.factor(f).element_name(p)}" for f, p in self.syllables)
        return ".".join(names) or "1"


def _same_system(system: FactorSystem, other: FactorSystem, message: str) -> None:
    """Raise SystemMismatchError(message) unless other is system or equals
    it; identity first, since the values of one system share its object."""
    if other is not system and other != system:
        raise SystemMismatchError(message)


def _syllables_in(system: FactorSystem, w: Word) -> tuple[tuple[int, int], ...]:
    """w's syllables, checked to belong to system: _same_system inlined for the keys."""
    if w.system is not system and w.system != system:
        raise SystemMismatchError("words belong to different factor systems")
    return w.syllables


def normal_form(system: FactorSystem, letters: Iterable[tuple[int, int]]) -> Word:
    """Reduce a letter sequence to the unique normal form of its product;
    unmerged letters are kept as given, merged ones built as exact tuples."""
    return Word(system, _normal_form(system, letters))


def _normal_form(system: FactorSystem, letters: Iterable[tuple[int, int]]) -> tuple:
    """normal_form's syllables."""
    backends = system.backends
    ident = system.identity_payloads
    n = system.n
    out: list[tuple[int, int]] = []
    for s in letters:
        f, p = s
        try:  # as in FactorSystem.factor: a str fails here, a float at the index
            if not 0 < f <= n or f is True:
                system.factor(f)  # raises FactorMismatchError
            e = ident[f - 1]
        except TypeError:
            system.factor(f)
            raise
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
    return tuple(out)


def _image(system: FactorSystem, parts, head: tuple, syllables: tuple) -> tuple:
    """The syllables of head . psi(w), for head and w given as syllables and
    psi by its parts (phi_k, g_k): one _normal_form pass over head and each
    syllable s's g_k^-1 phi_k(s) g_k, s in G_k.  The caller checks that head
    and w belong to system."""
    letters = list(head)
    for s in syllables:
        part, conj = parts[s[0] - 1]
        letters += right_divide(system, (), conj.syllables)
        letters.append(system.part_apply(part, s))
        letters += conj.syllables
    return _normal_form(system, letters)


def right_divide(
    system: FactorSystem, a: tuple[tuple[int, int], ...], b: tuple[tuple[int, int], ...]
) -> tuple[tuple[int, int], ...]:
    """The syllables of a . b^-1 for the syllables a and b of reduced words.

    Past their common suffix, a and b end in different syllables, or one of
    them is empty.  Only those last syllables meet, and only when they lie
    in one factor; then their quotient is nontrivial, and its neighbours lie
    in other factors, so nothing cascades.  The caller checks that a and b
    belong to system (_syllables_in).  Kept, measured: its own loop; as _join
    onto the inverted b, factorize ran about 8 % and explore 15 % slower."""
    if not b:
        return a
    if a and a[-1] == b[-1]:
        k, m = 1, min(len(a), len(b))
        while k < m and a[-k - 1] == b[-k - 1]:
            k += 1
        a, b = a[:-k], b[:-k]
        if not b:
            return a
    tail = tuple(map(system.inverses.__getitem__, reversed(b)))
    if a and a[-1][0] == tail[0][0]:
        f = tail[0][0]
        merged = system.backends[f - 1].op(a[-1][1], tail[0][1])
        return a[:-1] + ((f, merged),) + tail[1:]
    return a + tail


def _join(system: FactorSystem, a: tuple, b: tuple) -> tuple:
    """The syllables of a . b for the syllables a and b of reduced words.

    Only the seam can cancel: while the last syllable of a and the first of
    b are mutually inverse they cancel, and the next pair meets.  The first
    pair in different factors ends it, and so does the first pair in one
    factor that does not cancel, after one merge: its neighbours lie in
    other factors.  This is the normal form of a + b, with no normal_form
    pass over either word.
    """
    if not a or not b or a[-1][0] != b[0][0]:
        return a + b
    k, m = 0, min(len(a), len(b))
    while k < m:
        f, x = a[-k - 1]
        if b[k][0] != f:
            break
        merged = system.backends[f - 1].op(x, b[k][1])
        if merged != system.identity_payloads[f - 1]:
            return a[: len(a) - k - 1] + ((f, merged),) + b[k + 1 :]
        k += 1
    return a[: len(a) - k] + b[k:]


def split_own_head(w: Word, j: int) -> tuple[tuple[int, int] | None, Word]:
    """(b, r) with w = b . r: b is w's leading G_j syllable (None when it has
    none) and r the canonical rep of the right coset G_j w."""
    b, r = _split_head(w.syllables, j)
    return (None, w) if b is None else (b, Word(w.system, r))


def _split_head(s: tuple, j: int) -> tuple[tuple[int, int] | None, tuple]:
    """split_own_head on syllable tuples."""
    if s and s[0][0] == j:
        return s[0], s[1:]
    return None, s


def word(system: FactorSystem, pairs: Sequence[tuple[int, int]]) -> Word:
    """Build a word from (factor, payload) pairs, normalizing payloads."""
    return normal_form(system, [system.element(f, p) for f, p in pairs])


def empty_word(system: FactorSystem) -> Word:
    return Word(system, ())


def letter(system: FactorSystem, element: tuple[int, int]) -> Word:
    """The word of one element, its payload normalized (system.element)."""
    element = system.element(*element)
    return Word(system, () if system.is_identity(element) else (element,))


def word_mul(u: Word, v: Word) -> Word:
    return Word(u.system, _join(u.system, u.syllables, _syllables_in(u.system, v)))


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
