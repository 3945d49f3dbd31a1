"""Graph-of-groups labellings of the two star shapes, and their volumes.

A star labelling assigns the conjugate G_j^{g_j} to the j-th leaf of the
star with a trivial hub; an apex labelling puts one factor at the hub
instead.  Slot words are stored coset-canonically (leading syllable of the
slot's own factor absorbed).

Class identity is decided by one hashable key per class kind, so two
labellings are equivalent exactly when their keys are equal:

- star_key translates L by g_L = g_1^-1 a^-1, where a is the trailing G_1
  syllable of g_2 g_1^-1, and takes the canonical slots.  Slot 1 is pinned:
  the translates with slot 1 in G_1 are g_1^-1 G_1.  Among them only g_L
  leaves slot 2's coset rep ending in no G_1 syllable, because the
  G_1-stabilizer of slot 2's core is trivial (conjugates of distinct
  factors meet trivially).  So every member of a class reaches the same
  translate, and the key is complete.  Equal keys certify the witness
  g = g_{L1} g_{L2}^-1 on their own: slot j of L1 . g_{L1} and of
  L2 . g_{L2} differ by a G_j syllable on the left, so L1_j . g is that
  G_j element times L2_j and conjugates G_j onto the same subgroup.
- apex_key is the apex i plus, for each other slot j, the double-coset
  core of g_j g_i^-1.  Translating by g_i^-1 puts G_i itself at the hub;
  the remaining freedom is G_j on the left of slot j and G_i on its right,
  independently per slot, so equivalence is the equality of the double
  cosets G_j (g_j g_i^-1) G_i, and the core names each one.

The double-coset core rule underpins both keys: stripping at most one
leading G_j syllable and one trailing G_i syllable from a normal form
yields a canonical representative of the double coset G_j w G_i.

Translating a tuple by g has one rule, _translate: slot j times g splits
into its leading G_j syllable and the canonical slot.  star_key,
star_equivalent, is_base, volume at a basepoint and the splits in autos
all read it, lazily, so a decision stops at the first core that settles it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterator, Sequence

from .errors import SystemMismatchError
from .factors import FactorSystem
from .words import Word, empty_word, split_own_head


@dataclass(frozen=True)
class StarLabel:
    """Conjugator tuple (g_1, ..., g_n): the labelling with trivial hub."""

    system: FactorSystem
    conjugators: tuple[Word, ...]

    def slot(self, j: int) -> Word:
        return self.conjugators[j - 1]


@dataclass(frozen=True)
class ApexLabel:
    """Conjugator tuple plus the index of the factor sitting at the hub."""

    system: FactorSystem
    apex: int
    conjugators: tuple[Word, ...]

    def slot(self, j: int) -> Word:
        return self.conjugators[j - 1]


def _canonical_slots(system: FactorSystem, words: Sequence[Word]) -> tuple[Word, ...]:
    if len(words) != system.n:
        raise ValueError(f"expected {system.n} slot words, got {len(words)}")
    slots = []
    for j, w in enumerate(words, start=1):
        if w.system != system:
            raise SystemMismatchError("slot word from a different factor system")
        slots.append(split_own_head(w, j)[1])
    return tuple(slots)


def star_label(system: FactorSystem, words: Sequence[Word]) -> StarLabel:
    return StarLabel(system, _canonical_slots(system, words))


def apex_label(system: FactorSystem, apex: int, words: Sequence[Word]) -> ApexLabel:
    system.factor(apex)
    return ApexLabel(system, apex, _canonical_slots(system, words))


def base_label(system: FactorSystem) -> StarLabel:
    return StarLabel(system, tuple(empty_word(system) for _ in range(system.n)))


def double_coset_core(w: Word, lead: int, trail: int) -> Word:
    """Canonical representative of G_lead . w . G_trail."""
    core = split_own_head(w, lead)[1]
    if core.trailing_factor() == trail:
        return Word(w.system, core.syllables[:-1])
    return core


def _translate(
    words: Sequence[Word], g: Word, start: int = 1
) -> Iterator[tuple[tuple[int, int] | None, Word]]:
    """Lazily, per slot j (the first numbered start), (b_j, r_j) =
    split_own_head(g_j . g, j): the stripped G_j head and the canonical slot
    of the translate by g."""
    return (split_own_head(w * g, j) for j, w in enumerate(words, start=start))


def _star_pin(L: StarLabel) -> tuple[Word, Iterator[tuple[tuple[int, int] | None, Word]]]:
    """g_L and the translate of L by g_L.

    g_L = g_1^-1 a^-1, where a is the trailing G_1 syllable of
    w = g_2 g_1^-1 (the identity when w has none).  L . g_L has slot 1 in
    G_1, and its slot-2 coset rep is the core of w, which ends in no G_1
    syllable; every other translate with slot 1 in G_1 ends slot 2 in one,
    so g_L is determined by the class.  The cores are the translate's
    canonical slots; callers that decide on one core stop there.

    The first two translates are read off w, so w is the only product
    before slot 3: slot 1 becomes g_1 g_L = a^-1, split as (a^-1, 1), and
    slot 2 becomes g_2 g_L = w a^-1, which is w with its trailing a
    dropped.  Slot 1 is canonical, as in every StarLabel, so g_1^-1 ends in
    no G_1 syllable and g_1^-1 a^-1 is already reduced as written.
    """
    system = L.system
    g = L.slot(1).inverse()
    w = L.slot(2) * g
    a_inv = None
    if w.trailing_factor() == 1:
        a_inv = system.inverse(w.syllables[-1])
        g = Word(system, g.syllables + (a_inv,))
        w = Word(system, w.syllables[:-1])
    pinned = ((a_inv, empty_word(system)), split_own_head(w, 2))
    return g, chain(pinned, _translate(L.conjugators[2:], g, start=3))


def star_key(L: StarLabel) -> tuple:
    """Complete class invariant: the canonical slots of L . g_L as syllables."""
    return tuple(core.syllables for _, core in _star_pin(L)[1])


def star_equivalent(L1: StarLabel, L2: StarLabel) -> Word | None:
    """Equivalence of star labellings; returns the witness conjugator
    g = g_{L1} g_{L2}^-1 with G_j^{L2_j} = G_j^{L1_j . g} for all j."""
    if L1.system != L2.system:
        raise SystemMismatchError("labels belong to different factor systems")
    g1, cores1 = _star_pin(L1)
    g2, cores2 = _star_pin(L2)
    if any(c1.syllables != c2.syllables for (_, c1), (_, c2) in zip(cores1, cores2)):
        return None
    return g1 * g2.inverse()


def apex_key(M: ApexLabel) -> tuple:
    """Complete class invariant: the apex i, then per non-apex slot j the
    syllables of the double-coset core of g_j g_i^-1 in G_j . G_i."""
    i = M.apex
    shift = M.slot(i).inverse()
    return (i,) + tuple(
        double_coset_core(M.slot(j) * shift, lead=j, trail=i).syllables
        for j in range(1, M.system.n + 1)
        if j != i
    )


def apex_equivalent(M1: ApexLabel, M2: ApexLabel) -> bool:
    if M1.system != M2.system:
        raise SystemMismatchError("labels belong to different factor systems")
    return apex_key(M1) == apex_key(M2)


def collapses(L: StarLabel) -> list[ApexLabel]:
    """The n collapse neighbours: push each factor in turn onto the hub."""
    return [ApexLabel(L.system, i, L.conjugators) for i in range(1, L.system.n + 1)]


def act_on_label(label, psi):
    """Right action of a pure symmetric automorphism on a labelling.

    Slot j becomes psi's own conjugator for factor j, times the psi-image
    of the old slot word, canonicalized.
    """
    system = label.system
    new_words = [
        psi.conjugator(j) * psi.apply(label.slot(j)) for j in range(1, system.n + 1)
    ]
    if isinstance(label, StarLabel):
        return star_label(system, new_words)
    return apex_label(system, label.apex, new_words)


def volume(L: StarLabel, x: Word | None = None) -> int:
    """Total spoke length at U(x): n + 2 sum |canonical(g_i x^-1)|.

    Translating by x^-1 moves U(x) to the root U(1), where C_i(r) sits at
    depth 2|r|+1, so no tree vertex is needed.
    """
    slots = L.conjugators
    if x is not None:
        slots = [core for _, core in _translate(slots, x.inverse())]
    return L.system.n + 2 * sum(w.syllable_count() for w in slots)


def is_base(L: StarLabel) -> bool:
    return not any(core.syllables for _, core in _star_pin(L)[1])

