"""Graph-of-groups labellings of the two star shapes, and their volumes.

A star labelling assigns the conjugate G_j^{g_j} to the j-th leaf of the
star with a trivial hub; an apex labelling puts one factor at the hub
instead.  Slot words are stored coset-canonically (leading syllable of the
slot's own factor absorbed).  Two labellings are equivalent exactly when
their keys are equal, one hashable key per class kind:

- star_key translates L by g_L = d^-1 and takes the canonical slots, for
  the pin d = a g_1, a the trailing G_1 syllable of g_2 g_1^-1.  The
  translates with slot 1 in G_1 are g_1^-1 G_1, and among them only g_L
  leaves slot 2's coset rep ending in no G_1 syllable, because the
  G_1-stabilizer of slot 2's core is trivial (conjugates of distinct
  factors meet trivially).  So every member of a class reaches the same
  translate, and the key is complete.  Equal keys certify the witness
  g = g_{L1} g_{L2}^-1 = d_1^-1 d_2 on their own: slot j of L1 . g_{L1}
  and of L2 . g_{L2} differ by a G_j syllable on the left, so L1_j . g
  and L2_j conjugate G_j onto the same subgroup.
- apex_key is the apex i plus, for each other slot j, the double-coset
  core of g_j g_i^-1.  Translating by g_i^-1 puts G_i itself at the hub;
  the remaining freedom is G_j on the left of slot j and G_i on its right,
  independently per slot, so equivalence is the equality of the double
  cosets G_j (g_j g_i^-1) G_i.  Stripping at most one leading G_j and one
  trailing G_i syllable from a normal form names each one canonically.

The pin is a divisor, and every translate is _translate(slots, d): per
slot one right division words.right_divide(g_j, d), split into the G_j
head and the canonical slot, on syllable tuples, so explorer keys grown
tuples with no label built (_star_key).  The divisors are the pin's d
(star_key), g_i (the apex split in autos), x (volume at U(x), factorize's
basepoint) and 1 (the canonical split).  Right division skips word_mul's
system check, so the public functions check slot words and divisors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .factors import FactorSystem
from .words import (
    Word,
    _image,
    _same_system,
    _split_head,
    _syllables_in,
    empty_word,
    right_divide,
    split_own_head,
)


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
        _same_system(system, w.system, "slot word from a different factor system")
        slots.append(split_own_head(w, j)[1])
    return tuple(slots)


def star_label(system: FactorSystem, words: Sequence[Word]) -> StarLabel:
    return StarLabel(system, _canonical_slots(system, words))


def apex_label(system: FactorSystem, apex: int, words: Sequence[Word]) -> ApexLabel:
    system.factor(apex)
    return ApexLabel(system, apex, _canonical_slots(system, words))


def base_label(system: FactorSystem) -> StarLabel:
    return StarLabel(system, tuple(empty_word(system) for _ in range(system.n)))


def _double_coset_core(s: tuple, lead: int, trail: int) -> tuple:
    """The syllables of the canonical representative of G_lead . s . G_trail.
    The head strip is written out, not a _split_head call, because apex_key
    runs it per slot and a call there costs more than the strip itself."""
    if s and s[0][0] == lead:
        s = s[1:]
    if s and s[-1][0] == trail:
        s = s[:-1]
    return s


def _slot_syllables(system: FactorSystem, words: Sequence[Word]) -> list[tuple]:
    """The syllables of each slot word, each checked to belong to system."""
    return [_syllables_in(system, w) for w in words]


def _translate(system: FactorSystem, slots: Sequence[tuple], d: tuple) -> list[tuple]:
    """Per slot j, the G_j head b_j (or None) and the canonical slot r_j of
    the translate g_j . d^-1, split as split_own_head does, on syllables."""
    return [_split_head(right_divide(system, g, d), j) for j, g in enumerate(slots, start=1)]


def _star_pin(system: FactorSystem, slots: Sequence[tuple]) -> tuple:
    """The pin d = g_L^-1 = a g_1 of canonical slots, as syllables, with a
    the trailing G_1 syllable of w = g_2 g_1^-1, if any.  Slot 1 begins
    with no G_1 syllable, so a g_1 is reduced as written."""
    g1 = slots[0]
    w = right_divide(system, slots[1], g1)
    return w[-1:] + g1 if w and w[-1][0] == 1 else g1


def _star_key(system: FactorSystem, slots: Sequence[tuple]) -> tuple:
    """star_key on canonical slot tuples."""
    return tuple(core for _, core in _translate(system, slots, _star_pin(system, slots)))


def star_key(L: StarLabel) -> tuple:
    """Complete class invariant: the canonical slots of L . g_L as syllables."""
    return _star_key(L.system, _slot_syllables(L.system, L.conjugators))


def star_equivalent(L1: StarLabel, L2: StarLabel) -> Word | None:
    """Equivalence of star labellings by their keys; returns the witness
    g = d_1^-1 d_2 with G_j^{L2_j} = G_j^{L1_j . g} for all j, or None."""
    system = L1.system
    _same_system(system, L2.system, "labels belong to different factor systems")
    slots1, slots2 = (_slot_syllables(system, L.conjugators) for L in (L1, L2))
    if _star_key(system, slots1) != _star_key(system, slots2):
        return None
    d1, d2 = _star_pin(system, slots1), _star_pin(system, slots2)
    return Word(system, d1).inverse() * Word(system, d2)


def apex_key(M: ApexLabel) -> tuple:
    """Complete class invariant: the apex i, then per non-apex slot j the
    syllables of the double-coset core of g_j g_i^-1 in G_j . G_i.  Kept,
    measured: its own loop, since through _translate explore ran 8.9 % slower."""
    system, i = M.system, M.apex
    gi = _syllables_in(system, M.slot(i))
    key = [i]
    for j, w in enumerate(M.conjugators, start=1):
        if j != i:
            key.append(_double_coset_core(right_divide(system, _syllables_in(system, w), gi), j, i))
    return tuple(key)


def apex_equivalent(M1: ApexLabel, M2: ApexLabel) -> bool:
    _same_system(M1.system, M2.system, "labels belong to different factor systems")
    return apex_key(M1) == apex_key(M2)


def collapses(L: StarLabel) -> list[ApexLabel]:
    """The n collapse neighbours: push each factor in turn onto the hub."""
    return [ApexLabel(L.system, i, L.conjugators) for i in range(1, L.system.n + 1)]


def act_on_label(label, psi):
    """Right action of a pure symmetric automorphism on a labelling.

    Slot j becomes psi's own conjugator g_j times the psi-image of the old
    slot word, canonicalized: words._image with the head g_j.
    """
    system, own = label.system, psi.system
    new_words = []
    for (_, g), w in zip(psi.parts, label.conjugators):
        _same_system(own, w.system, "word from a different factor system")
        new_words.append(Word(own, _image(own, psi.parts, _syllables_in(own, g), w.syllables)))
    if isinstance(label, StarLabel):
        return star_label(system, new_words)
    return apex_label(system, label.apex, new_words)


def volume(L: StarLabel, x: Word | None = None) -> int:
    """Total spoke length at U(x): n + 2 sum |canonical(g_i x^-1)|.

    Translating by x^-1 moves U(x) to the root U(1), where C_i(r) sits at
    depth 2|r|+1, so no tree vertex is needed.
    """
    slots = _slot_syllables(L.system, L.conjugators)
    if x is not None:
        slots = [core for _, core in _translate(L.system, slots, _syllables_in(L.system, x))]
    return L.system.n + 2 * sum(map(len, slots))


def is_base(L: StarLabel) -> bool:
    return not any(star_key(L))
