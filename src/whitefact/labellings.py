"""Graph-of-groups labellings of the two star shapes, and their volumes.

A star labelling assigns the conjugate G_j^{g_j} to the j-th leaf of the
star with a trivial hub; an apex labelling puts one factor at the hub
instead.  Slot words are stored coset-canonically (leading syllable of the
slot's own factor absorbed).

Class identity is decided by one hashable key per class kind, so two
labellings are equivalent exactly when their keys are equal:

- star_key translates L by g_L = d^-1, where d = a g_1 and a is the
  trailing G_1 syllable of g_2 g_1^-1, and takes the canonical slots.  Slot
  1 is pinned: the translates with slot 1 in G_1 are g_1^-1 G_1.  Among
  them only g_L leaves slot 2's coset rep ending in no G_1 syllable,
  because the G_1-stabilizer of slot 2's core is trivial (conjugates of
  distinct factors meet trivially).  So every member of a class reaches
  the same translate, and the key is complete.  Equal keys certify the
  witness g = g_{L1} g_{L2}^-1 = d_1^-1 d_2 on their own: slot j of
  L1 . g_{L1} and of L2 . g_{L2} differ by a G_j syllable on the left, so
  L1_j . g is that G_j element times L2_j and conjugates G_j onto the same
  subgroup.
- apex_key is the apex i plus, for each other slot j, the double-coset
  core of g_j g_i^-1.  Translating by g_i^-1 puts G_i itself at the hub;
  the remaining freedom is G_j on the left of slot j and G_i on its right,
  independently per slot, so equivalence is the equality of the double
  cosets G_j (g_j g_i^-1) G_i, and the core names each one.

The double-coset core rule underpins both keys: stripping at most one
leading G_j syllable and one trailing G_i syllable from a normal form
yields a canonical representative of the double coset G_j w G_i.

Every translate here is by an inverse d^-1: the pin's g_L, g_i^-1 for an
apex, x^-1 for a basepoint, 1 for a canonical split.  So a translate is one
right division, words.right_divide(g_j, d), on syllable tuples, and
_translate splits each slot's quotient into its leading G_j syllable and
the canonical slot, both as syllables.  It and the star pin take slot
tuples, so explorer keys grown tuples with no label built (_star_key).
Both return lists, since a key, a volume and a split in autos read every
translate.  apex_key divides and strips each core on tuples.  Right
division skips word_mul's system check, so the public functions check
each slot word and divisor at entry.
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


def _translate(
    system: FactorSystem, slots: Sequence[tuple], d: tuple, start: int = 1
) -> list[tuple[tuple[int, int] | None, tuple]]:
    """Per slot j (the first numbered start), (b_j, r_j) =
    split_own_head(g_j . d^-1, j) on syllable tuples: the stripped G_j head
    and the canonical slot of the translate by d^-1, for slots and d
    syllable tuples over system."""
    return [_split_head(right_divide(system, g, d), j) for j, g in enumerate(slots, start=start)]


def _star_pin(
    system: FactorSystem, slots: Sequence[tuple]
) -> tuple[tuple, list[tuple[tuple[int, int] | None, tuple]]]:
    """The divisor d = g_L^-1 and the translate of L by g_L, for L with the
    canonical slots given, all as syllable tuples.

    d = a g_1, where a is the trailing G_1 syllable of w = g_2 g_1^-1 (the
    identity when w has none).  L . g_L has slot 1 in G_1, and its slot-2
    coset rep is the core of w, which ends in no G_1 syllable; every other
    translate with slot 1 in G_1 ends slot 2 in one, so d is determined by
    the class.  The cores are the translate's canonical slots.

    The first two translates are read off w, so w is the only quotient
    before slot 3: slot 1 becomes g_1 d^-1 = a^-1, split as (a^-1, 1), and
    slot 2 becomes g_2 d^-1 = w a^-1, which is w with its trailing a
    dropped.  Slot 1 is canonical, so g_1 begins with no G_1 syllable and
    a g_1 is already reduced as written.  They equal _translate(slots, d)'s
    first two, which would cost more per key.
    """
    g1 = slots[0]
    w = right_divide(system, slots[1], g1)
    d, a_inv = g1, None
    if w and w[-1][0] == 1:
        d = w[-1:] + g1
        a_inv = system.inverses[w[-1]]
        w = w[:-1]
    return d, [(a_inv, ()), _split_head(w, 2), *_translate(system, slots[2:], d, start=3)]


def _star_key(system: FactorSystem, slots: Sequence[tuple]) -> tuple:
    """star_key on canonical slot tuples."""
    return tuple(core for _, core in _star_pin(system, slots)[1])


def star_key(L: StarLabel) -> tuple:
    """Complete class invariant: the canonical slots of L . g_L as syllables."""
    return _star_key(L.system, _slot_syllables(L.system, L.conjugators))


def star_equivalent(L1: StarLabel, L2: StarLabel) -> Word | None:
    """Equivalence of star labellings; returns the witness conjugator
    g = g_{L1} g_{L2}^-1 = d_1^-1 d_2 with G_j^{L2_j} = G_j^{L1_j . g} for
    all j."""
    system = L1.system
    _same_system(system, L2.system, "labels belong to different factor systems")
    d1, cores1 = _star_pin(system, _slot_syllables(system, L1.conjugators))
    d2, cores2 = _star_pin(system, _slot_syllables(system, L2.conjugators))
    if any(c1 != c2 for (_, c1), (_, c2) in zip(cores1, cores2)):
        return None
    return Word(system, d1).inverse() * Word(system, d2)


def apex_key(M: ApexLabel) -> tuple:
    """Complete class invariant: the apex i, then per non-apex slot j the
    syllables of the double-coset core of g_j g_i^-1 in G_j . G_i."""
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
