"""Volume reduction: fold detection and the walk back to the base labelling.

Everything is read off the canonical slots g_1 .. g_n at the root U(1),
with no tree vertices built.  C_i(r) sits at depth 2|r|+1, so spoke i has
length 2|g_i|+1 and the volume is n + 2 sum |g_i|.  Spoke j is the root
path of C_j(g_j): past U(1) it visits U(r) for every suffix r of g_j and,
between U(r) and U(s r), the coset vertex C_f(r) of the factor f of the
syllable s.  That vertex is slot i's own vertex C_i(g_i) exactly when g_i
is a proper suffix of g_j and the syllable s just before it lies in G_i
(then i differs from j, because |g_i| < |g_j|).  Each suffix length names
one syllable s, hence one factor i, so the fold there is unique; the scan
takes the lowest j first and then the shortest such g_i.

A fold re-conjugates slot j by s^-1, which stabilizes C_i(g_i): writing
g_j = p s g_i, the new slot is the normal form of p g_i.  Every other spoke
k whose slot ends in s g_i passes the same vertex through the same
syllable, so one step folds them all with the same element: the step is
one move (Y, a) of the paper, with Y the folded slots and a = s^-1.  The
scan passed the spokes below j without a fold, so Y holds j and spokes
above it only, and never i, whose slot is shorter than s g_i.  Every fold
reads g_i alone, which no slot in Y changes, so the order of the folds
within a step does not matter.  Each folded slot keeps at most |g_k| - 1
syllables (only the seam between p and g_i can merge), so each drops the
volume by an even amount of at least 2, and a step by at least 2|Y|.  For a
genuine splitting a fold exists whenever the volume exceeds n, so repeated
steps terminate at the base tuple within (volume - n)/2 steps.  Tuples
whose conjugated factors do not generate the whole group get stuck with
volume above n and are rejected.  Folding a vertex at once is greedy: it
takes far fewer steps than one spoke per step, but not on every tuple, as
a spoke folded early can miss a deeper fold that a later step would open
for it.

The normal form of p g_i can begin with a G_k syllable b (when p is empty
or cancels completely into g_i).  Slot k is a coset rep of G_k g_k, so the
canonical slot drops b, and the move records it as slot k's shed: the raw
product g_k . g_i^-1 a g_i equals b times the new slot.  Conjugating G_k by
its own element b is an inner automorphism of G_k, not a Whitehead move,
which is why factorize turns each shed syllable into a factor-part
correction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import AlreadyBaseError, NonSplittingError, clip
from .labellings import StarLabel, volume
from .words import Word, normal_form, split_own_head


@dataclass(frozen=True)
class FoldWitness:
    """Spoke j passes through the coset vertex of slot i, flanked by U(y), U(z).

    y = g_i, z = s.g_i, element = s^-1.
    """

    i: int
    j: int
    y: Word
    z: Word
    element: tuple[int, int]


@dataclass(frozen=True)
class MoveRecord:
    """One reduction step: every slot in moved re-conjugated through slot
    i's vertex by the same element a.

    shed is aligned with moved: the leading G_k syllable that canonicalizing
    the new slot k stripped, or None.
    """

    i: int
    moved: tuple[int, ...]
    element: tuple[int, int]
    volume_before: int
    volume_after: int
    shed: tuple[tuple[int, int] | None, ...]


def find_fold(L: StarLabel) -> FoldWitness | None:
    """First fold under the deterministic scan order, or None.

    Spokes are scanned by ascending slot index j; on a spoke, the fold
    vertex closest to the center (the shortest suffix g_i) wins.  Raw
    non-splitting tuples may have no fold at all and yield None.
    """
    system = L.system
    slots = L.conjugators
    for j, gj in enumerate(slots, start=1):
        a = gj.syllables
        for t in range(len(a)):
            s = a[-t - 1]
            i = s[0]
            gi = slots[i - 1]
            if len(gi.syllables) == t and gi.syllables == a[len(a) - t:]:
                z = Word(system, a[len(a) - t - 1:])
                return FoldWitness(i, j, gi, z, system.inverse(s))
    return None


def reduce_step(L: StarLabel) -> tuple[StarLabel, MoveRecord]:
    """Fold every spoke through the first fold's vertex: each slot k = p.s.g_i
    becomes p.g_i, dropping the volume by >= 2 per slot."""
    return _reduce_step(L, volume(L))


def _reduce_step(L: StarLabel, before: int) -> tuple[StarLabel, MoveRecord]:
    """reduce_step for L of known volume before."""
    system = L.system
    if before == system.n:
        raise AlreadyBaseError("already base-equivalent: volume is minimal")
    fold = find_fold(L)
    if fold is None:
        slots = clip(", ".join(str(w) for w in L.conjugators))
        raise NonSplittingError(
            "non-splitting input: no fold exists although volume exceeds n "
            f"(volume {before} at slots [{slots}])"
        )
    y, z = fold.y.syllables, fold.z.syllables
    cut = len(z)
    new_words = list(L.conjugators)
    moved: list[int] = []
    sheds: list[tuple[int, int] | None] = []
    dropped = 0
    for k in range(fold.j, system.n + 1):
        old = new_words[k - 1].syllables
        if len(old) < cut or old[-cut:] != z:  # cut >= 1: z is s.g_i
            continue
        shed, slot = split_own_head(normal_form(system, old[:-cut] + y), k)
        new_words[k - 1] = slot
        moved.append(k)
        sheds.append(shed)
        dropped += len(old) - slot.syllable_count()
    record = MoveRecord(
        fold.i, tuple(moved), fold.element, before, before - 2 * dropped, tuple(sheds)
    )
    return StarLabel(system, tuple(new_words)), record


def reduce_to_base(L: StarLabel) -> tuple[StarLabel, tuple[MoveRecord, ...]]:
    """Iterate folds at the basepoint U(1) until the tuple is the base itself.

    The volume drops by at least 2 per folded slot, so at most (volume - n)/2
    moves occur; at volume n every canonical slot is trivial.
    """
    current = L
    moves: list[MoveRecord] = []
    current_volume = volume(current)
    while current_volume > L.system.n:
        current, record = _reduce_step(current, current_volume)
        moves.append(record)
        current_volume = record.volume_after
    return current, tuple(moves)
