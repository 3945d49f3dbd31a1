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

The scan visits the candidate slots in order of length instead of walking
the suffixes of g_j.  A fold at suffix length t needs |g_i| = t, with i
the factor of the syllable just before that suffix, so at each length at
most one slot can fold and slots of equal length do not compete.  The
first slot i, in order of length, that is shorter than g_j, lies in the
factor of the syllable of g_j before its last |g_i| syllables, and is a
suffix of g_j is therefore the shortest fold on spoke j: the one the
suffix scan finds.  A step so costs O(n^2) tests, not O(sum |g_j|).

A fold re-conjugates slot j by s^-1, which stabilizes C_i(g_i): writing
g_j = p s g_i, the new slot is the normal form of p g_i.  p ends outside
G_i, next to s, and g_i is canonical; both are reduced, so only the seam
between them can cancel.  words._join cancels there while the syllables
that meet are mutually inverse, and stops at the first pair in different
factors or at the first merge that does not cancel.  Every other spoke k
whose slot ends in s g_i passes the same vertex through the same
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

A step is one private core on syllable tuples, _step: it scans, folds
and sheds in place and returns a MoveRecord, a named tuple of plain
values.  The walk is one loop over it, _walk, which also takes a memo:
a dict from each tuple a walk stepped to the rest of that walk.  Walks
that pass through one tuple share their rest, because a step depends on
the tuple alone, so a caller that walks many tuples (explorer.check_ball,
one memo per ball) steps each tuple once.  factorize and check_ball call
_walk directly; at the API edge reduce_to_base wraps it with no memo and
builds its StarLabel and Words once, reduce_step wraps one step, and
find_fold the scan, _first_fold.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import NamedTuple

from .errors import AlreadyBaseError, NonSplittingError, clip
from .factors import FactorSystem
from .labellings import StarLabel, volume
from .words import Word, _join


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


class MoveRecord(NamedTuple):
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


def _first_fold(slots) -> tuple[int, int, int] | None:
    """(i, j, |s g_i|) of the first fold of the slot syllable tuples, or None."""
    by_length = sorted(zip(map(len, slots), count(1), slots))
    for j, a in enumerate(slots, start=1):
        size = len(a)
        for t, i, gi in by_length:
            if t >= size:
                break
            if a[-t - 1][0] == i and a[size - t :] == gi:
                return i, j, t + 1
    return None


def find_fold(L: StarLabel) -> FoldWitness | None:
    """First fold under the deterministic scan order, or None.

    Spokes are scanned by ascending slot index j; on a spoke, the fold
    vertex closest to the center (the shortest suffix g_i) wins.  Raw
    non-splitting tuples may have no fold at all and yield None.
    """
    fold = _first_fold([w.syllables for w in L.conjugators])
    if fold is None:
        return None
    i, j, cut = fold
    z = L.conjugators[j - 1].syllables[-cut:]
    return FoldWitness(i, j, L.conjugators[i - 1], Word(L.system, z), L.system.inverses[z[0]])


def _step(system: FactorSystem, slots: list, before: int) -> MoveRecord:
    """One step of the walk on slots, the syllable tuples of a tuple of
    volume before, which it updates in place: fold every slot k = p.s.g_i
    through the first fold's vertex into the canonical p.g_i."""
    fold = _first_fold(slots)
    if fold is None:
        text = clip(", ".join(str(Word(system, g)) for g in slots))
        raise NonSplittingError(
            "non-splitting input: no fold exists although volume exceeds n "
            f"(volume {before} at slots [{text}])"
        )
    i, j, cut = fold
    gi = slots[i - 1]
    z = slots[j - 1][-cut:]
    moved: list[int] = []
    sheds: list[tuple[int, int] | None] = []
    dropped = 0
    for k in range(j, len(slots) + 1):
        old = slots[k - 1]
        if old[-cut:] != z:  # a shorter slot is its own slice, shorter than z
            continue
        new = _join(system, old[:-cut], gi)
        if new and new[0][0] == k:
            sheds.append(new[0])
            new = new[1:]
        else:
            sheds.append(None)
        slots[k - 1] = new
        moved.append(k)
        dropped += len(old) - len(new)
    return MoveRecord(
        i, tuple(moved), system.inverses[z[0]], before, before - 2 * dropped, tuple(sheds)
    )


def _label(system: FactorSystem, slots) -> StarLabel:
    return StarLabel(system, tuple(Word(system, g) for g in slots))


def reduce_step(L: StarLabel) -> tuple[StarLabel, MoveRecord]:
    """Fold every spoke through the first fold's vertex: each slot k = p.s.g_i
    becomes p.g_i, dropping the volume by >= 2 per slot."""
    system = L.system
    before = volume(L)
    if before == system.n:
        raise AlreadyBaseError("already base-equivalent: volume is minimal")
    slots = [w.syllables for w in L.conjugators]
    record = _step(system, slots, before)
    return _label(system, slots), record


def _walk(system: FactorSystem, slots, before: int, walked: dict | None):
    """(final slots, moves) of the walk from the syllable tuple slots, of
    volume before, to volume n.  walked maps every tuple an earlier walk
    stepped to that walk's (final slots, moves from there): a walk that
    meets one takes the rest from it and steps no further, and at its end
    stores each tuple it stepped itself.  A NonSplittingError stores nothing.
    With walked None the walk keeps no memo: each step lowers the volume, so
    one walk never meets a tuple twice, and hashing every tuple it steps
    cost factorize about 2 % in process."""
    slots, moves, stepped = list(slots), [], []
    while before > system.n:
        if walked is not None:
            key = tuple(slots)
            if key in walked:
                slots, rest = walked[key]
                moves += rest
                break
            stepped.append(key)
        record = _step(system, slots, before)
        moves.append(record)
        before = record.volume_after
    final = tuple(slots)
    for t, key in enumerate(stepped):
        walked[key] = final, moves[t:]
    return final, moves


def reduce_to_base(L: StarLabel) -> tuple[StarLabel, tuple[MoveRecord, ...]]:
    """Iterate folds at the basepoint U(1) until the tuple is the base itself.

    The volume drops by at least 2 per folded slot, so at most (volume - n)/2
    moves occur; at volume n every canonical slot is trivial.  The walk is
    _walk's, with no memo, and the final label is built once.
    """
    system = L.system
    final, moves = _walk(system, [w.syllables for w in L.conjugators], volume(L), None)
    return _label(system, final), tuple(moves)
