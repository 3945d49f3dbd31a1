"""Volume reduction: fold detection and the walk back to the base labelling.

When a spoke of a star labelling passes through another slot's coset
vertex, the offending slot can be re-conjugated by an element stabilizing
that vertex, shortening the spoke by an even amount of at least 2.  For a
genuine splitting a fold exists whenever the volume exceeds n, so repeated
steps terminate at the base tuple.  Tuples whose conjugated factors do not
generate the whole group get stuck with volume above n and are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import AlreadyBaseError, NonSplittingError
from .factors import FactorElement
from .labellings import StarLabel, star_label, volume
from .tree import c_vertex, geodesic, u_vertex
from .words import Word, empty_word


@dataclass(frozen=True)
class FoldWitness:
    """Spoke j passes through the coset vertex of slot i, flanked by U(y), U(z).

    element is g_i z^-1 y g_i^-1, the G_i syllable that stabilizes that vertex.
    """

    i: int
    j: int
    y: Word
    z: Word
    element: FactorElement


@dataclass(frozen=True)
class MoveRecord:
    """One reduction step: slot j re-conjugated through factor i by element a."""

    i: int
    j: int
    element: FactorElement
    volume_before: int
    volume_after: int


def _stabilizing_element(L: StarLabel, i: int, c: Word) -> FactorElement | None:
    """g_i c g_i^-1 as a single G_i syllable, or None when c is not elliptic."""
    gi = L.slot(i)
    w = gi * c * gi.inverse()
    if w.syllable_count() == 1 and w.syllables[0].factor == i:
        return w.syllables[0]
    return None


def find_fold(L: StarLabel, x: Word | None = None) -> FoldWitness | None:
    """First fold under the deterministic scan order, or None.

    Spokes are scanned by ascending slot index j; on a spoke, the fold
    vertex closest to the center wins.  For splittings a fold exists
    exactly when the volume exceeds n; the witness invariants are checked
    rather than assumed, so raw non-splitting tuples simply yield None.
    """
    system = L.system
    center = u_vertex(x if x is not None else empty_word(system))
    slot_vertices = {
        i: c_vertex(i, L.slot(i)) for i in range(1, system.n + 1)
    }
    for j in range(1, system.n + 1):
        spoke = geodesic(center, slot_vertices[j])
        for pos in range(1, len(spoke) - 1, 2):
            v = spoke[pos]
            i = v.factor
            if i == j or v != slot_vertices[i]:
                continue
            y = spoke[pos - 1].rep
            z = spoke[pos + 1].rep
            element = _stabilizing_element(L, i, z.inverse() * y)
            if element is None:
                continue
            return FoldWitness(i=i, j=j, y=y, z=z, element=element)
    return None


def reduce_step(L: StarLabel, x: Word | None = None) -> tuple[StarLabel, MoveRecord]:
    """Apply one fold: slot j becomes g_j z^-1 y, dropping the volume by >= 2."""
    system = L.system
    basepoint = x if x is not None else empty_word(system)
    before = volume(L, basepoint)
    if before == system.n:
        raise AlreadyBaseError("already base-equivalent: volume is minimal")
    fold = find_fold(L, basepoint)
    if fold is None:
        slots = ", ".join(str(w) for w in L.conjugators)
        raise NonSplittingError(
            "non-splitting input: no fold exists although volume exceeds n "
            f"(volume {before} at slots [{slots}])"
        )
    new_words = list(L.conjugators)
    new_words[fold.j - 1] = L.slot(fold.j) * fold.z.inverse() * fold.y
    moved = star_label(system, new_words)
    after = volume(moved, basepoint)
    record = MoveRecord(fold.i, fold.j, fold.element, before, after)
    return moved, record


def reduce_to_base(L: StarLabel) -> tuple[StarLabel, tuple[MoveRecord, ...]]:
    """Iterate folds at the basepoint U(1) until the tuple is the base itself.

    The volume drops by at least 2 per step, so at most (volume - n)/2
    moves occur; at volume n every canonical slot is trivial.
    """
    system = L.system
    current = L
    moves: list[MoveRecord] = []
    current_volume = volume(current)
    limit = (current_volume - system.n) // 2
    while current_volume > system.n:
        if len(moves) > limit:
            raise NonSplittingError("reduction failed to terminate within its bound")
        current, record = reduce_step(current)
        moves.append(record)
        current_volume = record.volume_after
    return current, tuple(moves)
