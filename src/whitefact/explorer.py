"""Exhaustive enumeration of a volume-bounded piece of the two-shape complex.

For a finite factor system this materializes every star-labelling class
whose volume at the basepoint stays within a bound, all their collapse
neighbours, and the bipartite collapse edges between them.  The ball is
grown from the base tuple by inverse folds, the reduction walk run
backwards, so every tuple it meets is a labelling.

Cost model: the work grows with the visited tuples, the splitting tuples
within the syllable budget.  Each one below the full budget is expanded by
n(n-1) slot pairs and keyed once (_star_key), all on syllable tuples; only
class representatives become Words.  A pair's inverse folds, a star key's
translated slot and an apex key's core each depend on one slot pair, so a
call divides each pair once, through a dict per phase that is dropped with
it and holds at most n(n-1) entries per visited tuple (Z2*Z2*Z2 at bound
41 visits 15 358 tuples; peak RSS 25.2 -> 29.0 MB).  The visited tuples
are far fewer than the tuples within the syllable budget, but they still
grow exponentially with the bound, so MAX_VISITED caps the size of one
call.  The first level alone visits 1 + (n-1) sum(|G_i| - 1) tuples, so
orders past the cap are refused before any payload list is built, and a
bound that allows no fold builds none: MAX_VISITED bounds time and memory
whatever the orders.

check_ball walks every star class home through the walk core
(reduction._walk) on its syllable tuple, with one memo per call: the walks
of a ball share their suffixes, so each tuple on them is stepped once (a
step scans the slots by length, O(n^2) tests, and folds each moved slot
with one seam product, words._join), and no label or Word is built.  It
reads each walk as move pairs and factor parts, with no WhiteheadAuto,
then pushes the inverse moves onto the class's own slots and recomposes
the slots from the base, one kernel loop over the moves each; identity parts
do no work, and a homing check splits its slots only when they are not
already the canonical answer.  It keys each class once, through pair
memos of its own, none shared with enumerate_ball.  Every memo lives for
one call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

from .autos import _inverted_slots, _read_walk, _recomposed_slots, _split_slots
from .errors import EngineError, NonSplittingError, OracleUnavailableError
from .labellings import (
    ApexLabel,
    StarLabel,
    _apex_key,
    _slot_syllables,
    _star_key,
)
from .reduction import _walk
from .words import Word, _join, right_divide

MAX_VISITED = 50_000  # tuples one enumerate_ball may visit; see the cost model


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


def _tuple_sort_key(slots):
    """Total length, then per slot its length and its (factor, payload)
    syllables, as one flat tuple: every key has n pairs, so the order is
    that of the nested (total, ((|g_1|, g_1), ...))."""
    lengths = tuple(map(len, slots))
    return (sum(lengths), *chain.from_iterable(zip(lengths, slots)))


def _over_cap(system, max_volume: int) -> EngineError:
    return EngineError(
        f"explore over {system!r} at volume bound {max_volume} "
        f"visited {MAX_VISITED + 1} tuples, over the cap of {MAX_VISITED}"
    )


def _grow_from_base(system, max_volume: int) -> list[tuple[tuple, ...]]:
    """Every splitting canonical slot tuple with volume at most max_volume.

    Breadth-first from the base tuple by inverse folds (j, i, s): slot j
    becomes canonical(g_j . g_i^-1 s g_i) for s in G_i nontrivial, i != j,
    kept when slot j gets longer and the volume stays in bound.  The search
    runs on syllable tuples and returns them.  Per slot pair, p = g_j g_i^-1
    is one right division, and per s the product p s g_i is one seam
    product, words._join(p, (s,) + g_i): slot i is canonical, so g_i begins
    with no G_i syllable and (s,) + g_i is reduced as written.  Both run
    once per (j, i, g_j, g_i) and call, in lengthened, which keeps slot j
    of the folds that lengthen it; each tuple filters them by its budget.
    """
    budget = (max_volume - system.n) // 2
    base = ((),) * system.n
    if not budget:  # no fold fits
        return [base]
    # the first level alone visits one tuple per slot j and nontrivial s in G_i, i != j
    if 1 + (system.n - 1) * sum(order - 1 for order in system.orders) > MAX_VISITED:
        raise _over_cap(system, max_volume)
    payloads = [system.nontrivial_payloads(i) for i in range(1, system.n + 1)]
    lengthened: dict = {}  # (j, i, g_j, g_i) -> slot j of every lengthening fold (j, i, s)
    visited = {base}
    frontier = [base]
    while frontier:
        grown_level = []
        for slots in frontier:
            spare = budget - sum(map(len, slots))
            if not spare:  # every fold adds a syllable
                continue
            for i, gi in enumerate(slots, start=1):
                for j, gj in enumerate(slots, start=1):
                    if j == i:
                        continue
                    folds = lengthened.get((j, i, gj, gi))
                    if folds is None:
                        p = right_divide(system, gj, gi)
                        folds = []
                        for s in payloads[i - 1]:
                            new = _join(system, p, ((i, s),) + gi)
                            if new and new[0][0] == j:
                                new = new[1:]
                            if len(new) > len(gj):
                                folds.append(new)
                        lengthened[j, i, gj, gi] = folds
                    for new in folds:
                        if len(new) - len(gj) > spare:
                            continue
                        grown = slots[: j - 1] + (new,) + slots[j:]
                        if grown in visited:
                            continue
                        visited.add(grown)
                        grown_level.append(grown)
                        if len(visited) > MAX_VISITED:
                            raise _over_cap(system, max_volume)
        frontier = grown_level
    return list(visited)


def enumerate_ball(system, max_volume: int) -> SnBall:
    """All star classes with volume(., 1) <= max_volume, plus their collapses.

    Representatives are the least members, ordered by total syllable length
    and then lexicographically, so output is reproducible.  They are the
    least tuples of each star_key among the grown ones, which are exactly
    the in-budget splitting tuples:

    - Every in-budget splitting tuple folds to the base through tuples of
      lower volume, and the inverse fold undoes each fold, so it is grown.
    - Every grown tuple splits: c = g_i^-1 s g_i lies in G_i^{g_i}, so
      G_j^{g_j c} is conjugate to G_j^{g_j} by an element of the subgroup
      the tuple generates, which therefore does not change.
    - Splitting is a class property, so the least in-budget member of a
      splitting class is the least grown tuple with that key.
    """
    if not system.all_finite:
        raise OracleUnavailableError("oracle requires finite factors")
    if max_volume < system.n:
        raise EngineError(f"volume bound {max_volume} below the minimum {system.n}")
    reps: dict[tuple, tuple] = {}
    translated: dict = {}  # (j, g_j, d) -> the canonical slot of g_j . d^-1
    for slots in sorted(_grow_from_base(system, max_volume), key=_tuple_sort_key):
        reps.setdefault(_star_key(system, slots, translated), slots)  # each class's least member
    rep_slots = list(reps.values())
    del reps, translated  # dropped before the apex keys are built

    a_reps: list[ApexLabel] = []
    a_index: dict[tuple, int] = {}
    edges: list[tuple[int, int]] = []
    cores: dict = {}  # (j, i, g_j, g_i) -> the double-coset core of g_j g_i^-1
    alpha_reps = []
    for alpha_index, slots in enumerate(rep_slots):
        words = tuple(Word(system, g) for g in slots)
        alpha_reps.append(StarLabel(system, words))
        for i in range(1, system.n + 1):
            match = a_index.setdefault(_apex_key(system, i, slots, cores), len(a_reps))
            if match == len(a_reps):
                a_reps.append(ApexLabel(system, i, words))
            edges.append((alpha_index, match))
    return SnBall(system, max_volume, tuple(alpha_reps), tuple(a_reps), tuple(edges))


def check_ball(ball: SnBall) -> BallReport:
    """Structural and dynamical checks on an enumerated ball.

    Verifies the bipartite collapse structure, that every star class walks
    back to the base class through volumes that never leave the ball, that
    the base class has exactly the n expected collapse neighbours, and that
    the automorphism read off each class's reduction walk, the same walk
    the volume checks run, really carries the class to the base cell and,
    recomposed from its moves, is the class's own tuple automorphism.  The
    two homing checks read the tuple cores of autos and build no label.
    """
    report = BallReport()
    system = ball.system
    n = system.n

    # collapse edges: n per star class, one per apex, all indices valid
    incident: dict[int, list[int]] = {i: [] for i in range(len(ball.alpha_classes))}
    for alpha_index, a_index in ball.edges:
        if not (0 <= alpha_index < len(ball.alpha_classes)):
            report.failures.append(f"edge references missing alpha class {alpha_index}")
        elif not (0 <= a_index < len(ball.a_classes)):
            report.failures.append(f"edge references missing A class {a_index}")
        else:
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

    # dedup sanity: no class key repeats among the representatives, keyed
    # through this call's own pair memos, none shared with enumerate_ball
    translated, cores = {}, {}
    class_slots = [tuple(_slot_syllables(system, L.conjugators)) for L in ball.alpha_classes]
    keys = [_star_key(system, slots, translated) for slots in class_slots]
    if len(set(keys)) < len(keys):
        report.failures.append("duplicate alpha classes survived dedup")
    a_keys = [
        _apex_key(system, M.apex, _slot_syllables(system, M.conjugators), cores)
        for M in ball.a_classes
    ]
    if len(set(a_keys)) < len(a_keys):
        report.failures.append("duplicate A classes survived dedup")

    # every class reaches the base class inside the ball, and the walk's
    # automorphism carries it home (reported after the base-class checks)
    identity = tuple(system.part_identity(k) for k in range(1, n + 1))
    base_slots = ((),) * n
    base_key = _star_key(system, base_slots, translated)
    base_index = None
    homing: list[str] = []
    walked: dict = {}  # the walks of this ball share their suffixes
    for alpha_index, (slots, key) in enumerate(zip(class_slots, keys)):
        if key == base_key:
            base_index = alpha_index
        start = n + 2 * sum(map(len, slots))
        try:
            final, moves = _walk(system, slots, start, walked)
        except NonSplittingError:
            report.failures.append(f"alpha class #{alpha_index} does not reduce")
            continue
        volumes = [start] + [m.volume_after for m in moves]
        if any(v > ball.bound for v in volumes):
            report.failures.append(f"alpha class #{alpha_index} leaves the ball during reduction")
        if any(b <= a for a, b in zip(volumes[1:], volumes)):
            report.failures.append(f"alpha class #{alpha_index} has a non-decreasing step")
        if final != base_slots:
            report.failures.append(f"alpha class #{alpha_index} did not land on the base tuple")
        # tuple_auto(slots) splits canonically as the slots with identity
        # parts, so its factorization psi is read off this walk.  psi^-1 o
        # tuple_auto(slots) must be the identity, empty slots and identity
        # parts: it carries the class to the base cell, parts and all.
        # Recomposed, the walk's moves must give the class's split back.
        # Each check splits only when its shortcut cannot decide: empty
        # slots split as themselves, and so do canonical ones
        pairs, parts = _read_walk(system, moves, identity)
        inverse, carried = _inverted_slots(system, pairs, parts, (), slots, identity)
        if (any(carried) or inverse != identity) and _split_slots(
            system, inverse, carried
        ) != (base_slots, identity):
            homing.append(f"alpha class #{alpha_index} is not carried to the base cell")
        recomposed = tuple(_recomposed_slots(system, pairs, parts, ()))
        if not (
            recomposed == slots
            and parts == identity
            and all(not g or g[0][0] != k for k, g in enumerate(slots, 1))
        ) and _split_slots(system, parts, recomposed) != (slots, identity):
            homing.append(f"alpha class #{alpha_index} is not reached from the base cell")
    if base_index is None:
        report.failures.append("base class missing from the ball")
    else:
        base_neighbours = set(incident[base_index])
        targets = {_apex_key(system, i, base_slots, cores) for i in range(1, n + 1)}
        expected = [a for a in base_neighbours if a_keys[a] in targets]
        if len(base_neighbours) != n or len(expected) != n:
            report.failures.append("base class collapse neighbours are not the n expected")
    report.failures.extend(homing)

    report.stats = {
        "alpha_classes": len(ball.alpha_classes),
        "a_classes": len(ball.a_classes),
        "edges": len(ball.edges),
        "base_index": base_index,
    }
    return report
