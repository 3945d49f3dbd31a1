import dataclasses
import hashlib
import itertools
import sys
import time

import pytest

from whitefact import autos, explorer, jsonio, labellings, reduction, words
from whitefact.errors import EngineError, NonSplittingError, OracleUnavailableError
from whitefact.explorer import SnBall, _grow_from_base, check_ball, enumerate_ball
from whitefact.factors import CyclicBackend, FactorSystem
from whitefact.jsonio import sn_ball_to_json
from whitefact.labellings import (
    StarLabel,
    apex_key,
    apex_label,
    base_label,
    collapses,
    star_equivalent,
    star_key,
    star_label,
    volume,
)
from whitefact.reduction import reduce_to_base
from whitefact.words import Word, empty_word, enumerate_words, right_divide, word


def brute_splitting_tuples(system, max_volume):
    """Every in-budget canonical slot tuple whose reduction walk reaches the base."""
    budget = (max_volume - system.n) // 2
    per_slot = [
        [w for w in enumerate_words(system, budget) if w.leading_factor() != j]
        for j in range(1, system.n + 1)
    ]
    out = []
    for combo in itertools.product(*per_slot):
        if sum(w.syllable_count() for w in combo) > budget:
            continue
        label = star_label(system, combo)
        try:
            reduce_to_base(label)
        except NonSplittingError:
            continue
        out.append(label)
    return out


def brute_alpha_classes(system, max_volume):
    """Independent enumeration and dedup, pairwise via the public decider."""
    reps = []
    for label in brute_splitting_tuples(system, max_volume):
        if not any(star_equivalent(label, rep) is not None for rep in reps):
            reps.append(label)
    return reps


def keyed_enumerate_ball(system, max_volume):
    """Reference: the keyed search that growing from the base replaced.

    It keys every in-budget tuple, least first, walks one reduction per
    class and drops the classes that do not split.
    """
    budget = (max_volume - system.n) // 2
    per_slot = []
    for j in range(1, system.n + 1):
        buckets = [[] for _ in range(budget + 1)]
        for w in enumerate_words(system, budget):
            if w.leading_factor() != j:
                buckets[w.syllable_count()].append(w)
        per_slot.append(buckets)
    candidates = [
        combo
        for counts in itertools.product(range(budget + 1), repeat=system.n)
        if sum(counts) <= budget
        for combo in itertools.product(*(b[c] for b, c in zip(per_slot, counts)))
    ]
    candidates.sort(
        key=lambda words: (
            sum(w.syllable_count() for w in words),
            tuple((w.syllable_count(), w.syllables) for w in words),
        )
    )
    alpha_reps, seen = [], set()
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
    a_reps, a_index, edges = [], {}, []
    for alpha_index, label in enumerate(alpha_reps):
        for collapsed in collapses(label):
            match = a_index.setdefault(apex_key(collapsed), len(a_reps))
            if match == len(a_reps):
                a_reps.append(collapsed)
            edges.append((alpha_index, match))
    return SnBall(system, max_volume, tuple(alpha_reps), tuple(a_reps), tuple(edges))


class TestEnumerate:
    def test_minimal_ball(self, triple_z2):
        ball = enumerate_ball(triple_z2, 3)
        assert len(ball.alpha_classes) == 1
        assert ball.alpha_classes[0] == base_label(triple_z2)
        assert len(ball.a_classes) == 3
        assert sorted(m.apex for m in ball.a_classes) == [1, 2, 3]
        assert len(ball.edges) == 3

    def test_volume_five_ball(self, triple_z2):
        ball = enumerate_ball(triple_z2, 5)
        assert len(ball.alpha_classes) == 4
        assert len(ball.a_classes) == 9
        assert len(ball.edges) == 12

    def test_counts_match_brute_force(self, triple_z2, z342):
        for system, bound in ((triple_z2, 3), (triple_z2, 5), (triple_z2, 7), (z342, 5)):
            ball = enumerate_ball(system, bound)
            brute = brute_alpha_classes(system, bound)
            assert len(ball.alpha_classes) == len(brute)
            matched = []
            for label in ball.alpha_classes:
                hits = [
                    index
                    for index, rep in enumerate(brute)
                    if star_equivalent(label, rep) is not None
                ]
                assert len(hits) == 1, (bound, label)
                matched.extend(hits)
            assert sorted(matched) == list(range(len(brute)))

    def test_every_class_within_bound(self, triple_z2):
        ball = enumerate_ball(triple_z2, 7)
        for label in ball.alpha_classes:
            assert volume(label) <= 7

    def test_every_alpha_has_n_edges(self, z342):
        ball = enumerate_ball(z342, 5)
        for index in range(len(ball.alpha_classes)):
            incident = [a for alpha, a in ball.edges if alpha == index]
            assert len(incident) == z342.n
            assert sorted(ball.a_classes[a].apex for a in incident) == [1, 2, 3]

    def test_nonsplitting_tuples_excluded(self, triple_z2):
        b, c = word(triple_z2, [(2, 1)]), word(triple_z2, [(3, 1)])
        ball = enumerate_ball(triple_z2, 7)
        stuck = star_label(triple_z2, [empty_word(triple_z2), empty_word(triple_z2), b * c])
        assert all(star_equivalent(stuck, rep) is None for rep in ball.alpha_classes)

    def test_representatives_are_least(self, triple_z2):
        ball = enumerate_ball(triple_z2, 5)
        for label in ball.alpha_classes[1:]:
            assert sum(w.syllable_count() for w in label.conjugators) == 1

    def test_bound_below_n_rejected(self, triple_z2):
        with pytest.raises(EngineError, match="below"):
            enumerate_ball(triple_z2, 2)

    def test_infinite_factor_rejected(self, mixed_system):
        with pytest.raises(OracleUnavailableError):
            enumerate_ball(mixed_system, 5)

    def test_deterministic(self, triple_z2):
        assert enumerate_ball(triple_z2, 7) == enumerate_ball(triple_z2, 7)


class TestGrowth:
    @pytest.mark.parametrize(
        "name, bound",
        [("triple_z2", 11), ("triple_z2", 13), ("z3422", 6), ("s3_z2_z2", 7)],
    )
    def test_same_bytes_as_keyed_search(self, request, name, bound):
        system = request.getfixturevalue(name)
        expected = sn_ball_to_json(keyed_enumerate_ball(system, bound))
        assert sn_ball_to_json(enumerate_ball(system, bound)) == expected

    @pytest.mark.parametrize(
        "name, bound, counts, sha256",
        [
            (
                "triple_z2", 15, (52, 105, 156),
                "95eae12db32c372fcabb2a46893856077ab81c2c39c11db61c811efc2e52891a",
            ),
            (
                "z3422", 8, (200, 567, 800),
                "ddbed0bf182b69ee13284e1affabf8aa604005c2f70536a4f3eed73f89b09fb3",
            ),
            (
                "s3_z2_z2", 9, (92, 185, 276),
                "ae26a3776b33a8e5a231b3d217f32db40c9f7cb1a391c03c990512e3e52672a9",
            ),
        ],
    )
    def test_benchmark_balls_keep_their_bytes(self, request, name, bound, counts, sha256):
        # the three balls of the explore benchmark; a change to the growth,
        # the keys or the order of the representatives changes the hash
        ball = enumerate_ball(request.getfixturevalue(name), bound)
        assert (len(ball.alpha_classes), len(ball.a_classes), len(ball.edges)) == counts
        text = jsonio.dumps(sn_ball_to_json(ball))
        assert hashlib.sha256(text.encode()).hexdigest() == sha256

    @pytest.mark.parametrize("name, bound", [("triple_z2", 7), ("s3_z2_z2", 7)])
    def test_visits_exactly_the_splitting_tuples(self, request, name, bound):
        system = request.getfixturevalue(name)
        grown = list(_grow_from_base(system, bound))
        brute = [
            tuple(w.syllables for w in L.conjugators)
            for L in brute_splitting_tuples(system, bound)
        ]
        assert len(grown) == len(set(grown))
        assert set(grown) == set(brute)

    def test_visited_count_is_pinned(self, triple_z2):
        # a search that quietly widens or narrows changes this count
        assert len(_grow_from_base(triple_z2, 19)) == 574

    def test_visit_cap_names_system_bound_and_count(self, triple_z2, monkeypatch):
        monkeypatch.setattr(explorer, "MAX_VISITED", 100)
        with pytest.raises(EngineError) as caught:
            enumerate_ball(triple_z2, 19)
        message = str(caught.value)
        assert "FactorSystem(Z2, Z2, Z2)" in message
        assert "bound 19" in message and "visited 101 tuples" in message

    @pytest.mark.parametrize("bound", [3, 5])
    def test_huge_order_answers_at_once(self, bound):
        # no fold fits at bound 3, and one level of folds at bound 5 passes the cap
        system = FactorSystem([CyclicBackend(10**12), CyclicBackend(2), CyclicBackend(2)])
        start = time.perf_counter()
        if bound == 3:
            assert enumerate_ball(system, bound).alpha_classes == (base_label(system),)
        else:
            with pytest.raises(EngineError, match="visited 50001 tuples, over the cap of 50000$"):
                enumerate_ball(system, bound)
        assert time.perf_counter() - start < 1

    def test_order_past_the_cap_keeps_the_cap_message(self):
        system = FactorSystem([CyclicBackend(50_002), CyclicBackend(2), CyclicBackend(2)])
        with pytest.raises(EngineError) as caught:
            enumerate_ball(system, 5)
        assert str(caught.value) == (
            "explore over FactorSystem(Z50002, Z2, Z2) at volume bound 5 "
            "visited 50001 tuples, over the cap of 50000"
        )

    def test_oracles_do_not_grow(self, triple_z2, z342, monkeypatch):
        balls = [enumerate_ball(triple_z2, 7), enumerate_ball(z342, 5)]

        def forbidden(*args):
            raise AssertionError("an oracle called the growth")

        monkeypatch.setattr(explorer, "_grow_from_base", forbidden)
        for ball in balls:
            assert check_ball(ball).passed
            assert len(brute_alpha_classes(ball.system, ball.bound)) == len(ball.alpha_classes)


class TestCheck:
    def test_clean_balls_pass(self, triple_z2):
        for bound in (3, 5, 7):
            report = check_ball(enumerate_ball(triple_z2, bound))
            assert report.passed, report.failures

    def test_z342_ball_passes(self, z342):
        report = check_ball(enumerate_ball(z342, 5))
        assert report.passed, report.failures

    def test_missing_edge_flagged(self, triple_z2):
        ball = enumerate_ball(triple_z2, 5)
        mutated = SnBall(
            ball.system,
            ball.bound,
            ball.alpha_classes,
            ball.a_classes,
            ball.edges[:-1],
        )
        report = check_ball(mutated)
        dropped_alpha = ball.edges[-1][0]
        assert not report.passed
        assert any(
            f"alpha class #{dropped_alpha}" in failure for failure in report.failures
        )

    def test_duplicate_class_flagged(self, triple_z2):
        ball = enumerate_ball(triple_z2, 3)
        translated = star_label(
            triple_z2, [word(triple_z2, [(1, 1)]) for _ in range(3)]
        )
        mutated = SnBall(
            ball.system,
            ball.bound,
            ball.alpha_classes + (translated,),
            ball.a_classes,
            ball.edges + ((1, 0), (1, 1), (1, 2)),
        )
        report = check_ball(mutated)
        assert any("duplicate" in failure for failure in report.failures)

    def test_duplicate_a_class_flagged(self, triple_z2):
        ball = enumerate_ball(triple_z2, 3)
        a = word(triple_z2, [(1, 1)])
        translated = apex_label(triple_z2, 1, [a, a, a])
        mutated = SnBall(
            ball.system,
            ball.bound,
            ball.alpha_classes,
            ball.a_classes + (translated,),
            ball.edges,
        )
        report = check_ball(mutated)
        assert "duplicate A classes survived dedup" in report.failures
        assert "duplicate alpha classes survived dedup" not in report.failures

    def test_stats_reported(self, triple_z2):
        report = check_ball(enumerate_ball(triple_z2, 5))
        assert report.stats["alpha_classes"] == 4
        assert report.stats["base_index"] == 0

    def test_nonsplitting_class_reported(self, triple_z2):
        ball = enumerate_ball(triple_z2, 7)
        a, b, eps = word(triple_z2, [(1, 1)]), word(triple_z2, [(2, 1)]), empty_word(triple_z2)
        stuck = star_label(triple_z2, [b, a, eps])  # G1^b, G2^a, G3: volume 7, no fold
        with pytest.raises(NonSplittingError):
            reduce_to_base(stuck)
        report = check_ball(dataclasses.replace(ball, alpha_classes=ball.alpha_classes + (stuck,)))
        index = len(ball.alpha_classes)
        assert f"alpha class #{index} does not reduce" in report.failures
        assert not any("base cell" in failure for failure in report.failures)

    def test_reduction_outside_bound_flagged(self, triple_z2):
        ball = enumerate_ball(triple_z2, 7)
        report = check_ball(dataclasses.replace(ball, bound=5))
        outside = [k for k, label in enumerate(ball.alpha_classes) if volume(label) > 5]
        assert outside
        assert report.failures == [
            f"alpha class #{k} leaves the ball during reduction" for k in outside
        ]

    def test_edge_to_missing_class_flagged(self, triple_z2):
        ball = enumerate_ball(triple_z2, 5)
        alphas, a_classes = len(ball.alpha_classes), len(ball.a_classes)
        for edge, failure in (
            ((alphas, 0), f"edge references missing alpha class {alphas}"),
            ((0, a_classes), f"edge references missing A class {a_classes}"),
        ):
            report = check_ball(dataclasses.replace(ball, edges=ball.edges + (edge,)))
            assert report.failures == [failure]

    @pytest.mark.parametrize(
        "fault, failure",
        [("stall", "has a non-decreasing step"), ("strand", "did not land on the base tuple")],
    )
    def test_faulty_walk_flagged(self, triple_z2, monkeypatch, fault, failure):
        ball = enumerate_ball(triple_z2, 7)
        k = next(k for k, label in enumerate(ball.alpha_classes) if volume(label) > 3)
        walk = explorer._walk
        own = tuple(g.syllables for g in ball.alpha_classes[k].conjugators)

        def faulty(system, slots, before, walked):
            final, moves = walk(system, slots, before, walked)
            if slots != own:
                return final, moves
            if fault == "stall":  # the first step keeps the volume it starts at
                return final, [moves[0]._replace(volume_after=moves[0].volume_before), *moves[1:]]
            return slots, moves  # the walk ends where it started

        monkeypatch.setattr(explorer, "_walk", faulty)
        assert check_ball(ball).failures == [f"alpha class #{k} {failure}"]

    def test_missing_base_class_flagged(self, triple_z2):
        ball = enumerate_ball(triple_z2, 7)
        assert check_ball(ball).stats["base_index"] == 0
        mutated = dataclasses.replace(
            ball,
            alpha_classes=ball.alpha_classes[1:],
            edges=tuple((alpha - 1, a) for alpha, a in ball.edges if alpha != 0),
        )
        report = check_ball(mutated)
        assert report.failures == ["base class missing from the ball"]
        assert report.stats["base_index"] is None

    def test_wrong_base_neighbour_flagged(self, triple_z2):
        ball = enumerate_ball(triple_z2, 7)
        edges = list(ball.edges)
        k = next(k for k, (alpha, _) in enumerate(edges) if alpha == 0)
        apex = ball.a_classes[edges[k][1]].apex
        # another A class with the same apex keeps the apex set complete
        other = next(
            a for a, m in enumerate(ball.a_classes) if m.apex == apex and a != edges[k][1]
        )
        edges[k] = (0, other)
        report = check_ball(dataclasses.replace(ball, edges=tuple(edges)))
        assert report.failures == ["base class collapse neighbours are not the n expected"]

    def test_broken_inverse_flagged(self, triple_z2, monkeypatch):
        ball = enumerate_ball(triple_z2, 7)
        walk = explorer._read_walk

        def drop_first_move(system, moves, parts0):
            return walk(system, moves[1:], parts0)

        monkeypatch.setattr(explorer, "_read_walk", drop_first_move)
        report = check_ball(ball)
        moved = [k for k, label in enumerate(ball.alpha_classes) if volume(label) > 3]
        assert moved
        # the recomposed automorphism reads the same broken walk
        assert report.failures == [
            failure
            for k in moved
            for failure in (
                f"alpha class #{k} is not carried to the base cell",
                f"alpha class #{k} is not reached from the base cell",
            )
        ]

    def test_unreached_class_flagged(self, triple_z2, monkeypatch):
        ball = enumerate_ball(triple_z2, 7)
        recompose = explorer._recomposed_slots

        def drop_first_move(system, moves, parts, h):
            return recompose(system, moves[1:], parts, h)

        monkeypatch.setattr(explorer, "_recomposed_slots", drop_first_move)
        report = check_ball(ball)
        moved = [k for k, label in enumerate(ball.alpha_classes) if volume(label) > 3]
        assert moved
        assert report.failures == [
            f"alpha class #{k} is not reached from the base cell" for k in moved
        ]

    def test_skipped_nonidentity_part_flagged(self, s3_z2_z2, monkeypatch):
        # from bound 11 on, S3*Z2*Z2 walks shed S3 syllables, so their
        # classes have conjugation parts that are not the identity
        ball = enumerate_ball(s3_z2_z2, 11)
        identity = tuple(s3_z2_z2.part_identity(k) for k in range(1, 4))
        parts = [
            explorer._read_walk(s3_z2_z2, reduce_to_base(label)[1], identity)[1]
            for label in ball.alpha_classes
        ]
        assert sum(p != identity for p in parts) == 10
        inverted = explorer._inverted_slots

        def skip_every_part(system, moves, parts, h, slots, identity):
            # an identity skip that takes every part for the identity
            return inverted(system, moves, parts, h, slots, parts)

        monkeypatch.setattr(explorer, "_inverted_slots", skip_every_part)
        report = check_ball(ball)
        # a part that is its own inverse (conjugation by a transposition)
        # comes out right even when skipped; a 3-cycle's does not
        flagged = [
            k for k, p in enumerate(parts) if tuple(map(s3_z2_z2.part_invert, p)) != p
        ]
        assert len(flagged) == 4
        assert report.failures == [
            f"alpha class #{k} is not carried to the base cell" for k in flagged
        ]

    def test_each_tuple_stepped_once(self, triple_z2, z342, monkeypatch):
        balls = [enumerate_ball(triple_z2, 9), enumerate_ball(z342, 6)]
        wanted = [len(walked_tuples(ball)) for ball in balls]
        steps = count_steps(monkeypatch)

        def forbidden(*args):
            raise AssertionError("check_ball left its one memo walk")

        for module, name in [
            (autos, "factorize"),
            (autos, "compose"),
            (autos, "reduce_to_base"),
            (reduction, "reduce_to_base"),
            (explorer, "reduce_to_base"),
            (labellings, "volume"),
            (labellings, "star_equivalent"),
            (labellings, "apex_equivalent"),
        ]:
            monkeypatch.setattr(module, name, forbidden, raising=False)
        for ball, want in zip(balls, wanted):
            steps.clear()
            assert check_ball(ball).passed
            assert len(steps) == len(set(steps)) == want


def count_steps(monkeypatch):
    """The list that records the tuple of every reduction step from now on."""
    steps, step = [], reduction._step

    def counted(system, slots, before):
        steps.append(tuple(slots))
        return step(system, slots, before)

    monkeypatch.setattr(reduction, "_step", counted)
    return steps


def walked_tuples(ball):
    """Every tuple above the base on the walks of ball's star classes, each
    walked alone, step by step."""
    system, seen = ball.system, set()
    for label in ball.alpha_classes:
        slots = [g.syllables for g in label.conjugators]
        before = volume(label)
        while before > system.n:
            seen.add(tuple(slots))
            before = reduction._step(system, slots, before).volume_after
    return seen


def components_and_cycle_rank(ball):
    """Union-find over the collapse graph of a ball: its star and A classes
    as vertices, its collapse edges as edges.  Returns the number of
    components and the cycle rank E - V + components."""
    alpha = len(ball.alpha_classes)
    parent = list(range(alpha + len(ball.a_classes)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for alpha_index, a_index in ball.edges:
        parent[find(alpha_index)] = find(alpha + a_index)
    components = sum(find(x) == x for x in range(len(parent)))
    return components, len(ball.edges) - len(parent) + components


class TestBallIsATreeAtThreeFactors:
    """At n = 3 the McCullough-Miller complex is contractible of dimension
    n - 2 = 1, so every connected piece of it is a tree.  check_ball catches
    duplicate classes but not over-merged ones; an apex_key that merges
    distinct A classes closes cycles in the collapse graph, which this
    oracle sees.  At n = 4 the two shapes leave cycles, presumably filled by
    cells they do not hold, so there the cycle rank is pinned as measured."""

    @pytest.mark.parametrize(
        "name, bound, sizes",
        [("triple_z2", 15, (52, 105, 156)), ("s3_z2_z2", 9, (92, 185, 276))],
    )
    def test_one_component_of_cycle_rank_zero(self, request, name, bound, sizes):
        ball = enumerate_ball(request.getfixturevalue(name), bound)
        assert components_and_cycle_rank(ball) == (1, 0)
        assert (len(ball.alpha_classes), len(ball.a_classes), len(ball.edges)) == sizes

    def test_cycle_rank_at_four_factors_is_pinned(self, z3422):
        ball = enumerate_ball(z3422, 8)
        assert components_and_cycle_rank(ball) == (1, 34)
        assert (len(ball.alpha_classes), len(ball.a_classes), len(ball.edges)) == (200, 567, 800)


# -- check_ball and the ball encoder as they were before the pair cores, kept
# as references: the walk read into WhiteheadAutos, the carried slots keyed


def reference_walk_factorization(system, moves, parts0):
    correction = [None] * system.n
    whitehead = []
    for i, moved, element, _, _, sheds in reversed(moves):
        for k, shed in zip(moved, sheds):
            if shed is not None:
                c = system.conjugation_part(shed)
                prior = correction[k - 1]
                correction[k - 1] = c if prior is None else system.part_compose(prior, c)
        x = system.inverses[element]
        if correction[i - 1] is not None:
            x = system.part_apply(correction[i - 1], x)
        whitehead.append(autos.WhiteheadAuto(system, moved, x))
    parts = tuple(
        part if c is None else system.part_compose(c, part) for c, part in zip(correction, parts0)
    )
    return autos.Factorization(tuple(whitehead), parts, empty_word(system))


def reference_inverted_slots(system, f, slots):
    parts = [system.part_invert(p) for p in f.factor]
    moves = [(w.moved, system.inverses[w.element]) for w in f.whitehead]
    pushed = autos._push_moves(system, moves, slots)
    h = f.inner.syllables
    return parts, [right_divide(system, autos._apply_parts(system, parts, g), h) for g in pushed]


def reference_recomposed_slots(system, f):
    start = [autos._apply_parts(system, f.factor, f.inner.syllables)] * system.n
    moves = [(w.moved, w.element) for w in reversed(f.whitehead)]
    return autos._push_moves(system, moves, start)


def keyed_homing(system, moves, slots, identity):
    """(carried, reached) of a class's walk, read into WhiteheadAutos, with
    the carried slots keyed."""
    walked = reference_walk_factorization(system, moves, identity)
    carried = reference_inverted_slots(system, walked, slots)[1]
    canonical = [r for _, r in labellings._translate(system, carried, ())]
    recomposed = autos._split_slots(
        system, walked.factor, reference_recomposed_slots(system, walked)
    )
    return not any(labellings._star_key(system, canonical, {})), recomposed == (slots, identity)


def split_homing(system, moves, slots, identity):
    """(carried, reached) as check_ball read them before its shortcuts: the
    pair cores, and both results split in full."""
    pairs, parts = autos._read_walk(system, moves, identity)
    carried = autos._inverted_slots(system, pairs, parts, (), slots, identity)
    recomposed = autos._recomposed_slots(system, pairs, parts, ())
    return (
        autos._split_slots(system, *carried) == (((),) * system.n, identity),
        autos._split_slots(system, parts, recomposed) == (slots, identity),
    )


def reference_check_ball(ball, homing=keyed_homing):
    """check_ball with one reduce_to_base per class and no memo; homing
    reads each walk's two homing checks."""
    failures = []
    system = ball.system
    n = system.n
    incident = {i: [] for i in range(len(ball.alpha_classes))}
    for alpha_index, a_index in ball.edges:
        if not (0 <= alpha_index < len(ball.alpha_classes)):
            failures.append(f"edge references missing alpha class {alpha_index}")
        elif not (0 <= a_index < len(ball.a_classes)):
            failures.append(f"edge references missing A class {a_index}")
        else:
            incident[alpha_index].append(a_index)
    for alpha_index, touched in incident.items():
        if len(touched) != n or len(set(touched)) != n:
            failures.append(
                f"alpha class #{alpha_index} has {len(set(touched))} collapse "
                f"edges (expected {n})"
            )
        apexes = sorted(ball.a_classes[a].apex for a in touched)
        if apexes != list(range(1, n + 1)):
            failures.append(f"alpha class #{alpha_index} collapse apexes {apexes} incomplete")
    keys = [star_key(label) for label in ball.alpha_classes]
    if len(set(keys)) < len(keys):
        failures.append("duplicate alpha classes survived dedup")
    a_keys = [apex_key(label) for label in ball.a_classes]
    if len(set(a_keys)) < len(a_keys):
        failures.append("duplicate A classes survived dedup")
    base = base_label(system)
    base_key = star_key(base)
    identity = tuple(system.part_identity(k) for k in range(1, n + 1))
    base_index = None
    unhomed = []
    for alpha_index, (label, key) in enumerate(zip(ball.alpha_classes, keys)):
        if key == base_key:
            base_index = alpha_index
        try:
            final, moves = reduce_to_base(label)
        except NonSplittingError:
            failures.append(f"alpha class #{alpha_index} does not reduce")
            continue
        volumes = [volume(label)] + [m.volume_after for m in moves]
        if any(v > ball.bound for v in volumes):
            failures.append(f"alpha class #{alpha_index} leaves the ball during reduction")
        if any(b <= a for a, b in zip(volumes[1:], volumes)):
            failures.append(f"alpha class #{alpha_index} has a non-decreasing step")
        if final != base:
            failures.append(f"alpha class #{alpha_index} did not land on the base tuple")
        carried, reached = homing(
            system, moves, tuple(g.syllables for g in label.conjugators), identity
        )
        if not carried:
            unhomed.append(f"alpha class #{alpha_index} is not carried to the base cell")
        if not reached:
            unhomed.append(f"alpha class #{alpha_index} is not reached from the base cell")
    if base_index is None:
        failures.append("base class missing from the ball")
    else:
        base_neighbours = set(incident[base_index])
        targets = {apex_key(apex_label(system, i, base.conjugators)) for i in range(1, n + 1)}
        expected = [a for a in base_neighbours if a_keys[a] in targets]
        if len(base_neighbours) != n or len(expected) != n:
            failures.append("base class collapse neighbours are not the n expected")
    failures.extend(unhomed)
    stats = {
        "alpha_classes": len(ball.alpha_classes),
        "a_classes": len(ball.a_classes),
        "edges": len(ball.edges),
        "base_index": base_index,
    }
    return failures, stats


def reference_ball_to_json(ball):
    """sn_ball_to_json as it built a list per word, through star_to_json and
    one dict per A class."""
    return {
        "bound": ball.bound,
        "alpha_classes": [jsonio.star_to_json(label)["alpha"] for label in ball.alpha_classes],
        "a_classes": [
            {"apex": m.apex, "tuple": [jsonio.word_to_json(w) for w in m.conjugators]}
            for m in ball.a_classes
        ],
        "edges": [list(edge) for edge in ball.edges],
    }


# the explore benchmark's three balls, plus the first S3*Z2*Z2 ball whose
# walks shed, so that its classes carry parts that are not the identity
DESK_BALLS = [("triple_z2", 15), ("z3422", 8), ("s3_z2_z2", 9), ("s3_z2_z2", 11)]


@pytest.fixture(scope="module")
def desk_balls(request):
    return [enumerate_ball(request.getfixturevalue(name), bound) for name, bound in DESK_BALLS]


def mutated_balls(ball):
    """The ball itself, then with its last edge dropped, its first two A
    classes (two apexes) swapped, its bound two below, and its second class
    repeated with the same collapse edges."""
    a = list(ball.a_classes)
    a[0], a[1] = a[1], a[0]
    repeated = tuple((len(ball.alpha_classes), m) for alpha, m in ball.edges if alpha == 1)
    return [
        ball,
        dataclasses.replace(ball, edges=ball.edges[:-1]),
        dataclasses.replace(ball, a_classes=tuple(a)),
        dataclasses.replace(ball, bound=ball.bound - 2),
        dataclasses.replace(
            ball,
            alpha_classes=ball.alpha_classes + (ball.alpha_classes[1],),
            edges=ball.edges + repeated,
        ),
    ]


class TestPairCores:
    """check_ball reads each walk as move pairs and skips identity parts,
    and sn_ball_to_json emits syllable tuples; both give the answers of the
    references above."""

    def test_check_ball_matches_reference(self, desk_balls):
        flagged = 0
        for ball in desk_balls:
            for candidate in mutated_balls(ball):
                report = check_ball(candidate)
                assert (report.failures, report.stats) == reference_check_ball(candidate)
                flagged += bool(report.failures)
        assert flagged == 4 * len(desk_balls)

    def test_walk_moves_are_whitehead_moves(self, desk_balls):
        # check_ball builds no WhiteheadAuto, so nothing validates its moves
        for ball in desk_balls:
            system = ball.system
            identity = tuple(system.part_identity(k) for k in range(1, system.n + 1))
            for label in ball.alpha_classes:
                pairs, _ = explorer._read_walk(system, reduce_to_base(label)[1], identity)
                for moved, x in pairs:
                    assert moved and x[0] not in moved
                    assert not system.is_identity(x) and system.element(*x) == x

    def test_ball_json_matches_list_encoder(self, desk_balls):
        for ball in desk_balls:
            want = jsonio.dumps(reference_ball_to_json(ball))
            assert jsonio.dumps(sn_ball_to_json(ball)) == want


class TestMemoWalk:
    """check_ball walks every class through one memo per call, and a homing
    check splits its slots only where its shortcut cannot decide.  Its
    reports are those of one reduce_to_base per class and full splits."""

    def test_check_ball_matches_split_reference(self, desk_balls):
        for ball in desk_balls:
            for candidate in mutated_balls(ball):
                report = check_ball(candidate)
                want = reference_check_ball(candidate, split_homing)
                assert (report.failures, report.stats) == want

    def test_step_counts_are_pinned(self, desk_balls, monkeypatch):
        per_class = [
            sum(len(reduce_to_base(label)[1]) for label in ball.alpha_classes)
            for ball in desk_balls
        ]
        steps = count_steps(monkeypatch)
        memo = []
        for ball in desk_balls:
            steps.clear()
            assert check_ball(ball).passed
            memo.append(len(steps))
        assert per_class == [189, 377, 237, 735]
        assert memo == [87, 199, 105, 286]

    def test_split_fallback_is_pinned(self, desk_balls, monkeypatch):
        walks, split = [], []
        read, split_slots = explorer._read_walk, explorer._split_slots

        def reading(*args):  # called once per class, in order
            walks.append(args)
            return read(*args)

        def splitting(*args):
            split.append(len(walks) - 1)
            return split_slots(*args)

        monkeypatch.setattr(explorer, "_read_walk", reading)
        monkeypatch.setattr(explorer, "_split_slots", splitting)
        counts = []
        for ball in desk_balls:
            walks.clear()
            split.clear()
            assert check_ball(ball).passed
            counts.append((len(set(split)), len(split), len(walks)))
        # where a class splits, both of its checks do
        assert counts == [(12, 24, 52), (0, 0, 200), (0, 0, 92), (30, 60, 224)]

    def test_noncanonical_slot_matches_reference(self, triple_z2, monkeypatch):
        ball = enumerate_ball(triple_z2, 7)
        x2, x3 = (2, 1), (3, 1)
        k = next(
            k
            for k, label in enumerate(ball.alpha_classes)
            if [g.syllables for g in label.conjugators] == [(), (), (x2,)]
        )
        # slot 3 written as x3 . x2, with a leading G_3 syllable
        raw = StarLabel(
            triple_z2, (empty_word(triple_z2), empty_word(triple_z2), Word(triple_z2, (x3, x2)))
        )
        hand = dataclasses.replace(
            ball, alpha_classes=ball.alpha_classes[:k] + (raw,) + ball.alpha_classes[k + 1 :]
        )
        report = check_ball(hand)
        assert report.failures == [f"alpha class #{k} is not reached from the base cell"]
        assert (report.failures, report.stats) == reference_check_ball(hand, split_homing)
        # a recomposition equal to the raw slots, with identity parts, still
        # splits, because slot 3 is not canonical
        identity = tuple(triple_z2.part_identity(j) for j in range(1, 4))
        raw_pairs = explorer._read_walk(triple_z2, reduce_to_base(raw)[1], identity)[0]
        recompose = explorer._recomposed_slots

        def onto_raw(system, pairs, parts, h):
            if pairs == raw_pairs:
                return [g.syllables for g in raw.conjugators]
            return recompose(system, pairs, parts, h)

        monkeypatch.setattr(explorer, "_recomposed_slots", onto_raw)
        assert check_ball(hand).failures == report.failures

    def test_shortcuts_need_identity_parts(self, s3_z2_z2, monkeypatch):
        # every walk carries its class home, and recomposes its slots, but
        # reads a part that is no identity: both checks must split and fail
        ball = enumerate_ball(s3_z2_z2, 7)
        read = explorer._read_walk
        twist = s3_z2_z2.conjugation_part((1, 4))

        def twisted(system, moves, parts0):
            pairs, parts = read(system, moves, parts0)
            return pairs, (twist,) + parts[1:]

        monkeypatch.setattr(explorer, "_read_walk", twisted)
        assert check_ball(ball).failures == [
            failure
            for k in range(len(ball.alpha_classes))
            for failure in (
                f"alpha class #{k} is not carried to the base cell",
                f"alpha class #{k} is not reached from the base cell",
            )
        ]


# -- enumerate_ball as it was before the pair memos, kept as a reference:
# every fold, star key and apex core computed afresh


def reference_tuple_sort_key(slots):
    """The nested key that the flat _tuple_sort_key replaced."""
    keyed = tuple((len(g), g) for g in slots)
    return (sum(length for length, _ in keyed), keyed)


def reference_grow(system, max_volume):
    budget = (max_volume - system.n) // 2
    base = ((),) * system.n
    payloads = [system.nontrivial_payloads(i) for i in range(1, system.n + 1)]
    visited, frontier = {base}, [base]
    while frontier:
        grown_level = []
        for slots in frontier:
            spare = budget - sum(map(len, slots))
            for i, gi in enumerate(slots, start=1):
                for j, gj in enumerate(slots, start=1):
                    if j == i:
                        continue
                    p = right_divide(system, gj, gi)
                    for s in payloads[i - 1]:
                        new = words._join(system, p, ((i, s),) + gi)
                        if new and new[0][0] == j:
                            new = new[1:]
                        if not 0 < len(new) - len(gj) <= spare:
                            continue
                        grown = slots[: j - 1] + (new,) + slots[j:]
                        if grown not in visited:
                            visited.add(grown)
                            grown_level.append(grown)
        frontier = grown_level
    return visited


def reference_enumerate_ball(system, max_volume):
    reps = {}
    for slots in sorted(reference_grow(system, max_volume), key=reference_tuple_sort_key):
        pin = labellings._star_pin(system, slots)
        reps.setdefault(tuple(r for _, r in labellings._translate(system, slots, pin)), slots)
    alpha_reps = [StarLabel(system, tuple(Word(system, g) for g in r)) for r in reps.values()]
    a_reps, a_index, edges = [], {}, []
    for alpha_index, label in enumerate(alpha_reps):
        for collapsed in collapses(label):
            i, slots = collapsed.apex, [g.syllables for g in collapsed.conjugators]
            cores = (
                labellings._double_coset_core(right_divide(system, g, slots[i - 1]), j, i)
                for j, g in enumerate(slots, start=1)
                if j != i
            )
            match = a_index.setdefault((i, *cores), len(a_reps))
            if match == len(a_reps):
                a_reps.append(collapsed)
            edges.append((alpha_index, match))
    return SnBall(system, max_volume, tuple(alpha_reps), tuple(a_reps), tuple(edges))


def count_right_divisions(monkeypatch):
    """The list that records every right division from now on."""
    calls, divide = [], words.right_divide

    def counted(system, a, b):
        calls.append(None)
        return divide(system, a, b)

    for module in (words, labellings, explorer, autos):
        monkeypatch.setattr(module, "right_divide", counted)
    return calls


# the desk balls, plus one larger ball of Z2*Z2*Z2 and of Z3*Z4*Z2*Z2
MEMO_BALLS = [
    ("triple_z2", 15),
    ("triple_z2", 19),
    ("z3422", 8),
    ("z3422", 10),
    ("s3_z2_z2", 9),
    ("s3_z2_z2", 11),
]


@pytest.fixture(scope="module")
def memo_balls(request):
    return [enumerate_ball(request.getfixturevalue(name), bound) for name, bound in MEMO_BALLS]


# (enumerate_ball, check_ball) right divisions per MEMO_BALLS ball; with no
# pair memo they were (2212, 656), (5080, 1094), (3849, 3518), (26402, 21888),
# (2244, 1024) and (6884, 2656)
PINNED_RIGHT_DIVISIONS = [
    (1171, 516),
    (2568, 880),
    (1391, 1898),
    (7318, 10566),
    (1155, 690),
    (3348, 1892),
]


class TestPairMemos:
    """enumerate_ball and check_ball divide each slot pair once per call,
    through plain dicts that die with the call, and give the balls and
    reports of the memo-free references."""

    def test_balls_match_memo_free_reference(self, memo_balls, triple_z2):
        """Fails on a fold memo keyed without j, a translated slot keyed
        without j and an apex core keyed without i.  Z2*Z2*Z2 at bound 21,
        the least bound where it loses tuples (814 -> 808, though no least
        member of a class), fails a fold memo that keeps only the folds
        within the first tuple's spare budget."""
        for ball in memo_balls:
            assert reference_enumerate_ball(ball.system, ball.bound) == ball
        grown = explorer._grow_from_base(triple_z2, 21)
        assert len(grown) == len(set(grown)) == 814
        assert set(grown) == reference_grow(triple_z2, 21)

    def test_check_ball_matches_reference(self, memo_balls):
        """Fails on check_ball keying its classes through enumerate_ball's memos."""
        for ball in memo_balls:
            for candidate in mutated_balls(ball):
                report = check_ball(candidate)
                assert (report.failures, report.stats) == reference_check_ball(candidate)

    def test_flat_sort_key_orders_as_the_nested_key(self, memo_balls):
        """Fails on a flat key that leaves out the slot lengths."""
        for ball in memo_balls:
            visited = explorer._grow_from_base(ball.system, ball.bound)
            want = sorted(visited, key=reference_tuple_sort_key)
            assert sorted(visited, key=explorer._tuple_sort_key) == want

    def test_right_division_counts_are_pinned(self, memo_balls, monkeypatch):
        """Per ball, (enumerate_ball, check_ball) right divisions, equal on a
        second call.  Fails on any memo dropped, and on one kept past its call."""
        calls = count_right_divisions(monkeypatch)
        counts = []
        for ball in memo_balls:
            per_call = []
            for _ in range(2):
                calls.clear()
                assert enumerate_ball(ball.system, ball.bound) == ball
                enumerated = len(calls)
                calls.clear()
                assert check_ball(ball).passed
                per_call.append((enumerated, len(calls)))
            assert per_call[0] == per_call[1]
            counts.append(per_call[0])
        assert counts == PINNED_RIGHT_DIVISIONS

    def test_no_memo_outlives_its_call(self, z3422):
        """Every dict that the growth, enumerate_ball, check_ball and the two
        key cores hold as a local, the pair memos among them, is referenced
        by nothing once the calls return.  Fails on a memo kept in the
        module, on the system or as a default argument."""
        functions = (
            explorer._grow_from_base,
            enumerate_ball,
            check_ball,
            labellings._star_key,
            labellings._apex_key,
        )
        codes = {f.__code__ for f in functions}
        held = {}

        def hold(frame, event, arg):
            if frame.f_code in codes:
                for name, value in frame.f_locals.items():
                    if type(value) is dict:
                        held[id(value)] = (f"{frame.f_code.co_name}.{name}", value)

        sys.setprofile(hold)
        try:
            check_ball(enumerate_ball(z3422, 8))
        finally:
            sys.setprofile(None)
        names = {name.split(".")[1] for name, _ in held.values()}
        assert {"lengthened", "translated", "cores", "walked"} <= names
        held[0] = ("control", {})
        counts = [(name, sys.getrefcount(d)) for name, d in held.values()]
        assert [name for name, count in counts if count != counts[-1][1]] == []
