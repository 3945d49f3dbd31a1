import random

import pytest

from whitefact import sampling
from whitefact.errors import AlreadyBaseError, EngineError, NonSplittingError, clip
from whitefact.labellings import (
    StarLabel,
    apex_equivalent,
    apex_label,
    base_label,
    collapses,
    star_label,
    volume,
)
from whitefact.reduction import FoldWitness, MoveRecord, find_fold, reduce_step, reduce_to_base
from whitefact.sampling import random_nontrivial_element, random_splitting_label, random_word
from whitefact.tree import c_vertex, distance, geodesic, u_vertex
from whitefact.words import Word, empty_word, letter, normal_form, split_own_head, word

SYSTEMS = ["triple_z2", "z342", "z3422", "mixed_system"]


def tree_volume(label):
    """Sum of the spokes' tree distances from U(1)."""
    center = u_vertex(empty_word(label.system))
    return sum(
        distance(center, c_vertex(i, label.slot(i)))
        for i in range(1, label.system.n + 1)
    )


def reference_find_fold(label):
    """Geodesic scan: walk each spoke and test each coset vertex on it.

    Returns (i, j, y, z, element) for the first fold, or None.
    """
    system = label.system
    center = u_vertex(empty_word(system))
    slot_vertices = {i: c_vertex(i, label.slot(i)) for i in range(1, system.n + 1)}
    for j in range(1, system.n + 1):
        spoke = geodesic(center, slot_vertices[j])
        for pos in range(1, len(spoke) - 1, 2):
            v = spoke[pos]
            i = v.factor
            if i == j or v != slot_vertices[i]:
                continue
            y = spoke[pos - 1].rep
            z = spoke[pos + 1].rep
            gi = label.slot(i)
            stab = gi * z.inverse() * y * gi.inverse()
            if stab.syllable_count() == 1 and stab.leading_factor() == i:
                return i, j, y, z, stab.syllables[0]
    return None


def reference_reduce(label):
    """Fold with the geodesic scan until volume n: (final, records), or None
    when a tuple above volume n has no fold."""
    system = label.system
    records = []
    while tree_volume(label) > system.n:
        fold = reference_find_fold(label)
        if fold is None:
            return None
        i, j, y, z, element = fold
        words = list(label.conjugators)
        words[j - 1] = label.slot(j) * z.inverse() * y
        moved = star_label(system, words)
        records.append((i, j, element, tree_volume(label), tree_volume(moved)))
        label = moved
    return label, records


def single_slot_fold(label, fold):
    """Fold spoke fold.j alone through slot fold.i's vertex, as the
    single-slot walk did: (new label, (i, j, element, volume before,
    volume after, shed))."""
    system = label.system
    before = volume(label)
    old = label.slot(fold.j).syllables
    prefix = old[: len(old) - fold.z.syllable_count()]
    shed, slot = split_own_head(normal_form(system, prefix + fold.y.syllables), fold.j)
    new_words = list(label.conjugators)
    new_words[fold.j - 1] = slot
    after = before - 2 * (len(old) - slot.syllable_count())
    record = (fold.i, fold.j, fold.element, before, after, shed)
    return StarLabel(system, tuple(new_words)), record


def single_slot_walk(label):
    """The single-slot walk: each step folds only the first fold's spoke.
    (final, records) as single_slot_fold gives them."""
    records = []
    bound = (volume(label) - label.system.n) // 2
    while volume(label) > label.system.n:
        assert len(records) < bound, "more steps than (volume - n)/2"
        fold = find_fold(label)
        if fold is None:
            raise NonSplittingError("no fold exists")
        label, record = single_slot_fold(label, fold)
        records.append(record)
    return label, records


def ends_in(label, z):
    """The slots whose canonical word ends in the word z."""
    cut = z.syllable_count()
    return tuple(
        k
        for k, g in enumerate(label.conjugators, start=1)
        if g.syllable_count() >= cut and g.syllables[g.syllable_count() - cut :] == z.syllables
    )


def assert_vertex_steps(label):
    """Step label to the base and check every step against the geodesic
    scan and the single-slot oracle; return the records.

    Each record's first fold is the geodesic scan's, its volumes are tree
    volumes, Y is every spoke that ended in s.g_i before the step, and the
    step equals its |Y| single-slot folds through that vertex: the same
    element, the same new slots, the same sheds, each dropping the volume
    by an even amount of at least 2.
    """
    records = []
    current = label
    bound = (volume(label) - label.system.n) // 2
    while volume(current) > label.system.n:
        assert len(records) < bound, "more steps than (volume - n)/2"
        moved, record = reduce_step(current)
        i, j, y, z, element = reference_find_fold(current)
        assert (record.i, record.moved[0], record.element) == (i, j, element)
        assert record.moved == ends_in(current, z)
        assert record.volume_before == tree_volume(current)
        assert record.volume_after == tree_volume(moved)
        expanded = current
        for k, shed in zip(record.moved, record.shed, strict=True):
            expanded, single = single_slot_fold(expanded, FoldWitness(i, k, y, z, element))
            drop = single[3] - single[4]
            assert single[2] == record.element and single[5] == shed
            assert drop >= 2 and drop % 2 == 0
        assert expanded == moved
        records.append(record)
        current = moved
    assert tuple(records) == reduce_to_base(label)[1]
    return records


def sample_tuples(system, seed, count=300):
    """Seeded tuples: random slot words (mostly non-splitting), products of
    random fold inverses from the base (splitting, with seams that merge),
    and translates of those, some with one slot perturbed."""
    rng = random.Random(seed)
    n = system.n
    out = []
    for k in range(count):
        if k % 3 == 0:
            words = [random_word(system, rng, 4) for _ in range(n)]
        else:
            words = [empty_word(system)] * n
            for _ in range(rng.randint(1, 7)):
                i, j = rng.sample(range(1, n + 1), 2)
                a = letter(system, random_nontrivial_element(system, i, rng))
                gi = words[i - 1]
                words[j - 1] = words[j - 1] * gi.inverse() * a * gi
            if k % 3 == 2:
                x = random_word(system, rng, 3)
                words = [g * x for g in words]
                if rng.random() < 0.3:
                    j = rng.randrange(n)
                    words[j] = words[j] * random_word(system, rng, 2)
        out.append(star_label(system, words))
    return out


@pytest.fixture(scope="module")
def w(triple_z2):
    s = triple_z2
    return {
        "eps": empty_word(s),
        "a": word(s, [(1, 1)]),
        "b": word(s, [(2, 1)]),
        "c": word(s, [(3, 1)]),
    }


class TestFindFold:
    def test_base_has_no_fold(self, triple_z2):
        assert find_fold(base_label(triple_z2)) is None

    def test_two_syllable_slot(self, triple_z2, w):
        label = star_label(triple_z2, [w["eps"], w["eps"], w["b"] * w["a"]])
        fold = find_fold(label)
        assert (fold.i, fold.j) == (1, 3)
        assert fold.y == w["eps"]
        assert fold.z == w["a"]

    def test_one_syllable_slot(self, triple_z2, w):
        label = star_label(triple_z2, [w["eps"], w["eps"], w["b"]])
        fold = find_fold(label)
        assert (fold.i, fold.j) == (2, 3)
        assert fold.y == w["eps"]
        assert fold.z == w["b"]

    def test_fold_witness_invariants(self, z342):
        from whitefact.tree import c_vertex, geodesic, u_vertex

        rng = random.Random(3)
        for _ in range(40):
            label = random_splitting_label(z342, rng, 3, min_volume=z342.n + 2)
            fold = find_fold(label)
            assert fold is not None
            center = u_vertex(empty_word(z342))
            pivot = c_vertex(fold.i, label.slot(fold.i))
            target = c_vertex(fold.j, label.slot(fold.j))
            assert pivot in geodesic(center, target)
            conj = label.slot(fold.i) * (fold.z.inverse() * fold.y) * label.slot(fold.i).inverse()
            assert conj.syllable_count() == 1 and conj.leading_factor() == fold.i

    @pytest.mark.parametrize("fixture", SYSTEMS)
    def test_matches_geodesic_scan(self, request, fixture):
        system = request.getfixturevalue(fixture)
        found = 0
        for label in sample_tuples(system, seed=71):
            fold = find_fold(label)
            expected = reference_find_fold(label)
            if fold is None:
                assert expected is None
                continue
            found += 1
            assert (fold.i, fold.j, fold.y, fold.z, fold.element) == expected
        assert found > 100

    def test_nonsplitting_tuple_has_no_fold(self, triple_z2, w):
        label = star_label(triple_z2, [w["eps"], w["eps"], w["b"] * w["c"]])
        assert volume(label) > 3
        assert find_fold(label) is None


class TestReduceStep:
    def test_two_syllable_step(self, triple_z2, w):
        label = star_label(triple_z2, [w["eps"], w["eps"], w["b"] * w["a"]])
        moved, record = reduce_step(label)
        assert moved == star_label(triple_z2, [w["eps"], w["eps"], w["b"]])
        assert (record.i, record.moved, record.shed) == (1, (3,), (None,))
        assert record.element == triple_z2.element(1, 1)
        assert (record.volume_before, record.volume_after) == (7, 5)

    def test_one_syllable_step(self, triple_z2, w):
        label = star_label(triple_z2, [w["eps"], w["eps"], w["b"]])
        moved, record = reduce_step(label)
        assert moved == base_label(triple_z2)
        assert (record.i, record.moved, record.shed) == (2, (3,), (None,))
        assert record.element == triple_z2.element(2, 1)
        assert (record.volume_before, record.volume_after) == (5, 3)

    def test_step_at_base_rejected(self, triple_z2):
        with pytest.raises(AlreadyBaseError, match="base-equivalent"):
            reduce_step(base_label(triple_z2))

    def test_nonsplitting_step_rejected(self, triple_z2, w):
        label = star_label(triple_z2, [w["eps"], w["eps"], w["b"] * w["c"]])
        with pytest.raises(NonSplittingError, match="non-splitting") as raised:
            reduce_step(label)
        assert "volume 7 at slots [1, 1, 2:1.3:1]" in str(raised.value)

    @pytest.mark.parametrize("fixture", ["triple_z2", "z342"])
    def test_decrease_even_and_legal(self, request, fixture):
        system = request.getfixturevalue(fixture)
        rng = random.Random(19)
        for _ in range(60):
            label = random_splitting_label(system, rng, 4, min_volume=system.n + 2)
            current = label
            bound = (volume(label) - system.n) // 2
            for _ in range(bound):
                if volume(current) <= system.n:
                    break
                moved, record = reduce_step(current)
                drop = record.volume_before - record.volume_after
                assert drop >= 2 and drop % 2 == 0
                before = apex_label(system, record.i, current.conjugators)
                after = apex_label(system, record.i, moved.conjugators)
                assert apex_equivalent(before, after)
                assert collapses(current)[record.i - 1].conjugators == current.conjugators
                current = moved
            assert volume(current) <= system.n, f"{label} not at the base after {bound} steps"

    @pytest.mark.parametrize("fixture", SYSTEMS)
    def test_shed_times_new_slot_is_raw_product(self, request, fixture):
        # letter(shed) . new slot j == g_j . g_i^-1 a g_i, not canonicalized
        system = request.getfixturevalue(fixture)
        rng = random.Random(83)
        sheds = 0
        for _ in range(60):
            current = random_splitting_label(system, rng, 5, min_volume=system.n + 2)
            for _ in range((volume(current) - system.n) // 2):
                if volume(current) <= system.n:
                    break
                moved, record = reduce_step(current)
                gi = current.slot(record.i)
                c = gi.inverse() * letter(system, record.element) * gi
                for j, shed in zip(record.moved, record.shed, strict=True):
                    raw = current.slot(j) * c
                    if shed is None:
                        assert moved.slot(j) == raw
                    else:
                        sheds += 1
                        assert shed[0] == j
                        assert letter(system, shed) * moved.slot(j) == raw
                for k in set(range(1, system.n + 1)) - set(record.moved):
                    assert moved.slot(k) == current.slot(k)
                assert star_label(system, moved.conjugators) == moved
                current = moved
        assert sheds > 0

    @pytest.mark.parametrize("fixture", SYSTEMS)
    def test_volumes_are_tree_volumes(self, request, fixture):
        system = request.getfixturevalue(fixture)
        seam_merges = 0
        for label in sample_tuples(system, seed=73, count=200):
            current = label
            for _ in range(tree_volume(label)):
                try:
                    moved, record = reduce_step(current)
                except (AlreadyBaseError, NonSplittingError):
                    break
                assert record.volume_before == tree_volume(current)
                assert record.volume_after == tree_volume(moved)
                seam_merges += record.volume_before - record.volume_after > 2
                current = moved
        assert seam_merges > 0


class TestReduceToBase:
    def test_base_fixed(self, triple_z2):
        final, moves = reduce_to_base(base_label(triple_z2))
        assert final == base_label(triple_z2)
        assert moves == ()

    def test_two_step_chain(self, triple_z2, w):
        label = star_label(triple_z2, [w["eps"], w["eps"], w["b"] * w["a"]])
        final, moves = reduce_to_base(label)
        assert final == base_label(triple_z2)
        assert len(moves) == 2
        assert [(m.i, m.moved) for m in moves] == [(1, (3,)), (2, (3,))]

    def test_two_slot_fold(self, triple_z2, w):
        # slots 2 and 3 both end in a, so they pass C_1(1) together
        label = star_label(triple_z2, [w["eps"], w["a"], w["b"] * w["a"]])
        final, moves = reduce_to_base(label)
        assert final == base_label(triple_z2)
        assert [(m.i, m.moved, m.element, m.shed) for m in moves] == [
            (1, (2, 3), triple_z2.element(1, 1), (None, None)),
            (2, (3,), triple_z2.element(2, 1), (None,)),
        ]
        assert [(m.volume_before, m.volume_after) for m in moves] == [(9, 5), (5, 3)]
        assert len(single_slot_walk(label)[1]) == 3

    def test_three_slot_fold(self, z3422):
        a, b, c = (word(z3422, [(f, 1)]) for f in (1, 2, 3))
        label = star_label(z3422, [empty_word(z3422), a, b * a, c * a])
        final, moves = reduce_to_base(label)
        assert final == base_label(z3422)
        assert [(m.i, m.moved) for m in moves] == [(1, (2, 3, 4)), (2, (3,)), (3, (4,))]
        assert len(single_slot_walk(label)[1]) == 5

    def test_translate_of_base(self, triple_z2, w):
        # (a, a, a) canonicalizes to (eps, a, a) with volume 7 at the origin
        label = star_label(triple_z2, [w["a"], w["a"], w["a"]])
        assert volume(label) == 7
        final, moves = reduce_to_base(label)
        assert final == base_label(triple_z2)
        assert len(moves) <= 2

    def test_move_count_bounded(self, z342):
        rng = random.Random(23)
        for _ in range(50):
            label = random_splitting_label(z342, rng, 5)
            bound = (volume(label) - z342.n) // 2
            final, moves = reduce_to_base(label)
            assert final == base_label(z342)
            assert len(moves) <= bound

    def test_nonsplitting_rejected(self, triple_z2, w):
        with pytest.raises(NonSplittingError):
            reduce_to_base(star_label(triple_z2, [w["eps"], w["eps"], w["b"] * w["c"]]))

    @pytest.mark.parametrize("fixture", ["triple_z2", "z342"])
    def test_termination_on_long_random_tuples(self, request, fixture):
        # slot length <= 6 sampled; volumes drop monotonically to n
        system = request.getfixturevalue(fixture)
        rng = random.Random(29)
        for _ in range(120):
            label = random_splitting_label(system, rng, 6)
            final, moves = reduce_to_base(label)
            assert final == base_label(system)
            volumes = [volume(label)] + [m.volume_after for m in moves]
            assert all(a > b for a, b in zip(volumes, volumes[1:]))

    def test_mixed_system_with_infinite_factor(self, mixed_system):
        rng = random.Random(31)
        for _ in range(40):
            label = random_splitting_label(mixed_system, rng, 4)
            final, moves = reduce_to_base(label)
            assert final == base_label(mixed_system)

    @pytest.mark.parametrize("fixture", SYSTEMS)
    def test_matches_reference_walk(self, request, fixture):
        # The single-slot walk through the geodesic scan is the reference:
        # the same tuples get stuck, the same final tuple, and every step is
        # a vertex's worth of its single-slot folds.  Per tuple the step
        # count is not ordered (z3422 has a tuple that takes 9 steps against
        # 8), so fewer moves are asserted over the whole sample.
        system = request.getfixturevalue(fixture)
        stuck = 0
        cofolds = 0
        steps = [0, 0]
        for label in sample_tuples(system, seed=79):
            expected = reference_reduce(label)
            if expected is None:
                stuck += 1
                with pytest.raises(NonSplittingError, match="no fold exists"):
                    reduce_to_base(label)
                continue
            records = assert_vertex_steps(label)
            assert reduce_to_base(label)[0] == expected[0]
            cofolds += sum(len(m.moved) > 1 for m in records)
            steps[0] += len(records)
            steps[1] += len(expected[1])
        assert 0 < stuck < 300
        assert cofolds > 0
        assert steps[0] < steps[1]


class TestSamplingCap:
    def test_resampling_stops_at_the_cap(self, monkeypatch, mixed_system):
        def never_splits(label):
            raise NonSplittingError("stub")

        monkeypatch.setattr(sampling, "reduce_to_base", never_splits)
        rng = random.Random(89)
        cap = f"{mixed_system!r} within {sampling.MAX_ATTEMPTS} attempts"
        with pytest.raises(EngineError, match="automorphism") as raised:
            sampling.random_pure_auto(mixed_system, rng, 3)
        assert cap in str(raised.value)
        with pytest.raises(EngineError, match="star labelling") as raised:
            sampling.random_splitting_label(mixed_system, rng, 3)
        assert cap in str(raised.value)


def old_find_fold(L):
    """The Word-level fold scan the tuple walk replaced: per spoke j, every
    suffix length t in turn."""
    system = L.system
    slots = L.conjugators
    for j, gj in enumerate(slots, start=1):
        a = gj.syllables
        for t in range(len(a)):
            s = a[-t - 1]
            i = s[0]
            gi = slots[i - 1]
            if len(gi.syllables) == t and gi.syllables == a[len(a) - t :]:
                z = Word(system, a[len(a) - t - 1 :])
                return FoldWitness(i, j, gi, z, system.inverse(s))
    return None


def old_reduce_step(L, before):
    """The Word-level step the tuple walk replaced: (label, record fields)."""
    system = L.system
    if before == system.n:
        raise AlreadyBaseError("already base-equivalent: volume is minimal")
    fold = old_find_fold(L)
    if fold is None:
        slots = clip(", ".join(str(w) for w in L.conjugators))
        raise NonSplittingError(
            "non-splitting input: no fold exists although volume exceeds n "
            f"(volume {before} at slots [{slots}])"
        )
    y, z = fold.y.syllables, fold.z.syllables
    cut = len(z)
    new_words = list(L.conjugators)
    moved, sheds, dropped = [], [], 0
    for k in range(fold.j, system.n + 1):
        old = new_words[k - 1].syllables
        if len(old) < cut or old[-cut:] != z:
            continue
        shed, slot = split_own_head(normal_form(system, old[:-cut] + y), k)
        new_words[k - 1] = slot
        moved.append(k)
        sheds.append(shed)
        dropped += len(old) - slot.syllable_count()
    record = (fold.i, tuple(moved), fold.element, before, before - 2 * dropped, tuple(sheds))
    return StarLabel(system, tuple(new_words)), record


def old_reduce_to_base(L):
    """The Word-level walk the tuple walk replaced."""
    current, moves = L, []
    current_volume = volume(current)
    while current_volume > L.system.n:
        current, record = old_reduce_step(current, current_volume)
        moves.append(record)
        current_volume = record[4]
    return current, tuple(moves)


BIG = 10**30


def any_letter(system, i, rng):
    """A nontrivial G_i letter; Z letters are small or about +-10^30."""
    if system.factor(i).is_finite():
        return random_nontrivial_element(system, i, rng)
    return (i, rng.choice([-3, -2, -1, 1, 2, 3]) + rng.choice([0, BIG, -BIG]))


def any_word(system, rng, size):
    letters = [any_letter(system, rng.randint(1, system.n), rng) for _ in range(size)]
    return normal_form(system, letters)


def differential_tuples(system, seed, count):
    """Seeded labels for the walk against the Word-level walk: random slots
    (mostly stuck), fold inverses from the base (splitting, with seams that
    cancel), their translates, some with one slot perturbed, and labels
    built directly with StarLabel whose slots may begin with their own
    factor."""
    rng = random.Random(seed)
    n = system.n
    for k in range(count):
        kind = k % 4
        if kind == 0:
            words = [any_word(system, rng, rng.randint(0, 5)) for _ in range(n)]
        else:
            words = [empty_word(system)] * n
            for _ in range(rng.randint(1, 7)):
                i, j = rng.sample(range(1, n + 1), 2)
                a, gi = letter(system, any_letter(system, i, rng)), words[i - 1]
                words[j - 1] = words[j - 1] * gi.inverse() * a * gi
            if kind >= 2:
                x = any_word(system, rng, 3)
                words = [g * x for g in words]
                if rng.random() < 0.3:
                    j = rng.randrange(n)
                    words[j] = words[j] * any_word(system, rng, 2)
        if kind == 3:
            j = rng.randint(1, n)
            words[j - 1] = letter(system, any_letter(system, j, rng)) * words[j - 1]
            yield StarLabel(system, tuple(words))
        else:
            yield star_label(system, words)


class TestAgainstWordWalk:
    @pytest.mark.parametrize("fixture", SYSTEMS)
    def test_same_records_labels_and_errors(self, request, fixture):
        system = request.getfixturevalue(fixture)
        seen = {"walked": 0, "stuck": 0, "stuck after a step": 0, "shed": 0, "seam merge": 0}
        for label in differential_tuples(system, seed=97, count=3000):
            fold, old_fold = find_fold(label), old_find_fold(label)
            assert fold == old_fold
            try:
                expected = old_reduce_to_base(label)
            except NonSplittingError as error:
                seen["stuck"] += 1
                seen["stuck after a step"] += f"(volume {volume(label)} at" not in str(error)
                with pytest.raises(NonSplittingError) as raised:
                    reduce_to_base(label)
                assert str(raised.value) == str(error)
                continue
            final, moves = reduce_to_base(label)
            assert final == expected[0]
            assert [tuple(m) for m in moves] == list(expected[1])
            seen["walked"] += 1
            seen["shed"] += any(m.shed != (None,) * len(m.moved) for m in moves)
            seen["seam merge"] += any(
                m.volume_before - m.volume_after > 2 * len(m.moved) for m in moves
            )
        assert all(seen.values()), seen

    def test_stuck_after_a_step_names_the_stuck_tuple(self, triple_z2, w):
        # slot 3 = b.a folds through C_1(1) to b, and (1, c, b) has no fold
        label = star_label(triple_z2, [w["eps"], w["c"], w["b"] * w["a"]])
        with pytest.raises(NonSplittingError) as raised:
            reduce_to_base(label)
        assert str(raised.value).endswith("(volume 7 at slots [1, 3:1, 2:1])")

    def test_move_record_is_a_named_tuple(self, triple_z2, w):
        label = star_label(triple_z2, [w["eps"], w["eps"], w["b"] * w["a"]])
        _, (record, _) = reduce_to_base(label)
        assert MoveRecord._fields == (
            "i", "moved", "element", "volume_before", "volume_after", "shed"
        )
        assert repr(record) == (
            "MoveRecord(i=1, moved=(3,), element=(1, 1), volume_before=7, "
            "volume_after=5, shed=(None,))"
        )
        with pytest.raises(AttributeError):
            record.i = 2
