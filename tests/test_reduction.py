import random

import pytest

from whitefact.errors import AlreadyBaseError, NonSplittingError
from whitefact.labellings import (
    apex_equivalent,
    apex_label,
    base_label,
    collapses,
    star_label,
    volume,
)
from whitefact.reduction import find_fold, reduce_step, reduce_to_base
from whitefact.sampling import random_splitting_label
from whitefact.words import empty_word, word


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
        from whitefact.tree import c_vertex, lies_between, u_vertex

        rng = random.Random(3)
        for _ in range(40):
            label = random_splitting_label(z342, rng, 3, min_volume=z342.n + 2)
            fold = find_fold(label)
            assert fold is not None
            center = u_vertex(empty_word(z342))
            pivot = c_vertex(fold.i, label.slot(fold.i))
            target = c_vertex(fold.j, label.slot(fold.j))
            assert lies_between(pivot, center, target)
            conj = label.slot(fold.i) * (fold.z.inverse() * fold.y) * label.slot(fold.i).inverse()
            assert conj.syllable_count() == 1 and conj.leading_factor() == fold.i

    def test_nonsplitting_tuple_has_no_fold(self, triple_z2, w):
        label = star_label(triple_z2, [w["eps"], w["eps"], w["b"] * w["c"]])
        assert volume(label) > 3
        assert find_fold(label) is None


class TestReduceStep:
    def test_two_syllable_step(self, triple_z2, w):
        label = star_label(triple_z2, [w["eps"], w["eps"], w["b"] * w["a"]])
        moved, record = reduce_step(label)
        assert moved == star_label(triple_z2, [w["eps"], w["eps"], w["b"]])
        assert (record.i, record.j) == (1, 3)
        assert record.element == triple_z2.element(1, 1)
        assert (record.volume_before, record.volume_after) == (7, 5)

    def test_one_syllable_step(self, triple_z2, w):
        label = star_label(triple_z2, [w["eps"], w["eps"], w["b"]])
        moved, record = reduce_step(label)
        assert moved == base_label(triple_z2)
        assert (record.i, record.j) == (2, 3)
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
            while volume(current) > system.n:
                moved, record = reduce_step(current)
                drop = record.volume_before - record.volume_after
                assert drop >= 2 and drop % 2 == 0
                before = apex_label(system, record.i, current.conjugators)
                after = apex_label(system, record.i, moved.conjugators)
                assert apex_equivalent(before, after)
                assert collapses(current)[record.i - 1].conjugators == current.conjugators
                current = moved


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
        assert [(m.i, m.j) for m in moves] == [(1, 3), (2, 3)]

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
