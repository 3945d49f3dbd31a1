import itertools

import pytest
from hypothesis import given, settings, strategies as st

from whitefact.errors import FactorMismatchError, SystemMismatchError
from whitefact.factors import CyclicBackend, FactorElement, FactorSystem, IntBackend, TableBackend
from whitefact.words import (
    empty_word,
    enumerate_words,
    normal_form,
    word,
    word_mul,
)


@pytest.fixture(scope="module")
def k3():
    return FactorSystem([CyclicBackend(2), CyclicBackend(2), CyclicBackend(2)])


def letters_strategy(system, max_len=8):
    letter = st.builds(
        lambda f, p: FactorElement(f, p % system.factor(f).order()),
        st.integers(1, system.n),
        st.integers(0, 11),
    )
    return st.lists(letter, max_size=max_len)


class TestReduce:
    def test_square_of_involution_cancels(self, k3):
        assert word(k3, [(1, 1), (1, 1)]).is_identity()

    def test_telescoping_cancellation(self, k3):
        assert word(k3, [(1, 1), (2, 1), (2, 1), (1, 1)]).is_identity()

    def test_alternating_word_unchanged(self, k3):
        w = word(k3, [(1, 1), (2, 1), (1, 1)])
        assert [(s.factor, s.payload) for s in w.syllables] == [(1, 1), (2, 1), (1, 1)]

    def test_identity_letters_dropped(self, k3):
        assert word(k3, [(1, 0), (2, 0)]).is_identity()

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_reduce_is_idempotent(self, k3, data):
        letters = data.draw(letters_strategy(k3))
        w = normal_form(k3, letters)
        assert normal_form(k3, w.syllables) == w

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_normal_form_alternates(self, k3, data):
        w = normal_form(k3, data.draw(letters_strategy(k3)))
        for left, right in zip(w.syllables, w.syllables[1:]):
            assert left.factor != right.factor
        assert not any(k3.is_identity(s) for s in w.syllables)


def reference_normal_form(system, letters):
    """Reference loop: two is_identity calls per letter, no identity lookup."""
    out = []
    for s in letters:
        if system.is_identity(s):
            continue
        if out and out[-1].factor == s.factor:
            merged = system.mul(out[-1], s)
            out.pop()
            if not system.is_identity(merged):
                out.append(merged)
        else:
            out.append(s)
    return tuple(out)


def mixed_letters(system):
    """Letters with identities, and blocks that cancel to 1."""

    def wrap(f, p):
        backend = system.factor(f)
        return FactorElement(f, p % backend.order() if backend.is_finite() else p)

    letter = st.builds(wrap, st.integers(1, system.n), st.integers(-3, 5))
    cancelling = st.lists(letter, min_size=1, max_size=3).map(
        lambda ls: ls + [system.inverse(s) for s in reversed(ls)]
    )
    block = st.one_of(letter.map(lambda s: [s]), cancelling)
    return st.lists(block, max_size=6).map(lambda bs: [s for b in bs for s in b])


# Z3 as a table whose identity is index 2 (the T3*Z2*Z system of test_jsonio):
# a merge must be compared with the factor's identity payload, not with 0.
T3_Z2_Z = FactorSystem(
    [TableBackend([[1, 2, 0], [2, 0, 1], [0, 1, 2]], identity=2), CyclicBackend(2), IntBackend()]
)


class TestKernel:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), use_t3=st.booleans())
    def test_matches_reference_loop(self, mixed_system, data, use_t3):
        system = T3_Z2_Z if use_t3 else mixed_system
        letters = data.draw(mixed_letters(system))
        w = normal_form(system, letters)
        assert w.syllables == reference_normal_form(system, letters)

    @pytest.mark.parametrize("factor", [0, 4])
    @pytest.mark.parametrize("payload", [0, 1])
    def test_out_of_range_factor(self, mixed_system, factor, payload):
        with pytest.raises(FactorMismatchError):
            normal_form(mixed_system, [FactorElement(2, 1), FactorElement(factor, payload)])


class TestArithmetic:
    def test_product_with_inverse_is_identity(self, k3):
        u = word(k3, [(1, 1), (2, 1)])
        v = word(k3, [(2, 1), (1, 1)])
        assert word_mul(u, v).is_identity()

    def test_inverse_reverses(self, k3):
        u = word(k3, [(2, 1), (1, 1)])
        assert [s.factor for s in u.inverse().syllables] == [1, 2]

    def test_mul_without_cancellation(self, k3):
        u = word(k3, [(1, 1), (2, 1)])
        out = word_mul(u, word(k3, [(1, 1)]))
        assert [s.factor for s in out.syllables] == [1, 2, 1]

    def test_syllable_queries(self, k3):
        assert empty_word(k3).syllable_count() == 0
        assert empty_word(k3).leading_factor() is None
        u = word(k3, [(2, 1), (1, 1)])
        assert u.syllable_count() == 2 and u.leading_factor() == 2
        v = word(k3, [(1, 1), (2, 1), (1, 1)])
        assert v.syllable_count() == 3 and v.leading_factor() == 1

    def test_mixed_system_rejected(self, k3, z342):
        with pytest.raises(SystemMismatchError):
            word_mul(word(k3, [(1, 1)]), word(z342, [(1, 1)]))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_concat_reduce_equals_mul(self, k3, data):
        u = normal_form(k3, data.draw(letters_strategy(k3)))
        v = normal_form(k3, data.draw(letters_strategy(k3)))
        assert normal_form(k3, u.syllables + v.syllables) == word_mul(u, v)
        assert word_mul(u, v).syllable_count() <= u.syllable_count() + v.syllable_count()

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_group_laws(self, k3, data):
        u = normal_form(k3, data.draw(letters_strategy(k3)))
        v = normal_form(k3, data.draw(letters_strategy(k3)))
        w = normal_form(k3, data.draw(letters_strategy(k3)))
        assert word_mul(word_mul(u, v), w) == word_mul(u, word_mul(v, w))
        assert word_mul(u, u.inverse()).is_identity()
        assert word_mul(u, empty_word(k3)) == u


class TestEnumeration:
    def expected_count(self, system, length):
        sizes = [backend.order() - 1 for backend in system.backends]
        total = 0
        for sequence in itertools.product(range(system.n), repeat=length):
            if any(a == b for a, b in zip(sequence, sequence[1:])):
                continue
            product = 1
            for index in sequence:
                product *= sizes[index]
            total += product
        return total

    @pytest.mark.parametrize("max_len", [0, 1, 2, 3])
    def test_count_matches_alternating_formula(self, z342, max_len):
        words = list(enumerate_words(z342, max_len))
        expected = sum(self.expected_count(z342, m) for m in range(max_len + 1))
        assert len(words) == expected
        assert len(set(words)) == len(words)

    def test_matches_brute_force_closure(self, k3):
        letters = [FactorElement(i, 1) for i in range(1, 4)]
        brute = set()
        for length in range(4):
            for combo in itertools.product(letters, repeat=length):
                brute.add(normal_form(k3, combo))
        assert set(enumerate_words(k3, 3)) == brute

    def test_infinite_factor_rejected(self, mixed_system):
        from whitefact.errors import OracleUnavailableError

        with pytest.raises(OracleUnavailableError):
            list(enumerate_words(mixed_system, 2))


def test_word_str_smoke(k3):
    assert str(empty_word(k3)) == "1"
    assert str(word(k3, [(1, 1), (2, 1)])) == "1:1.2:1"
