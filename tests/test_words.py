import copy
import itertools
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from whitefact import jsonio
from whitefact.autos import _push_move, whitehead_auto
from whitefact.errors import FactorMismatchError, SystemMismatchError
from whitefact.factors import (
    CyclicBackend,
    FactorAutoPart,
    FactorElement,
    FactorSystem,
    IntBackend,
    TableBackend,
)
from whitefact.labellings import _translate
from whitefact.words import (
    Word,
    _join,
    empty_word,
    enumerate_words,
    letter,
    normal_form,
    right_divide,
    split_own_head,
    word,
    word_mul,
)

from test_jsonio import WIRE_SYSTEMS


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
        assert w.syllables == ((1, 1), (2, 1), (1, 1))

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
            assert left[0] != right[0]
        assert not any(k3.is_identity(s) for s in w.syllables)


def reference_normal_form(system, letters):
    """Reference loop: two is_identity calls per letter, no identity lookup."""
    out = []
    for s in letters:
        if system.is_identity(s):
            continue
        if out and out[-1][0] == s[0]:
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
        assert [f for f, _ in u.inverse().syllables] == [1, 2]

    def test_mul_without_cancellation(self, k3):
        u = word(k3, [(1, 1), (2, 1)])
        out = word_mul(u, word(k3, [(1, 1)]))
        assert [f for f, _ in out.syllables] == [1, 2, 1]

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


class TestSyllablesAreExactTuples:
    """Every syllable the engine builds is an exact (factor, payload) tuple,
    not a FactorElement: CPython specializes indexing and unpacking only on
    exact tuples.  Each engine path below merges or rebuilds syllables, so
    one that returns to the subclass fails here."""

    @staticmethod
    def assert_exact(syllables):
        for s in syllables:
            assert type(s) is tuple and len(s) == 2, s

    @staticmethod
    def random_letters(system, rng, count):
        """Plain letters over the system's factors, same-factor neighbours common."""
        letters = []
        for _ in range(count):
            f = rng.randint(1, system.n)
            order = system.orders[f - 1]
            letters.append((f, rng.randrange(order) if order else rng.randint(-4, 4)))
        return letters

    def test_normal_form_inverse_and_part_apply(self, s3_z2_z_z5):
        system = s3_z2_z_z5
        rng = random.Random(23)
        merged = 0
        for _ in range(200):
            letters = self.random_letters(system, rng, 30)
            w = normal_form(system, letters)
            merged += sum(s not in letters for s in w.syllables)
            self.assert_exact(w.syllables)
            self.assert_exact(w.inverse().syllables)
            for f, p in w.syllables:
                part = FactorAutoPart(f, rng.choice(system.factor(f).automorphism_reps()))
                self.assert_exact([system.part_apply(part, FactorElement(f, p))])
            f = rng.randint(1, system.n)
            self.assert_exact([system.element(f, 1), system.inverse(FactorElement(f, 1))])
        assert merged > 100

    def test_kernel(self, s3_z2_z_z5):
        system = s3_z2_z_z5
        rng = random.Random(29)
        merged = 0
        for _ in range(300):
            i = rng.randint(1, system.n)
            others = [j for j in range(1, system.n + 1) if j != i]
            payload = 2 if system.orders[i - 1] != 2 else 1
            move = whitehead_auto(system, rng.sample(others, 2), FactorElement(i, payload))
            assert type(move.element) is tuple
            slots = [normal_form(system, self.random_letters(system, rng, 12)).syllables] * 2
            pushed = _push_move(system, (move.moved, move.element), slots, [True, False])
            kept = set(itertools.chain(*slots, [move.element, system.inverse(move.element)]))
            merged += sum(s not in kept for g in pushed for s in g)
            self.assert_exact(s for g in pushed for s in g)
        assert merged > 50

    def test_decoder(self, s3_z2_z_z5):
        system = s3_z2_z_z5
        rng = random.Random(31)
        for _ in range(200):
            # cyclic payloads out of range take the normalize path; a table
            # index out of range would be a SchemaError, so those are dropped
            obj = [[f, p + rng.choice([0, 0, 5, -6])] for f, p in self.random_letters(system, rng, 20)]
            obj = [[f, p] for f, p in obj if system.factor(f).kind != "table" or 0 <= p < 6]
            self.assert_exact(jsonio.word_from_json(system, obj).syllables)


def random_reduced(system, rng, count):
    """Syllables of a reduced word from count random letters; Z payloads up
    to 10^30 in size."""
    letters = []
    for _ in range(count):
        f = rng.randint(1, system.n)
        order = system.orders[f - 1]
        if order is not None:
            p = rng.randrange(order)
        else:
            p = rng.choice([rng.randint(-3, 3), rng.randint(-(10**30), 10**30)])
        letters.append((f, p))
    return normal_form(system, letters).syllables


def divided_by_normal_form(system, a, b):
    """a . b^-1 through normal_form, with inverses from the backends."""
    b_inv = tuple((f, system.factor(f).inv(p)) for f, p in reversed(b))
    return normal_form(system, a + b_inv).syllables


class TestRightDivide:
    """right_divide(system, a, b) is the syllables of normal_form(a . b^-1)."""

    @staticmethod
    def pairs(system, rng):
        """A random pair, then the edge cases built from it."""
        x, y = random_reduced(system, rng, rng.randint(0, 8)), random_reduced(system, rng, 6)
        a = normal_form(system, y + x).syllables  # x, or what is left of it, is a suffix
        k = rng.randint(0, len(a))
        yield "random", x, y
        yield "equal", x, x
        yield "a empty", (), x
        yield "b empty", x, ()
        yield "b suffix of a", a, a[k:]
        yield "a suffix of b", a[k:], a
        if x:  # same last factor, different last syllable
            f, p = x[-1]
            if system.orders[f - 1] is None:
                others = [-p]
            else:
                others = [q for q in system.nontrivial_payloads(f) if q != p]
            b = normal_form(system, y + x[:-1]).syllables
            if others and (not b or b[-1][0] != f):
                yield "same last factor", x, b + ((f, rng.choice(others)),)

    @pytest.mark.parametrize("name", sorted(WIRE_SYSTEMS))
    def test_matches_normal_form(self, name):
        system = WIRE_SYSTEMS[name]
        rng = random.Random(47)
        seen = set()
        for _ in range(400):
            for case, a, b in self.pairs(system, rng):
                got = right_divide(system, a, b)
                assert got == divided_by_normal_form(system, a, b), (case, a, b)
                assert type(got) is tuple
                assert all(type(s) is tuple and len(s) == 2 for s in got)
                seen.add(case)
        assert len(seen) == 7

    @pytest.mark.parametrize("name", sorted(WIRE_SYSTEMS))
    def test_translate_by_one_is_the_own_split(self, name):
        system = WIRE_SYSTEMS[name]
        rng = random.Random(53)
        for _ in range(50):
            words = [Word(system, random_reduced(system, rng, 5)) for _ in range(system.n)]
            want = [split_own_head(w, j) for j, w in enumerate(words, start=1)]
            slots = [w.syllables for w in words]
            assert list(_translate(system, slots, ())) == [(b, r.syllables) for b, r in want]


class TestJoin:
    """_join(system, a, b) is the syllables of normal_form(a . b)."""

    @pytest.mark.parametrize("name", sorted(WIRE_SYSTEMS))
    def test_matches_normal_form(self, name):
        # b starts with the inverse of a suffix of a, so the seam cancels
        # that suffix and then stops, merges once or goes on cancelling
        system = WIRE_SYSTEMS[name]
        rng = random.Random(59)
        seen = set()
        for _ in range(400):
            a = random_reduced(system, rng, rng.randint(0, 8))
            cut = rng.randint(0, len(a))
            undo = tuple(map(system.inverses.__getitem__, reversed(a[cut:])))
            b = normal_form(system, undo + random_reduced(system, rng, rng.randint(0, 4))).syllables
            for x, y in ((a, b), (b, a), (a, ()), ((), a)):
                got = _join(system, x, y)
                assert got == normal_form(system, x + y).syllables, (x, y)
                assert type(got) is tuple and all(type(s) is tuple for s in got)
                dropped = len(x) + len(y) - len(got)  # 2 per cancellation, 1 per merge
                kinds = ("no seam", "merge", "cancel", "cancel, merge")
                seen.add(kinds[min(dropped, 2 + dropped % 2)])
        assert len(seen) == 4


class TestWordIsAValue:
    """Word keeps the frozen dataclass's repr, hash, equality and
    immutability, and survives pickling and copying."""

    def test_repr_hash_and_equality(self, k3):
        twin = FactorSystem([CyclicBackend(2), CyclicBackend(2), CyclicBackend(2)])
        w = word(k3, [(1, 1), (2, 1)])
        assert repr(w) == (
            "Word(system=FactorSystem(Z2, Z2, Z2), syllables=((1, 1), (2, 1)))"
        )
        assert hash(w) == hash((k3, ((1, 1), (2, 1))))
        assert twin is not k3 and w == Word(twin, ((1, 1), (2, 1)))
        assert w != Word(k3, ((1, 1),)) and w != ((1, 1), (2, 1))
        assert len({w, Word(twin, w.syllables)}) == 1

    def test_fields_cannot_change(self, k3):
        w = word(k3, [(1, 1)])
        for name, value in (("syllables", ()), ("system", k3), ("other", 1)):
            with pytest.raises(AttributeError):
                setattr(w, name, value)
        with pytest.raises(AttributeError):
            del w.syllables
        assert w.syllables == ((1, 1),)

    def test_pickle_and_copy(self, mixed_system):
        w = normal_form(mixed_system, [(1, 1), (3, -(10**30)), (2, 2)])
        for twin in (pickle.loads(pickle.dumps(w)), copy.copy(w), copy.deepcopy(w)):
            assert twin == w and type(twin) is Word


def test_word_str_smoke(k3):
    assert str(empty_word(k3)) == "1"
    assert str(word(k3, [(1, 1), (2, 1)])) == "1:1.2:1"


class TestLetter:
    """letter normalizes its payload before the identity test, so the word
    it builds is reduced and canonical like word's."""

    def test_payload_reduced_mod_order(self, k3):
        assert letter(k3, (1, 3)) == word(k3, [(1, 1)])
        assert letter(k3, (1, 3)).syllables == ((1, 1),)

    def test_payload_equal_to_identity_mod_order(self, k3):
        assert letter(k3, (1, 2)).is_identity()
        assert letter(k3, (1, 2)) == empty_word(k3)

    def test_table_payload_out_of_range_raises(self):
        z2_table = TableBackend([[0, 1], [1, 0]])
        system = FactorSystem([z2_table, CyclicBackend(2), CyclicBackend(3)])
        with pytest.raises(ValueError, match=r"table index 7 out of range 0\.\.1"):
            letter(system, (1, 7))
        assert str(letter(system, (1, 1)) * letter(system, (2, 1))) == "1:x1.2:1"
