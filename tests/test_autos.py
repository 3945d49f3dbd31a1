import random

import pytest
from hypothesis import given, settings, strategies as st

from whitefact import autos, jsonio
from whitefact.autos import (
    Factorization,
    PureSymmetricAuto,
    WhiteheadAuto,
    _inverted_slots,
    _push_move,
    _verification_failure,
    compose,
    decompose_apex_stabilizer,
    decompose_star_stabilizer,
    evaluate_factorization,
    factor_only_auto,
    factorize,
    identity_auto,
    inner_auto,
    invert,
    is_inner,
    pure_auto,
    recompose_factorization,
    tuple_auto,
    verify_factorization,
    whitehead_auto,
    whitehead_to_auto,
)
from whitefact.errors import (
    FactorMismatchError,
    NonSplittingError,
    NotAStabilizerError,
    SystemMismatchError,
)
from whitefact.factors import (
    CyclicBackend,
    FactorAutoPart,
    FactorElement,
    FactorSystem,
    IntBackend,
    TableBackend,
)
from whitefact.labellings import (
    StarLabel,
    act_on_label,
    apex_label,
    base_label,
    star_equivalent,
    star_label,
    volume,
)
from whitefact.reduction import reduce_to_base
from whitefact.sampling import (
    random_nontrivial_element,
    random_part,
    random_pure_auto,
    random_word,
)
from whitefact.selfcheck import _mutate
from whitefact.words import (
    Word,
    _image,
    empty_word,
    enumerate_words,
    letter,
    normal_form,
    right_divide,
    word,
    word_mul,
)

from conftest import s3_table
from test_reduction import assert_vertex_steps, single_slot_walk
from test_labellings import (
    KEY_SYSTEMS,
    _old_star_translation,
    old_apex_obstruction,
    old_star_witness,
    pin_candidates,
)
from test_words import T3_Z2_Z, random_reduced


def whitehead_inverse(move: WhiteheadAuto) -> WhiteheadAuto:
    """(Y, x)^-1 = (Y, x^-1)."""
    return WhiteheadAuto(move.system, move.moved, move.system.inverse(move.element))


@pytest.fixture(scope="module")
def w(triple_z2):
    s = triple_z2
    return {
        "eps": empty_word(s),
        "a": word(s, [(1, 1)]),
        "b": word(s, [(2, 1)]),
        "c": word(s, [(3, 1)]),
    }


def wh(system, moved, factor, payload=1):
    return whitehead_to_auto(
        whitehead_auto(system, moved, FactorElement(factor, payload))
    )


class TestApply:
    def test_identity(self, triple_z2, w):
        psi = identity_auto(triple_z2)
        assert psi.apply(w["a"] * w["b"]) == w["a"] * w["b"]

    def test_conjugating_one_factor(self, triple_z2, w):
        psi = tuple_auto(triple_z2, [w["eps"], w["eps"], w["b"] * w["a"]])
        expected = w["a"] * w["b"] * w["c"] * w["b"] * w["a"]
        assert psi.apply(w["c"]) == expected

    def test_whitehead_fixes_unmoved_factor(self, triple_z2, w):
        psi = wh(triple_z2, (3,), 1)
        assert psi.apply(w["b"]) == w["b"]

    def test_whitehead_fixes_operating_factor_pointwise(self, z342):
        for i in range(1, 4):
            for j in range(1, 4):
                if i == j:
                    continue
                psi = wh(z342, (j,), i)
                for payload in z342.factor(i).payloads():
                    g = letter(z342, FactorElement(i, payload))
                    assert psi.apply(g) == g

    def test_apply_is_homomorphic(self, z342):
        rng = random.Random(3)
        for _ in range(40):
            psi = random_pure_auto(z342, rng, 3)
            u = random_word(z342, rng, 4)
            v = random_word(z342, rng, 4)
            assert psi.apply(u * v) == psi.apply(u) * psi.apply(v)


class TestCompose:
    def test_identity_neutral(self, triple_z2):
        rng = random.Random(5)
        psi = random_pure_auto(triple_z2, rng, 3)
        for g in (word(triple_z2, [(1, 1)]), word(triple_z2, [(2, 1)])):
            assert compose(psi, identity_auto(triple_z2)).apply(g) == psi.apply(g)
            assert compose(identity_auto(triple_z2), psi).apply(g) == psi.apply(g)

    def test_convention_g_first(self, triple_z2, w):
        # applying ({G3},a) first and ({G3},b) second equals conjugation by b.a
        first, second = wh(triple_z2, (3,), 1), wh(triple_z2, (3,), 2)
        composite = compose(second, first)
        expected = w["a"] * w["b"] * w["c"] * w["b"] * w["a"]
        assert composite.apply(w["c"]) == expected
        assert composite.apply(w["c"]) == inner_auto(triple_z2, w["b"] * w["a"]).apply(w["c"])

    def test_compose_matches_sequential_apply(self, z342):
        rng = random.Random(7)
        for _ in range(30):
            f = random_pure_auto(z342, rng, 3)
            g = random_pure_auto(z342, rng, 3)
            x = random_word(z342, rng, 4)
            assert compose(f, g).apply(x) == f.apply(g.apply(x))

    @pytest.mark.parametrize("fixture", ["z342", "mixed_system"])
    def test_inverse_law(self, request, fixture):
        system = request.getfixturevalue(fixture)
        rng = random.Random(11)
        for _ in range(20):
            psi = random_pure_auto(system, rng, 3)
            inv = invert(psi)
            x = random_word(system, rng, 4)
            assert compose(psi, inv).apply(x) == x
            assert compose(inv, psi).apply(x) == x


class TestIsInner:
    def test_identity_gives_trivial_witness(self, triple_z2):
        assert is_inner(identity_auto(triple_z2)).is_identity()

    def test_explicit_inner_recovered(self, triple_z2, w):
        h = w["a"] * w["b"]
        assert is_inner(inner_auto(triple_z2, h)) == h

    @pytest.mark.parametrize("fixture", ["z342", "mixed_system"])
    def test_inner_recovered_up_to_encoding(self, request, fixture):
        system = request.getfixturevalue(fixture)
        rng = random.Random(13)
        for _ in range(40):
            h = random_word(system, rng, 4)
            witness = is_inner(inner_auto(system, h))
            assert witness == h

    def test_disguised_inner_with_nonabelian_part(self, mixed_system):
        # parts (conj_u, g) with u a table-factor element encode conjugation by u.g
        rng = random.Random(15)
        for _ in range(25):
            u = FactorElement(1, rng.choice(mixed_system.nontrivial_payloads(1)))
            g = random_word(mixed_system, rng, 3)
            parts = []
            for k in range(1, 4):
                phi = (
                    mixed_system.conjugation_part(u)
                    if k == 1
                    else mixed_system.part_identity(k)
                )
                conj = g if k == 1 else letter(mixed_system, u) * g
                parts.append((phi, conj))
            psi = pure_auto(mixed_system, parts)
            expected = letter(mixed_system, u) * g
            assert is_inner(psi) == expected

    def test_whitehead_not_inner(self, triple_z2):
        assert is_inner(wh(triple_z2, (3,), 1)) is None

    def test_whitehead_outer_classes_with_central_elements(self, z342):
        # for an abelian operating factor, (Y, x) and (complement, x^-1)
        # differ by the inner conjugation by x; with n = 3 the complement of
        # a singleton is again a singleton, so those are the only collisions
        moves = []
        for i in range(1, 4):
            for j in range(1, 4):
                if i == j:
                    continue
                for payload in z342.nontrivial_payloads(i):
                    moves.append(whitehead_auto(z342, (j,), FactorElement(i, payload)))

        def partner(move):
            other = ({1, 2, 3} - {move.operating, move.moved[0]}).pop()
            return whitehead_auto(
                z342, (other,), z342.inverse(move.element)
            )

        for left in moves:
            for right in moves:
                quotient = compose(
                    whitehead_to_auto(left),
                    whitehead_to_auto(whitehead_inverse(right)),
                )
                expected = left == right or right == partner(left)
                assert (is_inner(quotient) is not None) == expected

    def test_unique_whitehead_representative_four_factors(self, z3422):
        # with n >= 4 a singleton move's partner is not a singleton, so
        # distinct singleton Whitehead data lie in distinct outer classes
        moves = []
        for i in range(1, 5):
            for j in range(1, 5):
                if i == j:
                    continue
                moves.append(
                    whitehead_auto(
                        z3422, (j,), FactorElement(i, z3422.nontrivial_payloads(i)[0])
                    )
                )
        for left in moves:
            for right in moves:
                quotient = compose(
                    whitehead_to_auto(left),
                    whitehead_to_auto(whitehead_inverse(right)),
                )
                assert (is_inner(quotient) is not None) == (left == right)


class TestStabilizers:
    def test_factor_auto_star(self, z342):
        parts = [FactorAutoPart(1, 2), FactorAutoPart(2, 3), FactorAutoPart(3, 1)]
        psi = factor_only_auto(z342, parts)
        out_parts, inner = decompose_star_stabilizer(psi)
        assert inner.is_identity()
        assert list(out_parts) == parts

    def test_inner_star(self, triple_z2, w):
        h = w["a"] * w["b"]
        parts, inner = decompose_star_stabilizer(inner_auto(triple_z2, h))
        assert inner == h
        assert all(triple_z2.part_is_identity(p) for p in parts)

    def test_whitehead_not_star_stabilizer(self, triple_z2):
        with pytest.raises(NotAStabilizerError) as err:
            decompose_star_stabilizer(wh(triple_z2, (3,), 1))
        assert err.value.slot == 3
        assert str(err.value) == "not a stabilizer: slot 3 obstructs"

    def test_star_decomposition_recomposes(self, z342):
        rng = random.Random(17)
        for _ in range(25):
            h = random_word(z342, rng, 3)
            parts = [
                FactorAutoPart(k, rng.choice(z342.factor(k).automorphism_reps()))
                for k in range(1, 4)
            ]
            psi = compose(inner_auto(z342, h), factor_only_auto(z342, parts))
            out_parts, inner = decompose_star_stabilizer(psi)
            rebuilt = compose(inner_auto(z342, inner), factor_only_auto(z342, out_parts))
            for k in range(1, 4):
                for payload in z342.factor(k).payloads():
                    g = letter(z342, FactorElement(k, payload))
                    assert rebuilt.apply(g) == psi.apply(g)

    def test_whitehead_stabilizes_own_apex(self, triple_z2):
        moves, parts = decompose_apex_stabilizer(wh(triple_z2, (2,), 1), 1)
        assert [(m.moved, m.element) for m in moves] == [
            ((2,), FactorElement(1, 1))
        ]
        assert all(triple_z2.part_is_identity(p) for p in parts)

    def test_factor_auto_stabilizes_every_apex(self, z342):
        parts = [FactorAutoPart(1, 2), FactorAutoPart(2, 1), FactorAutoPart(3, 1)]
        psi = factor_only_auto(z342, parts)
        for apex in range(1, 4):
            moves, out_parts = decompose_apex_stabilizer(psi, apex)
            assert moves == []
            assert list(out_parts) == parts

    def test_wrong_apex_rejected(self, triple_z2):
        with pytest.raises(NotAStabilizerError):
            decompose_apex_stabilizer(wh(triple_z2, (1,), 2), 1)

    def test_apex_decomposition_recomposes_up_to_inner(self, z342):
        rng = random.Random(19)
        for _ in range(25):
            apex = rng.randint(1, 3)
            factors = [
                whitehead_auto(
                    z342,
                    (j,),
                    FactorElement(apex, rng.choice(z342.nontrivial_payloads(apex))),
                )
                for j in range(1, 4)
                if j != apex and rng.random() < 0.8
            ]
            psi = identity_auto(z342)
            for move in factors:
                psi = compose(whitehead_to_auto(move), psi)
            psi = compose(psi, inner_auto(z342, random_word(z342, rng, 3)))
            moves, parts = decompose_apex_stabilizer(psi, apex)
            rebuilt = factor_only_auto(z342, parts)
            for move in reversed(moves):
                rebuilt = compose(whitehead_to_auto(move), rebuilt)
            assert all(m.operating == apex for m in moves)
            assert is_inner(compose(psi, invert(rebuilt))) is not None


# -- the split helpers as they stood before the conjugated split, kept as
# oracles: each strips heads, pins and absorbs by its own hand-written loop.


def _strip_head(w, k):
    if w.syllables and w.syllables[0][0] == k:
        return w.syllables[0], Word(w.system, w.syllables[1:])
    return None, w


def old_split_canonical(psi):
    system = psi.system
    words = []
    parts = []
    for k in range(1, system.n + 1):
        head, conj = _strip_head(psi.conjugator(k), k)
        part = psi.phi(k)
        if head is not None:
            part = system.part_compose(system.conjugation_part(head), part)
        words.append(conj)
        parts.append(part)
    return tuple(words), tuple(parts)


def canonical_auto(psi):
    """psi in its canonical split, by the hand-written loop above."""
    words, parts = old_split_canonical(psi)
    return pure_auto(psi.system, list(zip(parts, words)))


def old_star_split(system, words, parts0):
    """((parts, witness), None), or (None, first slot with a non-empty core)."""
    g = _old_star_translation(StarLabel(system, words))
    pins = [_strip_head(slot * g, j) for j, slot in enumerate(words, start=1)]
    for j, (_, core) in enumerate(pins, start=1):
        if core.syllables:
            return None, j
    parts = tuple(
        system.part_compose(
            system.conjugation_part((k, system.factor(k).identity_payload) if b is None else b),
            parts0[k - 1],
        )
        for k, (b, _) in enumerate(pins, start=1)
    )
    return (parts, g.inverse()), None


def old_apply_parts(parts, word_in):
    system = word_in.system
    letters = [system.part_apply(parts[f - 1], (f, p)) for f, p in word_in.syllables]
    return normal_form(system, letters)


def old_is_inner(psi):
    system = psi.system
    split, _ = old_star_split(system, *old_split_canonical(psi))
    if split is None or not all(system.part_is_identity(p) for p in split[0]):
        return None
    return split[1]


def old_apex_split(psi, i):
    """(moves, parts), or the first slot whose double-coset core is non-empty."""
    system = psi.system
    words, parts0 = old_split_canonical(psi)
    shift = words[i - 1].inverse()
    moves = []
    parts = []
    for j in range(1, system.n + 1):
        if j == i:
            parts.append(parts0[j - 1])
            continue
        b, rest = _strip_head(words[j - 1] * shift, j)
        if rest.syllable_count() > 1 or rest.trailing_factor() not in (None, i):
            return j
        parts.append(
            system.part_compose(
                system.conjugation_part((j, system.factor(j).identity_payload) if b is None else b),
                parts0[j - 1],
            )
        )
        if rest.syllables:
            moves.append(WhiteheadAuto(system, (j,), rest.syllables[0]))
    return moves, tuple(parts)


def _move_through(system, op, rng):
    """A Whitehead move with operating factor op and a random moved set."""
    others = [j for j in range(1, system.n + 1) if j != op]
    moved = rng.sample(others, rng.randint(1, len(others)))
    return whitehead_to_auto(
        whitehead_auto(system, moved, random_nontrivial_element(system, op, rng))
    )


def _stabilizer_candidates(system, rng, count):
    """Apex stabilizers (moves through one operating factor, factor parts and
    an inner), half of them spoiled by a move through another factor, and
    random automorphisms, splitting or not."""
    n = system.n
    out = []
    for k in range(count):
        if k % 2:
            parts = [random_part(system, j, rng) for j in range(1, n + 1)]
            out.append(pure_auto(system, [(p, random_word(system, rng, 3)) for p in parts]))
            continue
        i = rng.randint(1, n)
        psi = factor_only_auto(system, [random_part(system, j, rng) for j in range(1, n + 1)])
        for _ in range(rng.randint(0, 3)):
            psi = compose(_move_through(system, i, rng), psi)
        psi = compose(psi, inner_auto(system, random_word(system, rng, 3)))
        if rng.random() < 0.5:
            op = rng.choice([j for j in range(1, n + 1) if j != i])
            psi = compose(_move_through(system, op, rng), psi)
        out.append(psi)
    return out


def _error_slot(decompose, *args):
    """The NotAStabilizerError slot of a decomposition, or None on success."""
    try:
        decompose(*args)
    except NotAStabilizerError as err:
        return err.slot
    return None


class TestStabilizerErrorSlot:
    """Both decompositions name the slot the pairwise deciders obstruct at."""

    @pytest.mark.parametrize("fixture", KEY_SYSTEMS)
    def test_matches_pairwise_obstruction(self, request, fixture):
        system = request.getfixturevalue(fixture)
        n = system.n
        eps = empty_word(system)
        rng = random.Random(71)
        seen = {"star": set(), "apex": set()}
        for psi in _stabilizer_candidates(system, rng, 160):
            words = old_split_canonical(psi)[0]
            expected = old_star_witness(base_label(system), star_label(system, words))[1]
            assert _error_slot(decompose_star_stabilizer, psi) == expected
            seen["star"].add(expected)
            for i in range(1, n + 1):
                base_apex = apex_label(system, i, [eps] * n)
                expected = old_apex_obstruction(apex_label(system, i, words), base_apex)
                assert _error_slot(decompose_apex_stabilizer, psi, i) == expected
                seen["apex"].add(expected)
        # successes, and errors at more than one slot, on both sides
        assert None in seen["star"] and len(seen["star"]) >= 3
        assert None in seen["apex"] and len(seen["apex"]) >= 3


def _split_candidates(system, rng, count):
    """Star stabilizers (factor parts and an inner on either side, a third of
    them inner only), then the apex-stabilizer and random candidates."""
    n = system.n
    out = []
    for k in range(count):
        parts = [
            random_part(system, j, rng) if k % 3 else system.part_identity(j)
            for j in range(1, n + 1)
        ]
        inner = inner_auto(system, random_word(system, rng, 4))
        factor = factor_only_auto(system, parts)
        out.append(compose(inner, factor) if rng.random() < 0.5 else compose(factor, inner))
    return out + _stabilizer_candidates(system, rng, count)


class TestConjugatedSplit:
    """The star, apex and inner splits give the results of the hand-written
    loops they replaced, successes included.  Only a non-abelian factor
    tells conj(b) o phi from phi o conj(b), so S3 systems get more cases."""

    @pytest.mark.parametrize("fixture", KEY_SYSTEMS)
    def test_matches_old_splits(self, request, fixture):
        system = request.getfixturevalue(fixture)
        rng = random.Random(73)
        count = 120 if fixture.startswith("s3") else 40
        successes = {"star": 0, "apex": 0, "inner": 0}
        for psi in _split_candidates(system, rng, count):
            split, slot = old_star_split(system, *old_split_canonical(psi))
            if split is None:
                assert _error_slot(decompose_star_stabilizer, psi) == slot
            else:
                assert decompose_star_stabilizer(psi) == split
                successes["star"] += 1
            inner = old_is_inner(psi)
            assert is_inner(psi) == inner
            successes["inner"] += inner is not None
            for i in range(1, system.n + 1):
                expected = old_apex_split(psi, i)
                if isinstance(expected, int):
                    assert _error_slot(decompose_apex_stabilizer, psi, i) == expected
                else:
                    assert decompose_apex_stabilizer(psi, i) == expected
                    successes["apex"] += 1
        assert min(successes.values()) >= count // 4


class TestFactorize:
    def test_identity(self, triple_z2):
        fact = factorize(identity_auto(triple_z2))
        assert fact.whitehead == ()
        assert fact.inner.is_identity()
        assert all(triple_z2.part_is_identity(p) for p in fact.factor)

    def test_conjugate_one_factor_by_two_syllables(self, triple_z2, w):
        psi = tuple_auto(triple_z2, [w["eps"], w["eps"], w["b"] * w["a"]])
        fact = factorize(psi)
        assert [(m.moved, m.element) for m in fact.whitehead] == [
            ((3,), FactorElement(2, 1)),
            ((3,), FactorElement(1, 1)),
        ]
        assert all(triple_z2.part_is_identity(p) for p in fact.factor)
        assert fact.inner.is_identity()
        assert verify_factorization(psi, fact)

    def test_inner_goes_to_inner_witness(self, triple_z2, w):
        h = w["a"] * w["b"]
        fact = factorize(inner_auto(triple_z2, h))
        assert fact.whitehead == ()
        assert verify_factorization(inner_auto(triple_z2, h), fact)
        assert is_inner(inner_auto(triple_z2, fact.inner)) == fact.inner

    def test_whitehead_count_bound(self, z3422):
        rng = random.Random(23)
        for _ in range(40):
            psi = random_pure_auto(z3422, rng, 6)
            label = star_label(
                z3422, [psi.conjugator(k) for k in range(1, z3422.n + 1)]
            )
            fact = factorize(psi)
            assert len(fact.whitehead) <= (volume(label) - z3422.n) // 2

    @pytest.mark.parametrize("fixture", ["triple_z2", "z342", "z3422", "mixed_system"])
    def test_roundtrip_random(self, request, fixture):
        system = request.getfixturevalue(fixture)
        rng = random.Random(29)
        for _ in range(40):
            psi = random_pure_auto(system, rng, 5)
            fact = factorize(psi)
            assert verify_factorization(psi, fact)

    def test_recompose_matches(self, z342):
        rng = random.Random(31)
        for _ in range(20):
            psi = random_pure_auto(z342, rng, 4)
            fact = factorize(psi)
            rebuilt = recompose_factorization(z342, fact)
            for k in range(1, 4):
                for payload in z342.factor(k).payloads():
                    g = letter(z342, FactorElement(k, payload))
                    assert rebuilt.apply(g) == psi.apply(g)

    def test_action_roundtrip_through_base(self, triple_z2):
        rng = random.Random(37)
        for _ in range(20):
            psi = random_pure_auto(triple_z2, rng, 4)
            label = act_on_label(base_label(triple_z2), psi)
            back = act_on_label(label, invert(psi))
            assert star_equivalent(back, base_label(triple_z2)) is not None


class TestVerify:
    def test_empty_factorization_is_identity(self, triple_z2):
        fact = Factorization(
            (),
            tuple(triple_z2.part_identity(k) for k in range(1, 4)),
            empty_word(triple_z2),
        )
        assert verify_factorization(identity_auto(triple_z2), fact)

    def test_dropping_a_whitehead_fails(self, triple_z2, w):
        psi = tuple_auto(triple_z2, [w["eps"], w["eps"], w["b"] * w["a"]])
        fact = factorize(psi)
        mutated = Factorization(fact.whitehead[1:], fact.factor, fact.inner)
        assert not verify_factorization(psi, mutated)

    def test_evaluation_order(self, triple_z2, w):
        # inner first, factor parts second, whitehead list right to left
        fact = Factorization(
            (
                whitehead_auto(triple_z2, (3,), FactorElement(2, 1)),
                whitehead_auto(triple_z2, (3,), FactorElement(1, 1)),
            ),
            tuple(triple_z2.part_identity(k) for k in range(1, 4)),
            empty_word(triple_z2),
        )
        out = evaluate_factorization(triple_z2, fact, w["c"])
        assert out == w["a"] * w["b"] * w["c"] * w["b"] * w["a"]

    def test_bool_formats_nothing(self, triple_z2, w, monkeypatch):
        psi = tuple_auto(triple_z2, [w["eps"], w["eps"], w["b"] * w["a"]])
        fact = factorize(psi)
        mutated = Factorization(fact.whitehead[1:], fact.factor, fact.inner)

        def refuse(word):
            raise AssertionError("a word was formatted")

        monkeypatch.setattr(Word, "__str__", refuse)
        assert not verify_factorization(psi, mutated)
        with pytest.raises(AssertionError, match="formatted"):
            _verification_failure(psi, mutated)

    def test_malformed_parts_fail(self, z342):
        # library-built values: parts missing, or placed in another factor's slot
        eps = empty_word(z342)
        parts = tuple(z342.part_identity(k) for k in range(1, 4))
        swapped = (parts[1], parts[0], parts[2])
        psi = identity_auto(z342)
        fact = Factorization((), parts, eps)
        cases = [
            (psi, Factorization((), parts[:2], eps), "factorization parts: 2 for 3 factors"),
            (psi, Factorization((), swapped, eps), "factorization part 1: belongs to factor 2"),
            (PureSymmetricAuto(z342, psi.parts[:2]), fact, "psi parts: 2 for 3 factors"),
            (
                PureSymmetricAuto(z342, tuple((p, eps) for p in swapped)),
                fact,
                "psi part 1: belongs to factor 2",
            ),
        ]
        for target, candidate, line in cases:
            assert _verification_failure(target, candidate) == line
            assert not verify_factorization(target, candidate)

    def test_foreign_factorization_raises(self, z342, triple_z2):
        parts = tuple(z342.part_identity(k) for k in range(1, 4))
        foreign_inner = Factorization((), parts, word(triple_z2, [(1, 1)]))
        foreign_move = Factorization(
            (whitehead_auto(triple_z2, (2,), FactorElement(1, 1)),), parts, empty_word(z342)
        )
        for candidate in (foreign_inner, foreign_move):
            with pytest.raises(SystemMismatchError):
                verify_factorization(identity_auto(z342), candidate)


def all_elements_verify(psi, f):
    """Reference check: agreement on every element of every finite factor
    (and on -3..3 for Z), with no homomorphism argument.  The factorization
    side is the compose loop, so the Whitehead kernel is never used."""
    system = psi.system
    got = old_recompose_factorization(system, f)
    for k in range(1, system.n + 1):
        backend = system.factor(k)
        payloads = backend.payloads() if backend.is_finite() else range(-3, 4)
        for payload in payloads:
            w = letter(system, FactorElement(k, payload))
            if got.apply(w) != psi.apply(w):
                return False
    return True


def random_factorization(system, rng):
    moves = []
    for _ in range(rng.randint(0, 4)):
        x = random_nontrivial_element(system, rng.randint(1, system.n), rng)
        others = [j for j in range(1, system.n + 1) if j != x[0]]
        moves.append(whitehead_auto(system, rng.sample(others, rng.randint(1, 2)), x))
    parts = tuple(random_part(system, k, rng) for k in range(1, system.n + 1))
    return Factorization(tuple(moves), parts, random_word(system, rng, 3))


VERIFY_SYSTEMS = {
    "Z3*Z4*Z2*Z2": lambda: FactorSystem([CyclicBackend(m) for m in (3, 4, 2, 2)]),
    "S3*Z2*Z2": lambda: FactorSystem([s3_table(), CyclicBackend(2), CyclicBackend(2)]),
    "S3*Z2*Z*Z5": lambda: FactorSystem(
        [s3_table(), CyclicBackend(2), IntBackend(), CyclicBackend(5)]
    ),
}


class TestVerifyOnGenerators:
    @pytest.mark.parametrize("name", VERIFY_SYSTEMS)
    def test_agrees_with_all_elements(self, name):
        system = VERIFY_SYSTEMS[name]()
        rng = random.Random(41)
        outcomes = []
        for _ in range(25):
            psi = random_pure_auto(system, rng, 4)
            fact = factorize(psi)
            cases = [(psi, fact)]
            for index in range(len(fact.whitehead)):
                cases.extend((psi, m) for m in _mutate(system, fact, index, rng))
            made = random_factorization(system, rng)
            cases.append((recompose_factorization(system, made), made))
            cases.append((psi, made))
            for target, candidate in cases:
                expected = all_elements_verify(target, candidate)
                assert verify_factorization(target, candidate) == expected
                outcomes.append(expected)
        assert True in outcomes and False in outcomes

    def test_non_homomorphism_part_rejected(self):
        system = VERIFY_SYSTEMS["S3*Z2*Z2"]()
        # swaps (123) and (132) and fixes the generators (12), (13): agrees
        # with the identity on generators, but is no automorphism of S3
        bad = FactorAutoPart(1, (0, 1, 2, 3, 5, 4))
        assert system.part_validate(bad) is not None
        good = tuple(system.part_identity(k) for k in range(1, 4))
        parts = (bad,) + good[1:]
        identity = Factorization((), good, empty_word(system))
        fact = Factorization((), parts, empty_word(system))
        psi = PureSymmetricAuto(system, tuple((p, empty_word(system)) for p in parts))
        # the bad part on either side against the identity
        for target, candidate in ((identity_auto(system), fact), (psi, identity)):
            assert not all_elements_verify(target, candidate)
            assert not verify_factorization(target, candidate)
        # the same map on both sides agrees on every element, yet neither
        # side is an automorphism
        assert all_elements_verify(psi, fact)
        assert not verify_factorization(psi, fact)


# -- the generator-evaluating check that the recomposition replaced, kept as
# the oracle for verify's answers and failure lines; its factorization side
# is the compose loop, not the Whitehead kernel that verify pushes moves with


def old_verification_failure(psi, f):
    system = psi.system
    for side, parts in (("factorization", f.factor), ("psi", [p for p, _ in psi.parts])):
        for part in parts:
            message = system.part_validate(part)
            if message is not None:
                return f"{side} part {part.factor}: {message}"
    recomposed = old_recompose_factorization(system, f)
    for k in range(1, system.n + 1):
        for payload in system.factor(k).generators():
            w = letter(system, FactorElement(k, payload))
            got = recomposed.apply(w)
            want = psi.apply(w)
            if got != want:
                return f"generator {w}: factorization gives {got}, psi gives {want}"
    return None


ORACLE_SYSTEMS = {
    "Z2*Z2*Z2": lambda: FactorSystem([CyclicBackend(2)] * 3),
    "Z3*Z4*Z2*Z2": VERIFY_SYSTEMS["Z3*Z4*Z2*Z2"],
    "S3*Z2*Z*Z5": VERIFY_SYSTEMS["S3*Z2*Z*Z5"],
}


def drawn_factorization(system, rng):
    """Up to four random moves, random factor parts and an inner word of
    three letters; any factor may be moved."""
    factors = range(1, system.n + 1)
    moves = []
    for _ in range(rng.randint(0, 4)):
        x = random_nontrivial_element(system, rng.choice(factors), rng)
        others = [j for j in range(1, system.n + 1) if j != x[0]]
        moves.append(whitehead_auto(system, rng.sample(others, rng.randint(1, len(others))), x))
    parts = tuple(random_part(system, k, rng) for k in range(1, system.n + 1))
    letters = [random_nontrivial_element(system, rng.choice(factors), rng) for _ in range(3)]
    return Factorization(tuple(moves), parts, normal_form(system, letters))


class TestVerifyMatchesGeneratorOracle:
    """The recomposition gives the generator check's bool and failure line."""

    @pytest.mark.parametrize("name", ORACLE_SYSTEMS)
    def test_bool_and_message(self, name):
        system = ORACLE_SYSTEMS[name]()
        rng = random.Random(43)
        factors = range(1, system.n + 1)
        outcomes = []
        for _ in range(30):
            psi = recompose_factorization(system, drawn_factorization(system, rng))
            fact = factorize(psi)
            extra = letter(system, random_nontrivial_element(system, rng.choice(factors), rng))
            cases = [
                fact,
                Factorization(fact.whitehead[::-1], fact.factor, fact.inner),
                Factorization(fact.whitehead, fact.factor, fact.inner * extra),
                drawn_factorization(system, rng),
            ]
            for index in range(len(fact.whitehead)):
                cases.extend(_mutate(system, fact, index, rng))
            for candidate in cases:
                expected = old_verification_failure(psi, candidate)
                assert _verification_failure(psi, candidate) == expected
                assert verify_factorization(psi, candidate) == (expected is None)
                outcomes.append(expected is None)
        assert True in outcomes and False in outcomes

    def test_oracles_run_without_the_kernel(self, monkeypatch):
        system = ORACLE_SYSTEMS["S3*Z2*Z*Z5"]()
        rng = random.Random(47)
        fact = drawn_factorization(system, rng)
        while not fact.whitehead:
            fact = drawn_factorization(system, rng)
        psi = recompose_factorization(system, fact)
        dropped = Factorization(fact.whitehead[1:], fact.factor, fact.inner)
        want_line = _verification_failure(psi, dropped)
        assert want_line is not None

        def refuse(*args):
            raise AssertionError("the Whitehead kernel was called")

        monkeypatch.setattr(autos, "_push_move", refuse)
        with pytest.raises(AssertionError, match="kernel"):
            recompose_factorization(system, fact)
        assert all_elements_verify(psi, fact)
        assert old_verification_failure(psi, fact) is None
        assert not all_elements_verify(psi, dropped)
        assert old_verification_failure(psi, dropped) == want_line


class TestStarPinSplit:
    """decompose_star_stabilizer, split once at the pin's divisor, gives the
    split and the failing slot of the product-formed pin."""

    @pytest.mark.parametrize("fixture", KEY_SYSTEMS)
    def test_matches_old_pin(self, request, fixture):
        system = request.getfixturevalue(fixture)
        rng = random.Random(89)
        slots = []
        for words in pin_candidates(system, rng, 200):
            parts = [random_part(system, k, rng) for k in range(1, system.n + 1)]
            psi = pure_auto(system, list(zip(parts, words)))
            split, slot = old_star_split(system, *old_split_canonical(psi))
            if split is None:
                assert _error_slot(decompose_star_stabilizer, psi) == slot
            else:
                assert decompose_star_stabilizer(psi) == split
            slots.append(slot)
        assert None in slots and len(set(slots)) >= 3


class TestMutate:
    def test_full_moved_set_with_z2_element(self, triple_z2):
        # ({2, 3}, x) with x in Z2: x has no alternate and every other factor
        # is already moved, so the mutant drops a factor from Y instead
        move = whitehead_auto(triple_z2, (2, 3), FactorElement(1, 1))
        parts = tuple(triple_z2.part_identity(k) for k in range(1, 4))
        fact = Factorization((move,), parts, empty_word(triple_z2))
        psi = recompose_factorization(triple_z2, fact)
        for seed in range(4):
            deleted, changed = _mutate(triple_z2, fact, 0, random.Random(seed))
            assert deleted.whitehead == ()
            (mutant,) = changed.whitehead
            assert mutant.element == move.element
            assert mutant.moved in ((2,), (3,))
            assert (changed.factor, changed.inner) == (fact.factor, fact.inner)
            for candidate in (deleted, changed):
                assert not verify_factorization(psi, candidate)


def vertex_walk(label):
    """(i, Y, a) per step of the library's walk."""
    return [(m.i, m.moved, m.element) for m in reduce_to_base(label)[1]]


def spoke_walk(label):
    """(i, {j}, a) per step of the single-slot walk."""
    return [(i, (j,), element) for i, j, element, *_ in single_slot_walk(label)[1]]


def replay_factorize(psi, walk, from_root=False):
    """Reference factorize that ignores MoveRecord.shed: it translates the
    canonical tuple to the least-volume basepoint x (the root with
    from_root), replays every move (i, Y, a) of walk on it and strips each
    slot's own-factor syllable itself; the inner word is F^-1(W^-1(x)),
    with the inverse moves applied through compose-level automorphisms.
    With spoke_walk it is the factorize of the single-slot walk."""
    system = psi.system
    words, parts0 = old_split_canonical(psi)
    split, _ = old_star_split(system, words, parts0)
    if split is not None:
        parts, witness = split
        h = old_apply_parts([system.part_invert(p) for p in parts], witness)
        return Factorization((), parts, h)
    x = empty_word(system)
    if not from_root:
        x = Word(system, autos._basepoint([w.syllables for w in words]))
        words, parts0 = old_split_canonical(compose(inner_auto(system, x.inverse()), psi))
    label = star_label(system, words)
    slots = list(words)
    replay = []
    for i, moved, element in walk(label):
        gi = slots[i - 1]
        c = gi.inverse() * letter(system, element) * gi
        stripped = []
        for j in moved:
            raw = slots[j - 1] * c
            if raw.syllables and raw.syllables[0][0] == j:
                stripped.append((j, raw.syllables[0]))
                raw = Word(system, raw.syllables[1:])
            slots[j - 1] = raw
        replay.append((i, moved, element, stripped))
    assert all(s.is_identity() for s in slots)
    correction = [system.part_identity(k) for k in range(1, system.n + 1)]
    whitehead = []
    for i, moved, element, stripped in reversed(replay):
        for j, b in stripped:
            correction[j - 1] = system.part_compose(
                correction[j - 1], system.conjugation_part(b)
            )
        moved_element = system.part_apply(correction[i - 1], system.inverse(element))
        whitehead.append(WhiteheadAuto(system, moved, moved_element))
    factor_parts = tuple(
        system.part_compose(correction[k - 1], parts0[k - 1])
        for k in range(1, system.n + 1)
    )
    h = x
    for move in whitehead:
        h = whitehead_to_auto(whitehead_inverse(move)).apply(h)
    h = old_apply_parts([system.part_invert(p) for p in factor_parts], h)
    return Factorization(tuple(whitehead), factor_parts, h)


SHED_SYSTEMS = {
    "Z2*Z2*Z2": lambda: FactorSystem([CyclicBackend(2)] * 3),
    **VERIFY_SYSTEMS,
}


class TestShedSyllable:
    @pytest.mark.parametrize("name", SHED_SYSTEMS)
    def test_matches_replay(self, name):
        # Conjugation by a shed syllable is trivial on abelian factors, so
        # only the S3 factor tells a wrong shed apart: sample it more.  The
        # single-slot walk's factorization is the oracle: both verify, and
        # on this sample the vertex walk never has more moves (not a
        # theorem: a few tuples take one step more, see test_reduction).
        # From the least-volume basepoint a walk over three factors folds
        # one slot per step, so the vertex walk's gain is counted on the
        # walks from the root.  Its walks shed S3 syllables less often (8
        # in 1000 draws on S3*Z2*Z*Z5, against 11 from the root), so S3
        # draws twice as many tuples as the root walks needed.
        system = SHED_SYSTEMS[name]()
        s3 = name.startswith("S3")
        rng = random.Random(47)
        s3_sheds = 0
        counts = [0, 0, 0]
        for _ in range(300 if s3 else 40):
            psi = random_pure_auto(system, rng, 5)
            fact = factorize(psi)
            assert fact == replay_factorize(psi, vertex_walk)
            single = replay_factorize(psi, spoke_walk)
            assert verify_factorization(psi, fact) and verify_factorization(psi, single)
            assert len(fact.whitehead) <= len(single.whitehead)
            for index in range(len(fact.whitehead)):
                kept = fact.whitehead[:index] + fact.whitehead[index + 1 :]
                deleted = Factorization(kept, fact.factor, fact.inner)
                assert not verify_factorization(psi, deleted)
            words = old_split_canonical(psi)[0]
            x = Word(system, autos._basepoint([w.syllables for w in words]))
            moved = old_split_canonical(compose(inner_auto(system, x.inverse()), psi))[0]
            moves = assert_vertex_steps(star_label(system, moved))
            s3_sheds += sum(b is not None and b[0] == 1 for m in moves for b in m.shed)
            root = star_label(system, words)
            counts[0] += len(vertex_walk(root))
            counts[1] += len(spoke_walk(root))
            counts[2] += sum(len(step[1]) > 1 for step in vertex_walk(root))
        assert s3_sheds > 0 or not s3
        assert counts[0] < counts[1] and counts[2] > 0

    def test_shed_of_a_later_slot(self):
        # Slots 1 and 3 end in b.c, so they fold through C_2(c) together, and
        # slot 3 sheds c = (12).  The sampled systems hold S3 as factor 1,
        # which comes first in any Y that holds it, so only here does a shed
        # of a later slot of Y change the answer: the correction of factor 3,
        # and through it the elements of the moves operating in G_3.  A walk
        # from the least-volume basepoint over three factors never folds two
        # slots at once, so this walk is read as check_ball reads it, from
        # the root; factorize starts at U(b.c) and needs fewer moves.
        system = FactorSystem([CyclicBackend(2), CyclicBackend(2), s3_table()])
        b, c, d = (word(system, [(f, p)]) for f, p in ((2, 1), (3, 1), (3, 2)))
        slots = [d * b * c, c, b * c]
        _, moves = reduce_to_base(star_label(system, slots))
        assert (moves[0].moved, moves[0].shed) == ((1, 3), (None, FactorElement(3, 1)))
        psi = tuple_auto(system, slots)
        identity = tuple(system.part_identity(k) for k in range(1, 4))
        pairs, parts = autos._read_walk(system, moves, identity)
        whitehead = tuple(WhiteheadAuto(system, *p) for p in pairs)
        read = Factorization(whitehead, parts, empty_word(system))
        assert read == replay_factorize(psi, vertex_walk, from_root=True)
        assert verify_factorization(psi, read)
        assert read.factor[2] == system.conjugation_part(FactorElement(3, 1))
        fact = factorize(psi)
        assert fact == replay_factorize(psi, vertex_walk)
        assert fact.inner == b * c and len(fact.whitehead) < len(read.whitehead)
        assert verify_factorization(psi, fact)


def old_factorization_from_walk(system, moves, parts0):
    """The walk read with a correction for every factor, the identity where
    nothing sheds, as factorize read it before corrections were built only
    for factors that shed."""
    correction = [system.part_identity(k) for k in range(1, system.n + 1)]
    whitehead = []
    for mv in reversed(moves):
        for k, shed in zip(mv.moved, mv.shed):
            if shed is not None:
                correction[k - 1] = system.part_compose(
                    correction[k - 1], system.conjugation_part(shed)
                )
        moved_element = system.part_apply(correction[mv.i - 1], system.inverse(mv.element))
        whitehead.append(WhiteheadAuto(system, mv.moved, moved_element))
    factor_parts = tuple(map(system.part_compose, correction, parts0))
    return Factorization(tuple(whitehead), factor_parts, empty_word(system))


S3_PLACEMENTS = {
    "S3*Z2*Z2": lambda: FactorSystem([s3_table(), CyclicBackend(2), CyclicBackend(2)]),
    "Z2*S3*Z2": lambda: FactorSystem([CyclicBackend(2), s3_table(), CyclicBackend(2)]),
    "Z2*Z2*S3": lambda: FactorSystem([CyclicBackend(2), CyclicBackend(2), s3_table()]),
}


class TestCorrectionsOnlyWhereShed:
    @pytest.mark.parametrize("name", S3_PLACEMENTS)
    def test_matches_a_correction_per_factor(self, name):
        # A correction changes a move's element only when its operating
        # factor sheds, later in the walk, a syllable that does not commute
        # with the element.  The tuples are products of up to 8 inverse folds
        # from the base, and those walks are also verified against their
        # automorphism.
        system = S3_PLACEMENTS[name]()
        n = system.n
        rng = random.Random(53)
        corrected = 0
        for _ in range(600):
            words = [empty_word(system)] * n
            for _ in range(rng.randint(1, 8)):
                i, j = rng.sample(range(1, n + 1), 2)
                a = letter(system, random_nontrivial_element(system, i, rng))
                gi = words[i - 1]
                words[j - 1] = words[j - 1] * gi.inverse() * a * gi
            label = star_label(system, words)
            parts0 = tuple(random_part(system, k, rng) for k in range(1, n + 1))
            _, moves = reduce_to_base(label)
            pairs, parts = autos._read_walk(system, moves, parts0)
            whitehead = tuple(WhiteheadAuto(system, moved, x) for moved, x in pairs)
            got = Factorization(whitehead, parts, empty_word(system))
            assert got == old_factorization_from_walk(system, moves, parts0)
            if any(
                w.element != system.inverse(m.element)
                for w, m in zip(got.whitehead, reversed(moves))
            ):
                corrected += 1
                psi = pure_auto(system, list(zip(parts0, label.conjugators)))
                assert verify_factorization(psi, got)
        assert corrected > 0

    def test_two_sheds_of_one_factor(self):
        # Slot 2 of Z2*S3*Z2 sheds (123) and then (23), which do not commute,
        # so factor 2's correction depends on the order it is composed in
        system = S3_PLACEMENTS["Z2*S3*Z2"]()
        slots = [
            empty_word(system),
            word(system, [(3, 1), (2, 4), (3, 1), (2, 3)]),
            word(system, [(2, 4), (3, 1), (2, 3), (1, 1)]),
        ]
        _, moves = reduce_to_base(star_label(system, slots))
        sheds = [b for m in moves for b in m.shed if b is not None]
        assert sheds == [(2, 4), (3, 1), (2, 3)]
        psi = tuple_auto(system, slots)
        fact = factorize(psi)
        identity = tuple(system.part_identity(k) for k in range(1, system.n + 1))
        assert fact == old_factorization_from_walk(system, moves, identity)
        assert verify_factorization(psi, fact)


def old_recompose_factorization(system, f):
    """The compose loop that recompose_factorization replaced.  Its parts are
    built unchecked, as recompose_factorization's are."""
    eps = empty_word(system)
    parts = PureSymmetricAuto(system, tuple((p, eps) for p in f.factor))
    result = compose(parts, inner_auto(system, f.inner))
    for wh in reversed(f.whitehead):
        result = compose(whitehead_to_auto(wh), result)
    return result


def old_invert(psi):
    """The compose loop that invert replaced."""
    system = psi.system
    f = factorize(psi)
    result = inner_auto(system, f.inner.inverse())
    inverse_parts = factor_only_auto(system, [system.part_invert(p) for p in f.factor])
    result = compose(result, inverse_parts)
    for wh in reversed(f.whitehead):
        result = compose(result, whitehead_to_auto(whitehead_inverse(wh)))
    return result


class TestKernelComposition:
    """invert and recompose_factorization push moves through the kernel and
    give the bytes of the compose loops they replaced, invert in its
    canonical split.  Only a non-abelian
    factor tells a product from its wrong-side twin, so S3 gets more cases."""

    @pytest.mark.parametrize("name", SHED_SYSTEMS)
    def test_matches_compose_loops(self, name):
        system = SHED_SYSTEMS[name]()
        rng = random.Random(53)
        for _ in range(100 if name.startswith("S3") else 30):
            psi = random_pure_auto(system, rng, rng.randint(1, 6))
            made = random_factorization(system, rng)
            rebuilt = recompose_factorization(system, made)
            assert repr(rebuilt) == repr(old_recompose_factorization(system, made))
            for target in (psi, rebuilt):
                assert repr(invert(target)) == repr(canonical_auto(old_invert(target)))
                f = factorize(target)
                assert repr(recompose_factorization(system, f)) == repr(
                    old_recompose_factorization(system, f)
                )


class TestApplyPartsNormalForm:
    """recompose_factorization normal-forms the image F(h) of the inner
    word.  With automorphism parts F(h) is already reduced; a part that is
    no automorphism, the Z2 multiplier 0 sending 1:1 to the identity, leaves
    it unreduced, and the conjugators must still come out reduced."""

    @pytest.mark.parametrize(
        "moves", [(), (((3,), (2, 1)),), (((2, 3), (1, 1)), ((1,), (3, 1)))]
    )
    def test_non_automorphism_part_gives_reduced_conjugators(self, triple_z2, moves):
        system = triple_z2
        parts = (FactorAutoPart(1, 0), system.part_identity(2), system.part_identity(3))
        made = tuple(whitehead_auto(system, y, x) for y, x in moves)
        h = word(system, [(2, 1), (1, 1), (2, 1)])  # F(h) = 2:1.2:1 = 1
        psi = recompose_factorization(system, Factorization(made, parts, h))
        for k in range(1, system.n + 1):
            g = psi.conjugator(k)
            assert normal_form(system, g.syllables) == g
        assert psi == recompose_factorization(
            system, Factorization(made, parts, empty_word(system))
        )


class TestPureAutoValidation:
    def test_missing_part_rejected(self, triple_z2):
        parts = [(triple_z2.part_identity(k), empty_word(triple_z2)) for k in (1, 2)]
        with pytest.raises(ValueError, match="^expected 3 parts, got 2$"):
            pure_auto(triple_z2, parts)

    def test_misplaced_part_rejected(self, triple_z2):
        parts = [
            (triple_z2.part_identity(2), empty_word(triple_z2)),
            (triple_z2.part_identity(1), empty_word(triple_z2)),
            (triple_z2.part_identity(3), empty_word(triple_z2)),
        ]
        with pytest.raises(FactorMismatchError):
            pure_auto(triple_z2, parts)

    def test_non_automorphism_part_rejected(self, s3_z2_z2):
        # the Z3 multiplier 0 on Z3.Z2.Z2: with the slots (1, 1:1, 2:1.1:1)
        # factorize inverts it for the inner word, which pow cannot do
        system = FactorSystem([CyclicBackend(3), CyclicBackend(2), CyclicBackend(2)])
        parts = [FactorAutoPart(1, 0), system.part_identity(2), system.part_identity(3)]
        with pytest.raises(ValueError, match="^part 1: multiplier 0 out of range$"):
            factor_only_auto(system, parts)
        slots = [empty_word(system), word(system, [(1, 1)]), word(system, [(2, 1), (1, 1)])]
        with pytest.raises(ValueError, match="^part 1: multiplier 0 out of range$"):
            pure_auto(system, list(zip(parts, slots)))
        # an S3 map fixing the generators (12), (13) and swapping the 3-cycles
        bad = FactorAutoPart(1, (0, 1, 2, 3, 5, 4))
        with pytest.raises(ValueError, match="^part 1: map violates the homomorphism law$"):
            factor_only_auto(s3_z2_z2, [bad] + [s3_z2_z2.part_identity(k) for k in (2, 3)])

    def test_whitehead_requires_nontrivial_element(self, triple_z2, z342):
        with pytest.raises(ValueError, match="nontrivial"):
            whitehead_auto(triple_z2, (2,), FactorElement(1, 0))
        # the check reads the normalized element: 3 is the identity of Z3
        with pytest.raises(ValueError, match="nontrivial"):
            whitehead_auto(z342, (2,), FactorElement(1, 3))

    def test_whitehead_requires_disjoint_operating_factor(self, triple_z2):
        with pytest.raises(ValueError, match="operating"):
            whitehead_auto(triple_z2, (1, 2), FactorElement(1, 1))

    def test_direct_whitehead_needs_nontrivial_element(self, triple_z2):
        with pytest.raises(ValueError, match="nontrivial"):
            WhiteheadAuto(triple_z2, (2,), FactorElement(1, 0))

    def test_direct_whitehead_needs_disjoint_operating_factor(self, triple_z2):
        with pytest.raises(ValueError, match="operating"):
            WhiteheadAuto(triple_z2, (1, 2), FactorElement(1, 1))

    def test_direct_whitehead_needs_normalized_element(self, triple_z2, s3_z2_z2):
        # (1, 2) is the identity of Z2 written out of range.  Accepted, the
        # move ({2}, (1, 2)) made verify refuse a correct factorization of
        # the identity: letter normalizes it away, the kernel conjugates by it
        with pytest.raises(ValueError, match="not normalized"):
            WhiteheadAuto(triple_z2, (2,), (1, 2))
        with pytest.raises(ValueError, match="not normalized"):
            WhiteheadAuto(triple_z2, (2,), (1, 3))
        with pytest.raises(ValueError, match="out of range"):
            WhiteheadAuto(s3_z2_z2, (2,), (1, 6))
        assert whitehead_auto(triple_z2, (2,), (1, 3)) == WhiteheadAuto(triple_z2, (2,), (1, 1))

    @pytest.mark.parametrize(
        "moved, error, message",
        [
            ((7,), FactorMismatchError, "factor index 7 out of range"),
            ((0,), FactorMismatchError, "factor index 0 out of range"),
            ((3, 2), ValueError, "strictly increasing"),
            ((2, 2), ValueError, "strictly increasing"),
        ],
    )
    def test_direct_whitehead_needs_canonical_moved_set(self, triple_z2, moved, error, message):
        # accepted, ((7,), x) acted as the identity: the kernel never meets
        # factor 7, so verify passed a factorization of the identity with it
        with pytest.raises(error, match=message):
            WhiteheadAuto(triple_z2, moved, (1, 1))

    def test_direct_whitehead_names_the_least_bad_index(self, triple_z2, z3422):
        for moved, message in (
            ((7,), "factor index 7 out of range 1..3"),
            ((0,), "factor index 0 out of range 1..3"),
            ((0, 2, 9), "factor index 0 out of range 1..3"),
        ):
            with pytest.raises(FactorMismatchError) as direct:
                WhiteheadAuto(triple_z2, moved, (1, 1))
            with pytest.raises(FactorMismatchError) as built:
                whitehead_auto(triple_z2, moved, (1, 1))
            assert str(direct.value) == str(built.value) == message
        with pytest.raises(FactorMismatchError, match=r"^factor index 5 out of range 1\.\.4$"):
            WhiteheadAuto(z3422, (2, 5, 7), (1, 1))
        with pytest.raises(FactorMismatchError, match=r"^factor index 5 out of range 1\.\.4$"):
            whitehead_auto(z3422, (7, 5, 2), (1, 1))
        with pytest.raises(ValueError, match="strictly increasing"):
            WhiteheadAuto(z3422, (3, 2), (1, 1))

    def test_whitehead_auto_canonicalizes_moved_set(self, triple_z2):
        move = whitehead_auto(triple_z2, [3, 2, 3], (1, 3))
        assert (move.moved, move.element) == ((2, 3), (1, 1))
        assert move == WhiteheadAuto(triple_z2, (2, 3), (1, 1))


# -- the one-pass Whitehead kernel ----------------------------------------------


def push(move, word_in, lead=False):
    """The kernel on one word: (Y, x)(word_in), or with lead x . (Y, x)(word_in)."""
    pair = (move.moved, move.element)
    return Word(move.system, _push_move(move.system, pair, (word_in.syllables,), (lead,))[0])


def reference_apply_whitehead(w, word_in):
    """The kernel before the one-pass rewrite: x^-1 s x per moved syllable,
    then the normal form of the whole letter sequence."""
    system = w.system
    x = w.element
    x_inv = system.inverse(x)
    letters = []
    for s in word_in.syllables:
        if s[0] in w.moved:
            letters.extend((x_inv, s, x))
        else:
            letters.append(s)
    return normal_form(system, letters)


KERNEL_SYSTEMS = {
    "Z3*Z4*Z2*Z2": VERIFY_SYSTEMS["Z3*Z4*Z2*Z2"](),
    "S3*Z2*Z*Z5": VERIFY_SYSTEMS["S3*Z2*Z*Z5"](),
    "Z2*Z2*Z2": SHED_SYSTEMS["Z2*Z2*Z2"](),
}
RELATION_SYSTEMS = {
    "Z3*Z4*Z2*Z2": KERNEL_SYSTEMS["Z3*Z4*Z2*Z2"],
    "S3*Z2*Z2": VERIFY_SYSTEMS["S3*Z2*Z2"](),
}


def _nontrivial(system, i):
    if system.factor(i).is_finite():
        return st.sampled_from(system.nontrivial_payloads(i))
    return st.integers(-6, 6).filter(bool)


def _reduced_words(system, max_size=10):
    """Reduced words, negative Z payloads included; neighbours of the same
    factor are drawn often so that the input letters merge and cancel."""
    def payload(f):
        backend = system.factor(f)
        return st.integers(-6, 6) if not backend.is_finite() else st.integers(0, backend.order() - 1)

    letters = st.integers(1, system.n).flatmap(
        lambda f: payload(f).map(lambda p: (f, p))
    )
    return st.lists(letters, max_size=max_size).map(lambda pairs: word(system, pairs))


@st.composite
def _moves(draw, system):
    i = draw(st.integers(1, system.n))
    others = [j for j in range(1, system.n + 1) if j != i]
    moved = draw(st.lists(st.sampled_from(others), min_size=1, unique=True))
    x = FactorElement(i, draw(_nontrivial(system, i)))
    return whitehead_auto(system, moved, x)


class TestWhiteheadKernel:
    @pytest.mark.parametrize("name", KERNEL_SYSTEMS)
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_matches_reference(self, name, data):
        system = KERNEL_SYSTEMS[name]
        move = data.draw(_moves(system))
        w = data.draw(_reduced_words(system))
        got = push(move, w)
        assert got == reference_apply_whitehead(move, w)
        assert got == whitehead_to_auto(move).apply(w)
        assert push(move, w, lead=True) == letter(system, move.element) * got

    @pytest.mark.parametrize("name", RELATION_SYSTEMS)
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_same_moved_factor_multiplies(self, name, data):
        # ({j}, b) o ({j}, a) = ({j}, b.a), the identity when b.a = 1
        system = RELATION_SYSTEMS[name]
        i = data.draw(st.integers(1, system.n))
        j = data.draw(st.sampled_from([k for k in range(1, system.n + 1) if k != i]))
        a = FactorElement(i, data.draw(_nontrivial(system, i)))
        b = FactorElement(i, data.draw(_nontrivial(system, i)))
        w = data.draw(_reduced_words(system))
        first = whitehead_auto(system, (j,), a)
        second = whitehead_auto(system, (j,), b)
        ba = system.mul(b, a)
        if system.is_identity(ba):
            want_word, want_auto = w, identity_auto(system)
        else:
            product = whitehead_auto(system, (j,), ba)
            want_word = push(product, w)
            want_auto = whitehead_to_auto(product)
        assert push(second, push(first, w)) == want_word
        assert compose(whitehead_to_auto(second), whitehead_to_auto(first)) == want_auto

    @pytest.mark.parametrize("name", RELATION_SYSTEMS)
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_moved_sets_join(self, name, data):
        # ({j}, a) o ({k}, a) = ({j, k}, a)
        system = RELATION_SYSTEMS[name]
        i = data.draw(st.integers(1, system.n))
        others = [k for k in range(1, system.n + 1) if k != i]
        j, k = data.draw(st.lists(st.sampled_from(others), min_size=2, max_size=2, unique=True))
        a = FactorElement(i, data.draw(_nontrivial(system, i)))
        w = data.draw(_reduced_words(system))
        first = whitehead_auto(system, (k,), a)
        second = whitehead_auto(system, (j,), a)
        joined = whitehead_auto(system, (j, k), a)
        assert push(second, push(first, w)) == push(joined, w)
        assert compose(whitehead_to_auto(second), whitehead_to_auto(first)) == whitehead_to_auto(
            joined
        )


class TestForeignConjugator:
    """Every split of psi translates its conjugators by right division, which
    skips word_mul's system check, so a conjugator from another system
    raises before any split is read."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_every_split_raises(self, triple_z2, z342, k):
        parts = [(triple_z2.part_identity(j), empty_word(triple_z2)) for j in range(1, 4)]
        parts[k - 1] = (triple_z2.part_identity(k), word(z342, [(k % 3 + 1, 1)]))
        psi = PureSymmetricAuto(triple_z2, tuple(parts))
        splits = (
            factorize,
            is_inner,
            decompose_star_stabilizer,
            lambda psi: decompose_apex_stabilizer(psi, 1),
        )
        for split in splits:
            with pytest.raises(SystemMismatchError):
                split(psi)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_apply_raises(self, triple_z2, z342, k):
        # unchecked, slot 1's [2,3] mapped 1:1 to 2:1.1:1.2:3, payload 3 on Z2
        parts = [(triple_z2.part_identity(j), empty_word(triple_z2)) for j in range(1, 4)]
        parts[k - 1] = (triple_z2.part_identity(k), word(z342, [(2, 3)]))
        psi = PureSymmetricAuto(triple_z2, tuple(parts))
        for w in (word(triple_z2, [(k, 1)]), empty_word(triple_z2)):
            with pytest.raises(SystemMismatchError, match="word from a different factor system"):
                psi.apply(w)


# -- the Word-level recomposition and inversion that the tuple cores
# replaced, kept as oracles: each wraps every pushed slot in a Word


def old_word_push_moves(system, moves, slots):
    syllables = [g.syllables for g in slots]
    ks = range(1, len(syllables) + 1)
    for w in moves:
        leads = [k in w.moved for k in ks]
        syllables = _push_move(system, (w.moved, w.element), syllables, leads)
    return [Word(system, g) for g in syllables]


def old_word_recompose_factorization(system, f):
    start = [old_apply_parts(f.factor, f.inner)] * system.n
    slots = old_word_push_moves(system, reversed(f.whitehead), start)
    return PureSymmetricAuto(system, tuple(zip(f.factor, slots)))


def old_word_invert_factorization(system, f, slots):
    parts = [system.part_invert(p) for p in f.factor]
    h = f.inner.syllables
    slots = old_word_push_moves(system, map(whitehead_inverse, f.whitehead), slots)
    conjugators = [
        Word(system, right_divide(system, old_apply_parts(parts, g).syllables, h)) for g in slots
    ]
    return PureSymmetricAuto(system, tuple(zip(parts, conjugators)))


def old_word_verify(psi, f):
    """Equal canonical splits: verify's answer when every part is an
    automorphism and every factor has two elements or more."""
    system = psi.system
    return old_split_canonical(old_word_recompose_factorization(system, f)) == (
        old_split_canonical(psi)
    )


def big_element(system, k, rng):
    """A nontrivial element of G_k; on Z, of size up to 10^30 half the time."""
    if system.orders[k - 1] is None and rng.random() < 0.5:
        return (k, rng.choice([-1, 1]) * rng.randint(1, 10**30))
    return random_nontrivial_element(system, k, rng)


def big_factorization(system, rng):
    """A random factorization whose Z elements and inner word reach 10^30."""
    moves = []
    for _ in range(rng.randint(0, 5)):
        x = big_element(system, rng.randint(1, system.n), rng)
        others = [j for j in range(1, system.n + 1) if j != x[0]]
        moves.append(whitehead_auto(system, rng.sample(others, rng.randint(1, len(others))), x))
    parts = tuple(random_part(system, k, rng) for k in range(1, system.n + 1))
    return Factorization(tuple(moves), parts, Word(system, random_reduced(system, rng, 4)))


class TestTupleCores:
    """recompose_factorization, invert, verify_factorization and the
    inversion check_ball reads give what the Word-level functions gave,
    byte for byte (invert in its canonical split), on splitting and
    non-splitting automorphisms."""

    @pytest.mark.parametrize("fixture", KEY_SYSTEMS)
    def test_matches_word_level(self, request, fixture):
        system = request.getfixturevalue(fixture)
        n = system.n
        rng = random.Random(97)
        seen = {"stuck": 0, "verified": 0, "refuted": 0}
        for _ in range(60):
            made = big_factorization(system, rng)
            psi = old_word_recompose_factorization(system, made)
            assert repr(recompose_factorization(system, made)) == repr(psi)
            parts = [random_part(system, k, rng) for k in range(1, n + 1)]
            drawn = pure_auto(
                system, [(p, Word(system, random_reduced(system, rng, 4))) for p in parts]
            )
            for target in (psi, drawn):
                try:
                    fact = factorize(target)
                except NonSplittingError as stuck:
                    with pytest.raises(NonSplittingError) as raised:
                        invert(target)
                    assert str(raised.value) == str(stuck)
                    seen["stuck"] += 1
                    continue
                eps = [empty_word(system)] * n
                want = old_word_invert_factorization(system, fact, eps)
                assert repr(invert(target)) == repr(canonical_auto(want))
                conjugators = [target.conjugator(k) for k in range(1, n + 1)]
                want = old_word_invert_factorization(system, made, conjugators)
                got_parts, got_slots = _inverted_slots(
                    system,
                    [(w.moved, w.element) for w in made.whitehead],
                    made.factor,
                    made.inner.syllables,
                    [g.syllables for g in conjugators],
                    tuple(system.part_identity(k) for k in range(1, n + 1)),
                )
                assert tuple(got_parts) == tuple(p for p, _ in want.parts)
                assert tuple(got_slots) == tuple(g.syllables for _, g in want.parts)
                extra = letter(system, big_element(system, rng.randint(1, n), rng))
                shifted = Factorization(fact.whitehead, fact.factor, fact.inner * extra)
                for candidate in (fact, made, shifted):
                    verified = old_word_verify(target, candidate)
                    assert verify_factorization(target, candidate) == verified
                    seen["verified" if verified else "refuted"] += 1
        assert min(seen.values()) > 0


class TestInnerAutoSystem:
    def test_foreign_word_raises_at_construction(self, triple_z2):
        z3_z2_z2 = FactorSystem([CyclicBackend(3), CyclicBackend(2), CyclicBackend(2)])
        with pytest.raises(SystemMismatchError, match="conjugator from a different factor system"):
            inner_auto(triple_z2, word(z3_z2_z2, [(1, 1)]))

    def test_equal_system_accepted(self, triple_z2):
        twin = FactorSystem([CyclicBackend(2), CyclicBackend(2), CyclicBackend(2)])
        h = word(twin, [(1, 1)])
        assert inner_auto(triple_z2, h).conjugator(1) == h


# -- the Word-level image, product and action that the image core replaced,
# kept as oracles: apply normal-formed each image, and compose and
# act_on_label multiplied psi's conjugator onto it in a second pass


def old_word_mul(u, v):
    if v.system is not u.system and v.system != u.system:
        raise SystemMismatchError("words belong to different factor systems")
    if not u.syllables:
        return v
    if not v.syllables:
        return u
    return normal_form(u.system, u.syllables + v.syllables)


def old_apply(psi, w):
    if w.system != psi.system:
        raise SystemMismatchError("word from a different factor system")
    system = psi.system
    inverses = {}
    letters = []
    for s in w.syllables:
        f = s[0]
        part, conj = psi.parts[f - 1]
        conj_inv = inverses.get(f)
        if conj_inv is None:
            conj_inv = inverses[f] = conj.inverse().syllables
        letters.extend(conj_inv)
        letters.append(system.part_apply(part, s))
        letters.extend(conj.syllables)
    return normal_form(system, letters)


def old_compose(f, g):
    if f.system != g.system:
        raise SystemMismatchError("automorphisms over different factor systems")
    system = f.system
    parts = []
    for k in range(1, system.n + 1):
        part = system.part_compose(f.phi(k), g.phi(k))
        parts.append((part, old_word_mul(f.conjugator(k), old_apply(f, g.conjugator(k)))))
    return PureSymmetricAuto(system, tuple(parts))


def old_act_on_label(label, psi):
    system = label.system
    new_words = [
        old_word_mul(psi.conjugator(j), old_apply(psi, label.slot(j)))
        for j in range(1, system.n + 1)
    ]
    if isinstance(label, StarLabel):
        return star_label(system, new_words)
    return apex_label(system, label.apex, new_words)


IMAGE_SYSTEMS = {
    "S3*Z2*Z": lambda: FactorSystem([s3_table(), CyclicBackend(2), IntBackend()]),
    "T3*Z2*Z": lambda: T3_Z2_Z,
    "Z3*Z4*Z2": lambda: FactorSystem([CyclicBackend(3), CyclicBackend(4), CyclicBackend(2)]),
    "S3*T3*Z*Z4": lambda: FactorSystem(
        [s3_table(), T3_Z2_Z.factor(1), IntBackend(), CyclicBackend(4)]
    ),
}


def _conjugator(system, k, rng):
    """A reduced word from up to 6 random letters, Z payloads up to 10^30;
    half the time it begins with a syllable of G_k."""
    g = random_reduced(system, rng, rng.randint(0, 6))
    if rng.random() < 0.5 and (not g or g[0][0] != k):
        g = (big_element(system, k, rng),) + g
    return Word(system, g)


def _image_auto(system, rng):
    parts = []
    for k in range(1, system.n + 1):
        parts.append((random_part(system, k, rng), _conjugator(system, k, rng)))
    return pure_auto(system, parts)


class TestImageRule:
    """apply, compose, act_on_label and word_mul give the Word tuples the
    Word-level functions gave, byte for byte."""

    @pytest.mark.parametrize("name", list(IMAGE_SYSTEMS))
    def test_matches_word_level(self, name):
        system = IMAGE_SYSTEMS[name]()
        n = system.n
        rng = random.Random(211)
        seen = {"cancelled": 0, "own_head": 0, "inverse_pair": 0}
        for _ in range(40):
            f, g = _image_auto(system, rng), _image_auto(system, rng)
            seen["own_head"] += sum(
                bool(c.syllables) and c.syllables[0][0] == k
                for k, (_, c) in enumerate(f.parts, start=1)
            )
            assert repr(compose(f, g)) == repr(old_compose(f, g))
            for _ in range(4):
                w = Word(system, random_reduced(system, rng, rng.randint(0, 8)))
                image = old_apply(f, w)
                assert repr(f.apply(w)) == repr(image)
                # head . f(w) with head = f(w)^-1 cancels completely
                assert _image(system, f.parts, image.inverse().syllables, w.syllables) == ()
                seen["cancelled"] += bool(w.syllables)
                u = Word(system, random_reduced(system, rng, rng.randint(0, 6)))
                tail_inverse = Word(system, u.syllables[1:]).inverse()
                for v in (w, w.inverse(), tail_inverse, empty_word(system)):
                    assert repr(word_mul(u, v)) == repr(old_word_mul(u, v))
                    assert repr(u * v) == repr(old_word_mul(u, v))
                assert word_mul(w, w.inverse()) == empty_word(system)
            words = [Word(system, random_reduced(system, rng, 4)) for _ in range(n)]
            labels = [star_label(system, words)]
            labels += [apex_label(system, i, words) for i in range(1, n + 1)]
            for label in labels:
                assert repr(act_on_label(label, f)) == repr(old_act_on_label(label, f))
            try:
                f_inv = invert(f)
            except NonSplittingError:
                continue
            seen["inverse_pair"] += 1
            for pair in ((f, f_inv), (f_inv, f)):
                assert repr(compose(*pair)) == repr(old_compose(*pair))
            for label in labels:
                moved = act_on_label(label, f)
                assert repr(act_on_label(moved, f_inv)) == repr(old_act_on_label(moved, f_inv))
                assert isinstance(act_on_label(moved, f_inv), type(label))
        assert min(seen.values()) > 0

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_foreign_conjugator_raises_as_before(self, triple_z2, z342, k):
        """A conjugator from another system, put in place by the dataclass
        and so never checked by pure_auto, raises what it raised before."""
        parts = [(triple_z2.part_identity(j), empty_word(triple_z2)) for j in range(1, 4)]
        parts[k - 1] = (triple_z2.part_identity(k), word(z342, [(k % 3 + 1, 1)]))
        bad = PureSymmetricAuto(triple_z2, tuple(parts))
        good = tuple_auto(triple_z2, [word(triple_z2, [(j % 3 + 1, 1)]) for j in range(1, 4)])
        label = star_label(triple_z2, [word(triple_z2, [(2, 1)])] * 3)
        calls = [
            (compose, old_compose, (bad, good)),
            (compose, old_compose, (good, bad)),
            (act_on_label, old_act_on_label, (label, bad)),
        ]
        for new, old, args in calls:
            with pytest.raises(SystemMismatchError) as want:
                old(*args)
            with pytest.raises(SystemMismatchError) as got:
                new(*args)
            assert str(got.value) == str(want.value)

    def test_system_messages_kept(self, triple_z2, z342):
        psi = identity_auto(triple_z2)
        foreign = identity_auto(z342)
        checks = [
            (lambda: psi.apply(word(z342, [(1, 1)])), "word from a different factor system"),
            (lambda: compose(psi, foreign), "automorphisms over different factor systems"),
            (lambda: act_on_label(base_label(z342), psi), "word from a different factor system"),
            (
                lambda: word(triple_z2, [(1, 1)]) * word(z342, [(1, 1)]),
                "words belong to different factor systems",
            ),
        ]
        for call, message in checks:
            with pytest.raises(SystemMismatchError) as raised:
                call()
            assert str(raised.value) == message


# -- each move's contract runs once, and abelian factors skip conjugation parts


def parent_whitehead_auto(system, moved, element):
    """whitehead_auto's (moved, element) as built when the constructor ran
    the contract on every move, normalization test included."""
    moved, element = tuple(sorted(set(moved))), system.element(*element)
    if not moved:
        raise ValueError("a Whitehead automorphism needs a nonempty moved set")
    last = 0
    for j in moved:
        if not last < j <= system.n:
            if list(moved) != sorted(set(moved)):
                raise ValueError("a Whitehead automorphism's moved set must be strictly increasing")
            for bad in moved:
                system.factor(bad)
        last = j
    i, payload = element
    backend = system.factor(i)
    if payload == backend.identity_payload:
        raise ValueError("a Whitehead automorphism needs a nontrivial element")
    if backend.normalize(payload) != payload:
        raise ValueError(f"Whitehead element in factor {i} is not normalized")
    if i in moved:
        raise ValueError(f"operating factor {i} cannot belong to the moved set")
    return moved, element


def _outcome(build, system, moved, element):
    """The value as (moved, element) with exact types, or the error's type and text."""
    try:
        value = build(system, moved, element)
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(value, WhiteheadAuto):
        assert WhiteheadAuto(system, value.moved, value.element) == value
        value = value.moved, value.element
    return value, [type(j) for j in value[0]], type(value[1])


CONTRACT_CASES = {
    "Z3*Z4*Z2*Z2": [
        ((), (1, 1)),  # empty Y
        ([2, 2, 3], (1, 1)),  # repeated
        ([4, 2, 3, 2], (1, 2)),  # unsorted and repeated
        ([3, 2], (1, 1)),  # unsorted
        ([0, 2], (1, 1)),  # out of range, low
        ([2, 9, 7], (1, 1)),  # out of range, high
        ([-1, 5], (2, 1)),
        ([1, 2], (1, 1)),  # the operating factor in Y
        ([2], (1, 0)),  # identity x
        ([2], (1, 3)),  # identity after normalization
        ([2], (1, 4)),  # unnormalized payload
        ([3, 4], (2, -1)),
        ([2], (5, 1)),  # x in no factor
        ([2], (0, 1)),
        ([1], (2, "x")),  # a payload int() rejects
    ],
    "S3*Z2*Z*Z5": [
        ([2, 4], (3, 10**30 + 7)),  # 30-digit Z payloads
        ([1], (3, -(10**29) - 3)),
        ([3], (3, 10**30)),  # the operating factor in Y
        ([1, 2], (3, 0)),  # identity x
        ([2], (1, 6)),  # table index out of range
        ([2], (1, -1)),
        ([3, 4], (1, 4)),
        ([1, 3], (4, 12)),  # unnormalized payload
    ],
}


MOVE_SYSTEMS = {**KERNEL_SYSTEMS, "S3*Z2*Z2": RELATION_SYSTEMS["S3*Z2*Z2"]}


class TestMoveContractOnce:
    @pytest.mark.parametrize("name", CONTRACT_CASES)
    def test_whitehead_auto_matches_the_parent(self, name):
        system = VERIFY_SYSTEMS[name]()
        for moved, element in CONTRACT_CASES[name]:
            want = _outcome(parent_whitehead_auto, system, moved, element)
            assert _outcome(whitehead_auto, system, moved, element) == want
        rng = random.Random(f"move contract {name}")
        built = 0
        for _ in range(2000):
            moved = [rng.randint(-1, system.n + 1) for _ in range(rng.randint(0, 4))]
            payload = rng.choice([rng.randint(-8, 8), rng.randint(-(10**30), 10**30)])
            element = (rng.randint(0, system.n + 1), payload)
            want = _outcome(parent_whitehead_auto, system, moved, element)
            assert _outcome(whitehead_auto, system, moved, element) == want
            built += want[0] not in (ValueError, FactorMismatchError)
        assert 100 < built < 1900

    @pytest.mark.parametrize("name", MOVE_SYSTEMS)
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_factorize_moves_pass_the_public_constructor(self, name, data):
        # the four corpus systems; factorize builds its moves unchecked
        system = MOVE_SYSTEMS[name]
        parts = [
            FactorAutoPart(k, data.draw(st.sampled_from(system.factor(k).automorphism_reps())))
            for k in range(1, system.n + 1)
        ]
        h = data.draw(_reduced_words(system, 4))
        psi = compose(inner_auto(system, h), factor_only_auto(system, parts))
        for move in data.draw(st.lists(_moves(system), min_size=1, max_size=6)):
            psi = compose(whitehead_to_auto(move), psi)
        f = factorize(psi)
        for w in f.whitehead:
            assert WhiteheadAuto(system, w.moved, w.element) == w
        assert verify_factorization(psi, f)


def composing_split_slots(system, phis, slots):
    """_split_slots with every stripped head's conjugation part composed."""
    split = []
    for k, (g, part) in enumerate(zip(slots, phis), start=1):
        if g and g[0][0] == k:
            part = system.part_compose(system.conjugation_part(g[0]), part)
            g = g[1:]
        split.append((g, part))
    return tuple(zip(*split))


def composing_read_walk(system, moves, parts0):
    """_read_walk with a correction for every shed, abelian factors included."""
    correction = [None] * system.n
    pairs = []
    for i, moved, element, _, _, sheds in reversed(moves):
        for k, shed in zip(moved, sheds):
            if shed is not None:
                c = system.conjugation_part(shed)
                prior = correction[k - 1]
                correction[k - 1] = c if prior is None else system.part_compose(prior, c)
        x = system.inverses[element]
        if correction[i - 1] is not None:
            x = system.part_apply(correction[i - 1], x)
        pairs.append((moved, x))
    factor_parts = tuple(
        part if c is None else system.part_compose(c, part) for c, part in zip(correction, parts0)
    )
    return pairs, factor_parts


KLEIN = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
SKIP_SYSTEMS = {
    "S3*Z2*Z2": VERIFY_SYSTEMS["S3*Z2*Z2"],
    "S3*Z2*Z*Z5": VERIFY_SYSTEMS["S3*Z2*Z*Z5"],
    "V4*Z3*S3": lambda: FactorSystem(
        [TableBackend(KLEIN), CyclicBackend(3), s3_table()]
    ),
}


class TestAbelianSkipsConjugation:
    """Conjugation inside an abelian factor is the identity, so the splits
    and the walk reader skip its parts; each answer must equal the one that
    composes them."""

    @pytest.mark.parametrize("name", SKIP_SYSTEMS)
    def test_split_slots_matches_composing(self, name):
        system = SKIP_SYSTEMS[name]()
        rng = random.Random(f"abelian split {name}")
        heads = set()
        for _ in range(400):
            slots = [random_word(system, rng, 5).syllables for _ in range(system.n)]
            phis = [random_part(system, k, rng) for k in range(1, system.n + 1)]
            want = composing_split_slots(system, phis, slots)
            assert autos._split_slots(system, phis, slots) == want
            heads.update(k for k, g in enumerate(slots, start=1) if g and g[0][0] == k)
        assert heads == set(range(1, system.n + 1))

    @pytest.mark.parametrize("name", SKIP_SYSTEMS)
    def test_read_walk_matches_composing(self, name):
        system = SKIP_SYSTEMS[name]()
        n = system.n
        rng = random.Random(f"abelian walk {name}")
        sheds = set()
        for _ in range(400):
            words = [empty_word(system)] * n
            for _ in range(rng.randint(1, 8)):  # inverse folds from the base
                i, j = rng.sample(range(1, n + 1), 2)
                a = letter(system, random_nontrivial_element(system, i, rng))
                gi = words[i - 1]
                words[j - 1] = words[j - 1] * gi.inverse() * a * gi
            parts0 = tuple(random_part(system, k, rng) for k in range(1, n + 1))
            _, moves = reduce_to_base(star_label(system, words))
            want = composing_read_walk(system, moves, parts0)
            assert autos._read_walk(system, moves, parts0) == want
            sheds.update(b[0] for m in moves for b in m.shed if b is not None)
        assert {k for k in sheds if system.abelian[k - 1]} and {
            k for k in sheds if not system.abelian[k - 1]
        }


# -- factorize from the least-volume basepoint.  Each test below catches a
# mutant made on a scratch copy: _basepoint returning its median one
# syllable too shallow (TestLeastVolumeBasepoint), factorize keeping
# W^-1(x) as the inner word without F^-1 (TestBasepointAnswers), and
# _recomposed_slots pushing F(h) with a lead, as if slot n + 1 were moved
# (TestRecomposedInnerOnce).


def shortest_least(label, candidates):
    """(least volume, fewest syllables among the words reaching it) over the
    candidate basepoint words."""
    volumes = [(volume(label, w), w.syllable_count()) for w in candidates]
    least = min(v for v, _ in volumes)
    return least, min(size for v, size in volumes if v == least)


def canonical_slots(psi):
    return [Word(psi.system, g) for g in autos._split_canonical(psi)[0]]


class TestLeastVolumeBasepoint:
    """_basepoint is a least-volume U-vertex, and the nearest the root among
    them: against every word on finite factors, and against every slot
    suffix r and every s.r on systems with Z (x is always one of them)."""

    @pytest.mark.parametrize("fixture", ["triple_z2", "s3_z2_z2"])
    def test_least_among_every_short_word(self, request, fixture):
        system = request.getfixturevalue(fixture)
        rng = random.Random(61)
        moved = 0
        for _ in range(30):
            slots = canonical_slots(random_pure_auto(system, rng, 4))
            label = star_label(system, slots)
            x = Word(system, autos._basepoint([w.syllables for w in slots]))
            longest = max(w.syllable_count() for w in slots)
            least, nearest = shortest_least(label, enumerate_words(system, longest + 1))
            assert (volume(label, x), x.syllable_count()) == (least, nearest)
            moved += not x.is_identity()
        assert 0 < moved < 30

    @pytest.mark.parametrize("fixture", ["mixed_system", "s3_z2_z_z5"])
    def test_least_among_suffixes_on_z(self, request, fixture):
        system = request.getfixturevalue(fixture)
        rng = random.Random(67)
        moved = 0
        for _ in range(60):
            slots = canonical_slots(random_pure_auto(system, rng, 5))
            label = star_label(system, slots)
            x = Word(system, autos._basepoint([w.syllables for w in slots]))
            suffixes = {g.syllables[t:] for g in slots for t in range(g.syllable_count() + 1)}
            letters = {s for g in slots for s in g.syllables}
            letters |= {system.inverse(s) for s in letters}
            candidates = [Word(system, r) for r in suffixes]
            candidates += [letter(system, s) * r for s in letters for r in candidates]
            assert (volume(label, x), x.syllable_count()) == shortest_least(label, candidates)
            moved += not x.is_identity()
        assert 0 < moved < 60

    def test_tie_stays_at_the_root(self, triple_z2, w):
        # slots 2 and 3 end in a and b: U(1), U(a) and U(b) all have volume 7
        label = star_label(triple_z2, [w["eps"], w["a"], w["b"]])
        assert volume(label) == volume(label, w["a"]) == 7
        assert autos._basepoint([s.syllables for s in label.conjugators]) == ()


def parent_factorize(psi):
    """factorize before the basepoint: the star split of a base-class psi,
    else the walk from the root U(1), with an empty inner word."""
    system = psi.system
    slots, parts0 = autos._split_canonical(psi)
    try:
        parts, witness = decompose_star_stabilizer(psi)
    except NotAStabilizerError:
        pass
    else:
        h = autos._apply_parts(system, [system.part_invert(p) for p in parts], witness.syllables)
        return Factorization((), parts, Word(system, h))
    _, moves = reduce_to_base(StarLabel(system, tuple(Word(system, g) for g in slots)))
    pairs, parts = autos._read_walk(system, moves, parts0)
    whitehead = tuple(WhiteheadAuto(system, *p) for p in pairs)
    return Factorization(whitehead, parts, empty_word(system))


class TestBasepointAnswers:
    """Base-class answers, and those whose basepoint is the root, keep the
    parent's bytes; every answer verifies, also against every element, and
    has at most (least volume - n)/2 moves."""

    @pytest.mark.parametrize("fixture", KEY_SYSTEMS)
    def test_answers(self, request, fixture):
        system = request.getfixturevalue(fixture)
        n = system.n
        rng = random.Random(71)
        seen = {"base": 0, "root": 0, "moved": 0}
        for index in range(90):
            if index % 3:
                psi = random_pure_auto(system, rng, 4)
            else:  # a base-class psi: inner o factor parts
                parts = [random_part(system, k, rng) for k in range(1, n + 1)]
                inner = inner_auto(system, random_word(system, rng, 4))
                psi = compose(inner, factor_only_auto(system, parts))
            slots = canonical_slots(psi)
            label = star_label(system, slots)
            x = Word(system, autos._basepoint([g.syllables for g in slots]))
            least = volume(label, x)
            fact = factorize(psi)
            assert verify_factorization(psi, fact) and all_elements_verify(psi, fact)
            assert len(fact.whitehead) <= (least - n) // 2
            kind = "base" if least == n else "root" if x.is_identity() else "moved"
            if kind != "moved":
                encode = jsonio.factorization_to_json
                assert encode(system, fact) == encode(system, parent_factorize(psi))
            seen[kind] += 1
        assert min(seen.values()) > 0


def parent_recomposed_slots(system, moves, parts, h):
    """_recomposed_slots before the one push: F(h) in every slot."""
    start = [autos._apply_parts(system, parts, h)] * system.n
    return autos._push_moves(system, list(reversed(moves)), start)


class TestRecomposedInnerOnce:
    @pytest.mark.parametrize("fixture", ["s3_z2_z2", "s3_z2_z_z5"])
    def test_matches_every_slot_pushing_f_of_h(self, request, fixture):
        system = request.getfixturevalue(fixture)
        n = system.n
        rng = random.Random(73)
        longest = 0
        for _ in range(300):
            moves = []
            for _ in range(rng.randint(0, 6)):
                x = big_element(system, rng.randint(1, n), rng)
                others = [j for j in range(1, n + 1) if j != x[0]]
                moves.append((tuple(sorted(rng.sample(others, rng.randint(1, n - 1)))), x))
            parts = [random_part(system, k, rng) for k in range(1, n + 1)]
            h = random_reduced(system, rng, 30)
            got = autos._recomposed_slots(system, moves, parts, h)
            assert got == parent_recomposed_slots(system, moves, parts, h)
            longest = max(longest, len(h))
        assert longest >= 20


class TestInvertIsCanonical:
    """invert returns one value per automorphism: its canonical split."""

    @pytest.mark.parametrize("fixture", KEY_SYSTEMS)
    def test_canonical_and_involutive(self, request, fixture):
        system = request.getfixturevalue(fixture)
        rng = random.Random(79)
        for _ in range(40):
            psi = random_pure_auto(system, rng, 4)
            inverse = invert(psi)
            assert inverse == canonical_auto(inverse)
            assert invert(inverse) == canonical_auto(psi)
            assert canonical_auto(compose(inverse, psi)) == identity_auto(system)
