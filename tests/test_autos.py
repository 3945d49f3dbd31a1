import random

import pytest
from hypothesis import given, settings, strategies as st

from whitefact import autos
from whitefact.autos import (
    Factorization,
    PureSymmetricAuto,
    WhiteheadAuto,
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
    whitehead_inverse,
    whitehead_to_auto,
)
from whitefact.errors import NotAStabilizerError, SystemMismatchError
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
from whitefact.words import Word, empty_word, letter, normal_form, word

from conftest import s3_table
from test_reduction import assert_vertex_steps, single_slot_walk
from test_labellings import (
    KEY_SYSTEMS,
    _old_star_translation,
    old_apex_obstruction,
    old_star_witness,
    pin_candidates,
)


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
    if w.syllables and w.syllables[0].factor == k:
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


def old_star_split(system, words, parts0):
    """((parts, witness), None), or (None, first slot with a non-empty core)."""
    g = _old_star_translation(StarLabel(system, words))
    pins = [_strip_head(slot * g, j) for j, slot in enumerate(words, start=1)]
    for j, (_, core) in enumerate(pins, start=1):
        if core.syllables:
            return None, j
    parts = tuple(
        system.part_compose(
            system.conjugation_part(system.identity(k) if b is None else b),
            parts0[k - 1],
        )
        for k, (b, _) in enumerate(pins, start=1)
    )
    return (parts, g.inverse()), None


def old_apply_parts(parts, word_in):
    system = word_in.system
    letters = [system.part_apply(parts[s.factor - 1], s) for s in word_in.syllables]
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
                system.conjugation_part(system.identity(j) if b is None else b),
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
        others = [j for j in range(1, system.n + 1) if j != x.factor]
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
        psi = factor_only_auto(system, parts)
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
    "Z2*1*Z3*Z2": lambda: FactorSystem(
        [CyclicBackend(2), TableBackend([[0]]), CyclicBackend(3), CyclicBackend(2)]
    ),
}


def live_factorization(system, rng):
    """random_factorization whose elements avoid one-element factors; any
    factor may be moved."""
    live = [k for k in range(1, system.n + 1) if system.factor(k).order() != 1]
    moves = []
    for _ in range(rng.randint(0, 4)):
        x = random_nontrivial_element(system, rng.choice(live), rng)
        others = [j for j in range(1, system.n + 1) if j != x.factor]
        moves.append(whitehead_auto(system, rng.sample(others, rng.randint(1, len(others))), x))
    parts = tuple(random_part(system, k, rng) for k in range(1, system.n + 1))
    letters = [random_nontrivial_element(system, rng.choice(live), rng) for _ in range(3)]
    return Factorization(tuple(moves), parts, normal_form(system, letters))


class TestVerifyMatchesGeneratorOracle:
    """The recomposition gives the generator check's bool and failure line."""

    @pytest.mark.parametrize("name", ORACLE_SYSTEMS)
    def test_bool_and_message(self, name):
        system = ORACLE_SYSTEMS[name]()
        rng = random.Random(43)
        live = [k for k in range(1, system.n + 1) if system.factor(k).order() != 1]
        outcomes = []
        for _ in range(30):
            psi = recompose_factorization(system, live_factorization(system, rng))
            fact = factorize(psi)
            extra = letter(system, random_nontrivial_element(system, rng.choice(live), rng))
            cases = [
                fact,
                Factorization(fact.whitehead[::-1], fact.factor, fact.inner),
                Factorization(fact.whitehead, fact.factor, fact.inner * extra),
                live_factorization(system, rng),
            ]
            for index in range(len(fact.whitehead)):
                cases.extend(_mutate(system, fact, index, rng))
            for candidate in cases:
                expected = old_verification_failure(psi, candidate)
                assert _verification_failure(psi, candidate) == expected
                assert verify_factorization(psi, candidate) == (expected is None)
                outcomes.append(expected is None)
        assert True in outcomes and False in outcomes

    def test_one_element_factor_slot_skipped(self):
        # conjugating the one-element factor 2 changes nothing, though the
        # canonical slot 2 differs from the identity's
        system = ORACLE_SYSTEMS["Z2*1*Z3*Z2"]()
        eps = empty_word(system)
        psi = tuple_auto(system, [eps, word(system, [(1, 1), (3, 2)]), eps, eps])
        identity = Factorization(
            (), tuple(system.part_identity(k) for k in range(1, 5)), eps
        )
        assert old_verification_failure(psi, identity) is None
        assert verify_factorization(psi, identity)

    def test_oracles_run_without_the_kernel(self, monkeypatch):
        system = ORACLE_SYSTEMS["S3*Z2*Z*Z5"]()
        rng = random.Random(47)
        fact = live_factorization(system, rng)
        while not fact.whitehead:
            fact = live_factorization(system, rng)
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
    """decompose_star_stabilizer, on the pin read off w, gives the split and
    the failing slot of the product-formed pin."""

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


def replay_factorize(psi, walk):
    """Reference factorize that ignores MoveRecord.shed: it replays every
    move (i, Y, a) of walk on the canonical tuple and strips each slot's
    own-factor syllable itself.  With spoke_walk it is the factorize of the
    single-slot walk."""
    system = psi.system
    words, parts0 = old_split_canonical(psi)
    label = star_label(system, words)
    split, _ = old_star_split(system, words, parts0)
    if split is not None:
        parts, witness = split
        h = old_apply_parts([system.part_invert(p) for p in parts], witness)
        return Factorization((), parts, h)
    slots = list(words)
    replay = []
    for i, moved, element in walk(label):
        gi = slots[i - 1]
        c = gi.inverse() * letter(system, element) * gi
        stripped = []
        for j in moved:
            raw = slots[j - 1] * c
            if raw.syllables and raw.syllables[0].factor == j:
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
    return Factorization(tuple(whitehead), factor_parts, empty_word(system))


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
        system = SHED_SYSTEMS[name]()
        s3 = name.startswith("S3")
        rng = random.Random(47)
        s3_sheds = 0
        counts = [0, 0, 0]
        for _ in range(150 if s3 else 40):
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
            moves = assert_vertex_steps(star_label(system, old_split_canonical(psi)[0]))
            s3_sheds += sum(b is not None and b.factor == 1 for m in moves for b in m.shed)
            counts[0] += len(fact.whitehead)
            counts[1] += len(single.whitehead)
            counts[2] += sum(len(m.moved) > 1 for m in fact.whitehead)
        assert s3_sheds > 0 or not s3
        assert counts[0] < counts[1] and counts[2] > 0

    def test_shed_of_a_later_slot(self):
        # Slots 1 and 3 end in b.c, so they fold through C_2(c) together, and
        # slot 3 sheds c = (12).  The sampled systems hold S3 as factor 1,
        # which comes first in any Y that holds it, so only here does a shed
        # of a later slot of Y change the answer: the correction of factor 3,
        # and through it the elements of the moves operating in G_3.
        system = FactorSystem([CyclicBackend(2), CyclicBackend(2), s3_table()])
        b, c, d = (word(system, [(f, p)]) for f, p in ((2, 1), (3, 1), (3, 2)))
        slots = [d * b * c, c, b * c]
        _, moves = reduce_to_base(star_label(system, slots))
        assert (moves[0].moved, moves[0].shed) == ((1, 3), (None, FactorElement(3, 1)))
        psi = tuple_auto(system, slots)
        fact = factorize(psi)
        assert fact == replay_factorize(psi, vertex_walk)
        assert verify_factorization(psi, fact)
        assert fact.factor[2] == system.conjugation_part(FactorElement(3, 1))


def old_recompose_factorization(system, f):
    """The compose loop that recompose_factorization replaced."""
    result = compose(factor_only_auto(system, f.factor), inner_auto(system, f.inner))
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
    give the bytes of the compose loops they replaced.  Only a non-abelian
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
                assert repr(invert(target)) == repr(old_invert(target))
                f = factorize(target)
                assert repr(recompose_factorization(system, f)) == repr(
                    old_recompose_factorization(system, f)
                )


class TestPureAutoValidation:
    def test_misplaced_part_rejected(self, triple_z2):
        from whitefact.errors import FactorMismatchError

        parts = [
            (triple_z2.part_identity(2), empty_word(triple_z2)),
            (triple_z2.part_identity(1), empty_word(triple_z2)),
            (triple_z2.part_identity(3), empty_word(triple_z2)),
        ]
        with pytest.raises(FactorMismatchError):
            pure_auto(triple_z2, parts)

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


# -- the one-pass Whitehead kernel ----------------------------------------------


def push(move, word_in, lead=False):
    """The kernel on one word: (Y, x)(word_in), or with lead x . (Y, x)(word_in)."""
    return Word(move.system, _push_move(move, (word_in.syllables,), (lead,))[0])


def reference_apply_whitehead(w, word_in):
    """The kernel before the one-pass rewrite: x^-1 s x per moved syllable,
    then the normal form of the whole letter sequence."""
    system = w.system
    x = w.element
    x_inv = system.inverse(x)
    letters = []
    for s in word_in.syllables:
        if s.factor in w.moved:
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
