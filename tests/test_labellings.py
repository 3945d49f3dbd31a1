import random

import pytest

from whitefact.autos import inner_auto, whitehead_auto, whitehead_to_auto
from whitefact.errors import SystemMismatchError
from whitefact.factors import FactorElement
from whitefact.labellings import (
    ApexLabel,
    StarLabel,
    _double_coset_core,
    _star_pin,
    _translate,
    act_on_label,
    apex_equivalent,
    apex_key,
    apex_label,
    base_label,
    collapses,
    is_base,
    star_equivalent,
    star_key,
    star_label,
    volume,
)
from whitefact.sampling import random_nontrivial_element, random_splitting_label, random_word
from whitefact.words import Word, empty_word, letter, split_own_head, word


@pytest.fixture(scope="module")
def w(triple_z2):
    s = triple_z2
    return {
        "eps": empty_word(s),
        "a": word(s, [(1, 1)]),
        "b": word(s, [(2, 1)]),
        "c": word(s, [(3, 1)]),
    }


def brute_star_equivalent(L1, L2):
    """Complete witness search: any witness lies in the slot-1 coset."""
    system = L1.system
    for payload in system.factor(1).payloads():
        g = L1.slot(1).inverse() * letter(system, FactorElement(1, payload)) * L2.slot(1)
        ok = True
        for j in range(1, system.n + 1):
            leftover = L1.slot(j) * g * L2.slot(j).inverse()
            if not (
                leftover.is_identity()
                or (leftover.syllable_count() == 1 and leftover.leading_factor() == j)
            ):
                ok = False
                break
        if ok:
            return g
    return None


def brute_apex_equivalent(M1, M2):
    """Complete search over g in g_i^-1 G_i g_i' and slotwise apex elements."""
    if M1.apex != M2.apex:
        return False
    system = M1.system
    i = M1.apex
    for payload in system.factor(i).payloads():
        g = M1.slot(i).inverse() * letter(system, FactorElement(i, payload)) * M2.slot(i)
        ok = True
        for j in range(1, system.n + 1):
            found = False
            for s in system.factor(i).payloads():
                gamma = (
                    M1.slot(i).inverse()
                    * letter(system, FactorElement(i, s))
                    * M1.slot(i)
                )
                leftover = M1.slot(j) * gamma * g * M2.slot(j).inverse()
                if leftover.is_identity() or (
                    leftover.syllable_count() == 1 and leftover.leading_factor() == j
                ):
                    found = True
                    break
            if not found:
                ok = False
                break
        if ok:
            return True
    return False


class TestCanonicalSlots:
    def test_leading_own_syllable_absorbed(self, triple_z2, w):
        label = star_label(triple_z2, [w["a"], w["a"], w["a"]])
        assert label.conjugators == (w["eps"], w["a"], w["a"])

    def test_apex_label_same_rule(self, triple_z2, w):
        label = apex_label(triple_z2, 2, [w["b"] * w["a"], w["b"], w["a"]])
        assert label.conjugators == (w["b"] * w["a"], w["eps"], w["a"])

    @pytest.mark.parametrize("count", [2, 4])
    def test_wrong_slot_count_rejected(self, triple_z2, w, count):
        words = [w["a"]] * count
        message = f"^expected 3 slot words, got {count}$"
        with pytest.raises(ValueError, match=message):
            star_label(triple_z2, words)
        with pytest.raises(ValueError, match=message):
            apex_label(triple_z2, 1, words)


class TestDoubleCosetCore:
    def test_degenerate_cores_empty(self, triple_z2, w):
        for value in (w["eps"], w["b"], w["a"], w["b"] * w["a"]):
            assert _double_coset_core(value.syllables, lead=2, trail=1) == ()

    def test_wrong_order_two_syllable_kept(self, triple_z2, w):
        core = _double_coset_core((w["a"] * w["b"]).syllables, lead=2, trail=1)
        assert core == (w["a"] * w["b"]).syllables

    def test_foreign_syllable_kept(self, triple_z2, w):
        assert _double_coset_core(w["c"].syllables, lead=2, trail=1) == w["c"].syllables


class TestStarEquivalence:
    def test_common_conjugator(self, triple_z2, w):
        base = base_label(triple_z2)
        other = star_label(triple_z2, [w["a"], w["a"], w["a"]])
        assert star_equivalent(base, other) == w["a"]

    def test_reflexive_with_trivial_witness(self, triple_z2, w):
        label = star_label(triple_z2, [w["b"], w["c"], w["a"]])
        assert star_equivalent(label, label).is_identity()

    def test_single_slot_offset_not_equivalent(self, triple_z2, w):
        base = base_label(triple_z2)
        assert star_equivalent(base, star_label(triple_z2, [w["eps"], w["eps"], w["b"]])) is None

    def test_one_syllable_classes_pair_up(self, triple_z2, w):
        eps = w["eps"]
        assert (
            star_equivalent(
                star_label(triple_z2, [eps, eps, w["a"]]),
                star_label(triple_z2, [eps, w["a"], eps]),
            )
            is not None
        )
        assert (
            star_equivalent(
                star_label(triple_z2, [eps, eps, w["a"]]),
                star_label(triple_z2, [eps, eps, w["b"]]),
            )
            is None
        )

    @pytest.mark.parametrize("fixture", ["triple_z2", "z342"])
    def test_agrees_with_brute_force(self, request, fixture):
        system = request.getfixturevalue(fixture)
        rng = random.Random(7)
        agreements = 0
        for _ in range(120):
            L1 = star_label(system, [random_word(system, rng, 2) for _ in range(3)])
            L2 = star_label(system, [random_word(system, rng, 2) for _ in range(3)])
            fast = star_equivalent(L1, L2)
            slow = brute_star_equivalent(L1, L2)
            assert (fast is None) == (slow is None)
            assert (star_key(L1) == star_key(L2)) == (slow is not None)
            if fast is not None:
                agreements += 1
                assert fast == slow  # the witness is unique
        assert agreements > 0

    def test_witness_validates(self, z342):
        rng = random.Random(13)
        for _ in range(60):
            L1 = random_splitting_label(z342, rng, 3)
            shift = random_word(z342, rng, 3)
            moved = star_label(z342, [s * shift for s in L1.conjugators])
            witness = star_equivalent(L1, moved)
            assert witness is not None
            assert star_key(L1) == star_key(moved)
            for j in range(1, 4):
                leftover = L1.slot(j) * witness * moved.slot(j).inverse()
                assert leftover.is_identity() or (
                    leftover.syllable_count() == 1 and leftover.leading_factor() == j
                )

    def test_equivalence_relation_properties(self, triple_z2):
        rng = random.Random(17)
        labels = [
            star_label(triple_z2, [random_word(triple_z2, rng, 2) for _ in range(3)])
            for _ in range(12)
        ]
        for L1 in labels:
            assert star_equivalent(L1, L1) is not None
            for L2 in labels:
                forward = star_equivalent(L1, L2) is not None
                assert forward == (star_equivalent(L2, L1) is not None)
                for L3 in labels:
                    if forward and star_equivalent(L2, L3) is not None:
                        assert star_equivalent(L1, L3) is not None

    def test_invariant_under_slotwise_left_multiplication(self, triple_z2, w):
        label = star_label(triple_z2, [w["b"], w["c"], w["b"] * w["a"]])
        shifted = star_label(
            triple_z2,
            [
                letter(triple_z2, FactorElement(j, 1)) * label.slot(j)
                for j in range(1, 4)
            ],
        )
        assert star_equivalent(label, shifted) is not None


class TestApexEquivalence:
    def test_apex_element_in_slot_absorbed(self, triple_z2, w):
        eps = w["eps"]
        first = apex_label(triple_z2, 1, [eps, eps, eps])
        second = apex_label(triple_z2, 1, [eps, w["a"], eps])
        assert apex_equivalent(first, second)

    def test_apex_mismatch(self, triple_z2, w):
        eps = w["eps"]
        assert not apex_equivalent(
            apex_label(triple_z2, 1, [eps, eps, eps]),
            apex_label(triple_z2, 2, [eps, eps, eps]),
        )

    def test_foreign_slot_offset_not_equivalent(self, triple_z2, w):
        eps = w["eps"]
        first = apex_label(triple_z2, 1, [eps, eps, eps])
        second = apex_label(triple_z2, 1, [eps, eps, w["b"]])
        assert not apex_equivalent(first, second)

    @pytest.mark.parametrize("fixture", ["triple_z2", "z342"])
    def test_agrees_with_brute_force(self, request, fixture):
        system = request.getfixturevalue(fixture)
        rng = random.Random(29)
        for _ in range(120):
            apex = rng.randint(1, 3)
            M1 = apex_label(system, apex, [random_word(system, rng, 2) for _ in range(3)])
            M2 = apex_label(system, apex, [random_word(system, rng, 2) for _ in range(3)])
            slow = brute_apex_equivalent(M1, M2)
            assert apex_equivalent(M1, M2) == slow
            assert (apex_key(M1) == apex_key(M2)) == slow


class TestCollapses:
    def test_base_collapses_to_the_n_apex_labels(self, triple_z2, w):
        eps = w["eps"]
        result = collapses(base_label(triple_z2))
        assert [m.apex for m in result] == [1, 2, 3]
        for i, m in enumerate(result, start=1):
            assert apex_equivalent(m, apex_label(triple_z2, i, [eps, eps, eps]))

    def test_collapse_count_and_shared_tuple(self, triple_z2, w):
        label = star_label(triple_z2, [w["eps"], w["eps"], w["b"]])
        result = collapses(label)
        assert len(result) == 3
        assert all(m.conjugators == label.conjugators for m in result)

    def test_collapse_respects_equivalence(self, triple_z2):
        rng = random.Random(41)
        for _ in range(40):
            L1 = random_splitting_label(triple_z2, rng, 3)
            shift = random_word(triple_z2, rng, 3)
            L2 = star_label(triple_z2, [s * shift for s in L1.conjugators])
            assert star_equivalent(L1, L2) is not None
            for m1, m2 in zip(collapses(L1), collapses(L2)):
                assert apex_equivalent(m1, m2)


class TestAction:
    def test_factor_auto_fixes_base_exactly(self, z342):
        from whitefact.factors import FactorAutoPart
        from whitefact.autos import factor_only_auto

        phi = factor_only_auto(
            z342, [FactorAutoPart(1, 2), FactorAutoPart(2, 3), FactorAutoPart(3, 1)]
        )
        assert act_on_label(base_label(z342), phi) == base_label(z342)

    def test_inner_action_is_translation(self, triple_z2, w):
        h = w["a"] * w["b"]
        moved = act_on_label(base_label(triple_z2), inner_auto(triple_z2, h))
        expected = star_label(triple_z2, [h, h, h])
        assert moved == expected
        assert star_equivalent(moved, base_label(triple_z2)) is not None

    def test_whitehead_action_on_base(self, triple_z2, w):
        psi = whitehead_to_auto(whitehead_auto(triple_z2, (3,), FactorElement(1, 1)))
        moved = act_on_label(base_label(triple_z2), psi)
        assert moved == star_label(triple_z2, [w["eps"], w["eps"], w["a"]])

    def test_right_action_law(self, triple_z2):
        rng = random.Random(43)
        from whitefact.autos import compose
        from whitefact.sampling import random_pure_auto

        for _ in range(25):
            label = random_splitting_label(triple_z2, rng, 2)
            f = random_pure_auto(triple_z2, rng, 2)
            g = random_pure_auto(triple_z2, rng, 2)
            assert act_on_label(act_on_label(label, f), g) == act_on_label(
                label, compose(g, f)
            )

    def test_action_commutes_with_collapse(self, triple_z2):
        rng = random.Random(47)
        from whitefact.sampling import random_pure_auto

        for _ in range(25):
            label = random_splitting_label(triple_z2, rng, 2)
            psi = random_pure_auto(triple_z2, rng, 2)
            moved = act_on_label(label, psi)
            for m_before, m_after in zip(collapses(label), collapses(moved)):
                assert act_on_label(m_before, psi) == m_after


class TestVolume:
    def test_base_volume_is_n(self, triple_z2):
        assert volume(base_label(triple_z2)) == 3

    def test_two_syllable_slot(self, triple_z2, w):
        label = star_label(triple_z2, [w["eps"], w["eps"], w["b"] * w["a"]])
        assert volume(label) == 7

    def test_one_syllable_slot(self, triple_z2, w):
        label = star_label(triple_z2, [w["eps"], w["eps"], w["b"]])
        assert volume(label) == 5

    def test_translate_of_base_has_volume_n_at_witness(self, triple_z2, w):
        label = star_label(triple_z2, [w["a"], w["a"], w["a"]])
        assert volume(label, w["a"]) == 3
        # the canonical tuple (eps, a, a) has volume 7 at the origin
        assert volume(label) == 7

    def test_spoke_lengths_odd(self, z342):
        from whitefact.tree import c_vertex, geodesic, u_vertex

        rng = random.Random(53)
        for _ in range(40):
            label = star_label(z342, [random_word(z342, rng, 3) for _ in range(3)])
            x = random_word(z342, rng, 2)
            spokes = [
                geodesic(u_vertex(x), c_vertex(i, label.slot(i))) for i in range(1, 4)
            ]
            for spoke in spokes:
                assert (len(spoke) - 1) % 2 == 1
            total = sum(len(s) - 1 for s in spokes)
            assert total == volume(label, x)
            assert total >= z342.n

    @pytest.mark.parametrize("fixture", ["triple_z2", "z342", "z3422", "mixed_system"])
    def test_matches_tree_distances(self, request, fixture):
        # The independent oracle: the spokes' tree distances from U(x).
        from whitefact.tree import c_vertex, distance, u_vertex

        system = request.getfixturevalue(fixture)
        rng = random.Random(61)
        for _ in range(150):
            label = star_label(
                system, [random_word(system, rng, 4) for _ in range(system.n)]
            )
            x = random_word(system, rng, 4)
            if rng.random() < 0.4:
                # x = r.a.g_k with a in G_k: g_k x^-1 = a^-1 r^-1, so the
                # leading own-factor syllable is stripped when r is trivial
                k = rng.randint(1, system.n)
                a = letter(system, random_nontrivial_element(system, k, rng))
                x = random_word(system, rng, 1) * a * label.slot(k)
            expected = sum(
                distance(u_vertex(x), c_vertex(i, label.slot(i)))
                for i in range(1, system.n + 1)
            )
            assert volume(label, x) == expected
            assert volume(label) == sum(
                distance(u_vertex(empty_word(system)), c_vertex(i, label.slot(i)))
                for i in range(1, system.n + 1)
            )


def _split_lead_core_trail(w, lead, trail):
    """Decompose w = b . core . a with b in G_lead and a in G_trail (or None)."""
    syllables = w.syllables
    b = None
    a = None
    if syllables and syllables[0][0] == lead:
        b = syllables[0]
        syllables = syllables[1:]
    if syllables and syllables[-1][0] == trail:
        a = syllables[-1]
        syllables = syllables[:-1]
    return b, Word(w.system, syllables), a


def base_witness_by_volume(L):
    """The unique x that could give volume n, if it exists and does.

    Any such x lies in G_1 g_1 and G_2 g_2 simultaneously, which pins a
    single candidate; independent of the equivalence decision procedure.
    """
    system = L.system
    # Solve u . g_1 = v . g_2 with u in G_1, v in G_2: v^-1 u = g_2 g_1^-1.
    target = L.slot(2) * L.slot(1).inverse()
    b, core, a = _split_lead_core_trail(target, lead=2, trail=1)
    if not core.is_identity():
        return None
    u = a if a is not None else (1, system.factor(1).identity_payload)
    x = letter(system, u) * L.slot(1)
    if volume(L, x) == system.n:
        return x
    return None


class TestIsBase:
    def test_base_and_translates(self, triple_z2, w):
        assert is_base(base_label(triple_z2))
        assert is_base(star_label(triple_z2, [w["a"], w["a"], w["a"]]))
        assert not is_base(star_label(triple_z2, [w["eps"], w["eps"], w["b"]]))

    def test_volume_witness_agrees(self, triple_z2):
        rng = random.Random(59)
        for _ in range(80):
            label = star_label(
                triple_z2, [random_word(triple_z2, rng, 2) for _ in range(3)]
            )
            witness = base_witness_by_volume(label)
            assert (witness is not None) == is_base(label)
            if witness is not None:
                assert volume(label, witness) == 3


# -- the pairwise deciders the class keys replaced, kept as oracles -----------


def _old_single_factor_element(w, factor):
    if w.is_identity():
        return (factor, w.system.factor(factor).identity_payload)
    if w.syllable_count() == 1 and w.syllables[0][0] == factor:
        return w.syllables[0]
    return None


def _old_star_translation(L):
    system = L.system
    w = L.slot(2) * L.slot(1).inverse()
    if w.trailing_factor() == 1:
        return L.slot(1).inverse() * letter(system, system.inverse(w.syllables[-1]))
    return L.slot(1).inverse()


def old_star_witness(L1, L2):
    """(g, None) from the per-slot leftover test, or (None, first bad slot)."""
    g = _old_star_translation(L1) * _old_star_translation(L2).inverse()
    for j in range(1, L1.system.n + 1):
        leftover = L1.slot(j) * g * L2.slot(j).inverse()
        if _old_single_factor_element(leftover, j) is None:
            return None, j
    return g, None


def old_apex_obstruction(M1, M2):
    """0 for differing apexes, else the first slot whose core differs."""
    key1, key2 = apex_key(M1), apex_key(M2)
    if key1[0] != key2[0]:
        return 0
    others = [j for j in range(1, M1.system.n + 1) if j != M1.apex]
    for j, core1, core2 in zip(others, key1[1:], key2[1:]):
        if core1 != core2:
            return j
    return None


KEY_SYSTEMS = ["triple_z2", "z3422", "s3_z2_z2", "s3_z2_z_z5"]


def _partner_words(system, words, rng):
    """A translate of words with random own-factor heads, perturbed in one
    slot a third of the time, or an unrelated tuple a quarter of the time."""
    if rng.random() < 0.25:
        return [random_word(system, rng, 3) for _ in words]
    g = random_word(system, rng, 4)
    out = []
    for j, slot in enumerate(words, start=1):
        head = empty_word(system)
        if rng.random() < 0.5:
            head = letter(system, random_nontrivial_element(system, j, rng))
        out.append(head * slot * g)
    if rng.random() < 0.33:
        k = rng.randrange(len(out))
        f = rng.randint(1, system.n)
        out[k] = out[k] * letter(system, random_nontrivial_element(system, f, rng))
    return out


class TestKeyRuleMatchesPairwiseDeciders:
    @pytest.mark.parametrize("fixture", KEY_SYSTEMS)
    def test_star_witness_and_is_base(self, request, fixture):
        system = request.getfixturevalue(fixture)
        base = base_label(system)
        rng = random.Random(61)
        equivalent = 0
        for _ in range(300):
            words = [random_word(system, rng, rng.choice([1, 2, 4])) for _ in range(system.n)]
            L1 = star_label(system, words)
            L2 = star_label(system, _partner_words(system, words, rng))
            witness = star_equivalent(L1, L2)
            assert witness == old_star_witness(L1, L2)[0]
            for label in (L1, L2):
                assert is_base(label) == (old_star_witness(base, label)[0] is not None)
            equivalent += witness is not None
        assert 0 < equivalent < 300

    @pytest.mark.parametrize("fixture", KEY_SYSTEMS)
    def test_apex_equivalent(self, request, fixture):
        system = request.getfixturevalue(fixture)
        rng = random.Random(67)
        equivalent = 0
        for _ in range(300):
            words = [random_word(system, rng, rng.choice([1, 2, 4])) for _ in range(system.n)]
            i = rng.randint(1, system.n)
            i2 = i if rng.random() < 0.9 else rng.randint(1, system.n)
            M1 = apex_label(system, i, words)
            M2 = apex_label(system, i2, _partner_words(system, words, rng))
            same = apex_equivalent(M1, M2)
            assert same == (old_apex_obstruction(M1, M2) is None)
            equivalent += same
        assert 0 < equivalent < 300


def old_star_pin(L):
    """The pin as products: g_L, then every slot's translate by its own product."""
    g = _old_star_translation(L)
    return g, [split_own_head(slot * g, j) for j, slot in enumerate(L.conjugators, start=1)]


def pin_candidates(system, rng, count):
    """Slot word lists for the star pin: random tuples, every third with
    slot 1 empty, and every fourth a translate of the base with random own
    heads, so that w = g_2 g_1^-1 ends in a G_1 syllable or not and some
    tuples are base."""
    base = [empty_word(system)] * system.n
    for k in range(count):
        if k % 4 == 3:
            yield _partner_words(system, base, rng)
            continue
        words = [random_word(system, rng, rng.choice([1, 2, 4])) for _ in range(system.n)]
        if k % 3 == 0:
            words[0] = base[0]
        yield words


class TestStarPin:
    """The pin's divisor d is the product pin's g_L^-1, and _translate at d
    gives the product pin's translates, heads and cores alike, its star_key
    and its is_base."""

    @pytest.mark.parametrize("fixture", KEY_SYSTEMS)
    def test_matches_old_pin(self, request, fixture):
        system = request.getfixturevalue(fixture)
        rng = random.Random(83)
        seen = set()
        bases = 0
        for words in pin_candidates(system, rng, 300):
            L = star_label(system, words)
            slots = [g.syllables for g in L.conjugators]
            d = _star_pin(system, slots)
            old_g, old_translates = old_star_pin(L)
            assert Word(system, d).inverse() == old_g
            translates = _translate(system, slots, d)
            assert translates == [(b, core.syllables) for b, core in old_translates]
            assert star_key(L) == tuple(core.syllables for _, core in old_translates)
            assert is_base(L) == (not any(core.syllables for _, core in old_translates))
            w = L.slot(2) * L.slot(1).inverse()
            seen.add((w.trailing_factor() == 1, L.slot(1).is_identity()))
            bases += is_base(L)
        assert len(seen) == 4 and bases > 0


class TestSystemMismatch:
    """Right division skips word_mul's system check, so every caller that
    translates or divides checks its words against the labelling's system."""

    def test_volume_at_a_foreign_basepoint(self, triple_z2, z342):
        L = star_label(triple_z2, [word(triple_z2, [(2, 1)]), empty_word(triple_z2), empty_word(triple_z2)])
        for x in (word(z342, [(1, 1)]), empty_word(z342)):
            with pytest.raises(SystemMismatchError):
                volume(L, x)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_star_pin_with_a_foreign_slot(self, triple_z2, z342, k):
        slots = [empty_word(triple_z2)] * 3
        slots[k - 1] = word(z342, [(k % 3 + 1, 1)])
        L = StarLabel(triple_z2, tuple(slots))
        for decide in (star_key, is_base, lambda L: star_equivalent(L, L)):
            with pytest.raises(SystemMismatchError):
                decide(L)

    @pytest.mark.parametrize("apex", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_apex_key_with_a_foreign_slot(self, triple_z2, z342, apex, k):
        slots = [word(triple_z2, [(j % 3 + 1, 1)]) for j in range(1, 4)]
        slots[k - 1] = word(z342, [(k % 3 + 1, 1)])
        with pytest.raises(SystemMismatchError):
            apex_key(ApexLabel(triple_z2, apex, tuple(slots)))
