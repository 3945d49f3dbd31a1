import collections
import itertools
import json
import time
from enum import IntEnum

import pytest

from whitefact.autos import (
    Factorization,
    WhiteheadAuto,
    _verification_failure,
    pure_auto,
    whitehead_auto,
)
from whitefact.cli import main
from whitefact.errors import FactorMismatchError, OracleUnavailableError
from whitefact.factors import (
    LETTER_MEMO_CAP,
    CyclicBackend,
    FactorAutoPart,
    FactorElement,
    FactorSystem,
    IntBackend,
    TableBackend,
)

from whitefact.tree import c_vertex
from whitefact.words import empty_word, letter, normal_form, word

from conftest import S3_NAMES, all_pairs_validate, s3_table


def idx(name):
    return S3_NAMES.index(name)


# the dihedral group of order 8: index a + 4b is r^a s^b, and s r = r^-1 s
D4 = [
    [(a + (c if b == 0 else -c)) % 4 + 4 * ((b + d) % 2) for d in range(2) for c in range(4)]
    for b in range(2)
    for a in range(4)
]

# a quasigroup with identity that fails associativity: a five-element loop
LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


class TestArithmetic:
    def test_order_two_element_squares_to_identity(self, triple_z2):
        a = triple_z2.element(1, 1)
        assert triple_z2.is_identity(triple_z2.mul(a, a))

    def test_cyclic_four_inverse_pair(self):
        system = FactorSystem([CyclicBackend(4), CyclicBackend(2), CyclicBackend(2)])
        product = system.mul(system.element(1, 1), system.element(1, 3))
        assert system.is_identity(product)

    def test_s3_table_product(self, mixed_system):
        # (12).(13) with the right-factor-first composition built in conftest
        product = mixed_system.mul(
            mixed_system.element(1, idx("(12)")), mixed_system.element(1, idx("(13)"))
        )
        assert product == (1, idx("(132)"))

    def test_cross_factor_product_rejected(self, triple_z2):
        with pytest.raises(FactorMismatchError, match="cross-factor"):
            triple_z2.mul(triple_z2.element(1, 1), triple_z2.element(2, 1))

    def test_int_payloads_are_plain_integers(self, mixed_system):
        huge = 10**40
        x = mixed_system.element(3, huge)
        doubled = mixed_system.mul(x, x)
        assert doubled == (3, 2 * huge)

    @pytest.mark.parametrize("order", [2, 3, 4, 5])
    def test_group_laws_exhaustive_cyclic(self, order):
        backend = CyclicBackend(order)
        elements = list(backend.payloads())
        e = backend.identity_payload
        for a, b, c in itertools.product(elements, repeat=3):
            assert backend.op(backend.op(a, b), c) == backend.op(a, backend.op(b, c))
        for a in elements:
            assert backend.op(a, e) == a == backend.op(e, a)
            assert backend.op(a, backend.inv(a)) == e

    def test_group_laws_exhaustive_s3(self):
        backend = s3_table()
        elements = list(backend.payloads())
        e = backend.identity_payload
        for a, b, c in itertools.product(elements, repeat=3):
            assert backend.op(backend.op(a, b), c) == backend.op(a, backend.op(b, c))
        for a in elements:
            assert backend.op(a, backend.inv(a)) == e


class TestValidation:
    def test_valid_backends_pass(self, mixed_system):
        for backend in mixed_system.backends:
            assert backend.validate() is None

    def test_repeated_row_entry_is_not_latin(self):
        backend = s3_table()
        table = [list(row) for row in backend.table]
        table[2][3] = table[2][4]
        broken = TableBackend(table, identity=0, names=S3_NAMES)
        assert broken.validate() == "not a Latin square"

    def test_one_sided_inverse_loop_is_not_associative(self):
        # a loop: row 2 takes 2 to the identity at 3, but row 3 takes 3 to
        # it at 4, so the row-derived inverse is one-sided; only a group's
        # right inverse is two-sided, and the associativity check says so
        table = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 3, 4, 0, 1],
            [3, 4, 1, 2, 0],
            [4, 2, 0, 1, 3],
        ]
        backend = TableBackend(table, identity=0)
        assert backend.inverse[backend.inverse[2]] != 2
        assert backend.validate() == "not associative"

    def test_cyclic_order_one_rejected(self):
        assert "at least 2" in CyclicBackend(1).validate()

    def test_nonassociative_latin_square_detected(self):
        backend = TableBackend(LOOP, identity=0)
        assert backend.validate() == "not associative"

    @pytest.mark.parametrize(
        "names",
        [
            [0, 1, 2, 3, [4], {"a": 5}],
            ["a", "a", "b", "c", "d", "e"],
            S3_NAMES[:5],
        ],
    )
    def test_element_names_are_distinct_strings(self, names):
        # text output prints these names, so each must be a string that
        # tells its row apart
        backend = TableBackend(s3_table().table, identity=0, names=names)
        assert backend.validate() == "elements must be distinct strings, one per table row"
        with pytest.raises(ValueError) as caught:
            FactorSystem([CyclicBackend(2), backend, CyclicBackend(2)])
        assert str(caught.value) == "factor 2: elements must be distinct strings, one per table row"

    def test_large_table_is_checked_in_full(self):
        # no order cap: a table past 128 elements meets every axiom check
        order = 129
        table = [[(a + b) % order for b in range(order)] for a in range(order)]
        table[0][0] = 1
        assert TableBackend(table).validate() == "not a Latin square"

    def test_table_at_the_limit_passes(self):
        order = 128
        table = [[(a + b) % order for b in range(order)] for a in range(order)]
        assert TableBackend(table).validate() is None

    def test_row_of_wrong_length(self):
        assert TableBackend([[0, 1], [1, 0, 1]]).validate() == "row 1 has length 3, expected 2"

    def test_repeated_column_value_with_permutation_rows(self):
        table = [[0, 1, 2], [1, 2, 0], [1, 2, 0]]
        assert all(sorted(row) == [0, 1, 2] for row in table)
        assert TableBackend(table).validate() == "not a Latin square"

    @pytest.mark.parametrize("identity", [3, -1])
    def test_identity_index_out_of_range(self, identity):
        table = [[(a + b) % 3 for b in range(3)] for a in range(3)]
        message = TableBackend(table, identity=identity).validate()
        assert message == f"identity index {identity} out of range"

    @pytest.mark.parametrize(
        "table, identity",
        [
            ([[(a + b) % 3 for b in range(3)] for a in range(3)], 1),  # row 1 is a shift
            ([[0, 1, 2], [2, 0, 1], [1, 2, 0]], 0),  # row 0 is the identity, column 0 is not
        ],
    )
    def test_identity_row_or_column_not_identity_map(self, table, identity):
        message = TableBackend(table, identity=identity).validate()
        assert message == "identity row/column are not identity maps"

    def test_system_needs_three_factors(self):
        with pytest.raises(ValueError):
            FactorSystem([CyclicBackend(2), CyclicBackend(2)])


class TestRepr:
    def test_cyclic_systems_print_their_orders(self):
        z222 = FactorSystem([CyclicBackend(2), CyclicBackend(2), CyclicBackend(2)])
        z342 = FactorSystem([CyclicBackend(3), CyclicBackend(4), CyclicBackend(2)])
        assert repr(z222) != repr(z342)
        assert repr(z342) == "FactorSystem(Z3, Z4, Z2)"

    def test_int_and_table_factors(self):
        system = FactorSystem([s3_table(), CyclicBackend(2), IntBackend()])
        assert repr(system) == "FactorSystem(table6, Z2, Z)"

    def test_orders(self, mixed_system):
        assert mixed_system.orders == (6, 2, None)
        assert not mixed_system.all_finite
        assert FactorSystem([s3_table(), CyclicBackend(2), CyclicBackend(5)]).all_finite

    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_finiteness_and_payloads_follow_order(self, mixed_system, i):
        backend = mixed_system.factor(i)
        order = backend.order()
        assert backend.is_finite() is (order is not None)
        if order is None:
            with pytest.raises(OracleUnavailableError, match="^oracle requires finite factors$"):
                backend.payloads()
        else:
            assert list(backend.payloads()) == list(range(order))


class TestFactorElement:
    """The value semantics that answers, messages and set orders rely on."""

    def test_repr(self):
        assert repr(FactorElement(1, 2)) == "FactorElement(factor=1, payload=2)"

    def test_fields_are_read_only(self):
        x = FactorElement(1, 2)
        with pytest.raises(AttributeError):
            x.payload = 3
        with pytest.raises(AttributeError):
            x.factor = 2

    @pytest.mark.parametrize("factor, payload", [(1, 2), (3, -7), (4, 10**30), (2, 0)])
    def test_hashes_like_the_plain_tuple(self, factor, payload):
        assert hash(FactorElement(factor, payload)) == hash((factor, payload))

    def test_equality(self):
        assert FactorElement(1, 2) == (1, 2)
        assert FactorElement(1, 2) != FactorElement(1, 3)
        assert FactorElement(1, 2) != FactorAutoPart(1, 2)


class Slot(IntEnum):
    ONE = 1
    TWO = 2
    THREE = 3


class TestBoolIndex:
    """A bool is no factor index: True passed for 1, and the values built
    with it printed true, which the wire rejects.  normal_form's range test
    let True through as 1 too.  Checked on Z3*Z2*Z2."""

    system = FactorSystem([CyclicBackend(3), CyclicBackend(2), CyclicBackend(2)])

    @pytest.mark.parametrize(
        "build",
        [
            lambda s: s.factor(True),
            lambda s: s.element(True, 1),
            lambda s: letter(s, (True, 1)),
            lambda s: word(s, [(2, 1), (True, 1)]),
            lambda s: c_vertex(True, empty_word(s)),
            lambda s: whitehead_auto(s, [True, 3], (2, 1)),
            lambda s: whitehead_auto(s, [3], (True, 1)),
            lambda s: WhiteheadAuto(s, (True, 3), (2, 1)),
            lambda s: WhiteheadAuto(s, (2, 3), (True, 1)),
            lambda s: normal_form(s, [(True, 1)]),
            lambda s: normal_form(s, [(2, 1), (True, 1)]),
        ],
    )
    def test_builders_reject_a_bool(self, build):
        with pytest.raises(FactorMismatchError) as caught:
            build(self.system)
        assert str(caught.value) == "factor index True is a bool, not an integer"

    def test_false_is_named_too(self):
        with pytest.raises(FactorMismatchError) as caught:
            self.system.factor(False)
        assert str(caught.value) == "factor index False is a bool, not an integer"

    def test_normal_form_names_false_too(self):
        with pytest.raises(FactorMismatchError) as caught:
            normal_form(self.system, [(False, 1)])
        assert str(caught.value) == "factor index False is a bool, not an integer"

    def test_int_enum_indices_still_work(self):
        s = self.system
        assert s.factor(Slot.TWO) is s.backends[1]
        assert letter(s, (Slot.ONE, 4)) == letter(s, (1, 1))
        assert word(s, [(Slot.TWO, 1), (Slot.ONE, 2)]) == word(s, [(2, 1), (1, 2)])
        assert c_vertex(Slot.THREE, empty_word(s)) == c_vertex(3, empty_word(s))
        move = whitehead_auto(s, [Slot.THREE, Slot.TWO], (Slot.ONE, 2))
        assert move == WhiteheadAuto(s, (2, 3), (1, 2))


def factor_json(backend):
    """The wire entry of a cyclic or table backend, whatever it holds."""
    if backend.kind == "cyclic":
        return {"kind": "cyclic", "order": backend.order()}
    return {
        "kind": "table",
        "elements": list(backend.names),
        "table": [list(row) for row in backend.table],
        "identity": backend.identity,
    }


def not_latin():
    table = [list(row) for row in s3_table().table]
    table[2][3] = table[2][4]
    return TableBackend(table, identity=0, names=S3_NAMES)


class TestSystemIsValidOrCannotBeBuilt:
    """FactorSystem runs every backend's validate, so a system that would
    report a fault raises ValueError naming each faulty factor, in order,
    with the text the CLI prints after "error: " for the same JSON.  Before,
    the library built these: words over LOOP multiplied non-associatively,
    and Z/0 raised ZeroDivisionError at the first word."""

    CASES = {
        "Z2*1*Z2": (
            lambda: [CyclicBackend(2), TableBackend([[0]]), CyclicBackend(2)],
            "factor 2: Cayley table needs at least 2 elements, got 1",
        ),
        "Z/0": (
            lambda: [CyclicBackend(2), CyclicBackend(2), CyclicBackend(0)],
            "factor 3: cyclic order must be at least 2, got 0",
        ),
        "Z/1": (
            lambda: [CyclicBackend(1), CyclicBackend(2), CyclicBackend(2)],
            "factor 1: cyclic order must be at least 2, got 1",
        ),
        "not Latin": (
            lambda: [not_latin(), CyclicBackend(2), CyclicBackend(2)],
            "factor 1: not a Latin square",
        ),
        "loop": (
            lambda: [TableBackend(LOOP), CyclicBackend(2), CyclicBackend(2)],
            "factor 1: not associative",
        ),
        "repeated names": (
            lambda: [CyclicBackend(2), TableBackend(s3_table().table, names="aabcde"), CyclicBackend(2)],
            "factor 2: elements must be distinct strings, one per table row",
        ),
        "two faults": (
            lambda: [CyclicBackend(1), CyclicBackend(2), TableBackend(LOOP), CyclicBackend(3)],
            "factor 1: cyclic order must be at least 2, got 1; factor 3: not associative",
        ),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_invalid_factor_is_refused_with_the_cli_text(self, capsys, name):
        backends, message = self.CASES[name]
        with pytest.raises(ValueError) as caught:
            FactorSystem(backends())
        assert str(caught.value) == message
        system = json.dumps({"factors": [factor_json(b) for b in backends()]})
        assert main(["--system", system, "normalize", "[]"]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


class TestIntegerPayloads:
    """A payload is an int, an IntEnum member too.  normalize called int(),
    so on S3*Z2*Z*Z5 word(s, [(3, 2.9)]) was 3:2 and word(s, [(4, "2")])
    was 4:2; the wire decoder refuses such payloads before any normalize."""

    system = FactorSystem([s3_table(), CyclicBackend(2), IntBackend(), CyclicBackend(5)])

    @pytest.mark.parametrize(
        "build, shown",
        [
            (lambda s: word(s, [(3, 2.9)]), "2.9"),
            (lambda s: word(s, [(4, "2")]), "'2'"),
            (lambda s: word(s, [(1, 4.0)]), "4.0"),
            (lambda s: whitehead_auto(s, [2], (3, 2.5)), "2.5"),
            (lambda s: WhiteheadAuto(s, (2,), (3, 2.5)), "2.5"),
            (lambda s: letter(s, (2, True)), "True"),
            (lambda s: s.element(4, False), "False"),
        ],
        ids=["word Z", "word Z5", "word S3", "whitehead_auto", "WhiteheadAuto", "letter", "element"],
    )
    def test_builders_refuse_a_non_integer(self, build, shown):
        with pytest.raises(ValueError) as caught:
            build(self.system)
        assert str(caught.value) == f"payload {shown} must be an integer"

    def test_int_enum_payloads_become_ints(self):
        s = self.system
        w = word(s, [(Slot.THREE, Slot.TWO), (4, Slot.THREE)])
        assert w == word(s, [(3, 2), (4, 3)])
        assert all(type(p) is int for _, p in w.syllables)


class TestNonIntegerIndex:
    """A float or str factor index is no index.  factor tested the range
    and `is True` only, so on Z3*Z2*Z2 a float in range reached the tuple
    index and raised TypeError, and a str failed the comparison."""

    system = FactorSystem([CyclicBackend(3), CyclicBackend(2), CyclicBackend(2)])

    @pytest.mark.parametrize(
        "build, shown",
        [
            (lambda s: s.factor(2.0), "2.0"),
            (lambda s: s.factor(7.0), "7.0"),
            (lambda s: s.factor("2"), "'2'"),
            (lambda s: s.element(1.0, 2), "1.0"),
            (lambda s: letter(s, (1.0, 2)), "1.0"),
            (lambda s: word(s, [(2.0, 1), (1, 1)]), "2.0"),
            (lambda s: normal_form(s, [(1, 1), (2.5, 1)]), "2.5"),
            (lambda s: normal_form(s, [("a", 1)]), "'a'"),
            (lambda s: c_vertex(3.0, empty_word(s)), "3.0"),
            (lambda s: whitehead_auto(s, [3], (2.0, 1)), "2.0"),
        ],
        ids=[
            "factor", "factor out of range", "factor str", "element", "letter", "word",
            "normal_form", "normal_form str", "c_vertex", "whitehead_auto",
        ],
    )
    def test_builders_refuse_a_non_integer_index(self, build, shown):
        with pytest.raises(FactorMismatchError) as caught:
            build(self.system)
        assert str(caught.value) == f"factor index {shown} is not an integer"


class TestBackendsTakeIntegers:
    """A backend is built from integers.  The constructors called int(),
    so CyclicBackend(2.9) was Z/2 and a table entry 1.7 read as 1; the wire
    refuses both before any backend is built."""

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: CyclicBackend(2.9), "cyclic order 2.9 must be an integer"),
            (lambda: CyclicBackend("3"), "cyclic order '3' must be an integer"),
            (lambda: CyclicBackend(True), "cyclic order True must be an integer"),
            (lambda: TableBackend([[0, 1.7], [1, 0]]), "table entry 1.7 must be an integer"),
            (lambda: TableBackend([[0, 1], [1, 0]], identity=0.0), "table identity 0.0 must be an integer"),
        ],
        ids=["order float", "order str", "order bool", "entry", "identity"],
    )
    def test_non_integer_refused(self, build, message):
        with pytest.raises(ValueError) as caught:
            build()
        assert str(caught.value) == message

    def test_int_enum_values_become_ints(self):
        assert CyclicBackend(Slot.THREE).order() == 3
        table = TableBackend([[0, Slot.ONE], [Slot.ONE, 0]])
        assert table.table == ((0, 1), (1, 0))
        assert all(type(x) is int for row in table.table for x in row)


class TestPartsHoldWireIntegers:
    """auto_validate accepts only the encoding the wire prints: an int
    multiplier or sign, no bool or float, and a tuple map of ints.  Before,
    FactorAutoPart(1, True) on Z3 printed "value":true, which the decoder
    refuses, and an S3 identity given as a list made is_inner None and
    invert(psi) equal to identity_auto while psi was not.  Checked on
    S3*Z2*Z*Z5 through pure_auto and verify's part check."""

    @pytest.mark.parametrize(
        "slot, rep, message",
        [
            (4, True, "multiplier True is not an integer"),
            (4, 2.0, "multiplier 2.0 is not an integer"),
            (3, -1.0, "sign -1.0 is not an automorphism of the infinite cyclic group"),
            (3, True, "sign True is not an automorphism of the infinite cyclic group"),
            (1, [0, 1, 2, 3, 4, 5], "automorphism map must be a tuple of integers"),
            (1, (0, True, 2, 3, 4, 5), "automorphism map must be a tuple of integers"),
        ],
        ids=["Z5 True", "Z5 float", "Z float", "Z True", "S3 list", "S3 bool entry"],
    )
    def test_part_refused(self, s3_z2_z_z5, slot, rep, message):
        s, eps = s3_z2_z_z5, empty_word(s3_z2_z_z5)
        identity = [s.part_identity(k) for k in range(1, 5)]
        parts = [FactorAutoPart(slot, rep) if k == slot else p for k, p in enumerate(identity, 1)]
        with pytest.raises(ValueError) as caught:
            pure_auto(s, [(p, eps) for p in parts])
        assert str(caught.value) == f"part {slot}: {message}"
        psi = pure_auto(s, [(p, eps) for p in identity])
        got = _verification_failure(psi, Factorization((), tuple(parts), eps))
        assert got == f"factorization part {slot}: {message}"

    def test_z3_multiplier_true_refused(self, z342):
        assert z342.part_validate(FactorAutoPart(1, True)) == "multiplier True is not an integer"

    def test_int_enum_reps_still_work(self, s3_z2_z_z5):
        s = s3_z2_z_z5
        assert s.part_validate(FactorAutoPart(4, Slot.TWO)) is None
        assert s.part_validate(FactorAutoPart(3, Slot.ONE)) is None


class TestInverseMemo:
    """FactorSystem.inverses: exact-tuple inverses, system.factor's error
    for a bad factor index, and at most LETTER_MEMO_CAP letters kept."""

    def test_factor_element_keys_give_exact_tuples(self, mixed_system):
        for x, want in (
            (FactorElement(1, idx("(123)")), (1, idx("(132)"))),
            (FactorElement(2, 1), (2, 1)),
            (FactorElement(3, -(10**30)), (3, 10**30)),
        ):
            for got in (mixed_system.inverses[x], mixed_system.inverse(x)):
                assert got == want and type(got) is tuple
            assert mixed_system.inverses[want] == tuple(x)

    @pytest.mark.parametrize("factor", [0, 4, -1])
    def test_bad_factor_index(self, mixed_system, factor):
        with pytest.raises(FactorMismatchError) as want:
            mixed_system.factor(factor)
        for lookup in (mixed_system.inverses.__getitem__, mixed_system.inverse):
            with pytest.raises(FactorMismatchError) as caught:
                lookup((factor, 1))
            assert str(caught.value) == str(want.value)
        assert (factor, 1) not in mixed_system.inverses

    def test_memo_stays_at_its_cap(self):
        system = FactorSystem([CyclicBackend(2), CyclicBackend(3), IntBackend()])
        memo = system.inverses
        for p in range(1, LETTER_MEMO_CAP + 1000):
            assert memo[(3, p)] == (3, -p)
        assert len(memo) == LETTER_MEMO_CAP
        assert memo[(2, 1)] == (2, 2) and memo[(3, -(10**30))] == (3, 10**30)
        assert len(memo) == LETTER_MEMO_CAP


class TestAutomorphismParts:
    def test_parts_of_two_factors_do_not_compose(self, triple_z2):
        with pytest.raises(FactorMismatchError, match="^composing parts of different factors$"):
            triple_z2.part_compose(triple_z2.part_identity(1), triple_z2.part_identity(2))

    def test_automorphism_enumeration_stops_past_order_8(self):
        backend = TableBackend(cyclic_table(9))
        message = "^automorphism enumeration limited to order <= 8, got 9$"
        with pytest.raises(OracleUnavailableError, match=message):
            backend.automorphism_reps()

    def test_cyclic_multiplier_apply(self):
        system = FactorSystem([CyclicBackend(5), CyclicBackend(2), CyclicBackend(2)])
        part = FactorAutoPart(1, 2)
        image = system.part_apply(part, system.element(1, 3))
        assert image == (1, 1)

    def test_int_sign_apply(self, mixed_system):
        part = FactorAutoPart(3, -1)
        image = mixed_system.part_apply(part, mixed_system.element(3, 7))
        assert image == (3, -7)

    def test_s3_conjugation_by_transposition(self, mixed_system):
        part = mixed_system.conjugation_part(mixed_system.element(1, idx("(12)")))
        image = mixed_system.part_apply(part, mixed_system.element(1, idx("(13)")))
        assert image == (1, idx("(23)"))

    def test_apply_is_bijective_on_finite_factors(self, mixed_system):
        backend = mixed_system.factor(1)
        for rep in backend.automorphism_reps():
            part = FactorAutoPart(1, rep)
            images = {
                mixed_system.part_apply(part, FactorElement(1, p))[1]
                for p in backend.payloads()
            }
            assert images == set(backend.payloads())

    def test_homomorphism_law_accepts_exactly_valid_reps(self):
        backend = s3_table()
        valid = set(backend.automorphism_reps())
        others = [i for i in range(6) if i != 0]
        accepted = set()
        for images in itertools.permutations(others):
            rep = (0,) + images
            if backend.auto_validate(rep) is None:
                accepted.add(rep)
        assert accepted == valid
        assert len(valid) == 6  # Aut(S3) = Inn(S3)

    @pytest.mark.parametrize("name", ["S3", "T3", "D4"])
    def test_generator_law_matches_all_pairs(self, name):
        # auto_validate checks rep(a.g) = rep(a).rep(g) on generators g only;
        # every permutation gets the all-pairs check's verdict and message
        backend = {
            "S3": s3_table(),
            "T3": TableBackend([[1, 2, 0], [2, 0, 1], [0, 1, 2]], identity=2),
            "D4": TableBackend(D4),
        }[name]
        assert backend.validate() is None
        verdicts = collections.Counter()
        for rep in itertools.permutations(range(backend.size)):
            message = backend.auto_validate(rep)
            assert message == all_pairs_validate(backend, rep), rep
            verdicts[message] += 1
        # accepted, violating the law, moving the identity
        want = {"S3": (6, 114, 600), "T3": (2, 0, 4), "D4": (8, 5032, 35280)}[name]
        law, moves = "map violates the homomorphism law", "automorphism map moves the identity"
        assert (verdicts[None], verdicts[law], verdicts[moves]) == want
        assert sum(verdicts.values()) == sum(want)
        rep = backend.automorphism_reps()[-1]
        assert backend.auto_validate(list(rep)) == "automorphism map must be a tuple of integers"
        assert backend.auto_validate(rep[:-1]) == "automorphism map is not a permutation"

    def test_part_compose_and_invert(self, mixed_system):
        backend = mixed_system.factor(1)
        for rep_f in backend.automorphism_reps():
            f = FactorAutoPart(1, rep_f)
            inv = mixed_system.part_invert(f)
            assert mixed_system.part_is_identity(mixed_system.part_compose(f, inv))
            assert mixed_system.part_is_identity(mixed_system.part_compose(inv, f))

    def test_factor_mismatch_on_apply(self, triple_z2):
        part = triple_z2.part_identity(1)
        with pytest.raises(FactorMismatchError):
            triple_z2.part_apply(part, triple_z2.element(2, 1))


def span(backend, gens):
    """Test-local closure: every product of the generators and their inverses."""
    seen = {backend.identity_payload}
    frontier = list(seen)
    while frontier:
        a = frontier.pop()
        for g in gens:
            for b in (backend.op(a, g), backend.op(a, backend.inv(g))):
                if b not in seen:
                    seen.add(b)
                    frontier.append(b)
    return seen


KLEIN = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]


class TestGenerators:
    def test_s3_needs_two_transpositions(self):
        backend = s3_table()
        assert backend.generators() == [idx("(12)"), idx("(13)")]
        assert span(backend, backend.generators()) == set(range(6))

    @pytest.mark.parametrize("identity", [0, 3])
    def test_cyclic_table_is_spanned(self, identity):
        # Z6 relabelled so that the identity sits at the given index
        relabel = [(k + identity) % 6 for k in range(6)]
        table = [[0] * 6 for _ in range(6)]
        for a in range(6):
            for b in range(6):
                table[relabel[a]][relabel[b]] = relabel[(a + b) % 6]
        backend = TableBackend(table, identity=identity)
        assert backend.validate() is None
        gens = backend.generators()
        assert identity not in gens
        assert span(backend, gens) == set(range(6))
        if identity == 0:
            assert gens == [1]

    def test_klein_four_needs_two(self):
        backend = TableBackend(KLEIN, identity=0)
        assert backend.generators() == [1, 2]
        backend.generators().append(3)  # each call returns a fresh list
        assert backend.generators() == [1, 2]
        assert span(backend, [1, 2]) == set(range(4))
        assert all(span(backend, [g]) != set(range(4)) for g in range(4))

    def test_cyclic_and_int_generated_by_one(self, mixed_system):
        assert CyclicBackend(7).generators() == [1]
        assert mixed_system.factor(3).generators() == [1]
        assert span(CyclicBackend(7), [1]) == set(range(7))


def reduced_latin_squares(n):
    """Every Latin square on 0..n-1 whose row 0 and column 0 read 0..n-1."""
    square = [list(range(n))] + [[i] + [None] * (n - 1) for i in range(1, n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k):
        if k == len(cells):
            yield [row[:] for row in square]
            return
        i, j = cells[k]
        used = {*square[i][:j], *(square[r][j] for r in range(i))}
        for value in range(n):
            if value not in used:
                square[i][j] = value
                yield from fill(k + 1)

    return fill(0)


def all_triples_associative(table):
    n = range(len(table))
    return all(table[table[a][b]][c] == table[a][table[b][c]] for a in n for b in n for c in n)


def cyclic_table(order):
    return [[(a + b) % order for b in range(order)] for a in range(order)]


def switched_cyclic(order):
    """Z_order with the intercalate at rows and columns 1 and order/2 + 1
    switched: still a Latin square whose row and column 0 are the identity."""
    table = cyclic_table(order)
    h = order // 2 + 1
    table[1][1], table[1][h], table[h][1], table[h][h] = table[1][h], table[1][1], table[h][h], table[h][1]
    return table


class TestAssociativityOnGenerators:
    @pytest.mark.parametrize("order, count", [(2, 1), (3, 1), (4, 4), (5, 56), (6, 9408)])
    def test_agrees_with_all_triples_on_every_reduced_latin_square(self, order, count):
        squares = list(reduced_latin_squares(order))
        assert len(squares) == count
        for table in squares:
            expected = None if all_triples_associative(table) else "not associative"
            assert TableBackend(table).validate() == expected

    def test_order_512_cyclic_table_validates(self):
        backend = TableBackend(cyclic_table(512))
        start = time.perf_counter()
        assert backend.validate() is None
        # all N^3 triples would be 134 million products
        assert time.perf_counter() - start < 2.0

    def test_order_256_loop_is_rejected(self):
        assert TableBackend(switched_cyclic(256)).validate() == "not associative"

    @pytest.mark.parametrize("order, associative", [(4, True), (8, False)])
    def test_switched_intercalate_small_orders(self, order, associative):
        table = switched_cyclic(order)
        assert all_triples_associative(table) is associative
        assert (TableBackend(table).validate() is None) is associative


class TestAbelian:
    """FactorSystem.abelian lets autos skip the parts of conjugation, which
    is the identity in an abelian factor, so each flag must be exactly
    commutativity."""

    @pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
    def test_agrees_with_commutativity_on_every_group_table(self, order):
        seen = set()
        n = range(order)
        for table in reduced_latin_squares(order):
            backend = TableBackend(table)
            if backend.validate() is None:
                commutes = all(table[a][b] == table[b][a] for a in n for b in n)
                assert backend.abelian is commutes
                seen.add(commutes)
        assert seen == ({True, False} if order == 6 else {True})

    def test_named_tables_and_systems(self):
        assert s3_table().abelian is False
        assert TableBackend(D4).abelian is False
        assert TableBackend(KLEIN).abelian is True
        assert CyclicBackend(5).abelian is True and IntBackend().abelian is True
        system = FactorSystem([s3_table(), TableBackend(KLEIN), CyclicBackend(2), IntBackend()])
        assert system.abelian == (False, True, True, True)
