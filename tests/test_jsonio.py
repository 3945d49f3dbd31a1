import collections
import enum
import hashlib
import json
import math
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from whitefact import factors, jsonio
from whitefact.cli import main
from whitefact.autos import Factorization, WhiteheadAuto, factorize, pure_auto, whitehead_auto
from whitefact.errors import EngineError, FactorMismatchError, SchemaError, UnprintableAnswerError
from whitefact.explorer import enumerate_ball
from whitefact.factors import (
    CyclicBackend,
    FactorAutoPart,
    FactorElement,
    FactorSystem,
    IntBackend,
    TableBackend,
)
from whitefact.labellings import star_label
from whitefact.sampling import random_pure_auto, random_word
from whitefact.tree import c_vertex, geodesic, u_vertex
from whitefact.words import empty_word, normal_form, word

from conftest import all_pairs_validate, s3_table


@pytest.fixture(scope="module")
def mixed():
    return FactorSystem([s3_table(), CyclicBackend(2), IntBackend()])


class TestSystem:
    def test_roundtrip(self, mixed):
        payload = jsonio.system_to_json(mixed)
        again = jsonio.system_from_json(payload)
        assert again == mixed

    def test_wire_example(self):
        payload = {
            "factors": [
                {"kind": "cyclic", "order": 2},
                {"kind": "cyclic", "order": 2},
                {"kind": "int"},
            ]
        }
        system = jsonio.system_from_json(payload)
        assert system.n == 3
        assert not system.all_finite

    def test_inverse_key_is_ignored(self):
        # the table decides its inverses: a wrong "inverse" key, swapping
        # (123) and (132), changes neither the system nor a factor's inv
        system = FactorSystem([s3_table(), CyclicBackend(2), CyclicBackend(2)])
        payload = jsonio.system_to_json(system)
        payload["factors"][0]["inverse"] = [0, 1, 2, 3, 4, 5]
        decoded = jsonio.system_from_json(payload)
        assert decoded == jsonio.system_from_json(jsonio.system_to_json(system)) == system
        s3 = decoded.factor(1)
        for a in range(6):
            assert s3.table[a][s3.inv(a)] == 0 == s3.table[s3.inv(a)][a]
        assert s3.inv(4) == 5

    @pytest.mark.parametrize(
        "names", [[0, 1, 2, 3, [4], {"a": 5}], ["a", "a", "b", "c", "d", "e"]]
    )
    def test_element_names_must_be_distinct_strings(self, names):
        payload = jsonio.system_to_json(FactorSystem([CyclicBackend(2), CyclicBackend(2), s3_table()]))
        payload["factors"][2]["elements"] = names
        message = "factor 3: elements must be distinct strings, one per table row"
        with pytest.raises(SchemaError) as info:
            jsonio.system_from_json(payload)
        assert str(info.value) == message

    def test_too_few_factors(self):
        with pytest.raises(SchemaError, match="at least 3"):
            jsonio.system_from_json({"factors": [{"kind": "int"}] * 2})

    def test_invalid_table_rejected(self):
        payload = {
            "factors": [
                {"kind": "table", "table": [[0, 1], [1, 1]], "identity": 0},
                {"kind": "cyclic", "order": 2},
                {"kind": "cyclic", "order": 2},
            ]
        }
        with pytest.raises(SchemaError, match="Latin"):
            jsonio.system_from_json(payload)

    def test_one_element_table_rejected(self):
        # G_2 = 1 would make every Whitehead move ({2}, x) the identity
        payload = {
            "factors": [
                {"kind": "cyclic", "order": 2},
                {"kind": "table", "table": [[0]]},
                {"kind": "cyclic", "order": 3},
                {"kind": "cyclic", "order": 2},
            ]
        }
        with pytest.raises(SchemaError) as info:
            jsonio.system_from_json(payload)
        assert str(info.value) == "factor 2: Cayley table needs at least 2 elements, got 1"

    def test_unknown_kind(self):
        with pytest.raises(SchemaError, match="unknown kind"):
            jsonio.system_from_json({"factors": [{"kind": "free"}] * 3})


class TestWords:
    def test_reduces_on_ingest(self, triple_z2):
        w = jsonio.word_from_json(triple_z2, [[1, 1], [1, 1], [2, 1]])
        assert w == word(triple_z2, [(2, 1)])

    def test_roundtrip(self, triple_z2):
        rng = random.Random(3)
        for _ in range(20):
            w = random_word(triple_z2, rng, 5)
            assert jsonio.word_from_json(triple_z2, jsonio.word_to_json(w)) == w

    def test_factor_out_of_range(self, triple_z2):
        with pytest.raises(SchemaError, match="out of range"):
            jsonio.word_from_json(triple_z2, [[4, 1]])

    def test_malformed_letter(self, triple_z2):
        with pytest.raises(SchemaError, match="letter"):
            jsonio.word_from_json(triple_z2, [[1]])


class TestVertices:
    def test_names_roundtrip(self, triple_z2):
        eps = empty_word(triple_z2)
        ab = word(triple_z2, [(1, 1), (2, 1)])
        for v in (u_vertex(eps), u_vertex(ab), c_vertex(3, ab), c_vertex(1, eps)):
            assert jsonio.vertex_from_name(triple_z2, jsonio.vertex_name(v)) == v

    def test_name_format(self, triple_z2):
        assert jsonio.vertex_name(u_vertex(empty_word(triple_z2))) == "U:[]"
        assert (
            jsonio.vertex_name(c_vertex(3, word(triple_z2, [(2, 1)])))
            == "C3:[[2,1]]"
        )

    def test_bad_names(self, triple_z2):
        for name in ("X:[]", "C9:[]", "U:nonsense", "U"):
            with pytest.raises(SchemaError):
                jsonio.vertex_from_name(triple_z2, name)

    def test_bad_head_is_reported_before_the_word(self, monkeypatch):
        system = FactorSystem([CyclicBackend(2), CyclicBackend(3), IntBackend()])
        cases = {
            "X:[[9,9]]": "bad vertex name 'X:[[9,9]]'",
            "C9:nonsense": "factor index 9 out of range",
            "U:[[9,9]]": "factor index 9 out of range",
            "C2:[[9,9]]": "factor index 9 out of range",
        }
        for name, message in cases.items():
            with pytest.raises(SchemaError) as info:
                jsonio.vertex_from_name(system, name)
            assert str(info.value) == message

        def no_decode(system, obj):
            raise AssertionError("a bad head must cost no decode")

        monkeypatch.setattr(jsonio, "word_from_json", no_decode)
        for name in ("X:[[1,1]]", "C4:[[1,1]]", "C:[]"):
            with pytest.raises(SchemaError):
                jsonio.vertex_from_name(system, name)


class TestLabels:
    def test_star_roundtrip(self, z342):
        rng = random.Random(5)
        for _ in range(15):
            label = star_label(z342, [random_word(z342, rng, 3) for _ in range(3)])
            assert jsonio.star_from_json(z342, jsonio.star_to_json(label)) == label

    def test_slot_count_enforced(self, triple_z2):
        with pytest.raises(SchemaError, match="slots"):
            jsonio.star_from_json(triple_z2, {"alpha": [[], []]})


class TestAutosAndFactorizations:
    def test_auto_roundtrip(self, mixed):
        rng = random.Random(11)
        for _ in range(15):
            psi = random_pure_auto(mixed, rng, 3)
            again = jsonio.auto_from_json(mixed, jsonio.auto_to_json(psi))
            assert again == psi

    def test_factorization_roundtrip(self, z342):
        rng = random.Random(13)
        for _ in range(10):
            psi = random_pure_auto(z342, rng, 4)
            fact = factorize(psi)
            payload = jsonio.factorization_to_json(z342, fact)
            again = jsonio.factorization_from_json(z342, payload)
            assert again == fact

    def test_phi_kind_must_match_backend(self, mixed):
        with pytest.raises(SchemaError, match="mult needs a cyclic"):
            jsonio.phi_from_json(mixed, 1, {"kind": "mult", "value": 1})

    def test_invalid_multiplier_rejected(self, z342):
        with pytest.raises(SchemaError, match="coprime"):
            jsonio.phi_from_json(z342, 2, {"kind": "mult", "value": 2})

    def test_whitehead_roundtrip(self, z342):
        from whitefact.autos import whitehead_auto
        from whitefact.factors import FactorElement

        move = whitehead_auto(z342, (2, 3), FactorElement(1, 2))
        assert jsonio.whitehead_from_json(z342, jsonio.whitehead_to_json(move)) == move

    def test_degenerate_whitehead_rejected(self, z342):
        with pytest.raises(SchemaError, match="whitehead"):
            jsonio.whitehead_from_json(z342, {"Y": [2], "x": [1, 0]})

    @pytest.mark.parametrize(
        "obj, message",
        [
            ({"Y": [2], "x": [4, 1]}, "factor index 4 out of range 1..3"),
            ({"Y": [2], "x": [1, 6]}, "table index 6 out of range 0..5"),
            (
                {"Y": [2], "x": [1, 0]},
                "a Whitehead automorphism needs a nontrivial element",
            ),
            (
                {"Y": [1, 2], "x": [1, 4]},
                "operating factor 1 cannot belong to the moved set",
            ),
        ],
        ids=["x-factor", "table-index", "identity", "operating-in-Y"],
    )
    def test_whitehead_error_texts(self, mixed, obj, message):
        with pytest.raises(SchemaError) as err:
            jsonio.whitehead_from_json(mixed, obj)
        assert str(err.value) == f"bad whitehead automorphism: {message}"


class TestBallExports:
    def test_sn_ball_json_and_dot(self, triple_z2):
        ball = enumerate_ball(triple_z2, 5)
        payload = jsonio.sn_ball_to_json(ball)
        assert len(payload["alpha_classes"]) == 4
        assert len(payload["edges"]) == 12
        dot = jsonio.sn_ball_to_dot(ball)
        assert "shape=ellipse" in dot and "shape=box" in dot

    def test_dot_bytes_are_pinned(self, s3_z2_z2):
        dot = jsonio.sn_ball_to_dot(enumerate_ball(s3_z2_z2, 9))
        assert hashlib.sha256(dot.encode()).hexdigest() == (
            "510cbf1140faa96cdc06cf1ed22bd4cec5e7cc1361727cd0dc4e134432533083"
        )

    def test_dumps_past_the_int_string_limit_raises(self):
        limit = sys.get_int_max_str_digits()
        message = f"^answer holds an integer of more than {limit} digits; it cannot be printed$"
        with pytest.raises(UnprintableAnswerError, match=message):
            jsonio.dumps([[1, 10**limit]])

    def test_dumps_deterministic(self, triple_z2):
        ball = enumerate_ball(triple_z2, 5)
        first = jsonio.dumps(jsonio.sn_ball_to_json(ball))
        second = jsonio.dumps(jsonio.sn_ball_to_json(enumerate_ball(triple_z2, 5)))
        assert first == second
        json.loads(first)


# -- the wire path against a reference ------------------------------------------
#
# reference_word_from_json and reference_vertex_name are the two-pass decoder
# (check, then word()) and the dumps-based encoder that the one-pass versions
# replaced; every valid or malformed letter list must give the same Word or
# the same SchemaError text, and every vertex the same name bytes.


def reference_word_from_json(system, obj):
    jsonio._expect(isinstance(obj, list), "word must be a list of [factor, payload] pairs")
    pairs = []
    for entry in obj:
        if not (isinstance(entry, list) and len(entry) == 2 and jsonio._is_int(entry[0])):
            raise SchemaError(f"bad word letter {entry!r}")
        factor, payload = entry
        if not 1 <= factor <= system.n:
            raise SchemaError(f"factor index {factor} out of range")
        if not jsonio._is_int(payload):
            raise SchemaError(f"payload {payload!r} must be an integer")
        pairs.append((factor, payload))
    try:
        return word(system, pairs)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def reference_vertex_name(v):
    body = jsonio.dumps(jsonio.word_to_json(v.rep))
    if v.factor == 0:
        return f"U:{body}"
    return f"C{v.factor}:{body}"


WIRE_SYSTEMS = {
    "S3*Z2*Z*Z5": FactorSystem([s3_table(), CyclicBackend(2), IntBackend(), CyclicBackend(5)]),
    "Z3*Z4*Z2*Z2": FactorSystem([CyclicBackend(m) for m in (3, 4, 2, 2)]),
    # an identity index other than 0: Z3 as a table with identity 2
    "T3*Z2*Z": FactorSystem(
        [TableBackend([[1, 2, 0], [2, 0, 1], [0, 1, 2]], identity=2), CyclicBackend(2), IntBackend()]
    ),
}

PAYLOADS = st.one_of(
    st.integers(-7, 7),
    st.integers(-(10**30), 10**30),
    st.booleans(),
    st.sampled_from([None, 1.0, "1", [1]]),
)


def _letters(system):
    """Letter lists: mostly well formed, some malformed, some with a run that
    cancels to 1 appended."""
    good = st.tuples(st.integers(1, system.n), st.integers(-9, 9)).map(list)
    odd = st.one_of(
        st.tuples(st.integers(-1, system.n + 2), PAYLOADS).map(list),
        st.sampled_from([[1], [1, 1, 1], (1, 1), "x", None, [True, 1], [1.0, 1]]),
    )
    letter = st.one_of(good, good, good, odd)

    def cancel(pairs):
        tail = []
        for factor, payload in reversed(pairs):
            backend = system.factor(factor)
            tail.append([factor, backend.inv(backend.normalize(payload))])
        return pairs + tail

    cancelling = st.lists(
        st.tuples(st.integers(1, system.n), st.integers(0, 2)).map(list), max_size=4
    ).map(cancel)
    return st.one_of(
        st.lists(letter, max_size=12),
        st.tuples(st.lists(good, max_size=4), cancelling).map(lambda p: p[0] + p[1]),
    )


def _outcome(decode, system, obj):
    try:
        w = decode(system, obj)
    except SchemaError as exc:
        return f"SchemaError: {exc}"
    return w, repr(w.syllables)


# The decoders of parts, moves, automorphisms and factorizations against
# copies of the versions that formatted every message eagerly and checked
# the homomorphism law on all pairs.  Messages are compared for inputs whose
# integers have fewer than 80 digits; longer ones are now clipped.


def reference_part_validate(system, part):
    backend, rep = system.factor(part.factor), part.rep
    if backend.kind == "table":
        return all_pairs_validate(backend, rep)
    if backend.kind == "int":
        return None if rep in (1, -1) else (
            f"sign {rep!r} is not an automorphism of the infinite cyclic group"
        )
    if not isinstance(rep, int) or not 1 <= rep < backend.order():
        return f"multiplier {rep!r} out of range"
    if math.gcd(rep, backend.order()) != 1:
        return f"multiplier {rep} not coprime to {backend.order()}"
    return None


def reference_phi_from_json(system, factor, obj):
    expect = jsonio._expect
    expect(isinstance(obj, dict) and "kind" in obj, f"factor {factor}: bad phi")
    backend = system.factor(factor)
    kind = obj["kind"]
    if kind == "mult":
        expect(backend.kind == "cyclic", f"factor {factor}: mult needs a cyclic factor")
        expect(jsonio._is_int(obj.get("value")), f"factor {factor}: integer mult value required")
        part = FactorAutoPart(factor, obj.get("value"))
    elif kind == "sign":
        expect(backend.kind == "int", f"factor {factor}: sign needs an int factor")
        expect(jsonio._is_int(obj.get("value")), f"factor {factor}: integer sign value required")
        part = FactorAutoPart(factor, obj.get("value"))
    elif kind == "perm":
        expect(backend.kind == "table", f"factor {factor}: perm needs a table factor")
        image = obj.get("map")
        expect(
            isinstance(image, list) and all(jsonio._is_int(x) for x in image),
            f"factor {factor}: perm map must be a list of integers",
        )
        part = FactorAutoPart(factor, tuple(image))
    else:
        raise SchemaError(f"factor {factor}: unknown phi kind {jsonio.echo(kind)}")
    message = reference_part_validate(system, part)
    expect(message is None, f"factor {factor}: {message}")
    return part


def reference_whitehead_auto(system, moved, element):
    moved = tuple(sorted(set(moved)))
    for j in moved:
        system.factor(j)
    return WhiteheadAuto(system, moved, system.element(*element))


def reference_whitehead_from_json(system, obj):
    jsonio._expect(
        isinstance(obj, dict) and "Y" in obj and "x" in obj,
        "expected {'Y': [...], 'x': [factor, payload]}",
    )
    moved, x = obj["Y"], obj["x"]
    jsonio._expect(
        isinstance(moved, list)
        and all(jsonio._is_int(j) and 1 <= j <= system.n for j in moved),
        f"whitehead Y must list factor indices in 1..{system.n}",
    )
    jsonio._expect(
        isinstance(x, list) and len(x) == 2 and all(jsonio._is_int(v) for v in x),
        "bad whitehead element",
    )
    try:
        return reference_whitehead_auto(system, moved, x)
    except (ValueError, EngineError) as exc:
        raise SchemaError(f"bad whitehead automorphism: {exc}") from exc


def reference_auto_from_json(system, obj):
    jsonio._expect(isinstance(obj, dict) and "parts" in obj, "expected {'parts': [...]}")
    entries = obj["parts"]
    jsonio._expect(
        isinstance(entries, list) and len(entries) == system.n, f"need {system.n} parts"
    )
    parts = []
    for k, entry in enumerate(entries, start=1):
        jsonio._expect(isinstance(entry, dict), f"part {k}: expected an object")
        part = reference_phi_from_json(system, k, entry.get("phi"))
        parts.append((part, reference_word_from_json(system, entry.get("g", []))))
    return pure_auto(system, parts)


def reference_factorization_from_json(system, obj):
    jsonio._expect(
        isinstance(obj, dict) and "whitehead" in obj and "factor" in obj and "inner" in obj,
        "expected {'whitehead':..., 'factor':..., 'inner':...}",
    )
    jsonio._expect(isinstance(obj["whitehead"], list), "whitehead must be a list of moves")
    whiteheads = tuple(reference_whitehead_from_json(system, w) for w in obj["whitehead"])
    parts = obj["factor"]
    jsonio._expect(
        isinstance(parts, list) and len(parts) == system.n, f"need {system.n} factor parts"
    )
    factor = tuple(reference_phi_from_json(system, k, p) for k, p in enumerate(parts, start=1))
    return Factorization(whiteheads, factor, reference_word_from_json(system, obj["inner"]))


class Small(enum.IntEnum):
    ONE = 1
    TWO = 2


HUGE = 10**100 + 7


def _payload(system, factor, rng):
    """A canonical nontrivial payload of the factor."""
    order = system.orders[factor - 1]
    if order is None:
        return rng.choice([-3, -1, 1, 2, 10**30])
    return rng.choice(system.nontrivial_payloads(factor))


def _wire_word(system, rng, seen):
    """A letter list, its letters counted by kind, and the word by whether
    it arrives reduced."""
    letters, last = [], 0
    for _ in range(rng.randint(0, 7)):
        kind = rng.choice(["canonical"] * 6 + ["identity", "same-factor", "non-canonical", "intenum"])
        factor = rng.choice([f for f in range(1, system.n + 1) if f != last])
        if kind == "same-factor" and last:
            factor = last
        order = system.orders[factor - 1]
        if kind == "identity":
            payload = system.identity_payloads[factor - 1]
            kind = "identity-2" if payload == 2 else kind
        elif kind == "non-canonical" and order is not None:
            payload = rng.choice([-1, order, order + 1, -order - 2, HUGE])
        elif kind == "intenum":
            payload = Small.ONE if order is None or order <= 2 else rng.choice(list(Small))
        else:
            kind, payload = "same-factor" if factor == last else "canonical", _payload(system, factor, rng)
        seen[kind] += 1
        letters.append([factor, payload])
        last = factor
    reduced = all(
        type(p) is int and p != system.identity_payloads[f - 1]
        and (system.orders[f - 1] is None or 0 <= p < system.orders[f - 1])
        for f, p in letters
    ) and all(a[0] != b[0] for a, b in zip(letters, letters[1:]))
    seen["reduced-word" if reduced else "unreduced-word"] += 1
    return letters, reduced


def _phi(system, factor, rng, seen, valid=0.0):
    backend = system.factor(factor)
    kind = {"cyclic": "mult", "int": "sign", "table": "perm"}[backend.kind]
    if rng.random() < valid:
        case = "valid"
    elif kind == "perm":
        case = rng.choice(["valid", "wrong-kind", "unknown-kind", "not-an-object", "bool",
                           "float", "huge", "not-a-permutation", "permutation", "not-a-list"])
    else:
        case = rng.choice(["valid", "wrong-kind", "unknown-kind", "not-an-object", "bool",
                           "float", "huge", "small", "missing"])
    seen[case] += 1
    size = backend.order() or 2
    if case == "valid":
        rep = rng.choice(backend.automorphism_reps())
        return {"kind": kind, "map": list(rep)} if kind == "perm" else {"kind": kind, "value": rep}
    if case == "wrong-kind":
        other = rng.choice([k for k in ("mult", "sign", "perm") if k != kind])
        return {"kind": other, "value": 1, "map": list(range(size))}
    if case == "unknown-kind":
        return {"kind": rng.choice(["free", 7, None, ["mult"], True, "x" * 200])}
    if case == "not-an-object":
        return rng.choice([None, [], "mult", 1, {"value": 1}])
    if kind == "perm":
        image = rng.sample(range(size), size)  # a permutation; the law decides
        if case == "not-a-permutation":
            image = rng.choice([image[:-1], image + [0], [image[1]] + image[1:], [-1] + image[1:]])
        elif case in ("bool", "float", "huge"):
            image[rng.randrange(size)] = {"bool": True, "float": 1.0, "huge": HUGE}[case]
        elif case == "not-a-list":
            image = rng.choice([7, "012345", None, {"0": 0}])
        return {"kind": kind, "map": image}
    if case == "missing":
        return {"kind": kind}
    value = {"bool": rng.choice([True, False]), "float": rng.choice([1.0, -1.0, 2.5]),
             "huge": rng.choice([HUGE, -HUGE]), "small": rng.randint(-5, 12)}[case]
    return {"kind": kind, "value": value}


def _move(system, rng, seen, valid=0.0):
    n = system.n
    f = rng.randint(1, n)
    others = [j for j in range(1, n + 1) if j != f]
    moved, x = rng.sample(others, rng.randint(1, len(others))), [f, _payload(system, f, rng)]
    if rng.random() < valid:
        case = "valid"
    else:
        case = rng.choice(["valid", "Y-empty", "Y-repeated", "Y-out-of-range", "Y-bool", "Y-float",
                           "Y-huge", "Y-not-a-list", "x-identity", "x-in-Y", "x-bool", "x-float",
                           "x-huge", "x-factor", "x-shape", "not-an-object"])
    seen[case] += 1
    if case == "Y-empty":
        moved = []
    elif case == "Y-repeated":
        moved = moved + moved[:1] + moved
    elif case.startswith("Y-") and case != "Y-not-a-list":
        bad = {"Y-out-of-range": rng.choice([0, -1, n + 1]), "Y-bool": True, "Y-float": 2.0,
               "Y-huge": HUGE}[case]
        moved.insert(rng.randint(0, len(moved)), bad)
    elif case == "Y-not-a-list":
        moved = rng.choice([2, "23", None, (2, 3)])
    elif case == "x-identity":
        x = [f, system.identity_payloads[f - 1]]
    elif case == "x-in-Y":
        moved.append(f)
    elif case in ("x-bool", "x-float"):
        x[rng.randrange(2)] = True if case == "x-bool" else float(x[1])
    elif case == "x-huge":
        x[1] = rng.choice([HUGE, -HUGE])  # clipped on a table, reduced on Z/m, kept on Z
    elif case == "x-factor":
        x[0] = rng.choice([0, -1, n + 1, HUGE])
    elif case == "x-shape":
        x = rng.choice([[f], x + [1], "x", None, tuple(x)])
    if case == "not-an-object":
        return rng.choice([None, [], {"Y": moved}, {"x": x}])
    return {"Y": moved, "x": x}


def _decoded(decode, system, obj):
    """A decoder's value and repr, or its SchemaError text."""
    try:
        value = decode(system, obj)
    except SchemaError as exc:
        return f"SchemaError: {exc}"
    return value, repr(value)


def _has_long_int(obj):
    if isinstance(obj, (list, tuple)):
        return any(map(_has_long_int, obj))
    if isinstance(obj, dict):
        return any(map(_has_long_int, obj.values()))
    return isinstance(obj, int) and len(str(abs(obj))) >= 80


def _same_outcome(decode, reference, system, obj):
    got, want = _decoded(decode, system, obj), _decoded(reference, system, obj)
    if _has_long_int(obj) and isinstance(got, str) and isinstance(want, str):
        return True  # both fail; only the clipped echo of the integer differs
    assert got == want, obj
    return isinstance(got, str)


class TestWireOracle:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_decode_matches_reference(self, data):
        system = WIRE_SYSTEMS[data.draw(st.sampled_from(sorted(WIRE_SYSTEMS)))]
        obj = data.draw(_letters(system))
        assert _outcome(jsonio.word_from_json, system, obj) == _outcome(
            reference_word_from_json, system, obj
        )

    def test_every_letter_is_checked_before_any_payload_is_normalized(self, mixed):
        # S3 index 9 is out of range, but the malformed second letter wins
        with pytest.raises(SchemaError, match="bad word letter"):
            jsonio.word_from_json(mixed, [[1, 9], [2]])
        with pytest.raises(SchemaError, match="table index 9 out of range"):
            jsonio.word_from_json(mixed, [[1, 9], [2, 1]])

    def test_canonical_payload_boundary_matches_reference(self):
        # the decoder takes an exact int in 0..order-1 (any int on Z) as it
        # stands and normalizes everything else, int subclasses included
        for name, system in sorted(WIRE_SYSTEMS.items()):
            for factor, order in enumerate(system.orders, start=1):
                payloads = [-1, 0, 10**30, -(10**30), Small.ONE]
                if order is not None:
                    payloads += [order - 1, order]
                other = factor % system.n + 1
                for payload in payloads:
                    for obj in ([[factor, payload]], [[other, 1], [factor, payload], [other, 1]]):
                        outcome = _outcome(jsonio.word_from_json, system, obj)
                        assert outcome == _outcome(reference_word_from_json, system, obj), (name, obj)
                        if isinstance(outcome, str):
                            continue
                        for s in outcome[0].syllables:
                            assert type(s) is tuple, (name, obj)
                            assert type(s[1]) is int, (name, obj)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_vertex_names_match_reference(self, data):
        system = WIRE_SYSTEMS[data.draw(st.sampled_from(sorted(WIRE_SYSTEMS)))]
        pairs = data.draw(
            st.lists(
                st.tuples(st.integers(1, system.n), st.integers(-(10**25), 10**25)),
                max_size=10,
            )
        )
        rep = word(system, [(f, p % 3 if system.factor(f).kind == "table" else p) for f, p in pairs])
        factor = data.draw(st.integers(0, system.n))
        v = u_vertex(rep) if factor == 0 else c_vertex(factor, rep)
        name = jsonio.vertex_name(v)
        assert name == reference_vertex_name(v)
        assert jsonio.vertex_from_name(system, name) == v

    def test_geodesic_names_match_reference(self):
        system = WIRE_SYSTEMS["S3*Z2*Z*Z5"]
        rng = random.Random(17)
        for _ in range(30):
            p = c_vertex(rng.randint(1, 4), random_word(system, rng, 8))
            q = u_vertex(random_word(system, rng, 8))
            for v in geodesic(p, q):
                assert jsonio.vertex_name(v) == reference_vertex_name(v)

    def test_reduced_words_skip_normal_form_with_the_same_word(self):
        rng, seen = random.Random(23), collections.Counter()
        for name, system in sorted(WIRE_SYSTEMS.items()):
            for _ in range(400):
                letters, reduced = _wire_word(system, rng, seen)
                outcome = _decoded(jsonio.word_from_json, system, letters)
                assert outcome == _decoded(reference_word_from_json, system, letters), (name, letters)
                if isinstance(outcome, str):
                    continue  # a table payload out of range
                w = outcome[0]
                if reduced:
                    assert w == normal_form(system, [tuple(e) for e in letters])
                    assert w.syllables == tuple(map(tuple, letters))
                for s in w.syllables:
                    assert type(s) is tuple and type(s[1]) is int, (name, letters)
        for kind in ("reduced-word", "unreduced-word", "identity", "identity-2", "same-factor",
                     "non-canonical", "intenum"):
            assert seen[kind] >= 20, (kind, seen)

    def test_parts_match_reference(self):
        rng, seen, failed = random.Random(29), collections.Counter(), 0
        for name, system in sorted(WIRE_SYSTEMS.items()):
            for _ in range(600):
                factor = rng.randint(1, system.n)
                obj = _phi(system, factor, rng, seen)
                failed += _same_outcome(
                    lambda s, o: jsonio.phi_from_json(s, factor, o),
                    lambda s, o: reference_phi_from_json(s, factor, o),
                    system, obj,
                )
        assert min(seen.values()) >= 20 and len(seen) == 12, seen
        assert 100 < failed < 1700  # both outcomes are common

    def test_moves_match_reference(self):
        rng, seen, failed = random.Random(31), collections.Counter(), 0
        for name, system in sorted(WIRE_SYSTEMS.items()):
            for _ in range(600):
                failed += _same_outcome(
                    jsonio.whitehead_from_json, reference_whitehead_from_json,
                    system, _move(system, rng, seen),
                )
        assert min(seen.values()) >= 60 and len(seen) == 16, seen
        assert 100 < failed < 1700  # both outcomes are common

    def test_whitehead_auto_reports_the_least_bad_index(self):
        system = WIRE_SYSTEMS["S3*Z2*Z*Z5"]
        for moved in ([0, 2], [2, 5, 7], [7, 5, 2], [-1, 6], [3, 2, 3], [2, 3, 4]):
            outcomes = []
            for build in (whitehead_auto, reference_whitehead_auto):
                try:
                    outcomes.append(build(system, moved, (1, 4)))
                except FactorMismatchError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1], moved

    def test_automorphisms_and_factorizations_match_reference(self):
        rng, seen, failed = random.Random(37), collections.Counter(), 0
        for name, system in sorted(WIRE_SYSTEMS.items()):
            n = system.n
            for _ in range(300):
                parts = [
                    {"phi": _phi(system, k, rng, seen, valid=0.9),
                     "g": _wire_word(system, rng, seen)[0]}
                    for k in range(1, n + 1)
                ]
                auto = rng.choice(
                    [{"parts": parts}] * 8
                    + [{"parts": parts[:-1]}, {"parts": parts[:1] + [7] + parts[2:]}, {"part": parts}]
                )
                failed += _same_outcome(jsonio.auto_from_json, reference_auto_from_json, system, auto)
                fact = {
                    "whitehead": [_move(system, rng, seen, valid=0.9) for _ in range(rng.randint(0, 4))],
                    "factor": [_phi(system, k, rng, seen, valid=0.9) for k in range(1, n + 1)],
                    "inner": _wire_word(system, rng, seen)[0],
                }
                fact = rng.choice(
                    [fact] * 8 + [{**fact, "whitehead": 7}, {**fact, "factor": fact["factor"][1:]},
                                  {"factor": [], "inner": []}]
                )
                failed += _same_outcome(
                    jsonio.factorization_from_json, reference_factorization_from_json, system, fact
                )
        assert 100 < failed < 1700  # both outcomes are common


class TestLetterMemo:
    """vertex_name formats each letter once, through the shared letter memo
    of at most factors.LETTER_MEMO_CAP letters; the bytes stay those of
    dumps of the word."""

    @pytest.fixture
    def memo(self, monkeypatch):
        fresh = factors._LetterMemo("[%d,%d]".__mod__)
        monkeypatch.setattr(jsonio, "_letter_text", fresh)
        # an earlier name would let the next one format fewer letters
        monkeypatch.setattr(jsonio, "_neighbour", ((), ""))
        return fresh

    @staticmethod
    def random_vertex(system, rng):
        letters = []
        for _ in range(rng.randint(0, 12)):
            f = rng.randint(1, system.n)
            if system.orders[f - 1] is not None:
                p = rng.randrange(system.orders[f - 1])
            else:
                p = rng.choice([-3, -1, 2, 10**29 + rng.randrange(10**29), -(10**29) - 7])
            letters.append((f, p))
        rep = normal_form(system, letters)
        factor = rng.randint(0, system.n)
        return u_vertex(rep) if factor == 0 else c_vertex(factor, rep)

    def test_names_equal_dumps_cold_and_warm(self, memo):
        rng = random.Random(41)
        for name, system in sorted(WIRE_SYSTEMS.items()):
            for _ in range(150):
                v = self.random_vertex(system, rng)
                want = reference_vertex_name(v)
                assert jsonio.vertex_name(v) == want, name
                assert jsonio.vertex_name(v) == want, name  # every letter now memoized
        assert any(len(str(abs(p))) == 30 for _, p in memo)
        assert any(p < 0 for _, p in memo)

    def test_memo_stays_at_its_cap(self, memo):
        system = WIRE_SYSTEMS["S3*Z2*Z*Z5"]
        cap = factors.LETTER_MEMO_CAP
        for start in range(-500, cap + 500, 1000):
            letters = []
            for p in range(start, start + 1000):
                letters += [(3, p), (2, 1)]
            v = u_vertex(normal_form(system, letters))
            assert jsonio.vertex_name(v) == reference_vertex_name(v)
            assert len(memo) <= cap
        assert len(memo) == cap
        v = u_vertex(normal_form(system, [(3, cap + 10**6), (1, 2), (3, -1), (2, 1)]))
        assert jsonio.vertex_name(v) == reference_vertex_name(v)
        assert len(memo) == cap

    def test_unprintable_payload_raises_with_cold_and_warm_memo(self, memo):
        system = WIRE_SYSTEMS["S3*Z2*Z*Z5"]
        huge = 10**5000
        v = c_vertex(1, normal_form(system, [(2, 1), (3, huge), (4, 2)]))
        with pytest.raises(UnprintableAnswerError):
            jsonio.vertex_name(v)
        jsonio.vertex_name(u_vertex(normal_form(system, [(2, 1), (4, 2)])))
        assert (2, 1) in memo and (4, 2) in memo
        with pytest.raises(UnprintableAnswerError):
            jsonio.vertex_name(v)
        assert (3, huge) not in memo


def _name_relation(last, syllables):
    """How a name's syllables relate to the previous name's."""
    if syllables == last:
        return "equal"
    if syllables == last[1:]:
        return "dropped"
    if syllables[1:] == last:
        return "prepended"
    return "unrelated"


class TestNeighbourNames:
    """vertex_name starts from the previous name when its syllables are
    equal, one leading letter shorter or one letter longer; every name
    stays the bytes of dumps of the word, whatever the order of the calls."""

    @pytest.fixture(autouse=True)
    def fresh(self, monkeypatch):
        monkeypatch.setattr(jsonio, "_neighbour", ((), ""))

    @staticmethod
    def random_rep(system, rng, length):
        letters = []
        for _ in range(length):
            f = rng.randint(1, system.n)
            if system.orders[f - 1] is None:
                p = rng.choice([-3, 2, 10**29 + rng.randrange(10**6), -(10**26) - rng.randrange(9)])
            else:
                p = rng.randrange(system.orders[f - 1])
            letters.append((f, p))
        return normal_form(system, letters)

    def vertex_orders(self, system, rng):
        """Vertex sequences in each order the memo meets."""
        shared = self.random_rep(system, rng, 6)

        def endpoint():
            rep = self.random_rep(system, rng, rng.randint(0, 14)) * shared
            factor = rng.randint(0, system.n)
            return u_vertex(rep) if factor == 0 else c_vertex(factor, rep)

        path, other = geodesic(endpoint(), endpoint()), geodesic(endpoint(), endpoint())
        yield path
        yield path[::-1]
        yield [v for pair in zip(path, other) for v in pair]
        yield [v for v in other for _ in range(2)]
        reps = [self.random_rep(system, rng, 5) for _ in range(4)]
        yield [c_vertex(f, r) if f else u_vertex(r) for r in reps for f in range(system.n + 1)]
        empty = normal_form(system, [])
        one = self.random_rep(system, rng, 1)
        yield [u_vertex(empty), c_vertex(1, empty), u_vertex(one), u_vertex(empty), u_vertex(one)]

    def test_every_rule_matches_dumps(self):
        rng, seen, big = random.Random(29), collections.Counter(), 0
        last = jsonio._neighbour[0]
        for name, system in sorted(WIRE_SYSTEMS.items()):
            for _ in range(8):
                for order in self.vertex_orders(system, rng):
                    for v in order:
                        assert jsonio.vertex_name(v) == reference_vertex_name(v), name
                        seen[_name_relation(last, v.rep.syllables)] += 1
                        last = v.rep.syllables
                        big += any(abs(p) > 10**25 for _, p in last)
        assert min(seen[k] for k in ("equal", "dropped", "prepended", "unrelated")) >= 20, seen
        assert big >= 20

    def test_names_stay_exact_after_an_unprintable_one(self):
        # a failing name changes no state: the next name starts from the
        # last name that succeeded
        system = WIRE_SYSTEMS["S3*Z2*Z*Z5"]
        rng, seen = random.Random(31), collections.Counter()
        huge = 10**5000
        for _ in range(20):
            start = u_vertex(self.random_rep(system, rng, 12))
            for v in geodesic(start, c_vertex(2, normal_form(system, []))):
                syllables = v.rep.syllables
                bad = rng.choice(
                    [
                        u_vertex(normal_form(system, [(3, huge)] + list(syllables))),
                        c_vertex(2, normal_form(system, [(3, huge)])),
                    ]
                )
                before = jsonio._neighbour
                seen[_name_relation(before[0], bad.rep.syllables)] += 1
                with pytest.raises(UnprintableAnswerError):
                    jsonio.vertex_name(bad)
                assert jsonio._neighbour is before
                assert jsonio.vertex_name(v) == reference_vertex_name(v)
        assert seen["prepended"] >= 20 and seen["unrelated"] >= 20, seen


GEODESIC_STDOUT = (
    '["C1:[[3,-7],[2,1],[3,12345678901234567890]]",'
    '"U:[[3,-7],[2,1],[3,12345678901234567890]]",'
    '"C3:[[2,1],[3,12345678901234567890]]",'
    '"U:[[2,1],[3,12345678901234567890]]",'
    '"C1:[[2,1],[3,12345678901234567890]]",'
    '"U:[[1,5],[2,1],[3,12345678901234567890]]",'
    '"C3:[[1,5],[2,1],[3,12345678901234567890]]",'
    '"U:[[3,-2],[1,5],[2,1],[3,12345678901234567890]]",'
    '"C2:[[3,-2],[1,5],[2,1],[3,12345678901234567890]]",'
    '"U:[[2,1],[3,-2],[1,5],[2,1],[3,12345678901234567890]]"]\n'
)


class TestCliGeodesicBytes:
    def test_geodesic_stdout_is_pinned(self, capsys, tmp_path, mixed):
        path = tmp_path / "system.json"
        path.write_text(json.dumps(jsonio.system_to_json(mixed)))
        p = "C1:[[1,4],[3,-7],[2,1],[3,12345678901234567890]]"
        q = "U:[[2,1],[3,-2],[1,5],[2,1],[3,12345678901234567890]]"
        assert main(["--system", str(path), "geodesic", p, q]) == 0
        assert capsys.readouterr().out == GEODESIC_STDOUT
        assert main(["--system", str(path), "--format", "text", "geodesic", p, q]) == 0
        lines = "\n".join(json.loads(GEODESIC_STDOUT)) + "\n"
        assert capsys.readouterr().out == lines
