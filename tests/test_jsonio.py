import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from whitefact import jsonio
from whitefact.cli import main
from whitefact.autos import factorize
from whitefact.errors import SchemaError
from whitefact.explorer import enumerate_ball
from whitefact.factors import CyclicBackend, FactorSystem, IntBackend, TableBackend
from whitefact.labellings import apex_label, star_label
from whitefact.sampling import random_pure_auto, random_word
from whitefact.tree import c_vertex, geodesic, u_vertex
from whitefact.words import empty_word, word

from conftest import s3_table


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


class TestLabels:
    def test_star_roundtrip(self, z342):
        rng = random.Random(5)
        for _ in range(15):
            label = star_label(z342, [random_word(z342, rng, 3) for _ in range(3)])
            assert jsonio.star_from_json(z342, jsonio.star_to_json(label)) == label

    def test_apex_roundtrip(self, z342):
        rng = random.Random(7)
        for _ in range(15):
            label = apex_label(
                z342, rng.randint(1, 3), [random_word(z342, rng, 3) for _ in range(3)]
            )
            assert jsonio.apex_from_json(z342, jsonio.apex_to_json(label)) == label

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
    if v.kind == "u":
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
