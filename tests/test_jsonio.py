import json
import random

import pytest

from whitefact import jsonio
from whitefact.autos import factorize
from whitefact.errors import SchemaError
from whitefact.explorer import enumerate_ball
from whitefact.factors import CyclicBackend, FactorSystem, IntBackend
from whitefact.labellings import apex_label, star_label
from whitefact.sampling import random_pure_auto, random_word
from whitefact.tree import c_vertex, u_vertex
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
