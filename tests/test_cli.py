import contextlib
import io
import json
import random
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from whitefact.cli import main
from whitefact import explorer, jsonio
from whitefact.autos import factorize, identity_auto, tuple_auto
from whitefact.sampling import random_pure_auto
from whitefact.words import word

from conftest import s3_table


K3_SYSTEM = {
    "factors": [
        {"kind": "cyclic", "order": 2},
        {"kind": "cyclic", "order": 2},
        {"kind": "cyclic", "order": 2},
    ]
}


@pytest.fixture()
def system_file(tmp_path):
    path = tmp_path / "k3.json"
    path.write_text(json.dumps(K3_SYSTEM))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestNormalize:
    def test_reduces(self, capsys, system_file):
        code, out, _ = run(
            capsys, "--system", system_file, "normalize", "[[1,1],[1,1],[2,1]]"
        )
        assert code == 0
        assert json.loads(out) == [[2, 1]]

    def test_parse_error_is_exit_2(self, capsys, system_file):
        code, _, err = run(capsys, "--system", system_file, "normalize", "{oops")
        assert code == 2
        assert "error" in err

    def test_missing_system_is_exit_2(self, capsys):
        code, _, err = run(capsys, "normalize", "[[1,1]]")
        assert code == 2
        assert "--system" in err


class TestDistanceAndGeodesic:
    def test_distance(self, capsys, system_file):
        code, out, _ = run(
            capsys, "--system", system_file, "distance", "U:[]", "U:[[1,1],[2,1]]"
        )
        assert code == 0 and out.strip() == "4"

    def test_geodesic(self, capsys, system_file):
        code, out, _ = run(
            capsys, "--system", system_file, "geodesic", "U:[]", "C3:[[2,1],[1,1]]"
        )
        assert code == 0
        names = json.loads(out)
        assert names[0] == "U:[]" and names[-1] == "C3:[[2,1],[1,1]]"
        assert len(names) == 6


class TestVolumeAndReduce:
    def test_volume_example(self, capsys, system_file):
        label = '{"alpha":[[],[],[[2,1],[1,1]]]}'
        code, out, _ = run(capsys, "--system", system_file, "volume", label)
        assert code == 0 and out.strip() == "7"

    def test_reduce_trace(self, capsys, system_file):
        label = '{"alpha":[[],[],[[2,1],[1,1]]]}'
        code, out, _ = run(capsys, "--system", system_file, "reduce", label)
        assert code == 0
        payload = json.loads(out)
        assert payload["final"] == [[], [], []]
        assert [m["vol_before"] for m in payload["moves"]] == [7, 5]
        assert payload["moves"][0]["a"] == [1, 1]

    def test_reduce_two_slot_fold(self, capsys, system_file):
        label = '{"alpha":[[],[[1,1]],[[2,1],[1,1]]]}'
        code, out, _ = run(capsys, "--system", system_file, "reduce", label)
        assert code == 0
        assert json.loads(out)["moves"] == [
            {"i": 1, "Y": [2, 3], "a": [1, 1], "vol_before": 9, "vol_after": 5},
            {"i": 2, "Y": [3], "a": [2, 1], "vol_before": 5, "vol_after": 3},
        ]
        code, out, _ = run(capsys, "--system", system_file, "--format", "text", "reduce", label)
        assert code == 0
        assert out.splitlines() == [
            "move 1: slots 2, 3 through factor 1, volume 9 -> 5",
            "move 2: slot 3 through factor 2, volume 5 -> 3",
            "final: [[],[],[]]",
        ]

    def test_nonsplitting_is_exit_1(self, capsys, system_file):
        label = '{"alpha":[[],[],[[2,1],[3,1]]]}'
        code, _, err = run(capsys, "--system", system_file, "reduce", label)
        assert code == 1
        assert "non-splitting" in err
        assert "volume 7 at slots [1, 1, 2:1.3:1]" in err

    def test_stuck_after_a_step_names_the_stuck_tuple(self, capsys, system_file):
        # one fold (slot 3 through C_1(1)) leaves (1, c, b), which has none
        label = '{"alpha":[[],[[3,1]],[[2,1],[1,1]]]}'
        code, out, err = run(capsys, "--system", system_file, "reduce", label)
        assert (code, out) == (1, "")
        assert err == (
            "error: non-splitting input: no fold exists although volume exceeds n "
            "(volume 7 at slots [1, 3:1, 2:1])\n"
        )

    @pytest.mark.parametrize("command", ["reduce", "factorize"])
    @pytest.mark.parametrize("stuck", ["long", "wide"])
    def test_nonsplitting_echo_is_bounded(self, capsys, command, stuck):
        # G1^b, G2^a and G3 conjugated by a long word, or by a word with a Z
        # letter of 4300 digits: no fold exists, and the slots text is clipped
        system_obj = {"factors": [
            {"kind": "cyclic", "order": 2}, {"kind": "cyclic", "order": 3}, {"kind": "int"},
        ]}
        system = jsonio.system_from_json(system_obj)
        third = [(1, 1), (2, 1)] * 500 + [(3, 1)] if stuck == "long" else [(1, 1), (3, 10**4299)]
        words = [word(system, [(2, 1)]), word(system, [(1, 1)]), word(system, third)]
        slots = ", ".join(str(w) for w in words)
        if command == "reduce":
            argument = json.dumps({"alpha": [jsonio.word_to_json(w) for w in words]})
        else:
            argument = json.dumps(jsonio.auto_to_json(tuple_auto(system, words)))
        code, out, err = run(capsys, "--system", json.dumps(system_obj), command, argument)
        assert code == 1 and out == ""
        assert err.startswith("error: non-splitting input: no fold exists")
        assert err.count("\n") == 1 and len(err) <= 200
        assert err.endswith(f"at slots [{slots[:80]}... ({len(slots)} characters)])\n")


class TestFactorizeAndVerify:
    def test_factorize_identity(self, capsys, system_file, tmp_path):
        system = jsonio.system_from_json(K3_SYSTEM)
        auto_path = tmp_path / "identity.json"
        auto_path.write_text(json.dumps(jsonio.auto_to_json(identity_auto(system))))
        code, out, _ = run(capsys, "--system", system_file, "factorize", str(auto_path))
        assert code == 0
        payload = json.loads(out)
        assert payload["whitehead"] == [] and payload["inner"] == []

    def test_factorize_two_slot_move(self, capsys, system_file):
        system = jsonio.system_from_json(K3_SYSTEM)
        psi = tuple_auto(
            system,
            [word(system, []), word(system, [(1, 1)]), word(system, [(2, 1), (1, 1)])],
        )
        auto = json.dumps(jsonio.auto_to_json(psi))
        code, out, _ = run(capsys, "--system", system_file, "factorize", auto)
        assert code == 0
        payload = json.loads(out)
        # slots 2 and 3 share the suffix 1:1, so the walk starts at U(1:1)
        # and the translation is the inner part
        assert payload["whitehead"] == [{"Y": [3], "x": [2, 1]}]
        assert payload["inner"] == [[1, 1]]
        code, out, _ = run(capsys, "--system", system_file, "--format", "text", "factorize", auto)
        assert code == 0
        identity = '{"kind":"mult","value":1}'
        assert out.splitlines() == [
            "move 1: Y {3} by [2,1]",
            f"factor: [{identity},{identity},{identity}]",
            "inner: [[1,1]]",
        ]

    def test_verify_roundtrip(self, capsys, system_file, tmp_path):
        system = jsonio.system_from_json(K3_SYSTEM)
        psi = tuple_auto(
            system,
            [
                word(system, []),
                word(system, []),
                word(system, [(2, 1), (1, 1)]),
            ],
        )
        auto_path = tmp_path / "psi.json"
        auto_path.write_text(json.dumps(jsonio.auto_to_json(psi)))
        fact_path = tmp_path / "fact.json"
        fact_path.write_text(
            json.dumps(jsonio.factorization_to_json(system, factorize(psi)))
        )
        code, out, _ = run(
            capsys, "--system", system_file, "verify", str(auto_path), str(fact_path)
        )
        assert code == 0 and out.strip() == "OK"

    def test_verify_failure_is_exit_1(self, capsys, system_file, tmp_path):
        system = jsonio.system_from_json(K3_SYSTEM)
        psi = tuple_auto(
            system,
            [word(system, []), word(system, []), word(system, [(2, 1), (1, 1)])],
        )
        auto_path = tmp_path / "psi.json"
        auto_path.write_text(json.dumps(jsonio.auto_to_json(psi)))
        fact = factorize(psi)
        payload = jsonio.factorization_to_json(system, fact)
        payload["whitehead"] = payload["whitehead"][1:]
        fact_path = tmp_path / "fact.json"
        fact_path.write_text(json.dumps(payload))
        code, out, _ = run(
            capsys, "--system", system_file, "verify", str(auto_path), str(fact_path)
        )
        assert code == 1 and out.strip() == "FAIL"

    def test_verify_failure_names_generator(self, capsys, system_file):
        system = jsonio.system_from_json(K3_SYSTEM)
        psi = tuple_auto(
            system,
            [word(system, []), word(system, []), word(system, [(2, 1), (1, 1)])],
        )
        payload = jsonio.factorization_to_json(system, factorize(psi))
        payload["whitehead"] = payload["whitehead"][1:]
        code, out, err = run(
            capsys,
            "--system",
            system_file,
            "verify",
            json.dumps(jsonio.auto_to_json(psi)),
            json.dumps(payload),
        )
        assert code == 1 and out.strip() == "FAIL"
        assert err == (
            "generator 3:1: factorization gives 1:1.3:1.1:1, "
            "psi gives 1:1.2:1.3:1.2:1.1:1\n"
        )


class TestExplore:
    def test_json_output(self, capsys, system_file):
        code, out, _ = run(
            capsys, "--system", system_file, "explore", "--max-volume", "5"
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["alpha_classes"]) == 4

    def test_dot_output(self, capsys, system_file):
        code, out, _ = run(
            capsys,
            "--system",
            system_file,
            "--format",
            "dot",
            "explore",
            "--max-volume",
            "3",
        )
        assert code == 0
        assert out.startswith("graph complex {")

    def test_byte_identical_across_runs(self, capsys, system_file):
        _, first, _ = run(
            capsys, "--system", system_file, "explore", "--max-volume", "7"
        )
        _, second, _ = run(
            capsys, "--system", system_file, "explore", "--max-volume", "7"
        )
        assert first == second

    def test_visit_cap_is_exit_1(self, capsys, system_file, monkeypatch):
        monkeypatch.setattr(explorer, "MAX_VISITED", 10)
        code, out, err = run(
            capsys, "--system", system_file, "explore", "--max-volume", "9"
        )
        assert code == 1
        assert not out
        assert err.count("\n") == 1
        assert "FactorSystem(Z2, Z2, Z2)" in err and "bound 9" in err
        assert "visited 11 tuples" in err

    def test_huge_order_answers_at_once(self, capsys):
        huge = json.dumps({"factors": [{"kind": "cyclic", "order": 10**12}] + K3_SYSTEM["factors"][1:]})
        start = time.perf_counter()
        code, out, _ = run(capsys, "--system", huge, "explore", "--max-volume", "3")
        assert code == 0
        assert json.loads(out)["alpha_classes"] == [[[], [], []]]
        code, out, err = run(capsys, "--system", huge, "explore", "--max-volume", "5")
        assert time.perf_counter() - start < 2
        assert code == 1
        assert not out
        assert err == (
            "error: explore over FactorSystem(Z1000000000000, Z2, Z2) at volume bound 5 "
            "visited 50001 tuples, over the cap of 50000\n"
        )


SELFTEST_SEED_0 = [
    "criterion 1 (oracle distance equivalence): PASS [s] 31433 vertex pairs checked",
    "criterion 2 (translation midpoint law): PASS [s] 1000 instances",
    "criterion 3 (volume-decrease law): PASS [s] 1000 labels, 2265 steps",
    "criterion 4 (base characterization): PASS [s] 343 tuples",
    "criterion 5 (factorization round-trip): PASS [s] 200 automorphisms",
    "criterion 6 (connectivity at desk scale): PASS [s] 16 alpha classes, 33 A classes, 48 edges",
    "criterion 7 (stabilizer decompositions): PASS [s] 9 automorphisms x 3 apexes",
    "criterion 8 (mutation sensitivity): PASS [s] 50 factorizations, 274 mutations",
]


class TestSelftest:
    @pytest.mark.parametrize(
        "argv, changed",
        [
            ((), {}),
            (
                ("--seed", "3"),
                {
                    2: "criterion 3 (volume-decrease law): PASS [s] 1000 labels, 2203 steps",
                    7: "criterion 8 (mutation sensitivity): PASS [s] 50 factorizations, 254 mutations",
                },
            ),
        ],
    )
    def test_prints_the_eight_criteria(self, capsys, argv, changed):
        code, out, err = run(capsys, *argv, "selftest")
        assert code == 0
        assert not err
        want = [changed.get(k, line) for k, line in enumerate(SELFTEST_SEED_0)]
        assert re.sub(r"\[\d+\.\d\ds\]", "[s]", out).splitlines() == want


S3_TABLE = [list(row) for row in s3_table().table]


def _table_system(**overrides):
    entry = {"kind": "table", "table": S3_TABLE, "identity": 0, **overrides}
    return {"factors": [entry] + K3_SYSTEM["factors"][1:]}


MULT_ONE = {"kind": "mult", "value": 1}


def _auto(first_phi=MULT_ONE):
    parts = [{"phi": first_phi, "g": []}] + [{"phi": MULT_ONE, "g": []}] * 2
    return json.dumps({"parts": parts})


def _verify_argv(whitehead):
    fact = {"whitehead": whitehead, "factor": [MULT_ONE] * 3, "inner": []}
    return ["verify", _auto(), json.dumps(fact)]


HUGE = 10**4000 - 1  # 4000 digits, under CPython's int-string limit of 4300
MIXED_PHIS = [{"kind": "perm", "map": list(range(6))}, MULT_ONE, {"kind": "sign", "value": 1}]


def _mixed_auto(phis=MIXED_PHIS):
    return json.dumps({"parts": [{"phi": phi, "g": []} for phi in phis]})


def _mixed_factorization(whitehead):
    return json.dumps({"whitehead": whitehead, "factor": MIXED_PHIS, "inner": []})


class TestTableChecks:
    def test_order_256_table_loads(self, capsys):
        # no order cap: associativity is checked on generators
        order = 256
        table = [[(a + b) % order for b in range(order)] for a in range(order)]
        system = {"factors": [{"kind": "table", "table": table}] + K3_SYSTEM["factors"][1:]}
        code, out, err = run(
            capsys, "--system", json.dumps(system), "normalize", "[[1,255],[1,2],[2,1]]"
        )
        assert code == 0
        assert not err
        assert json.loads(out) == [[1, 1], [2, 1]]

    def test_identity_out_of_range_is_exit_2(self, capsys):
        factor = {"kind": "table", "table": [[0, 1], [1, 0]], "identity": 2}
        system = {"factors": [factor] + K3_SYSTEM["factors"][1:]}
        code, out, err = run(capsys, "--system", json.dumps(system), "normalize", "[]")
        assert code == 2
        assert not out
        assert err == "error: factor 1: identity index 2 out of range\n"


class TestTrivialFactor:
    def test_one_element_table_is_exit_2(self, capsys):
        factors = K3_SYSTEM["factors"]
        system = {"factors": factors[:1] + [{"kind": "table", "table": [[0]]}] + factors[1:]}
        code, out, err = run(capsys, "--system", json.dumps(system), "normalize", "[]")
        assert code == 2
        assert not out
        assert err == "error: factor 2: Cayley table needs at least 2 elements, got 1\n"


class TestElementNames:
    @pytest.mark.parametrize(
        "names", [[0, 1, 2, 3, [4], {"a": 5}], ["a", "a", "b", "c", "d", "e"]]
    )
    def test_bad_element_names_are_exit_2(self, capsys, names):
        s3 = {"kind": "table", "elements": names, "table": [list(row) for row in s3_table().table]}
        system = {"factors": [s3] + K3_SYSTEM["factors"][1:]}
        code, out, err = run(
            capsys, "--system", json.dumps(system), "--format", "text", "normalize", "[[1,4],[2,1],[1,5]]"
        )
        assert code == 2
        assert not out
        assert err == "error: factor 1: elements must be distinct strings, one per table row\n"

    @pytest.mark.parametrize(
        "names",
        [["e", "a", "b", "c", "d"], ["e", "a", "b", "c", "d", "f", "g"], "abcdef"],
        ids=["short", "long", "string"],
    )
    def test_wrong_length_or_a_string_is_exit_2(self, capsys, names):
        # one rule: the list check in the decoder, every other in validate
        s3 = {"kind": "table", "elements": names, "table": [list(row) for row in s3_table().table]}
        system = {"factors": [s3] + K3_SYSTEM["factors"][1:]}
        code, out, err = run(capsys, "--system", json.dumps(system), "normalize", "[]")
        assert (code, out) == (2, "")
        assert err == "error: factor 1: elements must be distinct strings, one per table row\n"


class TestVertexNames:
    def test_bad_head_is_named_before_the_word(self, capsys):
        system = {
            "factors": [{"kind": "cyclic", "order": 2}, {"kind": "cyclic", "order": 3}, {"kind": "int"}]
        }
        cases = {
            "X:[[9,9]]": "error: bad vertex name 'X:[[9,9]]'\n",
            "C9:nonsense": "error: factor index 9 out of range\n",
            "U:[[9,9]]": "error: factor index 9 out of range\n",
        }
        for name, message in cases.items():
            code, out, err = run(capsys, "--system", json.dumps(system), "distance", name, "U:[]")
            assert (code, out, err) == (2, "", message)


class TestMalformedInput:
    @pytest.mark.parametrize(
        "system, argv",
        [
            (
                _table_system(table=[S3_TABLE[0], S3_TABLE[1][:5] + ["a"]] + S3_TABLE[2:]),
                ["normalize", "[]"],
            ),
            (_table_system(identity="x"), ["normalize", "[]"]),
            (_table_system(table=S3_TABLE[:5] + [7]), ["normalize", "[]"]),
            (
                _table_system(elements=["e", "a"]),
                ["--format", "text", "normalize", "[[1,3]]"],
            ),
            (K3_SYSTEM, ["distance", "U:[]", "C²:[]"]),
            (K3_SYSTEM, ["normalize", "[[true,true]]"]),
            (K3_SYSTEM, ["normalize", "[[1,false]]"]),
            (K3_SYSTEM, ["factorize", _auto({"kind": "mult", "value": True})]),
            (
                _table_system(),
                ["factorize", _auto({"kind": "perm", "map": [[0], 1, 2, 3, 4, 5]})],
            ),
            (K3_SYSTEM, _verify_argv([{"Y": 7, "x": [1, 1]}])),
            (K3_SYSTEM, _verify_argv([{"Y": [1.5], "x": [1, 1]}])),
            (K3_SYSTEM, _verify_argv([{"Y": "ab", "x": [1, 1]}])),
            (K3_SYSTEM, _verify_argv([{"Y": [True], "x": [2, 1]}])),
            (K3_SYSTEM, _verify_argv([{"Y": [2], "x": ["a", 1]}])),
            (K3_SYSTEM, _verify_argv(7)),
        ],
        ids=[
            "table-entry",
            "identity",
            "table-row",
            "short-elements",
            "vertex-factor",
            "bool-letter",
            "bool-payload",
            "bool-mult",
            "perm-map-entry",
            "whitehead-Y-int",
            "whitehead-Y-float",
            "whitehead-Y-string",
            "whitehead-Y-bool",
            "whitehead-x-string",
            "whitehead-not-list",
        ],
    )
    def test_schema_error_exit(self, capsys, tmp_path, system, argv):
        path = tmp_path / "system.json"
        path.write_text(json.dumps(system))
        code, _, err = run(capsys, "--system", str(path), *argv)
        assert code == 2
        assert err.startswith("error: ")

    @pytest.mark.parametrize("kind", ["directory", "not-utf8", "deep-nesting"])
    def test_unreadable_file_exit(self, capsys, tmp_path, kind):
        path = tmp_path / "system.json"
        if kind == "directory":
            path.mkdir()
        elif kind == "not-utf8":
            path.write_bytes(b"\xff\xfe{")
        else:
            path.write_text("[" * 100_000)
        code, out, err = run(capsys, "--system", str(path), "normalize", "[]")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and str(path) in err
        assert err.count("\n") == 1

    # CPython converts at most 4300 digits between int and str by default.
    @pytest.mark.parametrize(
        "system, argv",
        [
            (None, ["distance", "U:" + "[" * 100_000, "U:[]"]),
            (None, ["normalize", "[[3," + "9" * 5000 + "]]"]),
            (None, ["distance", "U:[[3," + "9" * 5000 + "]]", "U:[]"]),
            (None, ["distance", "C" + "1" * 5000 + ":[]", "U:[]"]),
            ('{"factors": [{"kind": "cyclic", "order": ' + "9" * 5000 + "}]}", ["normalize", "[]"]),
        ],
        ids=[
            "deep-vertex",
            "long-int-argument",
            "long-int-vertex",
            "long-vertex-factor",
            "long-int-system",
        ],
    )
    def test_input_past_python_limits_exit_2(self, capsys, system, argv):
        code, out, err = run(capsys, "--system", system or json.dumps(MIXED_SYSTEM), *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, size",
        [
            (["distance", "U:" + "[" * 100_000, "U:[]"], 100_002),
            (["normalize", "[[3," + "9" * 5000 + "]]"], 5006),
            (["distance", "U:[[3," + "9" * 5000 + "]]", "U:[]"], 5008),
            (["distance", "C" + "1" * 5000 + ":[]", "U:[]"], 5004),
            (["distance", "V" * 5000 + ":[]", "U:[]"], 5003),
            (["normalize", "[[1," + "[0]," * 5000 + "0]]"], None),
        ],
        ids=["deep-vertex", "long-int-argument", "long-int-vertex", "long-vertex-factor",
             "long-vertex-kind", "long-letter"],
    )
    def test_long_argument_echo_is_bounded(self, capsys, argv, size):
        code, out, err = run(capsys, "--system", json.dumps(MIXED_SYSTEM), *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert len(err) < 200
        assert "set_int_max_str_digits" not in err
        if size is not None:
            assert f"... ({size} characters)" in err

    @pytest.mark.parametrize(
        "system, argv, prefix",
        [
            ("mixed", ["normalize", json.dumps([[HUGE, 1]])], "error: factor index 9999"),
            ("mixed", ["distance", f"C{HUGE}:[]", "U:[]"], "error: factor index 9999"),
            ("mixed", ["normalize", json.dumps([[1, HUGE]])], "error: table index 9999"),
            (
                "mixed",
                ["verify", _mixed_auto(), _mixed_factorization([{"Y": [2], "x": [1, HUGE]}])],
                "error: bad whitehead automorphism: table index 9999",
            ),
            ("k3", ["factorize", _auto({"kind": "mult", "value": HUGE})],
             "error: factor 1: multiplier 9999"),
            (
                "mixed",
                ["factorize", _mixed_auto(MIXED_PHIS[:2] + [{"kind": "sign", "value": HUGE}])],
                "error: factor 3: sign 9999",
            ),
        ],
        ids=["word-factor", "vertex-head", "word-table-payload", "whitehead-table-payload",
             "mult", "sign"],
    )
    def test_long_integer_echo_is_bounded(self, capsys, system, argv, prefix):
        # the integer parses, and each message repeats at most 80 of its digits
        system_obj = MIXED_SYSTEM if system == "mixed" else K3_SYSTEM
        code, out, err = run(capsys, "--system", json.dumps(system_obj), *argv)
        assert (code, out) == (2, "")
        assert err.startswith(prefix) and err.count("\n") == 1
        assert len(err.encode()) < 200
        assert "... (4000 characters)" in err

    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("command", ["normalize", "geodesic"])
    def test_unprintable_answer_exit_1(self, capsys, command, fmt):
        # Each payload prints, but their sum has 4301 digits.
        letter = "[3," + "9" * 4300 + "]"
        argv = {
            "normalize": ["normalize", f"[{letter},{letter}]"],
            "geodesic": ["geodesic", f"U:[{letter},{letter}]", "U:[]"],
        }[command]
        code, out, err = run(capsys, "--system", json.dumps(MIXED_SYSTEM), "--format", fmt, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "it cannot be printed" in err


# -- fuzzing every command with JSON mutated from valid inputs -----------------

MIXED_SYSTEM = _table_system()
MIXED_SYSTEM["factors"][2] = {"kind": "int"}


def _valid_inputs():
    """(system JSON, command, JSON arguments) for every command but selftest,
    which reads no outside input beyond --seed and runs the whole suite."""
    cases = []
    for system_obj in (K3_SYSTEM, MIXED_SYSTEM):
        system = jsonio.system_from_json(system_obj)
        psi = random_pure_auto(system, random.Random(5), 3)
        fact = jsonio.factorization_to_json(system, factorize(psi))
        auto = jsonio.auto_to_json(psi)
        label = {"alpha": [[], [], [[2, 1], [1, 1]]]}
        cases += [
            (system_obj, "normalize", [[[1, 1], [2, 1], [2, 1], [3, -1]]]),
            (system_obj, "distance", [["U", []], ["C3", [[2, 1], [1, 1]]]]),
            (system_obj, "geodesic", [["U", [[1, 1]]], ["C2", [[3, 1]]]]),
            (system_obj, "volume", [label, [[1, 1]]]),
            (system_obj, "reduce", [label]),
            (system_obj, "factorize", [auto]),
            (system_obj, "verify", [auto, fact]),
            (system_obj, "explore", [5]),
        ]
    return cases


VALID_INPUTS = _valid_inputs()

JSON_VALUES = st.integers(-4, 9) | st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-4, 9)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=3),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=5,
)


def _mutate(draw, value):
    """Replace one node of a JSON value, or drop one list entry or key.

    Deep nodes are likelier than shallow ones, so most mutants keep the
    outer shape and reach the checks past the first schema test.
    """
    if isinstance(value, (list, dict)) and value and draw(st.integers(0, 3)):
        copy = list(value) if isinstance(value, list) else dict(value)
        key = draw(st.sampled_from(range(len(copy)) if isinstance(copy, list) else sorted(copy)))
        if not draw(st.integers(0, 3)):
            del copy[key]
        else:
            copy[key] = _mutate(draw, copy[key])
        return copy
    return draw(JSON_VALUES)


def _vertex_name(value):
    if isinstance(value, list) and len(value) == 2 and isinstance(value[0], str):
        return f"{value[0]}:{json.dumps(value[1])}"
    return json.dumps(value)


def _argv(system_obj, command, args):
    argv = ["--system", json.dumps(system_obj), command]
    if command in ("distance", "geodesic"):
        return argv + [_vertex_name(a) for a in args]
    if command == "volume":
        return argv + [json.dumps(args[0]), "--basepoint", json.dumps(args[1])]
    if command == "explore":
        return argv + ["--max-volume", json.dumps(args[0])]
    return argv + [json.dumps(a) for a in args]


class TestFuzz:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_every_command_exits_0_1_or_2(self, data):
        system_obj, command, args = data.draw(st.sampled_from(VALID_INPUTS))
        if data.draw(st.booleans()):
            system_obj = _mutate(data.draw, system_obj)
        else:
            args = list(args)
            index = data.draw(st.integers(0, len(args) - 1))
            args[index] = _mutate(data.draw, args[index])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(_argv(system_obj, command, args))
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code
        assert code in (0, 1, 2)
        if code != 0:
            assert err.getvalue().strip()
