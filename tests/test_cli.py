import contextlib
import io
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from whitefact.cli import main
from whitefact import explorer, jsonio
from whitefact.autos import factorize, identity_auto, tuple_auto
from whitefact.factors import MAX_TABLE_ORDER
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
        assert payload["whitehead"] == [{"Y": [3], "x": [2, 1]}, {"Y": [2, 3], "x": [1, 1]}]
        code, out, _ = run(capsys, "--system", system_file, "--format", "text", "factorize", auto)
        assert code == 0
        identity = '{"kind":"mult","value":1}'
        assert out.splitlines() == [
            "move 1: Y {3} by [2,1]",
            "move 2: Y {2, 3} by [1,1]",
            f"factor: [{identity},{identity},{identity}]",
            "inner: []",
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


class TestOversizedTable:
    def test_table_over_the_limit_is_exit_2(self, capsys):
        order = MAX_TABLE_ORDER + 1
        table = [[(a + b) % order for b in range(order)] for a in range(order)]
        system = {"factors": [{"kind": "table", "table": table}] + K3_SYSTEM["factors"][1:]}
        code, out, err = run(
            capsys, "--system", json.dumps(system), "normalize", "[[1,1]]"
        )
        assert code == 2
        assert not out
        assert err.count("\n") == 1
        assert f"order {order} exceeds the limit of {MAX_TABLE_ORDER}" in err


class TestTrivialFactor:
    def test_one_element_table_is_exit_2(self, capsys):
        factors = K3_SYSTEM["factors"]
        system = {"factors": factors[:1] + [{"kind": "table", "table": [[0]]}] + factors[1:]}
        code, out, err = run(capsys, "--system", json.dumps(system), "normalize", "[]")
        assert code == 2
        assert not out
        assert err == "error: factor 2: Cayley table needs at least 2 elements, got 1\n"


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
