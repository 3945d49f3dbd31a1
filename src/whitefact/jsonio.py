"""Wire formats: JSON schemas for every engine value, plus DOT export.

Schemas:
  factor system   {"factors": [{"kind": "cyclic", "order": 2},
                               {"kind": "table", "elements": [...],
                                "table": [[...]], "identity": 0},
                               {"kind": "int"}]}
  word            [[factor, payload], ...]          (reduced on ingest)
  star labelling  {"alpha": [word, ...]}
  apex labelling  {"A": {"apex": i, "tuple": [word, ...]}}
  automorphism    {"parts": [{"phi": phi, "g": word}, ...]}
  phi             {"kind": "mult", "value": k} | {"kind": "perm", "map": [...]}
                  | {"kind": "sign", "value": s}
  whitehead       {"Y": [...], "x": [factor, payload]}
  factorization   {"whitehead": [...], "factor": [phi, ...], "inner": word}
  move trace      [{"i":..., "Y": [...], "a": [factor, payload],
                    "vol_before":..., "vol_after":...}, ...]
Vertex names are "U:<word>" and "C<i>:<word>" with the word in compact JSON.

Decoding a word checks every letter (shape, factor index, integer payload)
before it normalizes any payload, so the first malformed letter is reported
whatever follows it; the normalized letters then go to words.normal_form.
Vertex names join "[factor,payload]" fragments; normalized payloads are
plain ints, so the bytes equal dumps of the word.
"""

from __future__ import annotations

import json

from .autos import (
    Factorization,
    PureSymmetricAuto,
    WhiteheadAuto,
    pure_auto,
    whitehead_auto,
)
from .errors import EngineError, SchemaError, UnprintableAnswerError
from .explorer import SnBall
from .factors import (
    CyclicBackend,
    FactorAutoPart,
    FactorElement,
    FactorSystem,
    IntBackend,
    TableBackend,
)
from .labellings import ApexLabel, StarLabel, apex_label, star_label
from .tree import TreeVertex, c_vertex, u_vertex
from .words import Word, normal_form


def dumps(obj) -> str:
    try:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))
    except ValueError as exc:  # past the int-string digit limit
        raise UnprintableAnswerError() from exc


ECHO_CHARS = 80  # longest repr of an outside value that an error message repeats


def echo(value) -> str:
    """repr(value) for a one-line message: past ECHO_CHARS characters, a
    prefix of it and the length of the string (or of the repr)."""
    shown = repr(value)
    if len(shown) <= ECHO_CHARS:
        return shown
    size = len(value) if isinstance(value, str) else len(shown)
    return f"{shown[:ECHO_CHARS]}... ({size} characters)"


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise SchemaError(message)


# -- factor systems ---------------------------------------------------------


def _is_int(x) -> bool:
    """A JSON integer: Python parses true/false as bools, which are ints too."""
    return isinstance(x, int) and not isinstance(x, bool)


def _all_ints(values: list) -> bool:
    return all(_is_int(x) for x in values)


def system_to_json(system: FactorSystem) -> dict:
    factors = []
    for backend in system.backends:
        if backend.kind == "cyclic":
            factors.append({"kind": "cyclic", "order": backend.order()})
        elif backend.kind == "int":
            factors.append({"kind": "int"})
        else:
            factors.append(
                {
                    "kind": "table",
                    "elements": list(backend.names),
                    "table": [list(row) for row in backend.table],
                    "identity": backend.identity,
                }
            )
    return {"factors": factors}


def system_from_json(obj) -> FactorSystem:
    _expect(isinstance(obj, dict) and "factors" in obj, "expected {'factors': [...]}")
    entries = obj["factors"]
    _expect(isinstance(entries, list) and len(entries) >= 3, "need at least 3 factors")
    backends = []
    for k, entry in enumerate(entries, start=1):
        _expect(isinstance(entry, dict) and "kind" in entry, f"factor {k}: missing kind")
        kind = entry["kind"]
        if kind == "cyclic":
            _expect(_is_int(entry.get("order")), f"factor {k}: integer order required")
            backends.append(CyclicBackend(entry["order"]))
        elif kind == "int":
            backends.append(IntBackend())
        elif kind == "table":
            table = entry.get("table")
            _expect(isinstance(table, list) and table, f"factor {k}: table required")
            _expect(
                all(isinstance(row, list) and _all_ints(row) for row in table),
                f"factor {k}: table rows must be lists of integers",
            )
            identity = entry.get("identity", 0)
            _expect(_is_int(identity), f"factor {k}: integer identity required")
            names = entry.get("elements")
            _expect(
                names is None or (isinstance(names, list) and len(names) == len(table)),
                f"factor {k}: elements must name every table row",
            )
            inverse = entry.get("inverse")
            _expect(
                inverse is None or (isinstance(inverse, list) and _all_ints(inverse)),
                f"factor {k}: inverse must be a list of integers",
            )
            backends.append(
                TableBackend(
                    table,
                    identity=identity,
                    names=names,
                    inverse=inverse,
                )
            )
        else:
            raise SchemaError(f"factor {k}: unknown kind {echo(kind)}")
    try:
        system = FactorSystem(backends)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    reports = system.validate()
    _expect(not reports, "; ".join(reports) or "invalid system")
    return system


# -- words and vertices -------------------------------------------------------


def word_to_json(w: Word) -> list:
    return [[s.factor, s.payload] for s in w.syllables]


def word_from_json(system: FactorSystem, obj) -> Word:
    _expect(isinstance(obj, list), "word must be a list of [factor, payload] pairs")
    n = system.n
    # Messages are formatted only on failure: these loops run per letter.
    for entry in obj:
        if not (
            isinstance(entry, list)
            and len(entry) == 2
            and (type(entry[0]) is int or _is_int(entry[0]))
        ):
            raise SchemaError(f"bad word letter {echo(entry)}")
        factor, payload = entry
        if not 1 <= factor <= n:
            raise SchemaError(f"factor index {factor} out of range")
        if not (type(payload) is int or _is_int(payload)):
            raise SchemaError(f"payload {echo(payload)} must be an integer")
    backends = system.backends
    try:
        letters = [FactorElement(f, backends[f - 1].normalize(p)) for f, p in obj]
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    return normal_form(system, letters)


def vertex_name(v: TreeVertex) -> str:
    try:
        body = ",".join([f"[{s.factor},{s.payload}]" for s in v.rep.syllables])
    except ValueError as exc:  # past the int-string digit limit
        raise UnprintableAnswerError() from exc
    if v.kind == "u":
        return f"U:[{body}]"
    return f"C{v.factor}:[{body}]"


def vertex_from_name(system: FactorSystem, name: str) -> TreeVertex:
    # messages are formatted only on failure: names are decoded per request
    if not (isinstance(name, str) and ":" in name):
        raise SchemaError(f"bad vertex name {echo(name)}")
    head, _, body = name.partition(":")
    try:
        rep = word_from_json(system, json.loads(body))
    except (ValueError, RecursionError) as exc:  # also too deep, or past the int-string limit
        raise SchemaError(f"bad vertex word in {echo(name)}") from exc
    if head == "U":
        return u_vertex(rep)
    digits = head[1:]
    if not (head.startswith("C") and digits.isascii() and digits.isdigit()):
        raise SchemaError(f"bad vertex name {echo(name)}")
    try:
        factor = int(digits)
    except ValueError as exc:  # past the int-string digit limit
        raise SchemaError(f"factor index out of range in {echo(name)}") from exc
    _expect(1 <= factor <= system.n, f"factor index {factor} out of range")
    return c_vertex(factor, rep)


# -- labellings ---------------------------------------------------------------


def star_to_json(label: StarLabel) -> dict:
    return {"alpha": [word_to_json(w) for w in label.conjugators]}


def star_from_json(system: FactorSystem, obj) -> StarLabel:
    _expect(isinstance(obj, dict) and "alpha" in obj, "expected {'alpha': [...]}")
    slots = obj["alpha"]
    _expect(isinstance(slots, list) and len(slots) == system.n, f"need {system.n} slots")
    return star_label(system, [word_from_json(system, s) for s in slots])


def apex_to_json(label: ApexLabel) -> dict:
    return {
        "A": {
            "apex": label.apex,
            "tuple": [word_to_json(w) for w in label.conjugators],
        }
    }


def apex_from_json(system: FactorSystem, obj) -> ApexLabel:
    _expect(
        isinstance(obj, dict) and isinstance(obj.get("A"), dict),
        "expected {'A': {'apex':..., 'tuple': [...]}}",
    )
    body = obj["A"]
    apex = body.get("apex")
    slots = body.get("tuple")
    _expect(_is_int(apex) and 1 <= apex <= system.n, "bad apex index")
    _expect(isinstance(slots, list) and len(slots) == system.n, f"need {system.n} slots")
    return apex_label(system, apex, [word_from_json(system, s) for s in slots])


# -- automorphism parts -------------------------------------------------------


def phi_to_json(system: FactorSystem, part: FactorAutoPart) -> dict:
    kind = system.factor(part.factor).kind
    if kind == "cyclic":
        return {"kind": "mult", "value": part.rep}
    if kind == "int":
        return {"kind": "sign", "value": part.rep}
    return {"kind": "perm", "map": list(part.rep)}


def phi_from_json(system: FactorSystem, factor: int, obj) -> FactorAutoPart:
    _expect(isinstance(obj, dict) and "kind" in obj, f"factor {factor}: bad phi")
    backend = system.factor(factor)
    kind = obj["kind"]
    if kind == "mult":
        _expect(backend.kind == "cyclic", f"factor {factor}: mult needs a cyclic factor")
        _expect(_is_int(obj.get("value")), f"factor {factor}: integer mult value required")
        part = FactorAutoPart(factor, obj.get("value"))
    elif kind == "sign":
        _expect(backend.kind == "int", f"factor {factor}: sign needs an int factor")
        _expect(_is_int(obj.get("value")), f"factor {factor}: integer sign value required")
        part = FactorAutoPart(factor, obj.get("value"))
    elif kind == "perm":
        _expect(backend.kind == "table", f"factor {factor}: perm needs a table factor")
        image = obj.get("map")
        _expect(
            isinstance(image, list) and _all_ints(image),
            f"factor {factor}: perm map must be a list of integers",
        )
        part = FactorAutoPart(factor, tuple(image))
    else:
        raise SchemaError(f"factor {factor}: unknown phi kind {echo(kind)}")
    message = system.part_validate(part)
    _expect(message is None, f"factor {factor}: {message}")
    return part


def auto_to_json(psi: PureSymmetricAuto) -> dict:
    return {
        "parts": [
            {"phi": phi_to_json(psi.system, part), "g": word_to_json(conj)}
            for part, conj in psi.parts
        ]
    }


def auto_from_json(system: FactorSystem, obj) -> PureSymmetricAuto:
    _expect(isinstance(obj, dict) and "parts" in obj, "expected {'parts': [...]}")
    entries = obj["parts"]
    _expect(
        isinstance(entries, list) and len(entries) == system.n,
        f"need {system.n} parts",
    )
    parts = []
    for k, entry in enumerate(entries, start=1):
        _expect(isinstance(entry, dict), f"part {k}: expected an object")
        part = phi_from_json(system, k, entry.get("phi"))
        conj = word_from_json(system, entry.get("g", []))
        parts.append((part, conj))
    return pure_auto(system, parts)


def whitehead_to_json(w: WhiteheadAuto) -> dict:
    return {"Y": list(w.moved), "x": [w.element.factor, w.element.payload]}


def whitehead_from_json(system: FactorSystem, obj) -> WhiteheadAuto:
    _expect(
        isinstance(obj, dict) and "Y" in obj and "x" in obj,
        "expected {'Y': [...], 'x': [factor, payload]}",
    )
    moved, x = obj["Y"], obj["x"]
    _expect(
        isinstance(moved, list)
        and all(_is_int(j) and 1 <= j <= system.n for j in moved),
        f"whitehead Y must list factor indices in 1..{system.n}",
    )
    _expect(isinstance(x, list) and len(x) == 2 and _all_ints(x), "bad whitehead element")
    try:
        return whitehead_auto(system, moved, FactorElement(x[0], x[1]))
    except (ValueError, EngineError) as exc:
        raise SchemaError(f"bad whitehead automorphism: {exc}") from exc


def factorization_to_json(system: FactorSystem, f: Factorization) -> dict:
    return {
        "whitehead": [whitehead_to_json(w) for w in f.whitehead],
        "factor": [phi_to_json(system, part) for part in f.factor],
        "inner": word_to_json(f.inner),
    }


def factorization_from_json(system: FactorSystem, obj) -> Factorization:
    _expect(
        isinstance(obj, dict)
        and "whitehead" in obj
        and "factor" in obj
        and "inner" in obj,
        "expected {'whitehead':..., 'factor':..., 'inner':...}",
    )
    _expect(isinstance(obj["whitehead"], list), "whitehead must be a list of moves")
    whiteheads = tuple(whitehead_from_json(system, w) for w in obj["whitehead"])
    parts = obj["factor"]
    _expect(
        isinstance(parts, list) and len(parts) == system.n,
        f"need {system.n} factor parts",
    )
    factor = tuple(phi_from_json(system, k, p) for k, p in enumerate(parts, start=1))
    inner = word_from_json(system, obj["inner"])
    return Factorization(whiteheads, factor, inner)


# -- move traces and balls ----------------------------------------------------


def moves_to_json(moves) -> list:
    return [
        {
            "i": m.i,
            "Y": list(m.moved),
            "a": [m.element.factor, m.element.payload],
            "vol_before": m.volume_before,
            "vol_after": m.volume_after,
        }
        for m in moves
    ]


def sn_ball_to_json(ball: SnBall) -> dict:
    return {
        "bound": ball.bound,
        "alpha_classes": [star_to_json(label)["alpha"] for label in ball.alpha_classes],
        "a_classes": [apex_to_json(label)["A"] for label in ball.a_classes],
        "edges": [list(edge) for edge in ball.edges],
    }


def sn_ball_to_dot(ball: SnBall) -> str:
    lines = ["graph complex {", "  node [fontsize=10];"]
    for index, label in enumerate(ball.alpha_classes):
        name = dumps(star_to_json(label)["alpha"])
        lines.append(f'  a{index} [shape=ellipse, label="{name}"];')
    for index, label in enumerate(ball.a_classes):
        name = f"apex {label.apex}: " + dumps(apex_to_json(label)["A"]["tuple"])
        lines.append(f'  b{index} [shape=box, label="{name}"];')
    for alpha_index, a_index in ball.edges:
        lines.append(f"  a{alpha_index} -- b{a_index};")
    lines.append("}")
    return "\n".join(lines) + "\n"
