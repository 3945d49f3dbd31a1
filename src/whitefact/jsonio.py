"""Wire formats: JSON schemas for every engine value, plus DOT export.

Schemas:
  factor system   {"factors": [{"kind": "cyclic", "order": 2},
                               {"kind": "table", "elements": [...],
                                "table": [[...]], "identity": 0},
                               {"kind": "int"}]}
  word            [[factor, payload], ...]          (reduced on ingest)
  star labelling  {"alpha": [word, ...]}
  apex class      {"apex": i, "tuple": [word, ...]}   (explore's "a_classes")
  automorphism    {"parts": [{"phi": phi, "g": word}, ...]}
  phi             {"kind": "mult", "value": k} | {"kind": "perm", "map": [...]}
                  | {"kind": "sign", "value": s}
  whitehead       {"Y": [...], "x": [factor, payload]}
  factorization   {"whitehead": [...], "factor": [phi, ...], "inner": word}
  move trace      [{"i":..., "Y": [...], "a": [factor, payload],
                    "vol_before":..., "vol_after":...}, ...]
Vertex names are "U:<word>" and "C<i>:<word>" with the word in compact JSON.

A system is checked once, by the FactorSystem constructor, whose ValueError
becomes the SchemaError.  Every integer is checked before a backend sees
it, so no backend's integer message reaches the wire.

Decoding a word is one loop over its letters.  It checks each letter's
shape, factor index and integer payload.  An exact int payload that is
already canonical (0 <= p < order on a finite factor, any int on Z) becomes
a letter without a normalize call; every other payload is normalized.  A
normalize error is raised only after every letter has passed its checks, so
the first malformed letter is reported whatever follows it.  A flag, kept
in the loop, is cleared by a letter in the factor of the one before it, a
payload equal to its factor's identity_payloads entry (2 on a table whose
identity is 2) or a normalized payload.  A word that keeps it is reduced
and becomes a Word at once; only the others go to words.normal_form, so
the words that jsonio encodes skip it when read back.  A vertex name's head
is checked before its word is decoded.  Every letter becomes a plain
(factor, payload) tuple.  Every decoder, of parts and moves too, checks
each value once and formats a message only when a check fails.

Vertex names join "[factor,payload]" fragments; normalized payloads are
plain ints, so the bytes equal dumps of the word.  The fragments come from
_letter_text, a memo keyed by letter: a finite factor's alphabet is small,
so it is full after a warm-up even though every word is new.  It is the
capped letter memo of FactorSystem.inverses, so Z payloads and large
cyclic orders cannot grow it without bound.  A name's body is derived from
the last name's when their syllables are equal (U(r) and C_i(r)) or differ
by one leading letter (neighbours on a geodesic), so a path of length L is
named in time linear in L; the body depends on the syllables alone, so the
order of the calls changes no byte.

A body of the form vertex_name prints ("[]", or "[[" + letter texts
joined by "],[" + "]]") is read from its text: each letter text ("3,-5")
is looked up in system.letter_of_text, the decode-side mirror of
_letter_text, and a word whose letters all hit, no two neighbours in one
factor, becomes a Word.  A missed text is decoded by word_from_json and
stored, up to LETTER_MEMO_CAP texts, only when it is one letter whose
_letter_text is "[" + text + "]": canonical, non-identity and compact
("1, 1", "01,1", "-0" and "1,7" on Z2 miss).  Every other body goes to
json.loads and word_from_json, the one decoder that checks letters and
formats messages.  A memoized letter stays readable after
sys.set_int_max_str_digits is lowered, as its _letter_text stays
printable.
"""

from __future__ import annotations

import json

from .autos import (
    Factorization,
    PureSymmetricAuto,
    WhiteheadAuto,
    whitehead_auto,
)
from .errors import EngineError, SchemaError, UnprintableAnswerError, clip, echo
from .explorer import SnBall
from .factors import (
    CyclicBackend,
    FactorAutoPart,
    FactorSystem,
    IntBackend,
    LETTER_MEMO_CAP,
    TableBackend,
    _LetterMemo,
    _is_int,
)
from .labellings import StarLabel, star_label
from .tree import TreeVertex, c_vertex, u_vertex
from .words import Word, normal_form


_encoder = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def dumps(obj) -> str:
    try:
        return _encoder.encode(obj)
    except ValueError as exc:  # past the int-string digit limit
        raise UnprintableAnswerError() from exc


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise SchemaError(message)


# -- factor systems ---------------------------------------------------------


def _all_ints(values: list) -> bool:
    for x in values:
        if type(x) is not int and not _is_int(x):
            return False
    return True


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
            # a string would name its characters; the backend checks the list
            _expect(
                names is None or isinstance(names, list),
                f"factor {k}: elements must be distinct strings, one per table row",
            )
            backends.append(TableBackend(table, identity=identity, names=names))
        else:
            raise SchemaError(f"factor {k}: unknown kind {echo(kind)}")
    try:
        return FactorSystem(backends)  # len(entries) >= 3 was checked above
    except ValueError as exc:  # the faults of every backend, joined
        raise SchemaError(str(exc)) from exc


# -- words and vertices -------------------------------------------------------


def word_to_json(w: Word) -> list:
    return [[f, p] for f, p in w.syllables]


def word_from_json(system: FactorSystem, obj) -> Word:
    _expect(isinstance(obj, list), "word must be a list of [factor, payload] pairs")
    n, backends, orders, ident = system.n, system.backends, system.orders, system.identity_payloads
    letters, error = [], None
    reduced, last = True, 0
    # Messages are formatted only on failure: this loop runs per letter.  An
    # exact int already canonical (0 <= p < order, any int on Z) skips
    # normalize; a normalize error waits until every letter is checked, so
    # the first malformed letter wins whatever follows it.
    for entry in obj:
        if not (
            isinstance(entry, list)
            and len(entry) == 2
            and (type(entry[0]) is int or _is_int(entry[0]))
        ):
            raise SchemaError(f"bad word letter {echo(entry)}")
        factor, payload = entry
        if not 1 <= factor <= n:
            raise SchemaError(f"factor index {clip(f'{factor}')} out of range")
        if type(payload) is int:
            order = orders[factor - 1]
            if order is None or 0 <= payload < order:
                if factor == last or payload == ident[factor - 1]:
                    reduced = False
                last = factor
                letters.append((factor, payload))
                continue
        elif not _is_int(payload):
            raise SchemaError(f"payload {echo(payload)} must be an integer")
        reduced = False
        try:
            letters.append((factor, backends[factor - 1].normalize(payload)))
        except ValueError as exc:
            if error is None:
                error = exc
    if error is not None:
        raise SchemaError(str(error)) from error
    if reduced:
        return Word(system, tuple(letters))
    return normal_form(system, letters)


_letter_text = _LetterMemo("[%d,%d]".__mod__)
# (syllables, body) of the last name, replaced whole so that no reader sees
# a torn pair; the body depends on the syllables alone
_neighbour = ((), "")


def vertex_name(v: TreeVertex) -> str:
    """Kept, measured: the neighbour memo names a seed-1 tree_queries pass's
    5058 vertices in 6.1 ms, against 16.3 ms letter by letter."""
    global _neighbour
    syllables = v.rep.syllables
    last, text = _neighbour
    n, m = len(syllables), len(last)
    try:
        if n == m and syllables == last:
            body = text
        elif n == m - 1 and syllables == last[1:]:
            body = text[len(_letter_text[last[0]]) + 1:]
        elif n == m + 1 and syllables[1:] == last:
            head = _letter_text[syllables[0]]
            body = f"{head},{text}" if last else head
        else:
            body = ",".join(map(_letter_text.__getitem__, syllables))
    except ValueError as exc:  # past the int-string digit limit
        raise UnprintableAnswerError() from exc
    _neighbour = (syllables, body)
    return f"C{v.factor}:[{body}]" if v.factor else f"U:[{body}]"


def _text_letter(system: FactorSystem, text: str):
    """The letter whose compact text is [text], or None.  Decided by
    word_from_json, and stored in system.letter_of_text only on a hit."""
    try:
        syllables = word_from_json(system, json.loads(f"[[{text}]]")).syllables
        if len(syllables) != 1 or _letter_text[syllables[0]] != f"[{text}]":
            return None
    except (ValueError, RecursionError, SchemaError):
        return None
    if len(system.letter_of_text) < LETTER_MEMO_CAP:
        system.letter_of_text[text] = syllables[0]
    return syllables[0]


def _compact_word(system: FactorSystem, body: str):
    """The word of a body that vertex_name prints (reduced, compact), read
    from its text, or None: the caller then decodes the body in full."""
    if body == "[]":
        return Word(system, ())
    if not (body.startswith("[[") and body.endswith("]]")):
        return None
    memo, letters, last = system.letter_of_text, [], 0
    for text in body[2:-2].split("],["):
        letter = memo.get(text) or _text_letter(system, text)
        if letter is None or letter[0] == last:
            return None
        last = letter[0]
        letters.append(letter)
    return Word(system, tuple(letters))


def vertex_from_name(system: FactorSystem, name: str) -> TreeVertex:
    # messages are formatted only on failure: names are decoded per request
    if not (isinstance(name, str) and ":" in name):
        raise SchemaError(f"bad vertex name {echo(name)}")
    head, _, body = name.partition(":")
    factor = None
    if head != "U":
        digits = head[1:]
        if not (head.startswith("C") and digits.isascii() and digits.isdigit()):
            raise SchemaError(f"bad vertex name {echo(name)}")
        try:
            factor = int(digits)
        except ValueError as exc:  # past the int-string digit limit
            raise SchemaError(f"factor index out of range in {echo(name)}") from exc
        if not 1 <= factor <= system.n:
            raise SchemaError(f"factor index {echo(factor)} out of range")
    rep = _compact_word(system, body)
    if rep is None:
        try:
            rep = word_from_json(system, json.loads(body))
        except (ValueError, RecursionError) as exc:  # also too deep, or past the int-string limit
            raise SchemaError(f"bad vertex word in {echo(name)}") from exc
    return u_vertex(rep) if factor is None else c_vertex(factor, rep)


# -- labellings ---------------------------------------------------------------


def star_to_json(label: StarLabel) -> dict:
    return {"alpha": [word_to_json(w) for w in label.conjugators]}


def star_from_json(system: FactorSystem, obj) -> StarLabel:
    _expect(isinstance(obj, dict) and "alpha" in obj, "expected {'alpha': [...]}")
    slots = obj["alpha"]
    if not (isinstance(slots, list) and len(slots) == system.n):
        raise SchemaError(f"need {system.n} slots")
    return star_label(system, [word_from_json(system, s) for s in slots])


# -- automorphism parts -------------------------------------------------------


_PHI_KIND = {"cyclic": "mult", "int": "sign", "table": "perm"}
_PHI_NEEDS = {"mult": "a cyclic", "sign": "an int", "perm": "a table"}


def phi_to_json(system: FactorSystem, part: FactorAutoPart) -> dict:
    kind = _PHI_KIND[system.factor(part.factor).kind]
    if kind == "perm":
        return {"kind": kind, "map": list(part.rep)}
    return {"kind": kind, "value": part.rep}


def phi_from_json(system: FactorSystem, factor: int, obj) -> FactorAutoPart:
    if not (isinstance(obj, dict) and "kind" in obj):
        raise SchemaError(f"factor {factor}: bad phi")
    backend = system.factor(factor)
    kind = obj["kind"]
    if kind != _PHI_KIND[backend.kind]:
        if isinstance(kind, str) and kind in _PHI_NEEDS:
            raise SchemaError(f"factor {factor}: {kind} needs {_PHI_NEEDS[kind]} factor")
        raise SchemaError(f"factor {factor}: unknown phi kind {echo(kind)}")
    if kind == "perm":
        rep = obj.get("map")
        if not (isinstance(rep, list) and _all_ints(rep)):
            raise SchemaError(f"factor {factor}: perm map must be a list of integers")
        rep = tuple(rep)
    else:
        rep = obj.get("value")
        if not (type(rep) is int or _is_int(rep)):
            raise SchemaError(f"factor {factor}: integer {kind} value required")
    message = backend.auto_validate(rep)
    if message is not None:
        raise SchemaError(f"factor {factor}: {message}")
    return FactorAutoPart(factor, rep)


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
    if not (isinstance(entries, list) and len(entries) == system.n):
        raise SchemaError(f"need {system.n} parts")
    parts = []
    for k, entry in enumerate(entries, start=1):
        if not isinstance(entry, dict):
            raise SchemaError(f"part {k}: expected an object")
        part = phi_from_json(system, k, entry.get("phi"))
        conj = word_from_json(system, entry.get("g", []))
        parts.append((part, conj))
    return PureSymmetricAuto(system, tuple(parts))  # every part, word and index checked above


def whitehead_to_json(w: WhiteheadAuto) -> dict:
    return {"Y": list(w.moved), "x": list(w.element)}


def whitehead_from_json(system: FactorSystem, obj) -> WhiteheadAuto:
    _expect(
        isinstance(obj, dict) and "Y" in obj and "x" in obj,
        "expected {'Y': [...], 'x': [factor, payload]}",
    )
    moved, x = obj["Y"], obj["x"]
    if not isinstance(moved, list):
        raise SchemaError(f"whitehead Y must list factor indices in 1..{system.n}")
    for j in moved:
        if not ((type(j) is int or _is_int(j)) and 1 <= j <= system.n):
            raise SchemaError(f"whitehead Y must list factor indices in 1..{system.n}")
    _expect(isinstance(x, list) and len(x) == 2 and _all_ints(x), "bad whitehead element")
    try:
        return whitehead_auto(system, moved, x)
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
        isinstance(obj, dict) and "whitehead" in obj and "factor" in obj and "inner" in obj,
        "expected {'whitehead':..., 'factor':..., 'inner':...}",
    )
    _expect(isinstance(obj["whitehead"], list), "whitehead must be a list of moves")
    whiteheads = tuple(whitehead_from_json(system, w) for w in obj["whitehead"])
    parts = obj["factor"]
    if not (isinstance(parts, list) and len(parts) == system.n):
        raise SchemaError(f"need {system.n} factor parts")
    factor = tuple(phi_from_json(system, k, p) for k, p in enumerate(parts, start=1))
    inner = word_from_json(system, obj["inner"])
    return Factorization(whiteheads, factor, inner)


# -- move traces and balls ----------------------------------------------------


def moves_to_json(moves) -> list:
    return [
        {
            "i": m.i,
            "Y": list(m.moved),
            "a": list(m.element),
            "vol_before": m.volume_before,
            "vol_after": m.volume_after,
        }
        for m in moves
    ]


def sn_ball_to_json(ball: SnBall) -> dict:
    # words as syllable tuples: dumps prints a tuple as the list it equals
    alpha = [[w.syllables for w in label.conjugators] for label in ball.alpha_classes]
    a = [{"apex": m.apex, "tuple": [w.syllables for w in m.conjugators]} for m in ball.a_classes]
    return {"bound": ball.bound, "alpha_classes": alpha, "a_classes": a, "edges": ball.edges}


def sn_ball_to_dot(ball: SnBall) -> str:
    encoded = sn_ball_to_json(ball)
    lines = ["graph complex {", "  node [fontsize=10];"]
    for index, slots in enumerate(encoded["alpha_classes"]):
        lines.append(f'  a{index} [shape=ellipse, label="{dumps(slots)}"];')
    for index, a in enumerate(encoded["a_classes"]):
        lines.append(f'  b{index} [shape=box, label="apex {a["apex"]}: {dumps(a["tuple"])}"];')
    lines += [f"  a{alpha_index} -- b{a_index};" for alpha_index, a_index in encoded["edges"]]
    lines.append("}")
    return "\n".join(lines) + "\n"
