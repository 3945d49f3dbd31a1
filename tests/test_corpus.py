"""Pinned answers: the sha256 of the JSON bytes of each command's answers
over a fixed corpus, one digest per (command, system).

A change that alters any answer of factorize, reduce_to_base, geodesic,
distance, volume, verify's failure line, invert, is_inner or the star and
apex stabilizer splits fails here.  A change that
alters answers on purpose regenerates the table with

    PYTHONPATH=src python tests/test_corpus.py

and says which commands changed and why.  The corpus is drawn from
string-seeded random.Random with randint and choice over lists only, whose
streams are the same on every supported CPython.  Its systems come from
the constructors conftest uses, never from perfbench, so a benchmark change
cannot move it.  Z payloads run past 10**25, automorphisms are products of
random Whitehead moves, factor parts and an inner conjugation, and the
S3 walks shed own-factor syllables.  Each mutant's deleted move is drawn
from a stream of its own, so the answers of factorize never steer a later
draw: a change in a move count moves the factorize and verify digests only.
The stabilizer commands also read star stabilizers (inner o factor parts)
and apex stabilizers (single-slot moves ({j}, c), c in G_i, then factor
parts and an inner), drawn from a stream of their own after the rest.
"""

import hashlib
import random

import pytest

from whitefact import jsonio
from whitefact.autos import (
    Factorization,
    WhiteheadAuto,
    _verification_failure,
    compose,
    decompose_apex_stabilizer,
    decompose_star_stabilizer,
    factor_only_auto,
    factorize,
    inner_auto,
    invert,
    is_inner,
    whitehead_auto,
    whitehead_to_auto,
)
from whitefact.errors import NonSplittingError, NotAStabilizerError
from whitefact.factors import CyclicBackend, FactorSystem, IntBackend
from whitefact.labellings import star_label, volume
from whitefact.reduction import reduce_to_base
from whitefact.sampling import random_part
from whitefact.tree import c_vertex, distance, geodesic, u_vertex
from whitefact.words import word, word_mul

from conftest import s3_table

SYSTEMS = {
    "K3": lambda: [CyclicBackend(2), CyclicBackend(2), CyclicBackend(2)],
    "Z3.Z4.Z2.Z2": lambda: [CyclicBackend(3), CyclicBackend(4), CyclicBackend(2), CyclicBackend(2)],
    "S3.Z2.Z2": lambda: [s3_table(), CyclicBackend(2), CyclicBackend(2)],
    "S3.Z2.Z.Z5": lambda: [s3_table(), CyclicBackend(2), IntBackend(), CyclicBackend(5)],
}
AUTOS = 100  # automorphisms per system, each factorized, reduced and verified
PAIRS = 100  # vertex pairs per system, each measured in both directions
LABELS = 100  # random star labellings per system, reduced and measured
STABILIZERS = 25  # constructed star and apex stabilizers per system, of each kind
STABILIZER_COMMANDS = ("is_inner", "decompose_star_stabilizer", "decompose_apex_stabilizer")

DIGESTS = {
    ("decompose_apex_stabilizer", "K3"): "1adb473f037d75f55582c91ad084014b06ea2e1ee4ad17ce05982575dd75a8c8",
    ("decompose_apex_stabilizer", "S3.Z2.Z.Z5"): "54f034900d96308e8f7b27a553d11edaeb2bfd5cf39e9feddf92f48697cfb66e",
    ("decompose_apex_stabilizer", "S3.Z2.Z2"): "33a2b011015e70f9b099aa8a1282a225146f49db61604dc407892dadd2f6a5c6",
    ("decompose_apex_stabilizer", "Z3.Z4.Z2.Z2"): "eae3fd229f657105b9259fbd89aab0d4862177c6a17ed1d4bf57268ff6d20050",
    ("decompose_star_stabilizer", "K3"): "978c5e803511389c1af477eb8c62f8ba78e697a9adff2cceffb2e72c60c427e5",
    ("decompose_star_stabilizer", "S3.Z2.Z.Z5"): "814c460c93a51a246faff928d95cf8a3d0433a748c8ea8cd23872778f6cdeb1b",
    ("decompose_star_stabilizer", "S3.Z2.Z2"): "ad02004db140d86028c21dda135da85e9135a5ab350c71113fcfaf53bb378bbe",
    ("decompose_star_stabilizer", "Z3.Z4.Z2.Z2"): "a18d7cb7b4898752640e1acfbc9d6a98ddcfc48984ee6cc92cda2a5d5f11d215",
    ("distance", "K3"): "f4f4de563dac5e058f0bd77c225caa8d8590868c2c154122812476486026c964",
    ("distance", "S3.Z2.Z.Z5"): "b71499e3b94d7ea0378756355fd0b965a749358ce4124c563dcc22e2e4d2829b",
    ("distance", "S3.Z2.Z2"): "59da7f0323ef0b07db0a243553258d85a065ac0716b04a49d8c0d6d0c409b936",
    ("distance", "Z3.Z4.Z2.Z2"): "b22de8659c94d099f73eeba27c4e0d7daa63283ed6ea51c5eef6599af0d40d3b",
    ("factorize", "K3"): "afdfa5cf758fc5498e75f5907ab59f0ad6645319b7011eca4e5ab8dee6812b31",
    ("factorize", "S3.Z2.Z.Z5"): "0892e922ec82d7407ffb8016686643129079284b02e99443c9c18b6f30f0fd01",
    ("factorize", "S3.Z2.Z2"): "e81cb6aa2cf8a31239413ce9b08c2e12bfe03ea9ad1432cea157252cc2e938eb",
    ("factorize", "Z3.Z4.Z2.Z2"): "965cf04c3f5c7b96dd5d33cb47c80a17aea7f174f402c2dcf8ecf4620505bb21",
    ("geodesic", "K3"): "20cc8b80548604219b2b406ebc0480c1d7363c67cdb179e08c57dca040d84938",
    ("geodesic", "S3.Z2.Z.Z5"): "490a358a27e9aefa5d4a9d8e76c67a68984a0b7a377e0325f191073429c0e6d7",
    ("geodesic", "S3.Z2.Z2"): "ad451774065a47b72b381c7a276668c427b76c5ad3082f03823b980e73d65ea1",
    ("geodesic", "Z3.Z4.Z2.Z2"): "7a30d91fccfdd78d3df41e4c9e74fee1c05402f9958a39d932efe6955ad967d7",
    ("invert", "K3"): "feb49f1bf6b6864aa1796ddd09932a1d70176c83e288f2984e33f7d5f3be5b50",
    ("invert", "S3.Z2.Z.Z5"): "149296e2615c02e459d439155a7e6d9344fde472fec8ea8a865fbf6916165987",
    ("invert", "S3.Z2.Z2"): "97a1e4561253f41b5146c723e395f66a563166d92c4098e64c190535234483d0",
    ("invert", "Z3.Z4.Z2.Z2"): "e41aba99fd0db9deb8cd096f2bc37e2342c652858b65dff6def2f6f2bdcd2679",
    ("is_inner", "K3"): "a09350ac2b866d54fd11c953dfe8e05854c1d5e84fd86ead3a92f5907269abda",
    ("is_inner", "S3.Z2.Z.Z5"): "1114675e1f71defc79cffb0b754e0834f8b4ce2086716afd8b81d76078420fa7",
    ("is_inner", "S3.Z2.Z2"): "92d9e277304f0fd1ae77368cbd2e6f0bf8b9270788bc1558908bd34c9304b940",
    ("is_inner", "Z3.Z4.Z2.Z2"): "69e2ccab4436852ea13d89d74cc1582316e078b83d2144496c91565f241b7a54",
    ("reduce", "K3"): "a730dc6c9e6d22f731bdb88b9db2cabf2047fb302b4eb2a119311ee35b371f8b",
    ("reduce", "S3.Z2.Z.Z5"): "52f2404917f6ad43debc937b7deacd82904de92aa61813baeb5c853550b1bf1d",
    ("reduce", "S3.Z2.Z2"): "47a20a35943cbe35d29b62ecf604d1766f189405ee59ba2065a008eb64db4e87",
    ("reduce", "Z3.Z4.Z2.Z2"): "14555ee3661ffc393ea484f1c30223e7634181341262124b48d527657d0e92b4",
    ("verify", "K3"): "e0d01e8d985a56c70560392601aa80fa0ba0d891a59b869a0e22c2c0354a4381",
    ("verify", "S3.Z2.Z.Z5"): "a0859310595cd6f3bdd03c3269bb15b48c08fd66a13e133c40c9f3a0e3a288a8",
    ("verify", "S3.Z2.Z2"): "9073823e670281ae92b5eb85fc20ab6570b432b8bff14214d56935e28505883f",
    ("verify", "Z3.Z4.Z2.Z2"): "e60126c86242b6c0f7226b16f426f45bc7b5c091a7076da826f28edc4abd7513",
    ("volume", "K3"): "eb07fe4dce0a0323aabc85ac2b85b8b30b369a80dc0c2d77044ba99f7332dfd3",
    ("volume", "S3.Z2.Z.Z5"): "1690c68ca7c3539381522d43fd3a201000a35efe18a6e26be8f3a7a83e449be4",
    ("volume", "S3.Z2.Z2"): "7193f61d654e7663ccf5c7ecdcf9a4489bdf3271f2fa41ca1af40b3f7e51f55e",
    ("volume", "Z3.Z4.Z2.Z2"): "6a9bace453235bb173f6d11da8aa109087001edbfb69e3421559f24e6761dff8",
}

# The moves of each system's factorize answers when every walk started at
# the root U(1).  Walking from the least-volume basepoint keeps each total
# below its root count.
ROOT_WALK_MOVES = {"K3": 294, "Z3.Z4.Z2.Z2": 422, "S3.Z2.Z2": 310, "S3.Z2.Z.Z5": 504}


def draw_letter(system, k, rng):
    if system.factor(k).is_finite():
        return (k, rng.choice(system.nontrivial_payloads(k)))
    return (k, rng.choice([-1, 1]) * rng.randint(1, rng.choice([3, 10**30])))


def draw_word(system, rng, most):
    pairs, previous = [], None
    for _ in range(rng.randint(0, most)):
        k = rng.choice([i for i in range(1, system.n + 1) if i != previous])
        pairs.append(draw_letter(system, k, rng))
        previous = k
    return word(system, pairs)


def draw_auto(system, rng):
    """inner o moves o factor parts, with 1 to 6 random Whitehead moves."""
    psi = factor_only_auto(system, [random_part(system, k, rng) for k in range(1, system.n + 1)])
    for _ in range(rng.randint(1, 6)):
        i = rng.randint(1, system.n)
        others = [j for j in range(1, system.n + 1) if j != i]
        moved = [j for j in others if rng.randint(0, 1)] or [rng.choice(others)]
        move = whitehead_auto(system, moved, draw_letter(system, i, rng))
        psi = compose(whitehead_to_auto(move), psi)
    return compose(inner_auto(system, draw_word(system, rng, 3)), psi)


def draw_vertex(system, rng, suffix):
    rep = word_mul(draw_word(system, rng, 4), suffix)
    k = rng.randint(0, system.n)
    return c_vertex(k, rep) if k else u_vertex(rep)


def reduced(label, sheds):
    """reduce's answer; adds the factor of every shed syllable to sheds."""
    try:
        final, moves = reduce_to_base(label)
    except NonSplittingError as exc:
        return {"error": str(exc)}
    sheds.update(s[0] for m in moves for s in m.shed if s is not None)
    return {"final": jsonio.star_to_json(final)["alpha"], "moves": jsonio.moves_to_json(moves)}


def stabilizer_answers(system, psi, answers):
    """Append invert, is_inner and both stabilizer splits (every apex) of
    psi: parts by phi_to_json, words and moves as on the wire, and a
    refusal NotAStabilizerError(k) as {"slot": k}."""

    def split(encode, decompose, *args):
        try:
            first, second = decompose(psi, *args)
        except NotAStabilizerError as exc:
            return {"slot": exc.slot}
        return encode(first, second)

    def star(parts, witness):
        return {"parts": phis(parts), "witness": jsonio.word_to_json(witness)}

    def apex(moves, parts):
        return {"moves": [jsonio.whitehead_to_json(w) for w in moves], "parts": phis(parts)}

    def phis(parts):
        return [jsonio.phi_to_json(system, p) for p in parts]

    answers["invert"].append(jsonio.auto_to_json(invert(psi)))
    h = is_inner(psi)
    answers["is_inner"].append(None if h is None else jsonio.word_to_json(h))
    answers["decompose_star_stabilizer"].append(split(star, decompose_star_stabilizer))
    answers["decompose_apex_stabilizer"].append(
        [split(apex, decompose_apex_stabilizer, i) for i in range(1, system.n + 1)]
    )


def draw_stabilizers(system, rng):
    """STABILIZERS star stabilizers, inner o factor parts, and as many apex
    stabilizers, single-slot moves ({j}, c) with c in G_i, then factor
    parts and an inner.  Each part is the identity with even odds, so
    inner automorphisms come up on every system."""
    n = system.n

    def parts():
        identity = [system.part_identity(k) for k in range(1, n + 1)]
        return [random_part(system, p.factor, rng) if rng.randint(0, 1) else p for p in identity]

    def inner():
        return inner_auto(system, draw_word(system, rng, 3))

    for _ in range(STABILIZERS):
        yield compose(inner(), factor_only_auto(system, parts()))
    for _ in range(STABILIZERS):
        i = rng.randint(1, n)
        psi = factor_only_auto(system, parts())
        for j in range(1, n + 1):
            if j != i and rng.randint(0, 2):
                move = whitehead_auto(system, [j], draw_letter(system, i, rng))
                psi = compose(whitehead_to_auto(move), psi)
        yield compose(inner(), psi)


def corpus(name):
    """The answers per command on one system, and the factors its walks shed."""
    system = FactorSystem(SYSTEMS[name]())
    rng = random.Random(f"whitefact corpus {name}")
    commands = ("factorize", "reduce", "verify", "geodesic", "distance", "volume", "invert")
    answers = {c: [] for c in commands + STABILIZER_COMMANDS}
    sheds = set()
    for index in range(AUTOS):
        psi = draw_auto(system, rng)
        f = factorize(psi)
        answers["factorize"].append(jsonio.factorization_to_json(system, f))
        slots = [psi.conjugator(k) for k in range(1, system.n + 1)]
        answers["reduce"].append(reduced(star_label(system, slots), sheds))
        answers["verify"].append(_verification_failure(psi, f))
        stabilizer_answers(system, psi, answers)
        if f.whitehead:
            # its own stream, so a changed move count moves no later draw
            drop_rng = random.Random(f"whitefact corpus {name} drop {index}")
            drop = drop_rng.randint(0, len(f.whitehead) - 1)
            mutant = Factorization(f.whitehead[:drop] + f.whitehead[drop + 1:], f.factor, f.inner)
            answers["verify"].append(_verification_failure(psi, mutant))
    for _ in range(PAIRS):
        suffix = draw_word(system, rng, 6)
        p, q = draw_vertex(system, rng, suffix), draw_vertex(system, rng, suffix)
        for a, b in ((p, q), (q, p)):
            answers["geodesic"].append([jsonio.vertex_name(v) for v in geodesic(a, b)])
            answers["distance"].append(distance(a, b))
    for _ in range(LABELS):
        label = star_label(system, [draw_word(system, rng, 3) for _ in range(system.n)])
        answers["volume"].append([volume(label), volume(label, draw_word(system, rng, 3))])
        answers["reduce"].append(reduced(label, sheds))
    for psi in draw_stabilizers(system, random.Random(f"whitefact corpus {name} stabilizers")):
        stabilizer_answers(system, psi, answers)
    return answers, sheds


def digests(answers, name):
    return {
        (command, name): hashlib.sha256(jsonio.dumps(values).encode()).hexdigest()
        for command, values in answers.items()
    }


@pytest.fixture(scope="module")
def corpora():
    return {name: corpus(name) for name in SYSTEMS}


@pytest.mark.parametrize("key", sorted(DIGESTS), ids="-".join)
def test_answers_keep_their_bytes(corpora, key):
    command, name = key
    assert digests(corpora[name][0], name)[key] == DIGESTS[key]


def test_table_covers_every_command_and_system(corpora):
    assert set(DIGESTS) == {key for name in SYSTEMS for key in digests(corpora[name][0], name)}


def test_move_counts_steer_no_other_draw(monkeypatch):
    """With one move dropped from every answer, only factorize and verify move."""

    def shorter(psi, factorize=factorize):
        f = factorize(psi)
        return Factorization(f.whitehead[1:], f.factor, f.inner)

    monkeypatch.setitem(globals(), "factorize", shorter)
    moved = set()
    for name in SYSTEMS:
        for key, digest in digests(corpus(name)[0], name).items():
            if digest != DIGESTS[key]:
                moved.add(key)
    assert moved == {(c, name) for c in ("factorize", "verify") for name in SYSTEMS}


@pytest.mark.parametrize("name", SYSTEMS)
def test_factorize_moves_pass_the_public_constructor(corpora, name):
    """factorize builds its moves unchecked; the corpus automorphisms, the
    first draws of corpus(name), redrawn here, check each one."""
    system = FactorSystem(SYSTEMS[name]())
    rng = random.Random(f"whitefact corpus {name}")
    answers = [factorize(draw_auto(system, rng)) for _ in range(AUTOS)]
    encoded = [jsonio.factorization_to_json(system, f) for f in answers]
    assert encoded == corpora[name][0]["factorize"]
    moves = [w for f in answers for w in f.whitehead]
    assert len(moves) > AUTOS
    for w in moves:
        assert WhiteheadAuto(system, w.moved, w.element) == w


@pytest.mark.parametrize("name", SYSTEMS)
def test_basepoint_shortens_the_corpus(corpora, name):
    moves = sum(len(answer["whitehead"]) for answer in corpora[name][0]["factorize"])
    assert moves < ROOT_WALK_MOVES[name]


def test_corpus_reaches_what_the_benchmark_does_not(corpora):
    moves = [m for answer in corpora["S3.Z2.Z.Z5"][0]["factorize"] for m in answer["whitehead"]]
    assert max(abs(m["x"][1]) for m in moves if m["x"][0] == 3) > 10**25
    assert 1 in corpora["S3.Z2.Z2"][1] and 1 in corpora["S3.Z2.Z.Z5"][1]  # S3 sheds
    for name in SYSTEMS:
        verify = corpora[name][0]["verify"]
        assert None in verify and any(line is not None for line in verify)
        assert any("error" in answer for answer in corpora[name][0]["reduce"])


@pytest.mark.parametrize("name", SYSTEMS)
def test_stabilizer_commands_take_both_branches(corpora, name):
    """Each stabilizer command answers and refuses on every system, and some
    apex split returns moves."""
    answers = corpora[name][0]
    inner = answers["is_inner"]
    assert None in inner and any(h is not None for h in inner)
    star = answers["decompose_star_stabilizer"]
    assert any("slot" in a for a in star) and any("parts" in a for a in star)
    apex = [a for per_apex in answers["decompose_apex_stabilizer"] for a in per_apex]
    assert any("slot" in a for a in apex) and any(a.get("moves") for a in apex)


if __name__ == "__main__":
    table = {}
    for name in SYSTEMS:
        table.update(digests(corpus(name)[0], name))
    print("DIGESTS = {")
    for (command, name), digest in sorted(table.items()):
        print(f'    ("{command}", "{name}"): "{digest}",')
    print("}")
