"""Pinned answers: the sha256 of the JSON bytes of each command's answers
over a fixed corpus, one digest per (command, system).

A change that alters any answer of factorize, reduce_to_base, geodesic,
distance, volume or verify's failure line fails here.  A change that
alters answers on purpose regenerates the table with

    PYTHONPATH=src python tests/test_corpus.py

and says which commands changed and why.  The corpus is drawn from
string-seeded random.Random with randint and choice over lists only, whose
streams are the same on every supported CPython.  Its systems come from
the constructors conftest uses, never from perfbench, so a benchmark change
cannot move it.  Z payloads run past 10**25, automorphisms are products of
random Whitehead moves, factor parts and an inner conjugation, and the
S3 walks shed own-factor syllables.
"""

import hashlib
import random

import pytest

from whitefact import jsonio
from whitefact.autos import (
    Factorization,
    _verification_failure,
    compose,
    factor_only_auto,
    factorize,
    inner_auto,
    whitehead_auto,
    whitehead_to_auto,
)
from whitefact.errors import NonSplittingError
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

DIGESTS = {
    ("distance", "K3"): "34b05a15505e41ccb103382e088ac3899b7a7267fddbdd513268de5e32a64b0a",
    ("distance", "S3.Z2.Z.Z5"): "fb5e95ffdc44ae921ba3787890a89ee98f3024c3b38ce1fa6970b0fb5eda0d56",
    ("distance", "S3.Z2.Z2"): "003d5505032b9e84fa110ce52a4243137ee77f524eb318a9b4c7de5332626e25",
    ("distance", "Z3.Z4.Z2.Z2"): "2dfd821862e303e0462e18bb0d228030f94a80ba48e635f60745fe0d8097218f",
    ("factorize", "K3"): "223f587b4bab3477e4898dbdf205a006bc4b05d1b26bf07d886b7783048e8b72",
    ("factorize", "S3.Z2.Z.Z5"): "005af3530a0c0a191eed2d772c7e933fbf4d8d9be366ddb408ddbfa1066b6ebf",
    ("factorize", "S3.Z2.Z2"): "be6fab11079dc489fd2a78923ccadf590758d3d2534df2ebbcaea94f3779d1dd",
    ("factorize", "Z3.Z4.Z2.Z2"): "3f9dab125840c69332aa77e03f63483eb16672c442cdfbc26e205c61f32f0a57",
    ("geodesic", "K3"): "7fd2840a5d763a95c7261c7e4aa900df4fc68dcf8f03dfe251afe9cbebb25356",
    ("geodesic", "S3.Z2.Z.Z5"): "d0c350dbd37c9b52b88feb5062c37c4de6ded343bfafcc694a61e926a129e5cb",
    ("geodesic", "S3.Z2.Z2"): "11d14640fc8a4bfbd3b89ffbbe162f1d0e77b7d46005382e47da74adb77de116",
    ("geodesic", "Z3.Z4.Z2.Z2"): "384337a42b828fb50ebcb8e1189ffc14de6f52cc698badaf5029e64f6832d6f9",
    ("reduce", "K3"): "cb70bc822eefeb6a5f573d0593bd6d1c82fa6d53875e7ea70565b5435179a5c2",
    ("reduce", "S3.Z2.Z.Z5"): "0054784e191e8d9e04c44fb8ef6dd38572280d8b71a953a85abfe879a0b3941b",
    ("reduce", "S3.Z2.Z2"): "ad428879e7a467a1d4361ce705c290bbb733eeb87adce290d9bfc17f42fa813c",
    ("reduce", "Z3.Z4.Z2.Z2"): "45833f93cc3748b99e252b08a32736523559f3c926cc1246bf650270c80c8b74",
    ("verify", "K3"): "1beb0e3d0b0449b277e628c1a7e57d394573388790789c3dd0a6f72ddd4e0783",
    ("verify", "S3.Z2.Z.Z5"): "5d5cfc78a1446ebed1ee1456659316703a25b6e62c6521590fbcc3593502dfff",
    ("verify", "S3.Z2.Z2"): "cfcbd3edc8c4b555e7d2d16d1d954bd521f28376a85119d923f7f8d6f503d64e",
    ("verify", "Z3.Z4.Z2.Z2"): "7706f911459a85c98f3af477b7653d088d6f7bdc8a4d018c2b68ba5c3e8a3d95",
    ("volume", "K3"): "544a9eab8a9045506cf34caf369a891b55100df3b9bb253ee47a0cde8d04b910",
    ("volume", "S3.Z2.Z.Z5"): "0a9c27ed56002d8e7adfffa0e0d529d446f7823d1f8ba7db9b4a5aae9ca8d310",
    ("volume", "S3.Z2.Z2"): "62e0eaf9704973f3be7c10c7914048f4012500037432535f593e8795eedfddc2",
    ("volume", "Z3.Z4.Z2.Z2"): "e692d366ad082603f097feeb1a10333d2126fdc6a0f075e72dd3f9caccfe7c98",
}


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


def corpus(name):
    """The answers per command on one system, and the factors its walks shed."""
    system = FactorSystem(SYSTEMS[name]())
    rng = random.Random(f"whitefact corpus {name}")
    answers = {c: [] for c in ("factorize", "reduce", "verify", "geodesic", "distance", "volume")}
    sheds = set()
    for _ in range(AUTOS):
        psi = draw_auto(system, rng)
        f = factorize(psi)
        answers["factorize"].append(jsonio.factorization_to_json(system, f))
        slots = [psi.conjugator(k) for k in range(1, system.n + 1)]
        answers["reduce"].append(reduced(star_label(system, slots), sheds))
        answers["verify"].append(_verification_failure(psi, f))
        if f.whitehead:
            drop = rng.randint(0, len(f.whitehead) - 1)
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


def test_corpus_reaches_what_the_benchmark_does_not(corpora):
    moves = [m for answer in corpora["S3.Z2.Z.Z5"][0]["factorize"] for m in answer["whitehead"]]
    assert max(abs(m["x"][1]) for m in moves if m["x"][0] == 3) > 10**25
    assert 1 in corpora["S3.Z2.Z2"][1] and 1 in corpora["S3.Z2.Z.Z5"][1]  # S3 sheds
    for name in SYSTEMS:
        verify = corpora[name][0]["verify"]
        assert None in verify and any(line is not None for line in verify)
        assert any("error" in answer for answer in corpora[name][0]["reduce"])


if __name__ == "__main__":
    table = {}
    for name in SYSTEMS:
        table.update(digests(corpus(name)[0], name))
    print("DIGESTS = {")
    for (command, name), digest in sorted(table.items()):
        print(f'    ("{command}", "{name}"): "{digest}",')
    print("}")
