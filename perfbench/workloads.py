"""Workloads: seeded request generators, request handlers and answer checks.

A request is a JSON text, as a CLI or service user would send it.  The
server side decodes it with ``whitefact.jsonio``, calls the library's public
functions and encodes the answer with ``jsonio``; the client side builds
requests from the workload seed and checks every answer outside the timed
region.

Library functions are always called through their module attribute
(``autos.factorize``), so that the traced run, which rebinds those
attributes, sees every call.

Each workload class offers ``round()`` (the requests of one measured round,
always the same mix), ``trace_pass()`` (the same requests on every call),
``warmup()`` (requests from a separate seed stream, so warm-up fills no
cache with measured inputs), ``stats()`` and ``SMOKE``, the constructor
options of the harness self-test.

Workloads (the modules a workload barely touches are its control for an
optimisation aimed elsewhere):

* ``factorize``: factorize and verify requests over a fixed pool of
  automorphisms on two factor systems, cycled; reduction-heavy.
* ``tree_queries``: distance, volume and geodesic requests on long words,
  every input fresh, no reduction at all.
* ``explore``: batch enumeration and checking of three fixed balls of the
  star/apex complex, reusing the same short words and labels throughout.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable, Iterator

from whitefact import autos, explorer, jsonio, labellings, tree, words
from whitefact.factors import FactorAutoPart, FactorElement

# -- factor systems -----------------------------------------------------------

_S3_PERMS = [(0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1)]


def _s3_factor() -> dict:
    index = {perm: i for i, perm in enumerate(_S3_PERMS)}
    table = [
        [index[tuple(p[q[x]] for x in range(3))] for q in _S3_PERMS] for p in _S3_PERMS
    ]
    names = ["e", "(12)", "(13)", "(23)", "(123)", "(132)"]
    return {"kind": "table", "elements": names, "table": table, "identity": 0}


def _cyclic(order: int) -> dict:
    return {"kind": "cyclic", "order": order}


SYSTEMS = {
    "Z2*Z2*Z2": {"factors": [_cyclic(2), _cyclic(2), _cyclic(2)]},
    "Z3*Z4*Z2*Z2": {"factors": [_cyclic(3), _cyclic(4), _cyclic(2), _cyclic(2)]},
    "S3*Z2*Z2": {"factors": [_s3_factor(), _cyclic(2), _cyclic(2)]},
    "S3*Z2*Z*Z5": {"factors": [_s3_factor(), _cyclic(2), {"kind": "int"}, _cyclic(5)]},
}


def load_systems() -> dict:
    """The server's decoded factor systems, keyed by the name requests carry."""
    return {name: jsonio.system_from_json(obj) for name, obj in SYSTEMS.items()}


def _nontrivial_payload(system, factor: int, rng: random.Random) -> int:
    backend = system.factor(factor)
    if backend.is_finite():
        return rng.choice(system.nontrivial_payloads(factor))
    return rng.choice([-3, -2, -1, 1, 2, 3])


# -- request kinds --------------------------------------------------------------


@dataclass(frozen=True)
class Kind:
    """Server side of one request kind: decode, compute, encode."""

    decode: Callable
    compute: Callable
    encode: Callable


def _decode_factorize(systems, payload):
    obj = json.loads(payload)
    system = systems[obj["system"]]
    return system, jsonio.auto_from_json(system, obj["psi"])


def _compute_factorize(args):
    system, psi = args
    return system, autos.factorize(psi)


def _encode_factorize(result):
    system, fact = result
    return jsonio.dumps(jsonio.factorization_to_json(system, fact))


def _decode_verify(systems, payload):
    obj = json.loads(payload)
    system = systems[obj["system"]]
    psi = jsonio.auto_from_json(system, obj["psi"])
    return psi, jsonio.factorization_from_json(system, obj["factorization"])


def _compute_verify(args):
    return autos.verify_factorization(*args)


def _decode_vertices(systems, payload):
    obj = json.loads(payload)
    system = systems[obj["system"]]
    return (
        jsonio.vertex_from_name(system, obj["p"]),
        jsonio.vertex_from_name(system, obj["q"]),
    )


def _compute_distance(args):
    return tree.distance(*args)


def _compute_geodesic(args):
    return tree.geodesic(*args)


def _encode_path(path):
    return jsonio.dumps([jsonio.vertex_name(v) for v in path])


def _decode_label(systems, payload):
    obj = json.loads(payload)
    return jsonio.star_from_json(systems[obj["system"]], obj["label"])


def _compute_volume(label):
    return labellings.volume(label)


def _decode_explore(systems, payload):
    obj = json.loads(payload)
    return jsonio.system_from_json(obj["system"]), obj["max_volume"]


def _compute_explore(args):
    system, bound = args
    ball = explorer.enumerate_ball(system, bound)
    return ball, explorer.check_ball(ball)


def _encode_explore(result):
    ball, report = result
    return jsonio.dumps(
        {
            "ball": jsonio.sn_ball_to_json(ball),
            "check": {"failures": report.failures, "stats": report.stats},
        }
    )


KINDS = {
    "factorize": Kind(_decode_factorize, _compute_factorize, _encode_factorize),
    "verify": Kind(_decode_verify, _compute_verify, jsonio.dumps),
    "distance": Kind(_decode_vertices, _compute_distance, jsonio.dumps),
    "volume": Kind(_decode_label, _compute_volume, jsonio.dumps),
    "geodesic": Kind(_decode_vertices, _compute_geodesic, _encode_path),
    "explore": Kind(_decode_explore, _compute_explore, _encode_explore),
}


@dataclass
class Request:
    """One request and the client's check of its answer (True = correct).

    ``group`` names the latency group the request is timed in, by default
    its kind.
    """

    kind: str
    payload: str
    check: Callable[[str], bool]
    group: str = ""

    def __post_init__(self):
        self.group = self.group or self.kind


# -- factorize ------------------------------------------------------------------


@dataclass
class _Psi:
    system_name: str
    psi: object
    payload_obj: dict
    moves_built: int
    whitehead_bound: int
    spoke_volume: int
    syllables: int
    mutant_at: float | None  # position of the deleted move, as a share of the list
    payload: str
    reference: str | None = None
    verify_payload: str | None = None
    verify_expected: str | None = None


class FactorizeWorkload:
    """Factorize requests, each followed by a verify request on its answer.

    Each automorphism is W1 o ... o Wk o F o inner(h) for k = 4..9 random
    Whitehead moves, random factor parts F and a random inner word h, so no
    rejection loop runs.  Random products grow geometrically and factorize
    costs grow faster than the spoke volume, so an unsteered pool is ruled
    by its few largest members.  Each pool therefore spreads its spoke
    volumes evenly over ``VOLUMES``: every automorphism gets a target, and
    each move is the one of ``CANDIDATES`` random moves that keeps the
    volume closest to a straight path towards it.  k cycles through 4..9
    in the same way.  A quarter of the verify requests carry the answer
    with one Whitehead move deleted, which must verify False.
    """

    name = "factorize"
    # Latency groups and the tail percentile of each, fixed so that a run at
    # the seed's speed has at least ten distinct inputs beyond it.
    tails = {"factorize": 90.0, "verify": 90.0}
    system_names = ("Z3*Z4*Z2*Z2", "S3*Z2*Z*Z5")
    VOLUMES = (30, 110)
    CANDIDATES = 3
    SMOKE = {"per_system": 3}

    def __init__(self, systems, seed: int, stream: str = "run", per_system: int = 120):
        self.systems = systems
        self.seed = seed
        rng = random.Random(f"factorize-{seed}-{stream}")
        count = 2 * per_system
        low, high = self.VOLUMES
        targets = [low + (high - low) * (k + rng.random()) / count for k in range(count)]
        rng.shuffle(targets)
        self.pool: list[_Psi] = []
        for index, target in enumerate(targets):
            name = self.system_names[index % 2]
            moves = 4 + (index // 2) % 6
            self.pool.append(self._make(name, moves, target, rng))

    def _random_move(self, system, rng: random.Random):
        n = system.n
        operating = rng.randint(1, n)
        others = [j for j in range(1, n + 1) if j != operating]
        moved = rng.sample(others, rng.randint(1, len(others)))
        x = FactorElement(operating, _nontrivial_payload(system, operating, rng))
        return autos.whitehead_to_auto(autos.whitehead_auto(system, moved, x))

    def _make(self, name: str, moves: int, target: float, rng: random.Random) -> _Psi:
        system = self.systems[name]
        n = system.n
        parts = [
            FactorAutoPart(k, rng.choice(system.factor(k).automorphism_reps()))
            for k in range(1, n + 1)
        ]
        h = [
            system.element(f, _nontrivial_payload(system, f, rng))
            for f in _alternating_factors(n, rng.randint(0, 3), rng)
        ]
        psi = autos.compose(
            autos.factor_only_auto(system, parts),
            autos.inner_auto(system, words.normal_form(system, h)),
        )
        for step in range(1, moves + 1):
            wanted = n + (target - n) * step / moves
            candidates = [
                autos.compose(self._random_move(system, rng), psi)
                for _ in range(self.CANDIDATES)
            ]
            psi = min(candidates, key=lambda c: abs(_spoke_volume(c) - wanted))
        label = labellings.star_label(system, [psi.conjugator(k) for k in range(1, n + 1)])
        spoke_volume = labellings.volume(label)
        mutant_at = rng.random() if rng.random() < 0.25 else None
        payload_obj = {"system": name, "psi": jsonio.auto_to_json(psi)}
        return _Psi(
            system_name=name,
            psi=psi,
            payload_obj=payload_obj,
            moves_built=moves,
            whitehead_bound=(spoke_volume - n) // 2,
            spoke_volume=spoke_volume,
            syllables=sum(len(label.slot(k).syllables) for k in range(1, n + 1)),
            mutant_at=mutant_at,
            payload=_dumps(payload_obj),
        )

    def stats(self) -> dict:
        pool = self.pool
        return {
            "automorphisms": len(pool),
            "mean_spoke_volume": _mean(p.spoke_volume for p in pool),
            "mean_syllables": _mean(p.syllables for p in pool),
            "whitehead_moves_built_per_psi": _mean(p.moves_built for p in pool),
            "whitehead_moves_returned_per_psi": _mean(
                len(json.loads(p.reference)["whitehead"]) for p in pool if p.reference
            ),
            "mutant_share_of_verify": _mean(p.mutant_at is not None for p in pool),
        }

    def _factorization_ok(self, item: _Psi, answer: str) -> bool:
        system = self.systems[item.system_name]
        fact = jsonio.factorization_from_json(system, json.loads(answer))
        return (
            autos.verify_factorization(item.psi, fact)
            and len(fact.whitehead) <= item.whitehead_bound
        )

    def _check_factorize(self, item: _Psi, answer: str) -> bool:
        if item.reference is not None and answer == item.reference:
            return True
        ok = self._factorization_ok(item, answer)
        if ok and item.reference is None:
            item.reference = answer
            self._prepare_verify(item, answer)
        return ok

    def _prepare_verify(self, item: _Psi, answer: str) -> None:
        fact = json.loads(answer)
        expected = True
        if item.mutant_at is not None and fact["whitehead"]:
            del fact["whitehead"][int(item.mutant_at * len(fact["whitehead"]))]
            expected = False
        obj = {"system": item.system_name, "psi": item.payload_obj["psi"], "factorization": fact}
        item.verify_payload = _dumps(obj)
        item.verify_expected = jsonio.dumps(expected)

    def warmup(self) -> Iterator[Request]:
        return FactorizeWorkload(self.systems, self.seed, "warmup", per_system=2).round()

    def trace_pass(self) -> Iterator[Request]:
        return self.round()

    def round(self) -> Iterator[Request]:
        """One pass over the pool: factorize, then verify on the answer.

        The verify request is built from the first correct answer; until
        there is one, the automorphism gets no verify request.
        """
        for item in self.pool:
            yield Request("factorize", item.payload, lambda a, i=item: self._check_factorize(i, a))
            if item.verify_payload is not None:
                yield Request(
                    "verify", item.verify_payload, lambda a, i=item: a == i.verify_expected
                )


def _spoke_volume(psi) -> int:
    system = psi.system
    words_ = [psi.conjugator(k) for k in range(1, system.n + 1)]
    return labellings.volume(labellings.star_label(system, words_))


def _alternating_factors(n: int, length: int, rng: random.Random, first_not=None, last_not=()):
    """Factor indices of a reduced word: neighbours differ, ends constrained."""
    out = []
    for position in range(length):
        banned = set()
        if out:
            banned.add(out[-1])
        elif first_not is not None:
            banned.add(first_not)
        if position == length - 1:
            banned.update(last_not)
        out.append(rng.choice([f for f in range(1, n + 1) if f not in banned]))
    return out


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


# -- tree_queries ---------------------------------------------------------------


class TreeWorkload:
    """Distance, volume and geodesic requests on fresh 20-60-syllable words.

    Inputs are built so the expected answer is known without the library:
    p = X(u.c), q = Y(v.c) with a common suffix c and no cancellation in
    v.u^-1, so distance is 2(|u|+|v|) plus one per coset endpoint; a label
    whose slot words avoid a leading own-factor syllable has volume
    sum(2|g_k| + 1).  Word lengths are stratified within each block so that
    every block costs about the same.
    """

    name = "tree_queries"
    # Tail percentiles with at least ten samples beyond them at seed speed.
    tails = {"distance": 99.0, "volume": 99.0, "geodesic": 95.0}
    system_name = "S3*Z2*Z*Z5"
    BLOCK_MIX = {"distance": 150, "volume": 40, "geodesic": 10}
    TRACE_BLOCKS = 5
    SMOKE = {"block_mix": {"distance": 6, "volume": 3, "geodesic": 2}}

    def __init__(self, systems, seed: int, stream: str = "run", block_mix=None):
        self.systems = systems
        self.seed = seed
        self.block_mix = self.BLOCK_MIX if block_mix is None else block_mix
        self.system = systems[self.system_name]
        self.rng = random.Random(f"tree_queries-{seed}-{stream}")
        self._trace_pass = None
        self.syllables: list[int] = []
        self.volumes: list[int] = []
        self.counts = {k: 0 for k in self.tails}

    def _pairs(self, factors):
        rng = self.rng
        return [[f, _nontrivial_payload(self.system, f, rng)] for f in factors]

    def _strata(self, count: int, low: float, high: float) -> list[float]:
        values = [low + (high - low) * (k + self.rng.random()) / count for k in range(count)]
        self.rng.shuffle(values)
        return values

    def _vertex_pair(self, a: int, b: int, share: float):
        """Names of p, q with |rep p| = a, |rep q| = b, and their distance."""
        rng = self.rng
        n = self.system.n
        p_factor = rng.choice([0] + list(range(1, n + 1)))
        q_factor = rng.choice([0] + list(range(1, n + 1)))
        c_len = int(share * (min(a, b) - 1))
        c = _alternating_factors(n, c_len, rng)
        tail_ban = (c[0],) if c else ()
        u = _alternating_factors(n, a - c_len, rng, p_factor or None, tail_ban)
        v = _alternating_factors(n, b - c_len, rng, q_factor or None, tail_ban + (u[-1],))
        c_pairs = self._pairs(c)
        p_word = self._pairs(u) + c_pairs
        q_word = self._pairs(v) + c_pairs
        expected = 2 * (len(u) + len(v)) + (p_factor > 0) + (q_factor > 0)
        self.syllables += [a, b]
        return _vertex_name(p_factor, p_word), _vertex_name(q_factor, q_word), expected

    def _label(self, lengths):
        n = self.system.n
        slots = [
            self._pairs(_alternating_factors(n, length, self.rng, first_not=k))
            for k, length in zip(range(1, n + 1), lengths)
        ]
        self.syllables += list(lengths)
        volume = sum(2 * len(s) + 1 for s in slots)
        self.volumes.append(volume)
        return {"alpha": slots}, volume

    def warmup(self) -> list[Request]:
        return TreeWorkload(self.systems, self.seed, "warmup", self.block_mix).round()

    def trace_pass(self) -> list[Request]:
        """The same requests on every call: TRACE_BLOCKS blocks."""
        if self._trace_pass is None:
            self._trace_pass = [r for _ in range(self.TRACE_BLOCKS) for r in self.round()]
        return self._trace_pass

    def round(self) -> list[Request]:
        """One block of fresh requests with the fixed kind mix, shuffled."""
        out = []
        for kind, count in self.block_mix.items():
            self.counts[kind] += count
            if kind == "volume":
                for _ in range(count):
                    lengths = [int(x) for x in self._strata(self.system.n, 20, 61)]
                    label, expected = self._label(lengths)
                    obj = {"system": self.system_name, "label": label}
                    out.append(Request(kind, _dumps(obj), _int_check(expected)))
                continue
            firsts = self._strata(count, 20, 61)
            seconds = self._strata(count, 20, 61)
            shares = self._strata(count, 0, 1)
            for a, b, share in zip(firsts, seconds, shares):
                p, q, expected = self._vertex_pair(int(a), int(b), share)
                if kind == "distance":
                    check = _int_check(expected)
                else:
                    check = self._geodesic_check(p, q, expected)
                obj = {"system": self.system_name, "p": p, "q": q}
                out.append(Request(kind, _dumps(obj), check))
        self.rng.shuffle(out)
        return out

    @staticmethod
    def _geodesic_check(p_name: str, q_name: str, expected: int):
        """Length and endpoints, and each step is a tree edge.

        U(w) and C_i(r) are adjacent exactly when w and r agree once a
        leading G_i syllable is dropped from each, so edges are checked on
        the names themselves.
        """

        def check(answer: str) -> bool:
            path = [_parse_vertex(name) for name in json.loads(answer)]
            if len(path) - 1 != expected:
                return False
            if path[0] != _parse_vertex(p_name) or path[-1] != _parse_vertex(q_name):
                return False
            for a, b in zip(path, path[1:]):
                u, c = (a, b) if a[0] == 0 else (b, a)
                if u[0] != 0 or c[0] == 0:
                    return False
                if _strip_leading(u[1], c[0]) != _strip_leading(c[1], c[0]):
                    return False
            return True

        return check

    def stats(self) -> dict:
        total = sum(self.counts.values())
        return {
            "requests": total,
            "mean_syllables": _mean(self.syllables),
            "mean_spoke_volume": _mean(self.volumes),
            "share": {k: c / total for k, c in self.counts.items()} if total else {},
        }


def _vertex_name(factor: int, pairs) -> str:
    head = "U" if factor == 0 else f"C{factor}"
    return f"{head}:{json.dumps(pairs, separators=(',', ':'))}"


def _parse_vertex(name: str):
    """(factor, syllables) of a vertex name, factor 0 for a U-vertex."""
    head, _, body = name.partition(":")
    return (0 if head == "U" else int(head[1:]), json.loads(body))


def _strip_leading(pairs, factor: int):
    return pairs[1:] if pairs and pairs[0][0] == factor else pairs


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _int_check(expected: int):
    return lambda answer: answer == str(expected)


# -- explore --------------------------------------------------------------------


class ExploreWorkload:
    """enumerate_ball + check_ball on three fixed balls, one request each.

    The class counts were measured at the seed commit; any other count, or
    a failing check_ball, is a wrong answer.  The seed only rotates the
    order of the balls within a round.
    """

    name = "explore"
    BALLS = (
        ("Z2*Z2*Z2", 15, (52, 105)),
        ("Z3*Z4*Z2*Z2", 8, (200, 567)),
        ("S3*Z2*Z2", 9, (92, 185)),
    )
    WARMUP_BALLS = (("Z2*Z2*Z2", 9, (16, 33)),)
    SMOKE = {"balls": (("Z2*Z2*Z2", 9, (16, 33)), ("Z2*Z2*Z2", 11, (28, 57)))}

    def __init__(self, systems, seed: int, balls=None):
        self.systems = systems
        self.seed = seed
        balls = list(self.BALLS if balls is None else balls)
        shift = seed % len(balls)
        self.round_balls = balls[shift:] + balls[:shift]
        # One latency group per ball, so each ball's latency is its own
        # statistic; a run has too few requests for a tail with ten samples
        # beyond it, so the tail is the slowest request.
        self.tails = {_ball_name(name, bound): 100.0 for name, bound, _ in balls}

    def warmup(self) -> Iterator[Request]:
        return ExploreWorkload(self.systems, self.seed, balls=self.WARMUP_BALLS).round()

    def trace_pass(self) -> Iterator[Request]:
        return self.round()

    def round(self) -> Iterator[Request]:
        for name, bound, counts in self.round_balls:
            payload = json.dumps({"system": SYSTEMS[name], "max_volume": bound})
            check = lambda a, c=counts: _explore_ok(a, c)  # noqa: E731
            yield Request("explore", payload, check, _ball_name(name, bound))

    def stats(self) -> dict:
        return {
            "balls": [_ball_name(name, bound) for name, bound, _ in self.round_balls],
            "expected_classes": [list(counts) for _, _, counts in self.round_balls],
        }


def _ball_name(system_name: str, bound: int) -> str:
    return f"explore {system_name}@{bound}"


def _explore_ok(answer: str, counts) -> bool:
    obj = json.loads(answer)
    ball = obj["ball"]
    return not obj["check"]["failures"] and (
        len(ball["alpha_classes"]),
        len(ball["a_classes"]),
    ) == tuple(counts)


WORKLOADS = {w.name: w for w in (FactorizeWorkload, TreeWorkload, ExploreWorkload)}
