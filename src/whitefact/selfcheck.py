"""The acceptance suite, shared by the CLI selftest and the test module.

Each criterion is a check that returns (passed, detail); the _criterion
rule times it and builds its CriterionResult.  A criterion passes only when
every one of its instances passes.  All randomness flows through one
seeded generator per criterion so runs are reproducible.
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass

from .autos import (
    compose,
    decompose_apex_stabilizer,
    decompose_star_stabilizer,
    factorize,
    identity_auto,
    inner_auto,
    verify_factorization,
    whitehead_auto,
    whitehead_to_auto,
)
from .errors import NotAStabilizerError
from .explorer import check_ball, enumerate_ball
from .factors import CyclicBackend, FactorElement, FactorSystem
from .labellings import (
    apex_equivalent,
    apex_label,
    base_label,
    is_base,
    star_equivalent,
    star_label,
    volume,
)
from .reduction import reduce_step
from .sampling import (
    MAX_ATTEMPTS,
    random_nontrivial_element,
    random_pure_auto,
    random_splitting_label,
    random_word,
)
from .tree import act_vertex, ball_distances, bfs_ball, c_vertex, distance, geodesic, u_vertex
from .words import empty_word, enumerate_words, letter


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number} ({self.name}): {status} [{self.seconds:.2f}s] {self.detail}"


def _cyclic(*orders: int) -> FactorSystem:
    return FactorSystem([CyclicBackend(k) for k in orders])


def _criterion(number: int, name: str):
    """Time a check that returns (passed, detail) and report it as a CriterionResult."""

    def wrap(check):
        @functools.wraps(check)
        def run(*args, **kwargs) -> CriterionResult:
            start = time.perf_counter()
            passed, detail = check(*args, **kwargs)
            return CriterionResult(number, name, passed, detail, time.perf_counter() - start)

        return run

    return wrap


@_criterion(1, "oracle distance equivalence")
def criterion_oracle_distances():
    pairs = 0
    for system in (_cyclic(2, 2, 2), _cyclic(3, 4, 2)):
        ball = bfs_ball(u_vertex(empty_word(system)), 6)
        for source in ball.vertices:
            oracle = ball_distances(ball, source)
            for target in ball.vertices:
                pairs += 1
                expected = oracle[target]
                if distance(source, target) != expected:
                    return False, f"distance mismatch at {source} -> {target}"
                if len(geodesic(source, target)) - 1 != expected:
                    return False, f"geodesic length mismatch at {source} -> {target}"
    return True, f"{pairs} vertex pairs checked"


@_criterion(2, "translation midpoint law")
def criterion_halfway(seed: int = 0):
    rng = random.Random(seed)
    total = 0
    for system in (_cyclic(2, 2, 2), _cyclic(3, 4, 2)):
        for _ in range(500):
            while True:
                j = rng.randint(1, system.n)
                k = rng.randint(1, system.n)
                gj = random_word(system, rng, 5)
                gk = random_word(system, rng, 5)
                vj = c_vertex(j, gj)
                vk = c_vertex(k, gk)
                if vj != vk:
                    break  # equal conjugate subgroups excluded by hypothesis
            s = random_nontrivial_element(system, k, rng)
            h = gk.inverse() * letter(system, s) * gk
            path = geodesic(vj, act_vertex(vj, h))
            total += 1
            if len(path) % 2 == 0:
                return False, "odd geodesic between translates"
            mid = path[(len(path) - 1) // 2]
            if mid != vk:
                return False, f"midpoint {mid} is not {vk}"
    return True, f"{total} instances"


@_criterion(3, "volume-decrease law")
def criterion_volume_decrease(seed: int = 0):
    rng = random.Random(seed)
    steps = 0
    for system in (_cyclic(2, 2, 2), _cyclic(3, 4, 2)):
        for _ in range(500):
            label = random_splitting_label(system, rng, 4, min_volume=system.n + 2)
            current = label
            bound = (volume(label) - system.n) // 2
            for _ in range(bound):
                if volume(current) <= system.n:
                    break
                moved, record = reduce_step(current)
                steps += 1
                drop = record.volume_before - record.volume_after
                if drop < 2 or drop % 2 != 0:
                    return False, f"bad volume drop {drop}"
                before = apex_label(system, record.i, current.conjugators)
                after = apex_label(system, record.i, moved.conjugators)
                if not apex_equivalent(before, after):
                    return False, "step is not a legal collapse path"
                current = moved
            if volume(current) > system.n:
                return False, f"not at the base after {bound} steps"
    return True, f"1000 labels, {steps} steps"


@_criterion(4, "base characterization")
def criterion_base_characterization():
    system = _cyclic(2, 2, 2)
    per_slot = []
    for j in range(1, 4):
        per_slot.append([w for w in enumerate_words(system, 2) if w.leading_factor() != j])
    checked = 0
    base = base_label(system)
    for w1 in per_slot[0]:
        for w2 in per_slot[1]:
            for w3 in per_slot[2]:
                label = star_label(system, [w1, w2, w3])
                checked += 1
                by_equivalence = star_equivalent(label, base) is not None
                by_volume = _volume_witness_exists(label)
                by_is_base = is_base(label)
                if not (by_equivalence == by_volume == by_is_base):
                    return False, f"discrepancy at {label}"
    return True, f"{checked} tuples"


def _volume_witness_exists(label) -> bool:
    system = label.system
    # every candidate basepoint lies in G_1 g_1
    for payload in system.factor(1).payloads():
        x = letter(system, FactorElement(1, payload)) * label.slot(1)
        if volume(label, x) == system.n:
            return True
    return False


@_criterion(5, "factorization round-trip")
def criterion_factorization_roundtrip(seed: int = 0):
    rng = random.Random(seed)
    count = 0
    for system in (_cyclic(2, 2, 2), _cyclic(3, 4, 2, 2)):
        for _ in range(100):
            psi = random_pure_auto(system, rng, 6)
            fact = factorize(psi)
            count += 1
            if not verify_factorization(psi, fact):
                return False, f"verification failed (case {count})"
            tuple_words = star_label(system, [psi.conjugator(k) for k in range(1, system.n + 1)])
            bound = (volume(tuple_words) - system.n) // 2
            if len(fact.whitehead) > bound:
                return False, f"whitehead count {len(fact.whitehead)} exceeds {bound}"
    return True, f"{count} automorphisms"


@_criterion(6, "connectivity at desk scale")
def criterion_connectivity():
    ball = enumerate_ball(_cyclic(2, 2, 2), 9)
    report = check_ball(ball)
    if not report.passed:
        return False, "; ".join(report.failures[:3])
    return True, (
        f"{report.stats['alpha_classes']} alpha classes, "
        f"{report.stats['a_classes']} A classes, {report.stats['edges']} edges"
    )


@_criterion(7, "stabilizer decompositions")
def criterion_stabilizers():
    system = _cyclic(2, 2, 2)
    # (name, automorphism, expected apex set, expected star-stabilizer)
    cases = [("identity", identity_auto(system), {1, 2, 3}, True)]
    for i in range(1, 4):
        for j in range(1, 4):
            if i == j:
                continue
            w = whitehead_auto(system, (j,), FactorElement(i, 1))
            cases.append((f"({{G{j}}}, x in G{i})", whitehead_to_auto(w), {i}, False))
    # inners act trivially on classes, so they stabilize everything;
    # composing with an inner must not change any classification
    h = letter(system, FactorElement(1, 1)) * letter(system, FactorElement(2, 1))
    cases.append(("inner", inner_auto(system, h), {1, 2, 3}, True))
    mixed = compose(
        whitehead_to_auto(whitehead_auto(system, (3,), FactorElement(1, 1))),
        inner_auto(system, h),
    )
    cases.append(("whitehead*inner", mixed, {1}, False))

    for name, psi, apex_set, star_ok in cases:
        for apex in range(1, 4):
            try:
                decompose_apex_stabilizer(psi, apex)
                succeeded = True
            except NotAStabilizerError:
                succeeded = False
            if succeeded != (apex in apex_set):
                return False, f"apex misclassification: {name} at apex {apex}"
        try:
            decompose_star_stabilizer(psi)
            succeeded = True
        except NotAStabilizerError:
            succeeded = False
        if succeeded != star_ok:
            return False, f"star misclassification: {name}"
    return True, f"{len(cases)} automorphisms x 3 apexes"


@_criterion(8, "mutation sensitivity")
def criterion_mutation_sensitivity(seed: int = 0):
    rng = random.Random(seed)
    produced = 0
    mutations = 0
    systems = (_cyclic(2, 2, 2), _cyclic(3, 4, 2, 2))
    for _ in range(MAX_ATTEMPTS):
        system = systems[produced % 2]
        psi = random_pure_auto(system, rng, 4)
        fact = factorize(psi)
        if not fact.whitehead:
            continue
        produced += 1
        for index in range(len(fact.whitehead)):
            for mutant in _mutate(system, fact, index, rng):
                mutations += 1
                if verify_factorization(psi, mutant):
                    return False, f"mutation survived (case {produced})"
        if produced == 50:
            return True, f"{produced} factorizations, {mutations} mutations"
    return False, f"{produced} of 50 factorizations with moves in {MAX_ATTEMPTS} draws"


def _mutate(system, fact, index, rng):
    from .autos import Factorization, WhiteheadAuto

    deleted = fact.whitehead[:index] + fact.whitehead[index + 1 :]
    yield Factorization(deleted, fact.factor, fact.inner)

    target = fact.whitehead[index]
    if system.factor(target.operating).is_finite():
        alternates = [
            p
            for p in system.nontrivial_payloads(target.operating)
            if p != target.element[1]
        ]
    else:
        alternates = [-target.element[1]]
    candidates = [
        j for j in range(1, system.n + 1) if j != target.operating and j not in target.moved
    ]
    if alternates:
        changed = WhiteheadAuto(
            system, target.moved, (target.operating, rng.choice(alternates))
        )
    elif candidates:
        # no other nontrivial element: move a different factor instead
        changed = WhiteheadAuto(system, (rng.choice(candidates),), target.element)
    else:
        # Y holds every other factor (n >= 3, so at least two): keep all but one
        dropped = rng.choice(target.moved)
        moved = tuple(j for j in target.moved if j != dropped)
        changed = WhiteheadAuto(system, moved, target.element)
    mutated = fact.whitehead[:index] + (changed,) + fact.whitehead[index + 1 :]
    yield Factorization(mutated, fact.factor, fact.inner)


def run_all(seed: int = 0) -> list[CriterionResult]:
    return [
        criterion_oracle_distances(),
        criterion_halfway(seed),
        criterion_volume_decrease(seed),
        criterion_base_characterization(),
        criterion_factorization_roundtrip(seed),
        criterion_connectivity(),
        criterion_stabilizers(),
        criterion_mutation_sensitivity(seed),
    ]
