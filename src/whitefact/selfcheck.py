"""The acceptance suite, shared by the CLI selftest and the test module.

Each criterion returns a CriterionResult; a criterion passes only when
every one of its instances passes.  All randomness flows through one
seeded generator per criterion so runs are reproducible.
"""

from __future__ import annotations

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


def triple_z2() -> FactorSystem:
    return FactorSystem([CyclicBackend(2), CyclicBackend(2), CyclicBackend(2)])


def z342() -> FactorSystem:
    return FactorSystem([CyclicBackend(3), CyclicBackend(4), CyclicBackend(2)])


def z3422() -> FactorSystem:
    return FactorSystem(
        [CyclicBackend(3), CyclicBackend(4), CyclicBackend(2), CyclicBackend(2)]
    )


def _timed(func):
    start = time.perf_counter()
    passed, detail = func()
    return passed, detail, time.perf_counter() - start


def criterion_oracle_distances() -> CriterionResult:
    def run():
        pairs = 0
        for system in (triple_z2(), z342()):
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

    passed, detail, seconds = _timed(run)
    return CriterionResult(1, "oracle distance equivalence", passed, detail, seconds)


def criterion_halfway(seed: int = 0) -> CriterionResult:
    def run():
        rng = random.Random(seed)
        total = 0
        for system in (triple_z2(), z342()):
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

    passed, detail, seconds = _timed(run)
    return CriterionResult(2, "translation midpoint law", passed, detail, seconds)


def criterion_volume_decrease(seed: int = 0) -> CriterionResult:
    def run():
        rng = random.Random(seed)
        steps = 0
        for system in (triple_z2(), z342()):
            for _ in range(500):
                label = random_splitting_label(
                    system, rng, 4, min_volume=system.n + 2
                )
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

    passed, detail, seconds = _timed(run)
    return CriterionResult(3, "volume-decrease law", passed, detail, seconds)


def criterion_base_characterization() -> CriterionResult:
    def run():
        system = triple_z2()
        per_slot = []
        for j in range(1, 4):
            per_slot.append(
                [w for w in enumerate_words(system, 2) if w.leading_factor() != j]
            )
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

    passed, detail, seconds = _timed(run)
    return CriterionResult(4, "base characterization", passed, detail, seconds)


def _volume_witness_exists(label) -> bool:
    system = label.system
    # every candidate basepoint lies in G_1 g_1
    for payload in system.factor(1).payloads():
        x = letter(system, FactorElement(1, payload)) * label.slot(1)
        if volume(label, x) == system.n:
            return True
    return False


def criterion_factorization_roundtrip(seed: int = 0) -> CriterionResult:
    def run():
        rng = random.Random(seed)
        count = 0
        for system in (triple_z2(), z3422()):
            for _ in range(100):
                psi = random_pure_auto(system, rng, 6)
                fact = factorize(psi)
                count += 1
                if not verify_factorization(psi, fact):
                    return False, f"verification failed (case {count})"
                tuple_words = star_label(
                    system, [psi.conjugator(k) for k in range(1, system.n + 1)]
                )
                bound = (volume(tuple_words) - system.n) // 2
                if len(fact.whitehead) > bound:
                    return False, f"whitehead count {len(fact.whitehead)} exceeds {bound}"
        return True, f"{count} automorphisms"

    passed, detail, seconds = _timed(run)
    return CriterionResult(5, "factorization round-trip", passed, detail, seconds)


def criterion_connectivity() -> CriterionResult:
    def run():
        ball = enumerate_ball(triple_z2(), 9)
        report = check_ball(ball)
        if not report.passed:
            return False, "; ".join(report.failures[:3])
        return True, (
            f"{report.stats['alpha_classes']} alpha classes, "
            f"{report.stats['a_classes']} A classes, {report.stats['edges']} edges"
        )

    passed, detail, seconds = _timed(run)
    return CriterionResult(6, "connectivity at desk scale", passed, detail, seconds)


def criterion_stabilizers() -> CriterionResult:
    def run():
        system = triple_z2()
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

    passed, detail, seconds = _timed(run)
    return CriterionResult(7, "stabilizer decompositions", passed, detail, seconds)


def criterion_mutation_sensitivity(seed: int = 0) -> CriterionResult:
    def run():
        rng = random.Random(seed)
        produced = 0
        mutations = 0
        systems = (triple_z2(), z3422())
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

    passed, detail, seconds = _timed(run)
    return CriterionResult(8, "mutation sensitivity", passed, detail, seconds)


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
