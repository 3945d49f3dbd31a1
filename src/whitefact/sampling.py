"""Seeded random generators for the randomized suites.

Random conjugator tuples need not define automorphisms (the conjugated
factors may generate a proper subgroup), so the automorphism generators
filter candidates through the reduction walk and resample on failure, up
to MAX_ATTEMPTS candidates per call.
"""

from __future__ import annotations

import random

from .autos import PureSymmetricAuto, pure_auto
from .errors import EngineError, NonSplittingError
from .factors import FactorAutoPart, FactorSystem
from .labellings import StarLabel, star_label, volume
from .reduction import reduce_to_base
from .words import Word

# The test suite and selftest need at most 137 candidates in one call (mean
# 25: Z3*Z4*Z2*Z2 automorphisms with up to 6 syllables per conjugator).
MAX_ATTEMPTS = 10_000


def random_nontrivial_element(system: FactorSystem, i: int, rng: random.Random) -> tuple:
    backend = system.factor(i)
    if backend.is_finite():
        payload = rng.choice(system.nontrivial_payloads(i))
    else:
        payload = rng.choice([-3, -2, -1, 1, 2, 3])
    return (i, payload)


def random_word(
    system: FactorSystem,
    rng: random.Random,
    max_syllables: int,
    length: int | None = None,
) -> Word:
    if length is None:
        length = rng.randint(0, max_syllables)
    syllables = []
    previous = None
    for _ in range(length):
        choices = [i for i in range(1, system.n + 1) if i != previous]
        factor = rng.choice(choices)
        syllables.append(random_nontrivial_element(system, factor, rng))
        previous = factor
    return Word(system, tuple(syllables))


def random_part(system: FactorSystem, i: int, rng: random.Random) -> FactorAutoPart:
    reps = system.factor(i).automorphism_reps()
    return FactorAutoPart(i, rng.choice(reps))


def random_pure_auto(
    system: FactorSystem,
    rng: random.Random,
    max_syllables: int,
) -> PureSymmetricAuto:
    """Random parts with random conjugators, resampled until a splitting."""
    for _ in range(MAX_ATTEMPTS):
        parts = [
            (random_part(system, k, rng), random_word(system, rng, max_syllables))
            for k in range(1, system.n + 1)
        ]
        candidate = pure_auto(system, parts)
        try:
            reduce_to_base(star_label(system, [p[1] for p in parts]))
        except NonSplittingError:
            continue
        return candidate
    raise _out_of_attempts(system, "automorphism")


def random_splitting_label(
    system: FactorSystem,
    rng: random.Random,
    max_syllables: int,
    min_volume: int | None = None,
) -> StarLabel:
    """Random star labelling that is a genuine splitting."""
    for _ in range(MAX_ATTEMPTS):
        label = star_label(
            system,
            [random_word(system, rng, max_syllables) for _ in range(system.n)],
        )
        if min_volume is not None and volume(label) < min_volume:
            continue
        try:
            reduce_to_base(label)
        except NonSplittingError:
            continue
        return label
    raise _out_of_attempts(system, "star labelling")


def _out_of_attempts(system: FactorSystem, what: str) -> EngineError:
    return EngineError(
        f"no splitting {what} over {system!r} within {MAX_ATTEMPTS} attempts"
    )
