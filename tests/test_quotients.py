"""A finite-quotient oracle for factorize, invert, compose,
recompose_factorization, the star and apex stabilizer splits and the class
automorphisms check_ball reads off each walk, sharing no code with the
engine.

Homomorphisms rho_k: G_k -> S_m define one homomorphism rho: G -> S_m, by
the universal property of the free product.  rho o psi is then a
homomorphism too, fixed by its images of each factor's elements, and here
it is computed with permutation products alone: no words normal form and
no move kernel.  A cyclic factor maps to disjoint cycles whose lengths
divide its order, a table factor by its right regular representation on
randomly relabelled points, and Z to a random permutation.

An image map T holds, per factor, the image of the generator 1 (a cyclic
factor or Z, so T(k, p) = t^p) or the image of every element (a table).
For psi with parts (phi_k, g_k), T o psi sends x in G_k to
T(g_k)^-1 T(phi_k(x)) T(g_k); a move (Y, x) is the automorphism with
conjugator x on each slot in Y.

Agreement in a quotient proves nothing, and a disagreement proves a wrong
answer.  A free product of residually finite groups is residually finite
(Gruenberg, 1957), so every wrong answer shows in some finite quotient; the
test samples three per answer.  Every factorization with one move deleted
must disagree in some sampled quotient, so the oracle is seen to see.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from whitefact.autos import (
    Factorization,
    _read_walk,
    compose,
    decompose_apex_stabilizer,
    decompose_star_stabilizer,
    factorize,
    invert,
    is_inner,
    pure_auto,
    recompose_factorization,
    whitehead_auto,
)
from whitefact.explorer import enumerate_ball
from whitefact.factors import FactorSystem
from whitefact.reduction import reduce_to_base
from whitefact.sampling import random_nontrivial_element, random_part, random_pure_auto, random_word
from whitefact.words import Word, empty_word, letter

from test_corpus import SYSTEMS as BACKENDS

SYSTEMS = {name: FactorSystem(backends()) for name, backends in BACKENDS.items()}
ORACLE = settings(max_examples=60, derandomize=True, deadline=None)
POINTS = 9  # rho maps into S_9, which holds S3's regular representation
QUOTIENTS = 3  # random rho per answer
SEARCH = 12  # random rho tried before a deleted move counts as unseen
IDENTITY = tuple(range(POINTS))


def mul(p, q):
    """p, then q: the right action, so rho(a b) = mul(rho(a), rho(b))."""
    return tuple(q[i] for i in p)


def inv(p):
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def power(p, e):
    if e < 0:
        p, e = inv(p), -e
    result = IDENTITY
    while e:
        if e & 1:
            result = mul(result, p)
        p, e = mul(p, p), e >> 1
    return result


def conj(c, p):
    """The image of g^-1 y g when c = T(g) and p = T(y)."""
    return mul(mul(inv(c), p), c)


def random_rho(system, rng):
    """An image map of a random homomorphism G -> S_9."""
    rho = []
    for backend in system.backends:
        points = rng.sample(range(POINTS), POINTS)
        if backend.kind == "table":
            # x -> x . g on the first |G| points, relabelled by points
            images = []
            for g in range(backend.size):
                perm = list(IDENTITY)
                for x in range(backend.size):
                    perm[points[x]] = points[backend.table[x][g]]
                images.append(tuple(perm))
            rho.append(tuple(images))
        elif backend.kind == "cyclic":
            order, perm, start = backend.order(), list(IDENTITY), 0
            lengths = [d for d in range(2, order + 1) if order % d == 0]
            while True:
                size = rng.choice(lengths)
                if start + size > POINTS:
                    break
                cycle = points[start : start + size]
                for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                    perm[a] = b
                start += size
            rho.append(tuple(perm))
        else:
            rho.append(tuple(points))
    return rho


def image(T, letter):
    k, p = letter
    t = T[k - 1]
    return t[p] if isinstance(t[0], tuple) else power(t, p)


def word_image(T, syllables):
    result = IDENTITY
    for s in syllables:
        result = mul(result, image(T, s))
    return result


def after(T, reps, conjugators):
    """T o psi for psi with factor part reps (None for the identity) and
    conjugator syllables: G_k's image conjugated by T(g_k), after phi_k."""
    out = []
    for t, rep, g in zip(T, reps, conjugators):
        c = word_image(T, g)
        if isinstance(t[0], tuple):  # a table: every element's image
            out.append(tuple(conj(c, t[p if rep is None else rep[p]]) for p in range(len(t))))
        else:  # phi(1) = rep on a cyclic factor and on Z
            out.append(conj(c, t if rep is None else power(t, rep)))
    return out


def after_auto(T, psi):
    return after(T, [phi.rep for phi, _ in psi.parts], [g.syllables for _, g in psi.parts])


def after_move(T, moved, x):
    n = len(T)
    return after(T, [None] * n, [(x,) if k in moved else () for k in range(1, n + 1)])


def after_inner(T, h):
    return after(T, [None] * len(T), [h.syllables] * len(T))


def after_walk(T, pairs, parts):
    """T o W1 o ... o WK o F, for moves as pairs (moved, element)."""
    for moved, x in pairs:
        T = after_move(T, moved, x)
    return after(T, [part.rep for part in parts], [()] * len(T))


def after_factorization(T, whitehead, parts, inner):
    """T o W1 o ... o WK o F o inner-by-h."""
    return after_inner(after_walk(T, [(w.moved, w.element) for w in whitehead], parts), inner)


def draw(data):
    return random.Random(data.draw(st.integers(0, 2**32)))


def quotients(system, rng, count=QUOTIENTS):
    return [random_rho(system, rng) for _ in range(count)]


def random_parts(system, rng):
    return [random_part(system, k, rng) for k in range(1, system.n + 1)]


def random_factorization(system, rng):
    """Up to five random moves, random factor parts and an inner word."""
    moves = []
    for _ in range(rng.randint(0, 5)):
        i = rng.randint(1, system.n)
        others = [k for k in range(1, system.n + 1) if k != i]
        moved = rng.sample(others, rng.randint(1, len(others)))
        moves.append(whitehead_auto(system, moved, random_nontrivial_element(system, i, rng)))
    return Factorization(tuple(moves), tuple(random_parts(system, rng)), random_word(system, rng, 3))


def random_psi(system, rng):
    """Random parts on random conjugators, on a tuple grown by up to eight
    inverse folds from the base (its walk sheds S3 syllables more often),
    or on a random factorization's slots."""
    kind = rng.randrange(3)
    if kind == 0:
        return random_pure_auto(system, rng, 4)
    if kind == 1:
        return recompose_factorization(system, random_factorization(system, rng))
    slots = [empty_word(system)] * system.n
    for _ in range(rng.randint(1, 8)):
        i, j = rng.sample(range(1, system.n + 1), 2)
        a = letter(system, random_nontrivial_element(system, i, rng))
        slots[j - 1] = slots[j - 1] * slots[i - 1].inverse() * a * slots[i - 1]
    return pure_auto(system, list(zip(random_parts(system, rng), slots)))


def lead_dropped(syllables, k):
    return syllables[1:] if syllables and syllables[0][0] == k else syllables


@pytest.mark.parametrize("name", SYSTEMS)
@ORACLE
@given(data=st.data())
def test_factorize_agrees_in_every_quotient(name, data):
    system, rng = SYSTEMS[name], draw(data)
    psi = random_psi(system, rng)
    f = factorize(psi)
    for rho in quotients(system, rng):
        assert after_auto(rho, psi) == after_factorization(rho, f.whitehead, f.factor, f.inner)
    if f.whitehead:
        k = rng.randrange(len(f.whitehead))
        deleted = f.whitehead[:k] + f.whitehead[k + 1 :]
        assert any(
            after_auto(rho, psi) != after_factorization(rho, deleted, f.factor, f.inner)
            for rho in quotients(system, rng, SEARCH)
        )


@pytest.mark.parametrize("name", SYSTEMS)
@ORACLE
@given(data=st.data())
def test_invert_undoes_psi_in_every_quotient(name, data):
    system, rng = SYSTEMS[name], draw(data)
    psi = random_psi(system, rng)
    inverse = invert(psi)
    for rho in quotients(system, rng):
        assert after_auto(after_auto(rho, inverse), psi) == rho


@pytest.mark.parametrize("name", SYSTEMS)
@ORACLE
@given(data=st.data())
def test_compose_agrees_in_every_quotient(name, data):
    system, rng = SYSTEMS[name], draw(data)
    f, g = random_psi(system, rng), random_psi(system, rng)
    fg = compose(f, g)
    for rho in quotients(system, rng):
        assert after_auto(rho, fg) == after_auto(after_auto(rho, f), g)


@pytest.mark.parametrize("name", SYSTEMS)
@ORACLE
@given(data=st.data())
def test_recompose_agrees_in_every_quotient(name, data):
    system, rng = SYSTEMS[name], draw(data)
    f = random_factorization(system, rng)
    psi = recompose_factorization(system, f)
    for rho in quotients(system, rng):
        assert after_auto(rho, psi) == after_factorization(rho, f.whitehead, f.factor, f.inner)


@pytest.mark.parametrize("name", SYSTEMS)
@ORACLE
@given(data=st.data())
def test_star_split_agrees_in_every_quotient(name, data):
    """psi = inner-by-h o F, built from its parts, splits as inner-by-g o
    parts; with F the identity, is_inner's word acts as h does."""
    system, rng = SYSTEMS[name], draw(data)
    h = random_word(system, rng, 4)
    inner_only = rng.random() < 0.25
    parts = random_parts(system, rng)
    if inner_only:
        parts = [system.part_identity(k) for k in range(1, system.n + 1)]
    psi = pure_auto(system, [(part, h) for part in parts])
    split, g = decompose_star_stabilizer(psi)
    eps = empty_word(system)
    for rho in quotients(system, rng):
        assert after_auto(rho, psi) == after_factorization(after_inner(rho, g), (), split, eps)
        if inner_only:
            assert after_auto(rho, psi) == after_inner(rho, is_inner(psi))


@pytest.mark.parametrize("name", SYSTEMS)
@ORACLE
@given(data=st.data())
def test_apex_split_agrees_in_every_quotient(name, data):
    """psi = inner-by-h o W o F, built from its parts, with W moves ({j}, c_j)
    and c_j in G_i, splits as moves and parts whose product is
    inner-by-d^-1 o psi, for d psi's canonical slot i."""
    system, rng = SYSTEMS[name], draw(data)
    i, h = rng.randint(1, system.n), random_word(system, rng, 4)
    slots = [h] * system.n
    for k in range(1, system.n + 1):
        if k != i and rng.random() < 0.6:
            slots[k - 1] = letter(system, random_nontrivial_element(system, i, rng)) * h
    psi = pure_auto(system, list(zip(random_parts(system, rng), slots)))
    moves, split = decompose_apex_stabilizer(psi, i)
    d = Word(system, lead_dropped(psi.conjugator(i).syllables, i))
    eps = empty_word(system)
    for rho in quotients(system, rng):
        assert after_auto(rho, psi) == after_factorization(after_inner(rho, d), moves, split, eps)


@pytest.mark.parametrize(
    "name, bound, shedding", [("K3", 15, 0), ("S3.Z2.Z2", 11, 10), ("Z3.Z4.Z2.Z2", 8, 0)]
)
def test_ball_class_automorphisms_agree_in_every_quotient(name, bound, shedding):
    """check_ball reads each star class's walk, as _read_walk from identity
    parts, as moves W and parts F with W o F = tuple_auto(the class's
    slots), and checks that through the engine's kernel; here both sides
    agree in random quotients.  On S3.Z2.Z2 at bound 11, 10 of the 224
    classes shed a syllable of S3, so _read_walk's corrections run."""
    system, rng = SYSTEMS[name], random.Random(bound)
    identity = tuple(system.part_identity(k) for k in range(1, system.n + 1))
    shed = 0
    for label in enumerate_ball(system, bound).alpha_classes:
        _, moves = reduce_to_base(label)
        pairs, parts = _read_walk(system, moves, identity)
        shed += parts != identity
        slots = [g.syllables for g in label.conjugators]
        for rho in quotients(system, rng):
            assert after(rho, [None] * system.n, slots) == after_walk(rho, pairs, parts)
    assert shed == shedding
