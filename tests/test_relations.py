"""Relations among Whitehead and factor automorphisms as an oracle for
compose, invert and is_inner.

Each relation comes from the algebra of these automorphisms, not from the
engine's code: both sides are built from single moves and factor parts by
compose, and two automorphisms are equal exactly when
is_inner(invert(lhs) o rhs) is the empty word.  R5 holds in Out only, so there the answer must merely exist.
With x, x' in G_i, y in G_j, i not in Y and compose's convention (the right
factor acts first):

- R1: (Y, x) o (Y, x') = (Y, x x');
- R2: (Y, x) o (Z, x) = (Y u Z, x) for disjoint Y and Z;
- R3: (Y, x) and (Z, y) commute when Y and Z are disjoint, i not in Z and
  j not in Y;
- R4: (Z, y) o (Y, x) o (Z, y)^-1 = (Y, y^-1) o (Y, x) o (Y, y) when i is
  in Z, j not in Y u Z and Y, Z are disjoint;
- R5: (all factors but i, x) is, in Out, the factor automorphism
  conjugating G_i by x^-1;
- R6: phi o (Y, x) o phi^-1 = (Y, phi_i(x)) for a factor automorphism phi.

The systems are the answer corpus's, Z among them, and every moved set is
drawn with every size it can have.  R4 runs with y in each factor in turn,
so an involution cannot hide a y swapped for y^-1.
"""

import pytest
from hypothesis import given, settings, strategies as st

from whitefact.autos import (
    compose,
    factor_only_auto,
    identity_auto,
    invert,
    is_inner,
    whitehead_auto,
    whitehead_to_auto,
)
from whitefact.factors import FactorAutoPart, FactorSystem
from whitefact.words import empty_word

from test_corpus import SYSTEMS as BACKENDS

SYSTEMS = {name: FactorSystem(backends()) for name, backends in BACKENDS.items()}
RELATION = settings(max_examples=25, derandomize=True, deadline=None)


def elements(system, i):
    """Nontrivial elements of G_i; Z payloads up to 10**30."""
    if system.factor(i).is_finite():
        payloads = st.sampled_from(system.nontrivial_payloads(i))
    else:
        payloads = st.integers(-(10**30), 10**30).filter(bool)
    return payloads.map(lambda p: (i, p))


def subsets(pool, min_size=1):
    return st.lists(st.sampled_from(pool), min_size=min_size, unique=True) if pool else st.just([])


def move(system, moved, x):
    if not moved or system.is_identity(x):
        return identity_auto(system)
    return whitehead_to_auto(whitehead_auto(system, moved, x))


def factor_automorphism(system, data):
    reps = [st.sampled_from(system.factor(k).automorphism_reps()) for k in range(1, system.n + 1)]
    return factor_only_auto(system, [FactorAutoPart(k, data.draw(r)) for k, r in enumerate(reps, 1)])


def compose_all(*autos):
    result = autos[-1]
    for f in reversed(autos[:-1]):
        result = compose(f, result)
    return result


def assert_equal(lhs, rhs):
    assert is_inner(compose(invert(lhs), rhs)) == empty_word(lhs.system)


def draw_move(system, data):
    """i, x in G_i nontrivial, and a moved set Y of every size without i."""
    i = data.draw(st.integers(1, system.n))
    x = data.draw(elements(system, i))
    moved = data.draw(subsets([k for k in range(1, system.n + 1) if k != i]))
    return i, x, sorted(moved)


@pytest.mark.parametrize("name", SYSTEMS)
@RELATION
@given(data=st.data())
def test_r1_same_moved_set_multiplies(name, data):
    system = SYSTEMS[name]
    i, x, moved = draw_move(system, data)
    x2 = data.draw(elements(system, i))
    lhs = compose(move(system, moved, x), move(system, moved, x2))
    assert_equal(lhs, move(system, moved, system.mul(x, x2)))


@pytest.mark.parametrize("name", SYSTEMS)
@RELATION
@given(data=st.data())
def test_r2_disjoint_moved_sets_join(name, data):
    system = SYSTEMS[name]
    i, x, moved = draw_move(system, data)
    split = data.draw(subsets(moved, min_size=0))
    y_part, z_part = sorted(split), sorted(set(moved) - set(split))
    lhs = compose(move(system, y_part, x), move(system, z_part, x))
    assert_equal(lhs, move(system, moved, x))


@pytest.mark.parametrize("name", SYSTEMS)
@RELATION
@given(data=st.data())
def test_r3_disjoint_moves_commute(name, data):
    system = SYSTEMS[name]
    i, x, moved = draw_move(system, data)
    j = data.draw(st.sampled_from([k for k in range(1, system.n + 1) if k not in moved]))
    y = data.draw(elements(system, j))
    others = [k for k in range(1, system.n + 1) if k not in moved and k not in (i, j)]
    z_set = sorted(data.draw(subsets(others)))
    a, b = move(system, moved, x), move(system, z_set, y)
    assert_equal(compose(a, b), compose(b, a))


R4_CASES = [(name, j) for name, system in SYSTEMS.items() for j in range(1, system.n + 1)]


@pytest.mark.parametrize("name,j", R4_CASES, ids=[f"{name}-y{j}" for name, j in R4_CASES])
@RELATION
@given(data=st.data())
def test_r4_conjugating_a_move(name, j, data):
    system = SYSTEMS[name]
    y = data.draw(elements(system, j))
    i = data.draw(st.sampled_from([k for k in range(1, system.n + 1) if k != j]))
    x = data.draw(elements(system, i))
    moved = sorted(data.draw(subsets([k for k in range(1, system.n + 1) if k not in (i, j)])))
    rest = [k for k in range(1, system.n + 1) if k not in moved and k not in (i, j)]
    z_set = sorted(data.draw(subsets(rest, min_size=0)) + [i])
    conj = move(system, z_set, y)
    lhs = compose_all(conj, move(system, moved, x), invert(conj))
    y_inv = system.inverse(y)
    rhs = compose_all(move(system, moved, y_inv), move(system, moved, x), move(system, moved, y))
    assert_equal(lhs, rhs)


@pytest.mark.parametrize("name", SYSTEMS)
@RELATION
@given(data=st.data())
def test_r5_all_but_one_is_a_factor_automorphism_in_out(name, data):
    system = SYSTEMS[name]
    i = data.draw(st.integers(1, system.n))
    x = data.draw(elements(system, i))
    others = [k for k in range(1, system.n + 1) if k != i]
    parts = [system.part_identity(k) for k in range(1, system.n + 1)]
    parts[i - 1] = system.conjugation_part(system.inverse(x))
    inner = is_inner(compose(invert(move(system, others, x)), factor_only_auto(system, parts)))
    assert inner is not None


@pytest.mark.parametrize("name", SYSTEMS)
@RELATION
@given(data=st.data())
def test_r6_factor_automorphisms_act_on_elements(name, data):
    system = SYSTEMS[name]
    i, x, moved = draw_move(system, data)
    phi = factor_automorphism(system, data)
    lhs = compose_all(phi, move(system, moved, x), invert(phi))
    assert_equal(lhs, move(system, moved, system.part_apply(phi.phi(i), x)))
