import dataclasses
import random

import pytest

from whitefact.errors import OracleUnavailableError
from whitefact.factors import FactorElement
from whitefact.sampling import random_nontrivial_element, random_word
from whitefact.tree import (
    TreeVertex,
    _depth,
    _meet,
    act_vertex,
    ball_distances,
    bfs_ball,
    c_vertex,
    distance,
    geodesic,
    u_vertex,
)
from whitefact.words import Word, empty_word, letter, word


@pytest.fixture(scope="module")
def k3_words(triple_z2):
    s = triple_z2
    return {
        "eps": empty_word(s),
        "a": word(s, [(1, 1)]),
        "b": word(s, [(2, 1)]),
        "c": word(s, [(3, 1)]),
    }


class TestCanonical:
    def test_leading_own_syllable_stripped(self, triple_z2, k3_words):
        v = c_vertex(1, k3_words["a"] * k3_words["b"])
        assert v.rep == k3_words["b"]

    def test_foreign_leading_syllable_kept(self, k3_words):
        v = c_vertex(3, k3_words["b"] * k3_words["a"])
        assert v.rep == k3_words["b"] * k3_words["a"]

    def test_u_vertices_already_canonical(self, k3_words):
        w = k3_words["a"] * k3_words["b"]
        assert u_vertex(w).rep == w

    def test_vertex_canon_idempotent(self, k3_words):
        v = c_vertex(1, k3_words["a"] * k3_words["b"])
        assert c_vertex(1, v.rep) == v


class TestAction:
    def test_action_on_u(self, k3_words):
        moved = act_vertex(u_vertex(k3_words["eps"]), k3_words["a"] * k3_words["b"])
        assert moved == u_vertex(k3_words["a"] * k3_words["b"])

    def test_own_factor_stabilizes(self, k3_words):
        v = c_vertex(1, k3_words["eps"])
        assert act_vertex(v, k3_words["a"]) == v

    def test_action_cancels(self, k3_words):
        v = c_vertex(3, k3_words["b"] * k3_words["a"])
        assert act_vertex(v, k3_words["a"]) == c_vertex(3, k3_words["b"])

    def test_action_is_homomorphic(self, triple_z2, k3_words):
        rng = random.Random(5)
        from whitefact.sampling import random_word

        for _ in range(50):
            g = random_word(triple_z2, rng, 4)
            h = random_word(triple_z2, rng, 4)
            v = c_vertex(rng.randint(1, 3), random_word(triple_z2, rng, 4))
            assert act_vertex(act_vertex(v, g), h) == act_vertex(v, g * h)
            assert act_vertex(v, k3_words["eps"]) == v


class TestGeodesic:
    def test_adjacent_pair(self, k3_words):
        path = geodesic(u_vertex(k3_words["eps"]), c_vertex(1, k3_words["eps"]))
        assert len(path) == 2

    def test_distance_u_to_u(self, k3_words):
        assert distance(u_vertex(k3_words["eps"]), u_vertex(k3_words["a"] * k3_words["b"])) == 4

    def test_distance_and_path_to_far_coset(self, triple_z2, k3_words):
        eps, a, b = k3_words["eps"], k3_words["a"], k3_words["b"]
        target = c_vertex(3, b * a)
        assert distance(u_vertex(eps), target) == 5
        path = geodesic(u_vertex(eps), target)
        assert path == (
            u_vertex(eps),
            c_vertex(1, eps),
            u_vertex(a),
            c_vertex(2, a),
            u_vertex(b * a),
            c_vertex(3, b * a),
        )

    def test_bipartite_alternation(self, triple_z2):
        rng = random.Random(11)
        from whitefact.sampling import random_word

        for _ in range(60):
            p = _random_vertex(triple_z2, rng)
            q = _random_vertex(triple_z2, rng)
            path = geodesic(p, q)
            for left, right in zip(path, path[1:]):
                assert (left.factor == 0) != (right.factor == 0)

    def test_lies_between(self, k3_words):
        eps, a, b = k3_words["eps"], k3_words["a"], k3_words["b"]
        assert c_vertex(1, eps) in geodesic(u_vertex(eps), c_vertex(3, b * a))
        assert u_vertex(eps) in geodesic(u_vertex(eps), c_vertex(3, b * a))
        assert c_vertex(2, eps) not in geodesic(u_vertex(eps), c_vertex(1, eps))


def _random_vertex(system, rng):
    from whitefact.sampling import random_word

    w = random_word(system, rng, 4)
    if rng.random() < 0.5:
        return u_vertex(w)
    return c_vertex(rng.randint(1, system.n), w)


class TestBall:
    def test_radius_one_count(self, triple_z2):
        ball = bfs_ball(u_vertex(empty_word(triple_z2)), 1)
        assert len(ball.vertices) == 4

    def test_radius_two_count(self, triple_z2):
        ball = bfs_ball(u_vertex(empty_word(triple_z2)), 2)
        assert len(ball.vertices) == 7
        # a tree on 7 vertices: 6 edges, each listed from both ends
        assert sum(len(ball.adjacency[v]) for v in ball.vertices) == 2 * 6

    def test_u_valency_is_n(self, z342):
        ball = bfs_ball(u_vertex(empty_word(z342)), 3)
        center = u_vertex(empty_word(z342))
        assert len(ball.adjacency[center]) == z342.n

    def test_c_valency_is_group_order(self, z342):
        ball = bfs_ball(u_vertex(empty_word(z342)), 3)
        for v in ball.vertices:
            if v.factor and v.rep.is_identity():
                assert len(ball.adjacency[v]) == z342.factor(v.factor).order()

    def test_infinite_factor_rejected(self, mixed_system):
        with pytest.raises(OracleUnavailableError, match="finite"):
            bfs_ball(u_vertex(empty_word(mixed_system)), 2)

    def test_negative_radius_rejected(self, triple_z2):
        with pytest.raises(ValueError, match="^radius must be non-negative$"):
            bfs_ball(u_vertex(empty_word(triple_z2)), -1)

    def test_deterministic_output(self, triple_z2):
        first = bfs_ball(u_vertex(empty_word(triple_z2)), 4)
        second = bfs_ball(u_vertex(empty_word(triple_z2)), 4)
        assert first == second


class TestVertexValue:
    def test_fields_are_factor_and_rep(self):
        # the kind of a vertex is its factor: 0 for U, i for C_i
        assert [f.name for f in dataclasses.fields(TreeVertex)] == ["factor", "rep"]

    def test_str_names_the_kind_by_factor(self, z342):
        assert str(u_vertex(word(z342, [(1, 1), (2, 3)]))) == "U(1:1.2:3)"
        # c_vertex strips the leading 2:1 of its own factor
        assert str(c_vertex(2, word(z342, [(2, 1), (1, 2), (3, 1)]))) == "C2(1:2.3:1)"

    @pytest.mark.parametrize("fixture", ["triple_z2", "z342"])
    @pytest.mark.parametrize("center", ["U(1)", "C2(1:1)"])
    def test_ball_order_matches_kind_key(self, request, fixture, center):
        # the order the ball had while vertices stored a kind next to the
        # factor: "c" sorts before "u", then by factor, length and syllables
        def kind_key(v):
            return ("u" if v.factor == 0 else "c", v.factor, len(v.rep.syllables), v.rep.syllables)

        system = request.getfixturevalue(fixture)
        eps = empty_word(system)
        v = u_vertex(eps) if center == "U(1)" else c_vertex(2, word(system, [(1, 1)]))
        ball = bfs_ball(v, 6)
        assert ball.vertices == tuple(sorted(ball.vertices, key=kind_key))
        assert len({w.factor for w in ball.vertices}) == system.n + 1
        for w in ball.vertices:
            assert ball.adjacency[w] == tuple(sorted(ball.adjacency[w], key=kind_key))


class TestOracleAgreement:
    @pytest.mark.parametrize("fixture", ["triple_z2", "z342"])
    def test_distances_match_bfs(self, request, fixture):
        system = request.getfixturevalue(fixture)
        ball = bfs_ball(u_vertex(empty_word(system)), 4)
        for source in ball.vertices:
            oracle = ball_distances(ball, source)
            for target, expected in oracle.items():
                assert distance(source, target) == expected
                assert len(geodesic(source, target)) - 1 == expected


class TestStabilizerLaw:
    def test_coset_vertex_stabilizer(self, triple_z2):
        # act(C(i,g), h) == C(i,g) exactly when g h g^-1 is a single G_i syllable
        rng = random.Random(23)
        from whitefact.sampling import random_word

        for _ in range(120):
            i = rng.randint(1, 3)
            g = random_word(triple_z2, rng, 3)
            h = random_word(triple_z2, rng, 3)
            v = c_vertex(i, g)
            conj = v.rep * h * v.rep.inverse()
            stabilizes = act_vertex(v, h) == v
            elliptic = conj.is_identity() or (
                conj.syllable_count() == 1 and conj.leading_factor() == i
            )
            assert stabilizes == elliptic

    def test_shared_coset_neighbours_differ_by_stabilizer(self, z342):
        # two U-neighbours of a coset vertex differ by a stabilizing element
        rng = random.Random(31)
        from whitefact.factors import FactorElement
        from whitefact.sampling import random_word

        for _ in range(100):
            i = rng.randint(1, 3)
            v = c_vertex(i, random_word(z342, rng, 4))
            backend = z342.factor(i)
            h1, h2 = rng.choice(list(backend.payloads())), rng.choice(
                list(backend.payloads())
            )
            x = letter(z342, FactorElement(i, h1)) * v.rep
            y = letter(z342, FactorElement(i, h2)) * v.rep
            assert act_vertex(v, x.inverse() * y) == v

    def test_coset_vertex_is_midpoint_of_translates(self, z342):
        rng = random.Random(37)
        from whitefact.sampling import random_nontrivial_element, random_word

        done = 0
        while done < 150:
            j, k = rng.randint(1, 3), rng.randint(1, 3)
            vj = c_vertex(j, random_word(z342, rng, 4))
            vk = c_vertex(k, random_word(z342, rng, 4))
            if vj == vk:
                continue
            s = random_nontrivial_element(z342, k, rng)
            h = vk.rep.inverse() * letter(z342, s) * vk.rep
            path = geodesic(vj, act_vertex(vj, h))
            assert len(path) % 2 == 1
            assert path[(len(path) - 1) // 2] == vk
            done += 1


@pytest.fixture(scope="module", params=["mixed_system", "s3_z2_z_z5"])
def infinite_system(request):
    return request.getfixturevalue(request.param)


def _pair_with_shared_suffix(system, rng):
    shared = random_word(system, rng, 10)
    p = _random_vertex(system, rng)
    q = _random_vertex(system, rng)
    return tuple(
        u_vertex(v.rep * shared) if not v.factor else c_vertex(v.factor, v.rep * shared)
        for v in (p, q)
    )


class TestInfiniteFactors:
    """Tree laws where the BFS oracle cannot run; act_vertex is the reference."""

    def test_geodesic_commutes_with_translation(self, infinite_system):
        rng = random.Random(41)
        for _ in range(150):
            p, q = _pair_with_shared_suffix(infinite_system, rng)
            g = random_word(infinite_system, rng, 6)
            path = geodesic(act_vertex(p, g), act_vertex(q, g))
            assert path == tuple(act_vertex(v, g) for v in geodesic(p, q))

    def test_distance_invariant_and_matches_path(self, infinite_system):
        rng = random.Random(43)
        for _ in range(150):
            p, q = _pair_with_shared_suffix(infinite_system, rng)
            g = random_word(infinite_system, rng, 6)
            d = distance(p, q)
            assert distance(act_vertex(p, g), act_vertex(q, g)) == d
            assert distance(q, p) == d
            assert len(geodesic(p, q)) - 1 == d

    def test_consecutive_path_vertices_adjacent(self, infinite_system):
        rng = random.Random(47)
        for _ in range(100):
            path = geodesic(*_pair_with_shared_suffix(infinite_system, rng))
            for left, right in zip(path, path[1:]):
                assert (left.factor == 0) != (right.factor == 0)
                assert distance(left, right) == 1

    def test_cosets_of_one_rep(self, infinite_system):
        r = random_word(infinite_system, random.Random(53), 6, length=6)
        free = [i for i in range(1, infinite_system.n + 1) if i != r.leading_factor()]
        i, j = free[:2]
        path = geodesic(c_vertex(i, r), c_vertex(j, r))
        assert path == (c_vertex(i, r), u_vertex(r), c_vertex(j, r))
        assert distance(c_vertex(i, r), c_vertex(j, r)) == 2

    def test_coset_against_own_factor_translate(self, infinite_system):
        rng = random.Random(59)
        for i in range(1, infinite_system.n + 1):
            r = random_word(infinite_system, rng, 5, length=5)
            v = c_vertex(i, r)
            x = letter(infinite_system, random_nontrivial_element(infinite_system, i, rng))
            target = u_vertex(x * v.rep)
            assert distance(v, target) == 1
            assert geodesic(v, target) == (v, target)
            assert geodesic(target, v) == (target, v)

    def test_long_shared_suffix(self, mixed_system):
        s = word(mixed_system, [(3, 10**12), (1, 2), (3, -7), (2, 1)] * 5)
        a = letter(mixed_system, FactorElement(1, 1)) * s
        b = letter(mixed_system, FactorElement(2, 1)) * s
        assert geodesic(u_vertex(a), c_vertex(3, b)) == (
            u_vertex(a),
            c_vertex(1, s),
            u_vertex(s),
            c_vertex(2, s),
            u_vertex(b),
            c_vertex(3, b),
        )
        assert distance(u_vertex(a), c_vertex(3, b)) == 5
        assert distance(c_vertex(3, a), c_vertex(3, b)) == 6
        # a C endpoint absorbs a leading syllable of its own factor
        assert distance(c_vertex(1, a), c_vertex(2, b)) == 2

    def test_equal_vertices(self, infinite_system):
        rng = random.Random(61)
        for _ in range(40):
            v = _random_vertex(infinite_system, rng)
            assert distance(v, v) == 0
            assert geodesic(v, v) == (v,)


def _reference_geodesic(p, q):
    """The reference: each vertex looked up by its depth, with a Word of its
    own."""

    def at_depth(v, d):
        if d == _depth(v):
            return v
        syllables = v.rep.syllables
        j = d // 2
        suffix = Word(v.rep.system, syllables[len(syllables) - j:])
        if d % 2 == 0:
            return TreeVertex(0, suffix)
        return TreeVertex(syllables[-j - 1][0], suffix)

    m = _meet(p, q)
    down = [at_depth(p, d) for d in range(_depth(p), m - 1, -1)]
    up = [at_depth(q, d) for d in range(m + 1, _depth(q) + 1)]
    return tuple(down + up)


def _shaped_pair(system, rng, shape):
    s = random_word(system, rng, 8)
    if shape == "equal":
        v = _random_vertex(system, rng)
        return v, v
    if shape == "root path":
        q = _random_vertex(system, rng)
        return rng.choice(_reference_geodesic(u_vertex(empty_word(system)), q)), q
    if shape == "one factor":
        i = rng.randint(1, system.n)
        return tuple(c_vertex(i, random_word(system, rng, 4) * s) for _ in range(2))
    if shape == "meet at C":
        # letters x, y of one factor f, each followed by s: the root paths
        # part below C_f(s); with a single nontrivial letter (Z2) the meet
        # is the C endpoint C_f(s) itself
        f = rng.choice([i for i in range(1, system.n + 1) if i != s.leading_factor()])
        order = system.orders[f - 1]
        payloads = sorted(system.nontrivial_payloads(f)) if order else [-3, 2, 10**30]
        ends = []
        for payload in rng.sample(payloads, min(2, len(payloads))):
            head = random_word(system, rng, 3)
            if head.trailing_factor() == f:
                head = empty_word(system)
            ends.append(u_vertex(head * letter(system, (f, payload)) * s))
        if len(ends) == 1:
            ends.append(c_vertex(f, s))
        return tuple(ends)
    return _pair_with_shared_suffix(system, rng)


class TestGeodesicMatchesReference:
    SHAPES = ("random", "equal", "root path", "one factor", "meet at C")

    @pytest.mark.parametrize("fixture", ["triple_z2", "mixed_system", "s3_z2_z_z5"])
    def test_same_vertices_in_order(self, request, fixture):
        system = request.getfixturevalue(fixture)
        rng = random.Random(67)
        c_meets = interior_c_meets = 0
        for k in range(400):
            p, q = _shaped_pair(system, rng, self.SHAPES[k % len(self.SHAPES)])
            for a, b in ((p, q), (q, p)):
                path = geodesic(a, b)
                assert path == _reference_geodesic(a, b)
            top = min(path, key=_depth)
            c_meets += top.factor != 0
            interior_c_meets += top.factor != 0 and top not in (p, q)
        assert c_meets >= 80
        assert interior_c_meets >= (20 if fixture != "triple_z2" else 0)
