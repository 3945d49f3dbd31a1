"""The Bass-Serre tree of the base splitting: coset vertices and geodesics.

A vertex is a factor index and a reduced word: factor 0 names the
U-vertex U.g, the trivial-stabilizer coset of g, whose neighbours are the n
coset vertices G_i.g; factor i >= 1 names the C-vertex G_i.g.  A
C-vertex's canonical representative has no leading G_i syllable, which
pins the right coset G_i.g uniquely.  The kind of a vertex is its factor
alone, so no value can name a U-vertex with a factor or the reverse.

Geodesics are read off the canonical reps (never by search).  Root the
tree at U(1): the path from U(1) to U(s_1 ... s_k) visits U of every suffix
of the rep, each pair joined by the C-vertex of the syllable in between,
so U(r) sits at depth 2|r| and C_i(r) one step past U(r), at depth 2|r|+1.
Every vertex on the path between p and q therefore has a suffix of p's or
q's rep as its rep: the path runs down p's root path to where the two root
paths meet and up q's root path from there.  The meet lies at depth 2t for
a common rep suffix of t syllables, plus one when the next syllables on
both sides lie in the same factor (a used-up C endpoint's next syllable is
its own factor).  A path builds one Word per suffix, shared by U(r) and
C_i(r), so it costs time linear in its length.  The exponential BFS oracle
below exists to validate that arithmetic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import OracleUnavailableError
from .words import Word, _same_system, normal_form, split_own_head


@dataclass(frozen=True)
class TreeVertex:
    factor: int  # 0 for U-vertices
    rep: Word

    def __str__(self) -> str:
        return f"C{self.factor}({self.rep})" if self.factor else f"U({self.rep})"


def u_vertex(rep: Word) -> TreeVertex:
    return TreeVertex(0, rep)


def c_vertex(factor: int, rep: Word) -> TreeVertex:
    """Canonical coset vertex: a leading syllable of the own factor is absorbed."""
    rep.system.factor(factor)
    return TreeVertex(factor, split_own_head(rep, factor)[1])


def act_vertex(v: TreeVertex, g: Word) -> TreeVertex:
    """Right action by g; the result is canonical."""
    moved = v.rep * g
    return c_vertex(v.factor, moved) if v.factor else u_vertex(moved)


def _depth(v: TreeVertex) -> int:
    """Distance from the root U(1): 2|r| for U(r), 2|r|+1 for C_i(r)."""
    return 2 * len(v.rep.syllables) + (v.factor != 0)


def _meet(p: TreeVertex, q: TreeVertex) -> int:
    """Depth of the deepest vertex shared by the root paths of p and q."""
    _same_system(p.rep.system, q.rep.system, "vertices belong to different factor systems")
    a, b = p.rep.syllables, q.rep.syllables
    t = 0
    while t < min(len(a), len(b)) and a[-t - 1] == b[-t - 1]:
        t += 1
    # Factor of the next C-vertex on each root path past the common suffix;
    # a used-up rep continues with the vertex's own factor (0: none for U).
    f = a[-t - 1][0] if t < len(a) else p.factor
    g = b[-t - 1][0] if t < len(b) else q.factor
    return 2 * t + (f != 0 and f == g)


def _root_path(v: TreeVertex, start: int) -> list[TreeVertex]:
    """v's root-path vertices at depths start..depth(v) - 1, one Word per suffix."""
    rep, syllables = v.rep, v.rep.syllables
    k, path = len(syllables), []
    for d in range(start, _depth(v)):
        j = d >> 1
        if d == start or not d & 1:
            suffix = rep if j == k else Word(rep.system, syllables[k - j:])
        path.append(TreeVertex(syllables[-j - 1][0] if d & 1 else 0, suffix))
    return path


def distance(p: TreeVertex, q: TreeVertex) -> int:
    """Tree distance: both root-path depths minus twice the depth of their meet."""
    return _depth(p) + _depth(q) - 2 * _meet(p, q)


def geodesic(p: TreeVertex, q: TreeVertex) -> tuple[TreeVertex, ...]:
    """The unique path from p to q, both endpoints included.

    It runs down p's root path to the meet, then up q's root path.
    """
    m = _meet(p, q)
    down = [p, *reversed(_root_path(p, m))]
    up = [*_root_path(q, m + 1), q] if m < _depth(q) else []
    return tuple(down + up)


@dataclass(frozen=True)
class Ball:
    """Induced subgraph on the metric ball around a center vertex."""

    center: TreeVertex
    radius: int
    vertices: tuple[TreeVertex, ...]
    adjacency: dict[TreeVertex, tuple[TreeVertex, ...]]


def _vertex_sort_key(v: TreeVertex):
    syllables = v.rep.syllables
    # C-vertices first, by factor, then U-vertices
    return (v.factor == 0, v.factor, len(syllables), syllables)


def neighbors(v: TreeVertex) -> list[TreeVertex]:
    """Immediate neighbours: U.g touches every G_i.g; G_i.g touches U.(h g)."""
    system = v.rep.system
    if not v.factor:
        return [c_vertex(i, v.rep) for i in range(1, system.n + 1)]
    syllables, payloads = v.rep.syllables, system.factor(v.factor).payloads()
    return [u_vertex(normal_form(system, ((v.factor, p),) + syllables)) for p in payloads]


def bfs_ball(center: TreeVertex, radius: int) -> Ball:
    """Exact metric ball with induced adjacency; requires finite factors."""
    system = center.rep.system
    if not system.all_finite:
        raise OracleUnavailableError("oracle requires finite factors")
    if radius < 0:
        raise ValueError("radius must be non-negative")
    depth = {center: 0}
    queue = deque([center])
    while queue:
        v = queue.popleft()
        if depth[v] == radius:
            continue
        for w in neighbors(v):
            if w not in depth:
                depth[w] = depth[v] + 1
                queue.append(w)
    vertices = tuple(sorted(depth, key=_vertex_sort_key))
    inside = set(vertices)
    adjacency = {
        v: tuple(sorted((w for w in neighbors(v) if w in inside), key=_vertex_sort_key))
        for v in vertices
    }
    return Ball(center, radius, vertices, adjacency)


def ball_distances(ball: Ball, source: TreeVertex) -> dict[TreeVertex, int]:
    """BFS distances inside the ball; inside a tree these are exact."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in ball.adjacency[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist
