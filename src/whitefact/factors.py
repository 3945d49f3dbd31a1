"""Computable backends for the factor groups of a free product.

Three kinds of factor are supported: finite cyclic groups (additive
residues), arbitrary finite groups given by a Cayley table, and the
infinite cyclic group (integer addition).  Elements carry the 1-based
index of their factor, so cross-factor arithmetic is a type error
rather than a silent coercion.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import FactorMismatchError, OracleUnavailableError, UnprintableAnswerError


@dataclass(frozen=True)
class FactorElement:
    """Element of one factor: the payload meaning depends on the backend kind."""

    factor: int
    payload: int


@dataclass(frozen=True)
class FactorAutoPart:
    """One factor's component of a factor automorphism.

    The representation depends on the backend: a unit multiplier for a
    cyclic factor, an image tuple (permutation of element indices) for a
    table factor, and a sign for an infinite cyclic factor.
    """

    factor: int
    rep: object


class FactorBackend:
    """Interface shared by the three factor kinds."""

    kind: str

    def op(self, a: int, b: int) -> int:
        raise NotImplementedError

    def inv(self, a: int) -> int:
        raise NotImplementedError

    @property
    def identity_payload(self) -> int:
        return 0

    def is_finite(self) -> bool:
        raise NotImplementedError

    def order(self) -> int | None:
        raise NotImplementedError

    def payloads(self) -> Iterator[int]:
        raise NotImplementedError

    def generators(self) -> list[int]:
        """Payloads that generate the group."""
        raise NotImplementedError

    def normalize(self, payload: int) -> int:
        raise NotImplementedError

    def validate(self) -> str | None:
        """Return the first violated axiom, or None when all hold."""
        raise NotImplementedError

    def describe(self) -> tuple:
        raise NotImplementedError

    def element_name(self, payload: int) -> str:
        try:
            return str(payload)
        except ValueError as exc:  # past the int-string digit limit
            raise UnprintableAnswerError() from exc

    # -- automorphism representations ------------------------------------

    def identity_auto(self) -> object:
        raise NotImplementedError

    def auto_apply(self, rep: object, payload: int) -> int:
        raise NotImplementedError

    def auto_compose(self, first_applied_last: object, first_applied: object) -> object:
        """Representation of x -> f(g(x)) for reps f, g (g applied first)."""
        raise NotImplementedError

    def auto_invert(self, rep: object) -> object:
        raise NotImplementedError

    def auto_validate(self, rep: object) -> str | None:
        raise NotImplementedError

    def conjugation_rep(self, payload: int) -> object:
        """Representation of x -> a^-1 x a for a the given element."""
        raise NotImplementedError

    def automorphism_reps(self) -> list:
        raise NotImplementedError


class CyclicBackend(FactorBackend):
    """Z/m with additive payloads 0..m-1."""

    kind = "cyclic"

    def __init__(self, order: int):
        self._order = int(order)

    def op(self, a, b):
        return (a + b) % self._order

    def inv(self, a):
        return (-a) % self._order

    def is_finite(self):
        return True

    def order(self):
        return self._order

    def payloads(self):
        return iter(range(self._order))

    def generators(self):
        return [1]

    def normalize(self, payload):
        return int(payload) % self._order

    def validate(self):
        if self._order < 2:
            return f"cyclic order must be at least 2, got {self._order}"
        return None

    def describe(self):
        return ("cyclic", self._order)

    def identity_auto(self):
        return 1

    def auto_apply(self, rep, payload):
        return (rep * payload) % self._order

    def auto_compose(self, f, g):
        return (f * g) % self._order

    def auto_invert(self, rep):
        return pow(rep, -1, self._order)

    def auto_validate(self, rep):
        if not isinstance(rep, int) or not 1 <= rep < self._order:
            return f"multiplier {rep!r} out of range"
        if math.gcd(rep, self._order) != 1:
            return f"multiplier {rep} not coprime to {self._order}"
        return None

    def conjugation_rep(self, payload):
        return 1  # abelian

    def automorphism_reps(self):
        return [k for k in range(1, self._order) if math.gcd(k, self._order) == 1]


class IntBackend(FactorBackend):
    """Infinite cyclic group with arbitrary-precision integer payloads."""

    kind = "int"

    def op(self, a, b):
        return a + b

    def inv(self, a):
        return -a

    def is_finite(self):
        return False

    def order(self):
        return None

    def payloads(self):
        raise OracleUnavailableError("oracle requires finite factors")

    def generators(self):
        return [1]

    def normalize(self, payload):
        return int(payload)

    def validate(self):
        return None

    def describe(self):
        return ("int",)

    def identity_auto(self):
        return 1

    def auto_apply(self, rep, payload):
        return rep * payload

    def auto_compose(self, f, g):
        return f * g

    def auto_invert(self, rep):
        return rep

    def auto_validate(self, rep):
        if rep not in (1, -1):
            return f"sign {rep!r} is not an automorphism of the infinite cyclic group"
        return None

    def conjugation_rep(self, payload):
        return 1

    def automorphism_reps(self):
        return [1, -1]


MAX_TABLE_ORDER = 128
"""Largest Cayley table validate accepts: its associativity check is O(N^3),
0.2 s at N = 128 and 1.8 s at N = 256 (CPython 3.11, 2-vCPU shared host)."""


class TableBackend(FactorBackend):
    """Finite group given by an explicit Cayley table on indices 0..N-1."""

    kind = "table"

    def __init__(
        self,
        table: Sequence[Sequence[int]],
        identity: int = 0,
        names: Sequence[str] | None = None,
        inverse: Sequence[int] | None = None,
    ):
        self.table = tuple(tuple(int(x) for x in row) for row in table)
        self.size = len(self.table)
        self.identity = int(identity)
        self.names = tuple(names) if names is not None else tuple(
            f"x{i}" for i in range(self.size)
        )
        if inverse is not None:
            self.inverse = tuple(int(x) for x in inverse)
        else:
            self.inverse = tuple(self._derive_inverse(i) for i in range(self.size))

    def _derive_inverse(self, i: int) -> int:
        for j, value in enumerate(self.table[i]):
            if value == self.identity:
                return j
        return i  # flagged by validate()

    def op(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        return self.inverse[a]

    @property
    def identity_payload(self):
        return self.identity

    def is_finite(self):
        return True

    def order(self):
        return self.size

    def payloads(self):
        return iter(range(self.size))

    def generators(self):
        """Greedy: the least element not yet spanned, then close the span."""
        gens: list[int] = []
        span = {self.identity}
        for x in range(self.size):
            if x in span:
                continue
            gens.append(x)
            queue = list(span)
            while queue:
                a = queue.pop()
                for g in gens:
                    b = self.table[a][g]
                    if b not in span:
                        span.add(b)
                        queue.append(b)
        return gens

    def normalize(self, payload):
        payload = int(payload)
        if not 0 <= payload < self.size:
            raise ValueError(f"table index {payload} out of range 0..{self.size - 1}")
        return payload

    def validate(self):
        n = self.size
        if n < 2:
            return f"Cayley table needs at least 2 elements, got {n}"
        if n > MAX_TABLE_ORDER:
            return f"Cayley table of order {n} exceeds the limit of {MAX_TABLE_ORDER}"
        full = set(range(n))
        for i, row in enumerate(self.table):
            if len(row) != n:
                return f"row {i} has length {len(row)}, expected {n}"
            if set(row) != full:
                return "not a Latin square"
        for j in range(n):
            if {self.table[i][j] for i in range(n)} != full:
                return "not a Latin square"
        if not 0 <= self.identity < n:
            return f"identity index {self.identity} out of range"
        e = self.identity
        for i in range(n):
            if self.table[e][i] != i or self.table[i][e] != i:
                return "identity row/column are not identity maps"
        if len(self.inverse) != n or not all(0 <= x < n for x in self.inverse):
            return "inverse table malformed"
        for i in range(n):
            if self.inverse[self.inverse[i]] != i:
                return "inverse table inconsistent"
            if self.table[i][self.inverse[i]] != e or self.table[self.inverse[i]][i] != e:
                return "inverse table inconsistent"
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if self.table[self.table[a][b]][c] != self.table[a][self.table[b][c]]:
                        return "not associative"
        return None

    def describe(self):
        return ("table", self.identity, self.table)

    def element_name(self, payload):
        return self.names[payload]

    def identity_auto(self):
        return tuple(range(self.size))

    def auto_apply(self, rep, payload):
        return rep[payload]

    def auto_compose(self, f, g):
        return tuple(f[g[i]] for i in range(self.size))

    def auto_invert(self, rep):
        out = [0] * self.size
        for i, image in enumerate(rep):
            out[image] = i
        return tuple(out)

    def auto_validate(self, rep):
        if len(rep) != self.size or set(rep) != set(range(self.size)):
            return "automorphism map is not a permutation"
        if rep[self.identity] != self.identity:
            return "automorphism map moves the identity"
        for a in range(self.size):
            for b in range(self.size):
                if rep[self.table[a][b]] != self.table[rep[a]][rep[b]]:
                    return "map violates the homomorphism law"
        return None

    def conjugation_rep(self, payload):
        ia = self.inverse[payload]
        return tuple(self.table[self.table[ia][x]][payload] for x in range(self.size))

    def automorphism_reps(self):
        cached = getattr(self, "_auto_reps", None)
        if cached is not None:
            return list(cached)
        if self.size > 8:
            raise OracleUnavailableError(
                f"automorphism enumeration limited to order <= 8, got {self.size}"
            )
        others = [i for i in range(self.size) if i != self.identity]
        reps = []
        for images in itertools.permutations(others):
            rep = [0] * self.size
            rep[self.identity] = self.identity
            for src, img in zip(others, images):
                rep[src] = img
            rep = tuple(rep)
            if self.auto_validate(rep) is None:
                reps.append(rep)
        self._auto_reps = tuple(reps)
        return list(reps)


class FactorSystem:
    """Ordered tuple of factor backends; all engine values hang off one of these.

    Factors are addressed by 1-based index.  Two systems compare equal when
    their backend descriptions coincide, so values survive JSON round trips.
    """

    def __init__(self, backends: Iterable[FactorBackend]):
        self.backends = tuple(backends)
        if len(self.backends) < 3:
            raise ValueError("a factor system needs at least 3 factors")
        self.n = len(self.backends)
        self.signature = tuple(b.describe() for b in self.backends)
        self.identity_payloads = tuple(b.identity_payload for b in self.backends)
        self._hash = hash(self.signature)

    def __eq__(self, other):
        return isinstance(other, FactorSystem) and self.signature == other.signature

    def __hash__(self):
        return self._hash

    def __repr__(self):
        names = {"cyclic": "Z{}", "int": "Z", "table": "table{}"}
        groups = ", ".join(names[b.kind].format(b.order()) for b in self.backends)
        return f"FactorSystem({groups})"

    def factor(self, i: int) -> FactorBackend:
        if not 1 <= i <= self.n:
            raise FactorMismatchError(f"factor index {i} out of range 1..{self.n}")
        return self.backends[i - 1]

    @property
    def all_finite(self) -> bool:
        return all(b.is_finite() for b in self.backends)

    # -- element arithmetic ----------------------------------------------

    def element(self, i: int, payload: int) -> FactorElement:
        return FactorElement(i, self.factor(i).normalize(payload))

    def identity(self, i: int) -> FactorElement:
        return FactorElement(i, self.factor(i).identity_payload)

    def is_identity(self, x: FactorElement) -> bool:
        return x.payload == self.factor(x.factor).identity_payload

    def mul(self, a: FactorElement, b: FactorElement) -> FactorElement:
        if a.factor != b.factor:
            raise FactorMismatchError(
                f"cross-factor product: factors {a.factor} and {b.factor}"
            )
        return FactorElement(a.factor, self.factor(a.factor).op(a.payload, b.payload))

    def inverse(self, a: FactorElement) -> FactorElement:
        return FactorElement(a.factor, self.factor(a.factor).inv(a.payload))

    def nontrivial_payloads(self, i: int) -> list[int]:
        backend = self.factor(i)
        return [p for p in backend.payloads() if p != backend.identity_payload]

    # -- factor automorphism parts ----------------------------------------

    def part_identity(self, i: int) -> FactorAutoPart:
        return FactorAutoPart(i, self.factor(i).identity_auto())

    def part_is_identity(self, part: FactorAutoPart) -> bool:
        return part.rep == self.factor(part.factor).identity_auto()

    def part_apply(self, part: FactorAutoPart, x: FactorElement) -> FactorElement:
        if part.factor != x.factor:
            raise FactorMismatchError(
                f"automorphism part for factor {part.factor} applied to factor {x.factor}"
            )
        backend = self.factor(x.factor)
        return FactorElement(x.factor, backend.auto_apply(part.rep, x.payload))

    def part_compose(self, f: FactorAutoPart, g: FactorAutoPart) -> FactorAutoPart:
        """Part of x -> f(g(x)); g is applied first."""
        if f.factor != g.factor:
            raise FactorMismatchError("composing parts of different factors")
        backend = self.factor(f.factor)
        return FactorAutoPart(f.factor, backend.auto_compose(f.rep, g.rep))

    def part_invert(self, part: FactorAutoPart) -> FactorAutoPart:
        backend = self.factor(part.factor)
        return FactorAutoPart(part.factor, backend.auto_invert(part.rep))

    def part_validate(self, part: FactorAutoPart) -> str | None:
        return self.factor(part.factor).auto_validate(part.rep)

    def conjugation_part(self, a: FactorElement) -> FactorAutoPart:
        backend = self.factor(a.factor)
        return FactorAutoPart(a.factor, backend.conjugation_rep(a.payload))

    # -- validation ---------------------------------------------------------

    def validate(self) -> list[str]:
        reports = []
        for i, backend in enumerate(self.backends, start=1):
            message = backend.validate()
            if message is not None:
                reports.append(f"factor {i}: {message}")
        return reports
