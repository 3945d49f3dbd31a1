"""Computable backends for the factor groups of a free product.

Three kinds of factor are supported: finite cyclic groups (additive
residues), arbitrary finite groups given by a Cayley table, and the
infinite cyclic group (integer addition).  Elements carry the 1-based
index of their factor, so cross-factor arithmetic is a type error
rather than a silent coercion; a bool is no factor index, and payloads and
part reps are ints, as the wire prints them.  Each backend says once
whether it is abelian (a table: when it equals its transpose), and
FactorSystem keeps the flags, next to orders, for autos to skip the part
arithmetic of conjugation, the identity in an abelian factor.  A
FactorSystem is valid or cannot be built: its constructor validates every
backend, so every factor is a group of two or more elements.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

from .errors import FactorMismatchError, OracleUnavailableError, UnprintableAnswerError, clip, echo


class FactorElement(NamedTuple):
    """Element of one factor: the payload meaning depends on the backend kind.
    The public constructor of a syllable, equal to and hashing like the
    plain tuple (factor, payload) that the engine builds (see words)."""

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


def _is_int(x) -> bool:
    """An int, an IntEnum member too, but no bool."""
    return type(x) is int or (isinstance(x, int) and not isinstance(x, bool))


def _integer(value, name: str = "payload") -> int:
    """The plain int of an integer value; ValueError names any other."""
    if not _is_int(value):
        raise ValueError(f"{name} {echo(value)} must be an integer")
    return int(value)


class FactorBackend:
    """Interface of the three factor kinds.  Each defines op(a, b), inv(a),
    order() (None if infinite), generators(), normalize(payload), validate()
    (the first violated axiom or None), describe(), and on automorphism reps
    identity_auto(), auto_apply(rep, payload), auto_compose(f, g)
    (x -> f(g(x))), auto_invert(rep), auto_validate(rep), conjugation_rep(a)
    (x -> a^-1 x a), automorphism_reps() and the flag abelian.  The base
    derives is_finite() and payloads() from order(); identity_payload 0 and
    element_name str are defaults a kind may override."""

    kind: str

    @property
    def identity_payload(self) -> int:
        return 0

    def is_finite(self) -> bool:
        return self.order() is not None

    def payloads(self) -> range:
        order = self.order()
        if order is None:
            raise OracleUnavailableError("oracle requires finite factors")
        return range(order)

    def element_name(self, payload: int) -> str:
        try:
            return str(payload)
        except ValueError as exc:  # past the int-string digit limit
            raise UnprintableAnswerError() from exc


class CyclicBackend(FactorBackend):
    """Z/m with additive payloads 0..m-1."""

    kind = "cyclic"
    abelian = True

    def __init__(self, order: int):
        self._order = _integer(order, "cyclic order")

    def op(self, a, b):
        return (a + b) % self._order

    def inv(self, a):
        return (-a) % self._order

    def order(self):
        return self._order

    def generators(self):
        return [1]

    def normalize(self, payload):
        return _integer(payload) % self._order

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
        if not _is_int(rep):
            return f"multiplier {echo(rep)} is not an integer"
        if not 1 <= rep < self._order:
            return f"multiplier {echo(rep)} out of range"
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
    abelian = True

    def op(self, a, b):
        return a + b

    def inv(self, a):
        return -a

    def order(self):
        return None

    def generators(self):
        return [1]

    def normalize(self, payload):
        return _integer(payload)

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
        if not _is_int(rep) or rep not in (1, -1):
            return f"sign {echo(rep)} is not an automorphism of the infinite cyclic group"
        return None

    def conjugation_rep(self, payload):
        return 1

    def automorphism_reps(self):
        return [1, -1]


class TableBackend(FactorBackend):
    """Finite group given by an explicit Cayley table on indices 0..N-1."""

    kind = "table"

    def __init__(
        self,
        table: Sequence[Sequence[int]],
        identity: int = 0,
        names: Sequence[str] | None = None,
    ):
        self.table = tuple(tuple(_integer(x, "table entry") for x in row) for row in table)
        self.size = len(self.table)
        self.identity = _integer(identity, "table identity")
        self.names = tuple(names) if names is not None else tuple(
            f"x{i}" for i in range(self.size)
        )
        self.inverse = tuple(self._derive_inverse(i) for i in range(self.size))
        self.abelian = all(row == column for row, column in zip(self.table, zip(*self.table)))

    def _derive_inverse(self, i: int) -> int:
        """The right inverse from row i; in a group it is two-sided."""
        for j, value in enumerate(self.table[i]):
            if value == self.identity:
                return j
        return i  # validate()'s Latin-square or identity check rejects the table

    def op(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        return self.inverse[a]

    @property
    def identity_payload(self):
        return self.identity

    def order(self):
        return self.size

    def generators(self):
        return list(self._generators)

    @cached_property
    def _generators(self) -> tuple[int, ...]:
        return tuple(self._greedy_generators())

    def _greedy_generators(self):
        """Greedy: the least element not yet spanned, yielded before the
        span is closed with it, so validate can check it first."""
        gens: list[int] = []
        span = {self.identity}
        for x in range(self.size):
            if x in span:
                continue
            yield x
            gens.append(x)
            queue = list(span)
            while queue:
                a = queue.pop()
                for g in gens:
                    b = self.table[a][g]
                    if b not in span:
                        span.add(b)
                        queue.append(b)

    def normalize(self, payload):
        payload = _integer(payload)
        if not 0 <= payload < self.size:
            raise ValueError(f"table index {clip(str(payload))} out of range 0..{self.size - 1}")
        return payload

    def validate(self):
        """The first violated axiom, or None.  Associativity is Light's test
        on the greedy generators: (a.b).g = a.(b.g) for all a, b, which is
        N^2 lookups per g.  It suffices, because the right nucleus
        {c : (ab)c = a(bc) for all a, b} is closed under products:
        (ab)(cd) = ((ab)c)d = (a(bc))d = a((bc)d) = a(b(cd)).  So the span of
        checked generators lies in the nucleus, is closed under products,
        and is a subgroup; once it is the whole table, the table is
        associative.  Each g is checked before the span is closed with it,
        and lies outside the span, so each passing g at least doubles a
        subgroup: at most log2 N + 1 checks run, and any table validates in
        O(N^2 log N) whatever it holds."""
        n = self.size
        if n < 2:
            return f"Cayley table needs at least 2 elements, got {n}"
        names = self.names
        if len(names) != n or not all(isinstance(x, str) for x in names) or len(set(names)) != n:
            return "elements must be distinct strings, one per table row"
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
        for g in self._greedy_generators():
            column = [row[g] for row in self.table]  # b -> b.g
            for row in self.table:  # (a.b).g against a.(b.g), for every b
                if [column[b] for b in row] != [row[b] for b in column]:
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
        """The law rep(a.g) = rep(a).rep(g) is checked on generators g only.
        With rep(e) = e it holds on all pairs, by induction on b as a product
        of generators, if the table is associative: validate checks that."""
        if type(rep) is not tuple or not all(map(_is_int, rep)):
            return "automorphism map must be a tuple of integers"
        if len(rep) != self.size or set(rep) != set(range(self.size)):
            return "automorphism map is not a permutation"
        if rep[self.identity] != self.identity:
            return "automorphism map moves the identity"
        table = self.table
        for g in self._generators:
            image = rep[g]
            for a, row in enumerate(table):
                if rep[row[g]] != table[rep[a]][image]:
                    return "map violates the homomorphism law"
        return None

    def conjugation_rep(self, payload):
        ia = self.inverse[payload]
        return tuple(self.table[self.table[ia][x]][payload] for x in range(self.size))

    def automorphism_reps(self):
        return list(self._automorphism_reps)

    @cached_property
    def _automorphism_reps(self) -> tuple[tuple[int, ...], ...]:
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
        return tuple(reps)


LETTER_MEMO_CAP = 65_536
"""Letters a letter memo keeps: FactorSystem.inverses, letter_of_text and
part_of_rep, and jsonio's letter texts.  Past it a memo computes without
storing, so Z payloads and large cyclic orders cannot grow it without bound."""


class _LetterMemo(dict):
    """letter -> compute(letter), stored for the first LETTER_MEMO_CAP
    letters.  A hit is one dict lookup; an error of compute propagates and
    stores nothing."""

    def __init__(self, compute):
        super().__init__()
        self.compute = compute

    def __missing__(self, letter):
        value = self.compute(letter)
        if len(self) < LETTER_MEMO_CAP:
            self[letter] = value
        return value


class FactorSystem:
    """Ordered tuple of factor backends; all engine values hang off one of these.

    Factors are addressed by 1-based index.  Two systems compare equal when
    their backend descriptions coincide, so values survive JSON round trips.
    Fewer than 3 factors raise ValueError, and so do faulty backends, with
    every fault as "factor k: <validate's report>" joined by "; ".
    """

    def __init__(self, backends: Iterable[FactorBackend]):
        self.backends = tuple(backends)
        if len(self.backends) < 3:
            raise ValueError("a factor system needs at least 3 factors")
        faults = [(i, b.validate()) for i, b in enumerate(self.backends, start=1)]
        reports = [f"factor {i}: {message}" for i, message in faults if message is not None]
        if reports:
            raise ValueError("; ".join(reports))
        self.n = len(self.backends)
        self.signature = tuple(b.describe() for b in self.backends)
        self.identity_payloads = tuple(b.identity_payload for b in self.backends)
        self.orders = tuple(b.order() for b in self.backends)
        self.abelian = tuple(b.abelian for b in self.backends)
        self._hash = hash(self.signature)
        self.inverses = _LetterMemo(self._inverse_of)  # read by Word.inverse and right_divide
        self.letter_of_text = {}  # "f,p" -> (f, p), filled by jsonio's name decoder
        self.part_of_rep = _LetterMemo(self._checked_part)  # read by jsonio's part decoder

    def __eq__(self, other):
        return isinstance(other, FactorSystem) and self.signature == other.signature

    def __hash__(self):
        return self._hash

    def __repr__(self):
        names = {"cyclic": "Z{}", "int": "Z", "table": "table{}"}
        groups = ", ".join(names[b.kind].format(b.order()) for b in self.backends)
        return f"FactorSystem({groups})"

    def factor(self, i: int) -> FactorBackend:
        """The backend of factor i, an int (an IntEnum member too) in 1..n.
        The fast path is a range test and `is not True`: a str fails the
        comparison and a float the tuple index, and the slow branch names
        each.  Measured: a leading `type(i) is not int` test cost about
        10 ns a call more, on a call of about 100 ns."""
        try:
            if 1 <= i <= self.n and i is not True:
                return self.backends[i - 1]
        except TypeError:
            pass
        if isinstance(i, bool):
            raise FactorMismatchError(f"factor index {i} is a bool, not an integer")
        if not isinstance(i, int):
            raise FactorMismatchError(f"factor index {echo(i)} is not an integer")
        raise FactorMismatchError(f"factor index {clip(f'{i}')} out of range 1..{self.n}")

    @property
    def all_finite(self) -> bool:
        return None not in self.orders

    # -- element arithmetic ----------------------------------------------

    def element(self, i: int, payload: int) -> tuple[int, int]:
        return (i, self.factor(i).normalize(payload))

    def is_identity(self, x: tuple[int, int]) -> bool:
        f, p = x
        return p == self.factor(f).identity_payload

    def mul(self, a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
        (f, p), (g, q) = a, b
        if f != g:
            raise FactorMismatchError(f"cross-factor product: factors {f} and {g}")
        return (f, self.factor(f).op(p, q))

    def inverse(self, a: tuple[int, int]) -> tuple[int, int]:
        return self.inverses[a]

    def _inverse_of(self, letter: tuple[int, int]) -> tuple[int, int]:
        """Its exact-tuple inverse; a bad factor index raises FactorMismatchError."""
        f, p = letter
        return (f, self.factor(f).inv(p))

    def nontrivial_payloads(self, i: int) -> list[int]:
        backend = self.factor(i)
        return [p for p in backend.payloads() if p != backend.identity_payload]

    # -- factor automorphism parts ----------------------------------------

    def part_identity(self, i: int) -> FactorAutoPart:
        return FactorAutoPart(i, self.factor(i).identity_auto())

    def part_is_identity(self, part: FactorAutoPart) -> bool:
        return part.rep == self.factor(part.factor).identity_auto()

    def part_apply(self, part: FactorAutoPart, x: tuple[int, int]) -> tuple[int, int]:
        f, p = x
        if part.factor != f:
            raise FactorMismatchError(
                f"automorphism part for factor {part.factor} applied to factor {f}"
            )
        return (f, self.factor(f).auto_apply(part.rep, p))

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

    def _checked_part(self, key) -> FactorAutoPart:
        """FactorAutoPart(*key), or ValueError with auto_validate's message."""
        message = self.backends[key[0] - 1].auto_validate(key[1])
        if message is not None:
            raise ValueError(message)
        return FactorAutoPart(*key)

    def conjugation_part(self, a: tuple[int, int]) -> FactorAutoPart:
        f, p = a
        return FactorAutoPart(f, self.factor(f).conjugation_rep(p))
