"""Pure symmetric automorphisms and their Whitehead factorization.

A pure symmetric automorphism is stored by parts: for each factor k an
automorphism phi_k of G_k and a conjugator word g_k, with
psi(x) = g_k^-1 phi_k(x) g_k for x in G_k.

Composition convention, fixed globally: compose(f, g) applies g first,
i.e. compose(f, g).apply(w) == f.apply(g.apply(w)).  A Factorization with
whitehead list [W1, ..., WK], factor parts F and inner word h represents
psi = W1 o W2 o ... o WK o F o (conjugation by h) under the same
convention: the inner conjugation acts first, WK next, W1 last.

Left-composing with a move (Y, x) is one rule, the kernel _push_moves:
slot k of (Y, x) o psi is [x if k in Y] . (Y, x)(g_k), and every part
stays.  It runs one loop over a list of moves, each a pair (moved,
element), sets up each move's letters once, and forms each normal form in
one pass over a slot's syllables.  It is the only code that applies a
move: in _recomposed_slots, _inverted_slots and factorize's push of the
inner word, which rides alone as slot n + 1 and so never leads.
WhiteheadAuto is built only at the API edge, and its contract,
_check_move, is one test that runs once per move: in the constructor, or
in whitehead_auto, which then builds through the unchecked _move, as
factorize does for the pairs _read_walk reads off a walk (reduction
proves them well formed) and jsonio for canonical wire moves.

Every image of a word under psi is one rule, words._image: apply runs it
with an empty head, compose and labellings.act_on_label with the outer
automorphism's own conjugator as the head.

Every split is _split_slots at a divisor d: inner-by-d^-1 o psi has the
conjugators g_k . d^-1, and each one's stripped G_k head b_k joins the
factor part as conj(b_k) o phi_k, the identity in an abelian factor.  d is
1 for the canonical split, x for factorize's basepoint, the star pin's
divisor for the base-class stabilizer, and g_i for the apex one.
Every factor is nontrivial, since a FactorSystem cannot hold a trivial
one, so each G_k is its own normalizer and each split is one value.

factorize walks from a least-volume basepoint U(x), a median of the spoke
ends (_basepoint), and the inner part absorbs the translation; the walk is
reduction._walk on the split slots from volume n + 2 sum |g_k|, with no
memo and no StarLabel.  The base class is the class of least volume n,
where x is the star pin's witness, the one common neighbour of the spoke
ends.  verify pushes the inner word once: a move is a homomorphism,
(Y, x)(s . c) = (Y, x)(s) . (Y, x)(c), so _recomposed_slots pushes the
moves onto F(h) alone and joins each slot.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FactorMismatchError, NotAStabilizerError
from .factors import FactorAutoPart, FactorSystem
from .labellings import _slot_syllables, _star_pin, _translate
from .reduction import _walk
from .words import (
    Word,
    _image,
    _join,
    _normal_form,
    _same_system,
    _syllables_in,
    empty_word,
    letter,
    right_divide,
)


@dataclass(frozen=True)
class PureSymmetricAuto:
    system: FactorSystem
    parts: tuple[tuple[FactorAutoPart, Word], ...]

    def phi(self, k: int) -> FactorAutoPart:
        return self.parts[k - 1][0]

    def conjugator(self, k: int) -> Word:
        return self.parts[k - 1][1]

    def apply(self, w: Word) -> Word:
        """Homomorphic image in normal form."""
        system = self.system
        for value in (w, *(conj for _, conj in self.parts)):
            _same_system(system, value.system, "word from a different factor system")
        return Word(system, _image(system, self.parts, (), w.syllables))


def pure_auto(system: FactorSystem, parts) -> PureSymmetricAuto:
    """The checked way in: one automorphism part per factor, in order
    (ValueError "part k: ..." otherwise), and conjugators over system."""
    packed = []
    for k, (part, conj) in enumerate(parts, start=1):
        if part.factor != k:
            raise FactorMismatchError(f"part for factor {part.factor} placed in slot {k}")
        _same_system(system, conj.system, "conjugator from a different factor system")
        packed.append((part, conj))
    if len(packed) != system.n:
        raise ValueError(f"expected {system.n} parts, got {len(packed)}")
    for k, (part, _) in enumerate(packed, start=1):
        message = system.part_validate(part)
        if message is not None:
            raise ValueError(f"part {k}: {message}")
    return PureSymmetricAuto(system, tuple(packed))


def identity_auto(system: FactorSystem) -> PureSymmetricAuto:
    return inner_auto(system, empty_word(system))


def inner_auto(system: FactorSystem, h: Word) -> PureSymmetricAuto:
    _same_system(system, h.system, "conjugator from a different factor system")
    parts = tuple((system.part_identity(k), h) for k in range(1, system.n + 1))
    return PureSymmetricAuto(system, parts)


def factor_only_auto(system: FactorSystem, parts) -> PureSymmetricAuto:
    eps = empty_word(system)
    return pure_auto(system, [(part, eps) for part in parts])


def tuple_auto(system: FactorSystem, words) -> PureSymmetricAuto:
    return pure_auto(system, [(system.part_identity(k), w) for k, w in enumerate(words, start=1)])


@dataclass(frozen=True)
class WhiteheadAuto:
    """(Y, x): conjugate the factors in Y by x, fix everything else.

    The operating factor is the factor of x; it is fixed pointwise.  Y must
    be nonempty and x nontrivial, otherwise the value would collapse to the
    identity and outer classes would lose their unique representatives.  Y
    must be strictly increasing within 1..n and x normalized, so that one
    move has one value, and the operating factor must lie outside Y.
    Construction raises ValueError, or FactorMismatchError naming the least
    index out of range, or a bool index.
    """

    system: FactorSystem
    moved: tuple[int, ...]
    element: tuple[int, int]

    def __post_init__(self):
        _check_move(self.system, self.moved, self.element)

    @property
    def operating(self) -> int:
        return self.element[0]


def _check_move(system: FactorSystem, moved, element) -> None:
    """WhiteheadAuto's contract, one test for every caller.  _push_moves'
    one-pass normal form needs x nontrivial, normalized and outside Y."""
    if not moved:
        raise ValueError("a Whitehead automorphism needs a nonempty moved set")
    last = 0
    for j in moved:  # one pass when 0 < Y_1 < ... < Y_k <= n, the common case
        if not last < j <= system.n or j is True:
            if list(moved) != sorted(set(moved)):
                raise ValueError("a Whitehead automorphism's moved set must be strictly increasing")
            for bad in moved:
                system.factor(bad)  # Y increases, so this raises on the least bad index
        last = j
    i, payload = element
    backend = system.factor(i)
    if payload == backend.identity_payload:
        raise ValueError("a Whitehead automorphism needs a nontrivial element")
    if backend.normalize(payload) != payload:
        raise ValueError(f"Whitehead element in factor {i} is not normalized")
    if i in moved:
        raise ValueError(f"operating factor {i} cannot belong to the moved set")


def _move(system: FactorSystem, moved, element) -> WhiteheadAuto:
    """The WhiteheadAuto of a move whose contract is settled: no __post_init__."""
    w = object.__new__(WhiteheadAuto)
    w.__dict__.update(system=system, moved=moved, element=element)
    return w


def whitehead_auto(system: FactorSystem, moved, element: tuple[int, int]) -> WhiteheadAuto:
    moved, element = tuple(sorted(set(moved))), system.element(*element)
    _check_move(system, moved, element)
    return _move(system, moved, element)


def whitehead_to_auto(w: WhiteheadAuto) -> PureSymmetricAuto:
    system, x, eps = w.system, letter(w.system, w.element), empty_word(w.system)
    parts = [(system.part_identity(k), x if k in w.moved else eps) for k in range(1, system.n + 1)]
    return PureSymmetricAuto(system, tuple(parts))


def compose(f: PureSymmetricAuto, g: PureSymmetricAuto) -> PureSymmetricAuto:
    """g first, then f: compose(f, g).apply(w) == f.apply(g.apply(w))."""
    system = f.system
    _same_system(system, g.system, "automorphisms over different factor systems")
    parts = []
    for (phi_f, conj_f), (phi_g, conj_g) in zip(f.parts, g.parts):
        # the checks, and messages, of f.conjugator(k) * f.apply(g.conjugator(k))
        _same_system(system, conj_g.system, "word from a different factor system")
        conj = _image(system, f.parts, _syllables_in(system, conj_f), conj_g.syllables)
        parts.append((system.part_compose(phi_f, phi_g), Word(system, conj)))
    return PureSymmetricAuto(system, tuple(parts))


def _split_slots(system: FactorSystem, phis, slots, d: tuple = ()):
    """(r, parts) with tuple_auto(r) o factor_only(parts) = inner-by-d^-1 o
    psi, for psi with parts phis and conjugator syllables slots: g_k . d^-1
    = b_k . r_k (labellings._translate), and r_k^-1 b_k^-1 phi_k(x) b_k r_k
    puts conj(b_k) o phi_k on the coset-canonical slot r_k."""
    abelian, translates = system.abelian, _translate(system, slots, d)
    parts = tuple(
        p if b is None or abelian[b[0] - 1] else system.part_compose(system.conjugation_part(b), p)
        for (b, _), p in zip(translates, phis)
    )
    return tuple(r for _, r in translates), parts


def _split_canonical(psi: PureSymmetricAuto):
    """_split_slots of psi, its conjugators checked against its system."""
    system = psi.system
    phis, conjugators = zip(*psi.parts)
    return _split_slots(system, phis, _slot_syllables(system, conjugators))


@dataclass(frozen=True)
class Factorization:
    whitehead: tuple[WhiteheadAuto, ...]
    factor: tuple[FactorAutoPart, ...]
    inner: Word


def _apply_parts(system: FactorSystem, parts, syllables: tuple) -> tuple:
    """The image of a word's syllables under the factor parts, as syllables."""
    return _normal_form(system, [system.part_apply(parts[s[0] - 1], s) for s in syllables])


def _basepoint(slots) -> tuple:
    """The rep x of the least-volume U-vertex for the slot syllables g_k (a
    leading G_k syllable dropped), the nearest the root U(1) on a tie.

    volume(L, x) = sum_k d(U(x), C_k(g_k)) is convex along every path of
    the tree, and crossing an edge changes it by n - 2m, m the ends beyond
    it.  Below U(r) lie the ends of the slots with suffix r; below C_f(r)
    those whose syllable before r lies in G_f, and slot f's if g_f = r.
    Descending while a strict majority lies below the next edge lowers the
    volume at each step, and stops at a vertex v no neighbour undercuts.
    The ends below U(r) are a run of the sorted reversed slots, so the
    deepest U(r) with a strict majority below has r the longest common
    suffix of n//2 + 1 adjacent slots.  If C_f(r) holds m > n/2 ends, v is
    C_f(r); every path from v to a U-vertex starts at a U-neighbour of v,
    so by convexity the least U-vertex is the parent U(r), 2m - n above v,
    or a child U(s r), n - 2m_s above v.  The child with most ends (the
    least s on a tie) wins only when strictly lower, m + m_s > n, which
    fails when every m <= n/2 and v is U(r).  Each step strictly lowers
    the volume, so x = () exactly when the root is least.
    """
    n = len(slots)
    ends = sorted((g[:0:-1] if g and g[0][0] == k else g[::-1], k) for k, g in enumerate(slots, 1))
    t, tail = 0, ()
    for (a, _), (b, _) in zip(ends, ends[n // 2 :]):
        m = 0
        while m < len(a) and m < len(b) and a[m] == b[m]:
            m += 1
        if m > t:
            t, tail = m, a[:m]
    into: dict = {}  # the ends below each C_f(r), by f
    for a, k in ends:
        if a[:t] == tail:
            into.setdefault(a[t][0] if len(a) > t else k, []).append(a)
    below = max(into.values(), key=len)
    children: dict = {}  # the ends below each U(s r), by s
    for a in below:
        if len(a) > t:
            children[a[t]] = children.get(a[t], 0) + 1
    s, m = max(children.items(), key=lambda item: item[1], default=(None, 0))
    x = tail[::-1]
    return (s,) + x if len(below) + m > n else x


def factorize(psi: PureSymmetricAuto) -> Factorization:
    """Express psi as Whitehead moves, a factor automorphism, and an inner:
    psi = inner-by-x o psi' for the least-volume basepoint U(x), psi' = W o
    F read off the walk of psi's translate, and psi = W o F o inner-by-h
    with h = F^-1(W^-1(x)), since inner-by-x o a = a o inner-by-a^-1(x):
    W^-1 pushed onto x alone, then the inverse of each part h meets."""
    system = psi.system
    phis, conjugators = zip(*psi.parts)
    slots = _slot_syllables(system, conjugators)
    x = _basepoint(slots)
    slots, parts0 = _split_slots(system, phis, slots, x)
    _, moves = _walk(system, slots, system.n + 2 * sum(map(len, slots)), None)
    pairs, parts = _read_walk(system, moves, parts0)
    h = x
    if h:
        inverse_pairs = [(moved, system.inverses[element]) for moved, element in pairs]
        (h,) = _push_moves(system, inverse_pairs, (h,), system.n + 1)
        backends = system.backends
        inverse = {f: backends[f - 1].auto_invert(parts[f - 1].rep) for f in {s[0] for s in h}}
        h = _normal_form(system, [(f, backends[f - 1].auto_apply(inverse[f], p)) for f, p in h])
    return Factorization(tuple(_move(system, *p) for p in pairs), parts, Word(system, h))


def _read_walk(system: FactorSystem, moves, parts0):
    """The moves as pairs (moved, element) and the factor parts read, in
    reverse, off the reduction walk (moves) of a canonical split with parts0.

    A fold move (i, Y, a) rewrites the tuple automorphism as the new tuple's,
    composed with conjugation of each G_k, k in Y, by its shed syllable b_k
    if any, composed with (Y, a^-1).  Conjugation of G_k by its own b_k is
    inner in G_k, so it joins factor k's correction, not the Whitehead list;
    moving the corrections right past the moves maps each move's element
    through the correction of its operating factor i.  i is not in Y, so
    the sheds of a move's own slots leave that correction alone.  A factor
    that never sheds, or is abelian, has no correction (None), and its part
    stays as is.
    """
    abelian = system.abelian
    correction = [None] * system.n
    pairs = []
    for i, moved, element, _, _, sheds in reversed(moves):
        for k, shed in zip(moved, sheds):
            if shed is not None and not abelian[k - 1]:
                c = system.conjugation_part(shed)
                prior = correction[k - 1]
                correction[k - 1] = c if prior is None else system.part_compose(prior, c)
        x = system.inverses[element]
        if correction[i - 1] is not None:
            x = system.part_apply(correction[i - 1], x)
        pairs.append((moved, x))
    factor_parts = tuple(
        part if c is None else system.part_compose(c, part) for c, part in zip(correction, parts0)
    )
    return pairs, factor_parts


def _push_moves(system: FactorSystem, moves, slots, first: int = 1) -> list[tuple]:
    """The Whitehead kernel: the conjugator syllables of Wm o ... o W1 o psi
    for psi with conjugator syllables slots, numbered from first.  Each
    move (Y, x), a pair (moved, element), first to last, maps slot k to the
    normal form of [x if k in Y] . (Y, x)(g_k).

    Let x lie in G_i, x nontrivial and i not in Y.  The image replaces each
    syllable s of a factor in Y by x^-1 s x and keeps every other syllable.
    Neighbours of a reduced word lie in different factors and i is not in
    Y, so letters merge only where x or x^-1 meets a G_i letter: a fixed
    G_i syllable t next to moved syllables becomes x t, t x^-1 or x t x^-1
    (a conjugate of t, never trivial), and x x^-1 between two adjacent
    moved syllables cancels.  A product that cancels leaves side by side
    either two syllables adjacent in the input, or a moved syllable of some
    G_j (j in Y) and a letter outside G_j: x^-1, x, or a fixed syllable,
    which is not in G_j because all of G_j moves.  So nothing cascades, and
    one left-to-right pass with at most one G_i product per input syllable
    yields the normal form.  A leading x meets only the first head, and
    when that product cancels nothing is left for it to cascade into.
    The move's letters and G_i's product are set up once for all slots.
    The pass stays its own loop: it knows where merges can happen, so it
    tests fewer letters than normal_form would.
    """
    inverses, identities, backends = system.inverses, system.identity_payloads, system.backends
    for moved, x in moves:
        i = x[0]
        x_inv, e, op = inverses[x], identities[i - 1], backends[i - 1].op
        pushed = []
        for k, syllables in enumerate(slots, first):
            out: list[tuple[int, int]] = [x] if k in moved else []
            for s in syllables:
                is_moved = s[0] in moved
                head = x_inv if is_moved else s
                if head[0] == i and out and out[-1][0] == i:
                    payload = op(out[-1][1], head[1])
                    if payload == e:
                        out.pop()
                    else:
                        out[-1] = (i, payload)
                else:
                    out.append(head)
                if is_moved:
                    out.append(s)
                    out.append(x)
            pushed.append(tuple(out))
        slots = pushed
    return slots


def _recomposed_slots(system: FactorSystem, moves, parts, h) -> list[tuple]:
    """The slots of W1 o ... o WK o F o inner-by-h, for moves as pairs and h
    as syllables: those of W o F, WK, ..., W1 pushed onto empty slots, each
    times W(F(h)).  F(h) rides as slot n + 1, which no Y holds, so it is
    pushed once, with no lead.  Kept, measured: h = () (check_ball's case)
    skips the push; without that branch explore ran 4 to 12 % slower."""
    backwards = moves[::-1]
    if not h:
        return _push_moves(system, backwards, [()] * system.n)
    *slots, c = _push_moves(system, backwards, [()] * system.n + [_apply_parts(system, parts, h)])
    return [_join(system, g, c) for g in slots]


def recompose_factorization(system: FactorSystem, f: Factorization) -> PureSymmetricAuto:
    """W1 o ... o WK o F o inner-by-h, by _recomposed_slots."""
    moves = [(w.moved, w.element) for w in f.whitehead]
    slots = _recomposed_slots(system, moves, f.factor, _syllables_in(system, f.inner))
    return PureSymmetricAuto(system, tuple(zip(f.factor, (Word(system, g) for g in slots))))


def evaluate_factorization(system: FactorSystem, f: Factorization, w: Word) -> Word:
    """The image of w under f: inner first, then the factor parts, then the
    Whitehead list right to left."""
    return recompose_factorization(system, f).apply(w)


def _inverted_slots(system: FactorSystem, moves, parts, h, slots, identity):
    """(parts, slots) of inner-by-h^-1 o F^-1 o WK^-1 o ... o W1^-1 o
    tuple_auto(slots), for moves as pairs and h and slots as syllables:
    W1^-1, ..., WK^-1 pushed onto slots, F^-1 on each slot, then c . h^-1 on
    each slot c.  A part equal to its entry in identity is not inverted, and
    when all are, F^-1 is skipped: the kernel's slots are in normal form."""
    inverse = tuple(p if p == e else system.part_invert(p) for p, e in zip(parts, identity))
    pushed = _push_moves(system, [(moved, system.inverses[x]) for moved, x in moves], slots)
    if inverse != identity:
        pushed = [_apply_parts(system, inverse, g) for g in pushed]
    return inverse, [right_divide(system, g, h) for g in pushed]


def invert(psi: PureSymmetricAuto) -> PureSymmetricAuto:
    """Inverse automorphism, assembled from the Whitehead factorization, in
    its canonical split: one value per automorphism."""
    system, f = psi.system, factorize(psi)
    moves, empty = [(w.moved, w.element) for w in f.whitehead], [()] * system.n
    identity = tuple(map(system.part_identity, range(1, system.n + 1)))
    parts, slots = _inverted_slots(system, moves, f.factor, f.inner.syllables, empty, identity)
    slots, parts = _split_slots(system, parts, slots)
    return PureSymmetricAuto(system, tuple(zip(parts, (Word(system, g) for g in slots))))


def verify_factorization(psi: PureSymmetricAuto, f: Factorization) -> bool:
    """Exact agreement of the factorization with psi, by one recomposition.

    recompose_factorization pushes the moves of f onto F o inner-by-h, and
    both sides are then compared by their canonical splits,
    psi = tuple_auto(r) o factor_only(phi) with every slot r_k coset-
    canonical (no leading G_k syllable).  Every factor is nontrivial, so
    that split is unique: if r_k^-1 phi_k(x) r_k and r'_k^-1 phi'_k(x) r'_k
    agree for every x in G_k, then r_k r'_k^-1 normalizes G_k, and a
    nontrivial free factor is its own normalizer, so r_k and r'_k lie in
    one right coset G_k r'_k, whose canonical rep is unique; then
    phi_k = phi'_k.  So equal splits mean equal automorphisms and unequal
    ones differ on G_k.  A slot k whose splits differ is read on
    system.factor(k).generators(): the image r_k^-1 phi_k(x) r_k of a
    nontrivial x is already in normal form, and the first generator whose
    images differ is the one reported.

    The argument fails when a part is no automorphism: a map that fixes
    S3's two generators but swaps its 3-cycles agrees with the identity
    on generators only.  Library callers can build a FactorAutoPart or a
    Factorization directly, so the answer is False when f or psi does not
    carry one part per factor, in order, or any part fails part_validate;
    that costs at most |G_k|^2 table lookups per factor.  A part that is
    (is) system.part_of_rep's own, as every part decoded from JSON is, was
    validated when stored and is not checked again.  An inner word or a
    move over another factor system raises SystemMismatchError.

    No message is formatted here; _verification_failure formats it.
    """
    return _first_fault(psi, f) is None


def _verification_failure(psi: PureSymmetricAuto, f: Factorization) -> str | None:
    """One line naming the first invalid part or disagreeing generator."""
    fault = _first_fault(psi, f)
    return None if fault is None else fault[0].format(*fault[1:])


def _first_fault(psi: PureSymmetricAuto, f: Factorization) -> tuple | None:
    """None when f equals psi, else the failure line's template and values,
    kept unformatted so a bool verify formats nothing (pinned by
    TestVerify::test_bool_formats_nothing)."""
    system = psi.system
    for value in (f.inner, *f.whitehead):
        _same_system(system, value.system, "factorization from a different factor system")
    checked = system.part_of_rep  # its parts were validated when they were stored
    for side, parts in (("factorization", f.factor), ("psi", [p for p, _ in psi.parts])):
        if len(parts) != system.n:
            return "{} parts: {} for {} factors", side, len(parts), system.n
        for k, part in enumerate(parts, start=1):
            if part.factor != k:
                return "{} part {}: belongs to factor {}", side, k, part.factor
            try:
                if checked.get((k, part.rep)) is part:
                    continue
            except TypeError:  # a rep that cannot be hashed, such as a list map
                pass
            message = system.part_validate(part)
            if message is not None:
                return "{} part {}: {}", side, k, message
    moves = [(w.moved, w.element) for w in f.whitehead]
    got = _recomposed_slots(system, moves, f.factor, f.inner.syllables)
    got_split = zip(*_split_slots(system, f.factor, got))
    want_split = zip(*_split_canonical(psi))
    for k, ((r, phi), (r_psi, phi_psi)) in enumerate(zip(got_split, want_split), start=1):
        if r == r_psi and phi == phi_psi:
            continue
        for payload in system.factor(k).generators():
            x = (k, payload)
            y, y_psi = system.part_apply(phi, x), system.part_apply(phi_psi, x)
            if (r, y) != (r_psi, y_psi):
                return (
                    "generator {}: factorization gives {}, psi gives {}",
                    letter(system, x),
                    Word(system, right_divide(system, (), r) + (y,) + r),  # r^-1 y r
                    Word(system, right_divide(system, (), r_psi) + (y_psi,) + r_psi),
                )
    return None


def is_inner(psi: PureSymmetricAuto) -> Word | None:
    """The conjugating word h when psi is inner, else None.

    psi is inner exactly when it splits as inner-by-witness o parts with
    every part the identity (G_k is its own normalizer, so a nontrivial
    factor automorphism is never inner); h is then the witness.
    """
    try:
        parts, witness = decompose_star_stabilizer(psi)
    except NotAStabilizerError:
        return None
    return witness if all(map(psi.system.part_is_identity, parts)) else None


def decompose_star_stabilizer(psi: PureSymmetricAuto):
    """Split a base-class stabilizer as factor parts plus an inner word.

    Returns (parts, g) with psi(G_k) = G_k^g for every k and parts the
    restriction of conjugation-by-g^-1 composed with psi: g is the star
    pin's divisor d, one split at which leaves every slot empty.  Raises
    NotAStabilizerError naming the first non-empty slot otherwise.
    """
    system = psi.system
    slots, parts0 = _split_canonical(psi)
    d = _star_pin(system, slots)
    cores, parts = _split_slots(system, parts0, slots, d)
    for k, core in enumerate(cores, start=1):
        if core:
            raise NotAStabilizerError(k)
    return parts, Word(system, d)


def decompose_apex_stabilizer(psi: PureSymmetricAuto, i: int):
    """Split an apex-class stabilizer into Whitehead moves with operating
    factor i plus factor parts; the pair recomposes to psi up to inner.

    psi stabilizes the base apex class exactly when every apex_key core is
    empty: inner-by-g_i^-1 o psi, with g_i the canonical slot i, then has
    every slot empty or a single G_i syllable c, which gives the move
    ({j}, c), j != i since slot i is empty.  Raises NotAStabilizerError
    naming the first slot with a non-empty core otherwise.
    """
    system = psi.system
    system.factor(i)
    slots, parts0 = _split_canonical(psi)
    rests, parts = _split_slots(system, parts0, slots, slots[i - 1])
    whiteheads = []
    for j, rest in enumerate(rests, start=1):
        if rest:
            if len(rest) > 1 or rest[0][0] != i:
                raise NotAStabilizerError(j)
            whiteheads.append(_move(system, (j,), rest[0]))
    return whiteheads, parts
