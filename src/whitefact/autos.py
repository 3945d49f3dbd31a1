"""Pure symmetric automorphisms and their Whitehead factorization.

A pure symmetric automorphism is stored by parts: for each factor k an
automorphism phi_k of G_k and a conjugator word g_k, with
psi(x) = g_k^-1 phi_k(x) g_k for x in G_k.

Composition convention, fixed globally: compose(f, g) applies g first,
i.e. compose(f, g).apply(w) == f.apply(g.apply(w)).  A Factorization with
whitehead list [W1, ..., WK], factor parts F and inner word h represents
psi = W1 o W2 o ... o WK o F o (conjugation by h) under the same
convention: the inner conjugation acts first, WK next, W1 last.

Left-composing with a move (Y, x) is one rule, _push_moves: slot k of
(Y, x) o psi is [x if k in Y] . (Y, x)(g_k), and every part stays.  The
kernel _push_move sets a move up once and forms that normal form in one
pass over each slot's syllables; Words are built only after the last move.
It is the only code that applies a Whitehead move: invert and
recompose_factorization push their move lists through it, and
verify_factorization, evaluate_factorization and check_ball's homing
checks read a recomposition.

Every split of psi is one rule, _conjugated: inner-by-g o psi has the
conjugators g_k . g, and each one's stripped G_k head b_k joins the factor
part as conj(b_k) o phi_k.  g = 1 gives the canonical split, g = g_L (the
star pin) the base-class stabilizer split, and g = g_i^-1 the apex one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FactorMismatchError, NotAStabilizerError, SystemMismatchError
from .factors import FactorAutoPart, FactorElement, FactorSystem
from .labellings import StarLabel, _star_pin, _translate
from .reduction import reduce_to_base
from .words import Word, empty_word, letter, normal_form


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
        if w.system != self.system:
            raise SystemMismatchError("word from a different factor system")
        system = self.system
        inverses: dict[int, tuple[FactorElement, ...]] = {}
        letters: list[FactorElement] = []
        for s in w.syllables:
            part, conj = self.parts[s.factor - 1]
            conj_inv = inverses.get(s.factor)
            if conj_inv is None:
                conj_inv = inverses[s.factor] = conj.inverse().syllables
            letters.extend(conj_inv)
            letters.append(system.part_apply(part, s))
            letters.extend(conj.syllables)
        return normal_form(system, letters)


def pure_auto(system: FactorSystem, parts) -> PureSymmetricAuto:
    packed = []
    for k, (part, conj) in enumerate(parts, start=1):
        if part.factor != k:
            raise FactorMismatchError(f"part for factor {part.factor} placed in slot {k}")
        if conj.system != system:
            raise SystemMismatchError("conjugator from a different factor system")
        packed.append((part, conj))
    if len(packed) != system.n:
        raise ValueError(f"expected {system.n} parts, got {len(packed)}")
    return PureSymmetricAuto(system, tuple(packed))


def identity_auto(system: FactorSystem) -> PureSymmetricAuto:
    return inner_auto(system, empty_word(system))


def inner_auto(system: FactorSystem, h: Word) -> PureSymmetricAuto:
    return PureSymmetricAuto(
        system,
        tuple((system.part_identity(k), h) for k in range(1, system.n + 1)),
    )


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
    identity and outer classes would lose their unique representatives, and
    the operating factor must lie outside Y.  Construction raises
    ValueError otherwise.
    """

    system: FactorSystem
    moved: tuple[int, ...]
    element: FactorElement

    def __post_init__(self):
        # _push_move's one-pass normal form relies on the last two checks.
        if not self.moved:
            raise ValueError("a Whitehead automorphism needs a nonempty moved set")
        if self.system.is_identity(self.element):
            raise ValueError("a Whitehead automorphism needs a nontrivial element")
        if self.element.factor in self.moved:
            raise ValueError(
                f"operating factor {self.element.factor} cannot belong to the moved set"
            )

    @property
    def operating(self) -> int:
        return self.element.factor


def whitehead_auto(system: FactorSystem, moved, element: FactorElement) -> WhiteheadAuto:
    moved = tuple(sorted(set(moved)))
    for j in moved:
        system.factor(j)
    return WhiteheadAuto(system, moved, system.element(element.factor, element.payload))


def whitehead_to_auto(w: WhiteheadAuto) -> PureSymmetricAuto:
    system, x, eps = w.system, letter(w.system, w.element), empty_word(w.system)
    parts = [(system.part_identity(k), x if k in w.moved else eps) for k in range(1, system.n + 1)]
    return PureSymmetricAuto(system, tuple(parts))


def whitehead_inverse(w: WhiteheadAuto) -> WhiteheadAuto:
    return WhiteheadAuto(w.system, w.moved, w.system.inverse(w.element))


def compose(f: PureSymmetricAuto, g: PureSymmetricAuto) -> PureSymmetricAuto:
    """g first, then f: compose(f, g).apply(w) == f.apply(g.apply(w))."""
    if f.system != g.system:
        raise SystemMismatchError("automorphisms over different factor systems")
    system = f.system
    parts = []
    for k in range(1, system.n + 1):
        part = system.part_compose(f.phi(k), g.phi(k))
        conj = f.conjugator(k) * f.apply(g.conjugator(k))
        parts.append((part, conj))
    return PureSymmetricAuto(system, tuple(parts))


def _conjugated(system: FactorSystem, translates, parts):
    """Lazily, per factor k, the canonical (slot, part) of inner-by-g o psi
    for psi given by its parts and the translates (b_k, r_k) of its
    conjugators by g (_translate): g_k . g = b_k . r_k, and
    r_k^-1 b_k^-1 phi_k(x) b_k r_k puts conj(b_k) o phi_k on the slot r_k."""
    for (b, slot), part in zip(translates, parts):
        if b is not None:
            part = system.part_compose(system.conjugation_part(b), part)
        yield slot, part


def _split_canonical(psi: PureSymmetricAuto):
    """psi == tuple_auto(words) o factor_only(parts), slots coset-canonical:
    the conjugated split with g = 1."""
    phis, conjugators = zip(*psi.parts)
    translates = _translate(conjugators, empty_word(psi.system))
    return tuple(zip(*_conjugated(psi.system, translates, phis)))


def _star_split(system: FactorSystem, words, parts0):
    """(parts, witness) with psi = inner-by-witness o factor_only(parts).

    words and parts0 are psi's canonical split.  It exists exactly when
    every core of their star pin is empty: inner-by-g_L o psi is then
    factor_only(parts), and witness = g_L^-1.  Raises NotAStabilizerError
    at the first non-empty core otherwise.
    """
    g, translates = _star_pin(StarLabel(system, words))
    parts = []
    for k, (core, part) in enumerate(_conjugated(system, translates, parts0), start=1):
        if core.syllables:
            raise NotAStabilizerError(k)
        parts.append(part)
    return tuple(parts), g.inverse()


@dataclass(frozen=True)
class Factorization:
    whitehead: tuple[WhiteheadAuto, ...]
    factor: tuple[FactorAutoPart, ...]
    inner: Word


def _push_move(w: WhiteheadAuto, slots, leads) -> list[tuple[FactorElement, ...]]:
    """The Whitehead kernel: per syllable tuple g of slots and flag of
    leads, the normal form of (Y, x)(g), or with the flag of x . (Y, x)(g).

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
    The pass stays its own loop: handing its letters to normal_form made
    the explore and factorize benchmarks 2-12 % slower (CPython 3.11 on a
    2-vCPU host).
    """
    system = w.system
    moved = w.moved
    x = w.element
    i = x.factor
    x_inv = system.inverse(x)
    e = system.identity_payloads[i - 1]
    op = system.factor(i).op
    pushed = []
    for syllables, lead in zip(slots, leads):
        out: list[FactorElement] = [x] if lead else []
        for s in syllables:
            is_moved = s.factor in moved
            head = x_inv if is_moved else s
            if head.factor == i and out and out[-1].factor == i:
                payload = op(out[-1].payload, head.payload)
                if payload == e:
                    out.pop()
                else:
                    out[-1] = FactorElement(i, payload)
            else:
                out.append(head)
            if is_moved:
                out.append(s)
                out.append(x)
        pushed.append(tuple(out))
    return pushed


def _apply_parts(parts, word_in: Word) -> Word:
    system = word_in.system
    letters = [system.part_apply(parts[s.factor - 1], s) for s in word_in.syllables]
    return normal_form(system, letters)


def factorize(psi: PureSymmetricAuto) -> Factorization:
    """Express psi as Whitehead moves, a factor automorphism, and an inner.

    When the canonical tuple is base-equivalent psi splits directly as
    factor part times inner; otherwise it is walked back to the base
    labelling and _factorization_from_walk reads the moves off the walk.
    """
    system = psi.system
    words, parts0 = _split_canonical(psi)
    try:
        parts, witness = _star_split(system, words, parts0)
    except NotAStabilizerError:
        pass
    else:
        # psi = inner-by-witness o F, rewritten as F o inner with
        # inner = F^-1(witness).
        h = _apply_parts([system.part_invert(p) for p in parts], witness)
        return Factorization((), parts, h)

    _, moves = reduce_to_base(StarLabel(system, words))
    return _factorization_from_walk(system, moves, parts0)


def _factorization_from_walk(system: FactorSystem, moves, parts0) -> Factorization:
    """The factorization read, in reverse, off the reduction walk (moves) of
    a canonical split's slots, whose factor parts are parts0.

    A fold move (i, Y, a) rewrites the tuple automorphism as the new tuple's,
    composed with conjugation of each G_k, k in Y, by its shed syllable b_k
    if any, composed with (Y, a^-1).  Conjugation of G_k by its own b_k is
    inner in G_k, so it joins factor k's correction, not the Whitehead list;
    moving the corrections right past the moves maps each move's element
    through the correction of its operating factor i.  i is not in Y, so
    the sheds of a move's own slots leave that correction alone.
    """
    correction = [system.part_identity(k) for k in range(1, system.n + 1)]
    whitehead: list[WhiteheadAuto] = []
    for mv in reversed(moves):
        for k, shed in zip(mv.moved, mv.shed):
            if shed is not None:
                correction[k - 1] = system.part_compose(
                    correction[k - 1], system.conjugation_part(shed)
                )
        moved_element = system.part_apply(correction[mv.i - 1], system.inverse(mv.element))
        whitehead.append(WhiteheadAuto(system, mv.moved, moved_element))
    factor_parts = tuple(map(system.part_compose, correction, parts0))
    return Factorization(tuple(whitehead), factor_parts, empty_word(system))


def _push_moves(system: FactorSystem, moves, slots) -> list[Word]:
    """Conjugators of Wm o ... o W1 o psi for psi with conjugators slots:
    each move (Y, x), first to last, maps slot k to [x if k in Y] . (Y, x)(g_k)."""
    syllables = [g.syllables for g in slots]
    ks = range(1, len(syllables) + 1)
    for w in moves:
        syllables = _push_move(w, syllables, [k in w.moved for k in ks])
    return [Word(system, g) for g in syllables]


def recompose_factorization(system: FactorSystem, f: Factorization) -> PureSymmetricAuto:
    """W1 o ... o WK o F o inner-by-h: F o inner-by-h has every slot F(h),
    and WK, ..., W1 are pushed onto it in turn."""
    start = [_apply_parts(f.factor, f.inner)] * system.n
    slots = _push_moves(system, reversed(f.whitehead), start)
    return PureSymmetricAuto(system, tuple(zip(f.factor, slots)))


def evaluate_factorization(system: FactorSystem, f: Factorization, w: Word) -> Word:
    """The image of w under f: inner first, then the factor parts, then the
    Whitehead list right to left."""
    return recompose_factorization(system, f).apply(w)


def _invert_factorization(system: FactorSystem, f: Factorization, slots) -> PureSymmetricAuto:
    """inner-by-h^-1 o F^-1 o WK^-1 o ... o W1^-1 o tuple_auto(slots):
    W1^-1, ..., WK^-1 pushed onto slots, F^-1 on each slot, then c . h^-1
    on each slot c.  Empty slots give the inverse of f itself."""
    parts = [system.part_invert(p) for p in f.factor]
    h_inv = f.inner.inverse()
    slots = _push_moves(system, map(whitehead_inverse, f.whitehead), slots)
    conjugators = [_apply_parts(parts, g) * h_inv for g in slots]
    return PureSymmetricAuto(system, tuple(zip(parts, conjugators)))


def invert(psi: PureSymmetricAuto) -> PureSymmetricAuto:
    """Inverse automorphism, assembled from the Whitehead factorization."""
    system = psi.system
    return _invert_factorization(system, factorize(psi), [empty_word(system)] * system.n)


def verify_factorization(psi: PureSymmetricAuto, f: Factorization) -> bool:
    """Exact agreement of the factorization with psi, by one recomposition.

    recompose_factorization pushes the moves of f onto F o inner-by-h, and
    both sides are then compared by their canonical splits,
    psi = tuple_auto(r) o factor_only(phi) with every slot r_k coset-
    canonical (no leading G_k syllable).  On a factor G_k with at least two
    elements that split is unique: if r_k^-1 phi_k(x) r_k and
    r'_k^-1 phi'_k(x) r'_k agree for every x in G_k, then r_k r'_k^-1
    normalizes G_k, and a nontrivial free factor is its own normalizer, so
    r_k and r'_k lie in one right coset G_k r'_k, whose canonical rep is
    unique; then phi_k = phi'_k.  So equal splits mean equal automorphisms
    and unequal ones differ on G_k.  A one-element factor has no
    generators and nothing to compare, so it is skipped.  A slot k whose
    splits differ is read on system.factor(k).generators(): the image
    r_k^-1 phi_k(x) r_k of a nontrivial x is already in normal form, and
    the first generator whose images differ is the one reported.  Parts
    that differ only in their encoding agree on every generator and pass.

    The argument fails when a part is no automorphism: a map that fixes
    S3's two generators but swaps its 3-cycles agrees with the identity
    on generators only.  Library callers can build a FactorAutoPart or a
    Factorization directly, so the answer is False when f or psi does not
    carry one part per factor, in order, or any part fails part_validate;
    that costs at most |G_k|^2 table lookups per factor.  An inner word or
    a move over another factor system raises SystemMismatchError.

    No message is formatted here; _verification_failure formats it.
    """
    return _first_fault(psi, f) is None


def _verification_failure(psi: PureSymmetricAuto, f: Factorization) -> str | None:
    """One line naming the first invalid part or disagreeing generator."""
    fault = _first_fault(psi, f)
    return None if fault is None else fault[0].format(*fault[1:])


def _first_fault(psi: PureSymmetricAuto, f: Factorization) -> tuple | None:
    """None when f equals psi, else the failure line's template and values."""
    system = psi.system
    if f.inner.system != system or any(w.system != system for w in f.whitehead):
        raise SystemMismatchError("factorization from a different factor system")
    for side, parts in (("factorization", f.factor), ("psi", [p for p, _ in psi.parts])):
        if len(parts) != system.n:
            return "{} parts: {} for {} factors", side, len(parts), system.n
        for k, part in enumerate(parts, start=1):
            if part.factor != k:
                return "{} part {}: belongs to factor {}", side, k, part.factor
            message = system.part_validate(part)
            if message is not None:
                return "{} part {}: {}", side, k, message
    got_split = zip(*_split_canonical(recompose_factorization(system, f)))
    want_split = zip(*_split_canonical(psi))
    for k, ((r, phi), (r_psi, phi_psi)) in enumerate(zip(got_split, want_split), start=1):
        if r.syllables == r_psi.syllables and phi == phi_psi:
            continue
        for payload in system.factor(k).generators():
            x = FactorElement(k, payload)
            y, y_psi = system.part_apply(phi, x), system.part_apply(phi_psi, x)
            if (r.syllables, y) != (r_psi.syllables, y_psi):
                return (
                    "generator {}: factorization gives {}, psi gives {}",
                    letter(system, x),
                    Word(system, r.inverse().syllables + (y,) + r.syllables),
                    Word(system, r_psi.inverse().syllables + (y_psi,) + r_psi.syllables),
                )
    return None


def is_inner(psi: PureSymmetricAuto) -> Word | None:
    """The conjugating word h when psi is inner, else None.

    psi is inner exactly when it splits as inner-by-witness o parts with
    every part the identity (G_k is its own normalizer, so a nontrivial
    factor automorphism is never inner); h is then the witness.
    """
    system = psi.system
    try:
        parts, witness = _star_split(system, *_split_canonical(psi))
    except NotAStabilizerError:
        return None
    return witness if all(system.part_is_identity(p) for p in parts) else None


def decompose_star_stabilizer(psi: PureSymmetricAuto):
    """Split a base-class stabilizer as factor parts plus an inner word.

    Returns (parts, g) with psi(G_k) = G_k^g for every k and parts the
    restriction of conjugation-by-g^-1 composed with psi.  Raises
    NotAStabilizerError naming the first slot whose star-key core is
    non-empty otherwise.
    """
    return _star_split(psi.system, *_split_canonical(psi))


def decompose_apex_stabilizer(psi: PureSymmetricAuto, i: int):
    """Split an apex-class stabilizer into Whitehead moves with operating
    factor i plus factor parts; the pair recomposes to psi up to inner.

    psi stabilizes the base apex class exactly when every apex_key core is
    empty: inner-by-g_i^-1 o psi, with g_i the canonical slot i, then has
    every slot empty or a single G_i syllable c, which gives the move
    ({j}, c).  Raises NotAStabilizerError naming the first slot with a
    non-empty core otherwise.
    """
    system = psi.system
    system.factor(i)
    words, parts0 = _split_canonical(psi)
    whiteheads = []
    parts = []
    shifted = _conjugated(system, _translate(words, words[i - 1].inverse()), parts0)
    for j, (rest, part) in enumerate(shifted, start=1):
        if rest.syllables:
            if len(rest.syllables) > 1 or rest.syllables[0].factor != i:
                raise NotAStabilizerError(j)
            whiteheads.append(WhiteheadAuto(system, (j,), rest.syllables[0]))
        parts.append(part)
    return whiteheads, tuple(parts)
