"""Fuzzy discrete-event-system layer: composition, projection, blocking.

Blocking compares the prefix-closure of the recognized language against the
generated language.  The prefix-closure quantifies over all continuation
words, but on every lattice here x * y <= x, so a path through a repeated
state never beats its shortcut: the join of delta_v over all words v is
already reached by |v| <= n - 1, and the prefix-closure at any word u is
exactly sigma o delta_u o T o tau for that one reach matrix T.  The verdict
is three-valued only because the forward state family, which enumerates
the words u, need not be finite: where it is truncated, the words within
the horizon are decided exactly and the rest is left 'undetermined'.

`check_blocking` runs the family, the reach matrix and every member's test
on one codec (`automaton.Levels`); only the witness word leaves it.
`prefix_closure_at` walks its word, builds the reach matrix and reads tau
on one codec too, and decodes one value.
"""

from __future__ import annotations

from fractions import Fraction

from .automaton import (
    FuzzyAutomaton,
    FuzzyRecognizer,
    Levels,
    Word,
    check_word,
    require_recognizer,
)
from .errors import (
    EmptySharedAlphabet,
    LatticeMismatch,
    NotASuperset,
    ValidationError,
)
from .lattice import Codec
from .record import record
from .relation import FuzzyMatrix, FuzzyVector, compose_levels


@record
class ComposedRecognizer:
    """A product-space recognizer plus the bookkeeping of where it came from."""

    recognizer: FuzzyRecognizer
    left_states: tuple[str, ...]
    right_states: tuple[str, ...]
    shared_alphabet: tuple[str, ...]
    private_left: tuple[str, ...]
    private_right: tuple[str, ...]


def _composite_states(a: FuzzyRecognizer, b: FuzzyRecognizer) -> tuple[str, ...]:
    # row-major over (left, right): the right component varies fastest
    return tuple(f"({p},{q})" for p in a.states for q in b.states)


def product_compose(a: FuzzyRecognizer, b: FuzzyRecognizer) -> ComposedRecognizer:
    """Synchronous product over the shared alphabet X intersect Y."""
    if a.lattice != b.lattice:
        raise LatticeMismatch("product needs a shared lattice")
    shared = tuple(x for x in a.alphabet if x in set(b.alphabet))
    if not shared:
        raise EmptySharedAlphabet("product needs a nonempty shared alphabet")
    return _compose(a, b, alphabet=shared)


def parallel_compose(a: FuzzyRecognizer, b: FuzzyRecognizer) -> ComposedRecognizer:
    """Synchronize on shared letters, interleave on private ones."""
    if a.lattice != b.lattice:
        raise LatticeMismatch("parallel composition needs a shared lattice")
    aset = set(a.alphabet)
    alphabet = a.alphabet + tuple(y for y in b.alphabet if y not in aset)
    return _compose(a, b, alphabet=alphabet)


def _compose(a: FuzzyRecognizer, b: FuzzyRecognizer, alphabet) -> ComposedRecognizer:
    """Every letter acts as delta_a(x) (x) delta_b(x), sigma and tau as
    sigma_a (x) sigma_b and tau_a (x) tau_b.  For a letter private to one
    side the identity stands in for the other side's matrix, which is exact:
    v * 1 = v and v * 0 = 0."""
    for machine in (a, b):
        require_recognizer(machine, "a composition")
    lat = a.lattice
    na, nb = a.n, b.n
    aset, bset = set(a.alphabet), set(b.alphabet)
    shared = aset & bset
    ident_a, ident_b = FuzzyMatrix.identity(lat, na), FuzzyMatrix.identity(lat, nb)
    codec, (sa, ta, sb, tb, *mats) = lat.encode(
        a.sigma.entries, a.tau.entries, b.sigma.entries, b.tau.entries,
        *(a.delta.get(x, ident_a).entries for x in alphabet),
        *(b.delta.get(x, ident_b).entries for x in alphabet),
    )
    delta = {}
    for x, ma, mb in zip(alphabet, mats, mats[len(alphabet) :]):
        levels = _kronecker(codec, ma, mb, na, nb)
        delta[x] = FuzzyMatrix(lat, na * nb, na * nb, codec.decode(levels))
    aut = FuzzyAutomaton(lat, _composite_states(a, b), tuple(alphabet), delta)
    rec = FuzzyRecognizer(
        aut,
        FuzzyVector(lat, codec.decode(_kronecker(codec, sa, sb, na, nb))),
        FuzzyVector(lat, codec.decode(_kronecker(codec, ta, tb, na, nb))),
    )
    return ComposedRecognizer(
        recognizer=rec,
        left_states=a.states,
        right_states=b.states,
        shared_alphabet=tuple(x for x in alphabet if x in shared),
        private_left=tuple(x for x in alphabet if x in aset and x not in shared),
        private_right=tuple(x for x in alphabet if x in bset and x not in shared),
    )


def _kronecker(codec: Codec, a: list, b: list, na: int, nb: int) -> list:
    """A (x) B for flat row-major level lists with na and nb columns: entry
    ((p, q), (p2, q2)) is A(p, p2) * B(q, q2), pairs ordered with the right
    component fastest.  Two 1 x n vectors give a 1 x na*nb vector."""
    otimes = codec.otimes
    a_rows = [a[i : i + na] for i in range(0, len(a), na)]
    b_rows = [b[i : i + nb] for i in range(0, len(b), nb)]
    return [otimes(x, y) for ra in a_rows for rb in b_rows for x in ra for y in rb]


def input_extension(rec: FuzzyRecognizer, alphabet: tuple[str, ...]) -> FuzzyRecognizer:
    """Extend to a superset alphabet; new letters act as the identity."""
    require_recognizer(rec, "input extension")
    if not set(rec.alphabet) <= set(alphabet):
        raise NotASuperset(f"{alphabet} does not contain {rec.alphabet}")
    if len(set(alphabet)) != len(alphabet):
        raise ValidationError("letters must be unique")
    lat = rec.lattice
    n = rec.n
    ident = FuzzyMatrix.identity(lat, n)
    delta = {x: (rec.delta[x] if x in rec.delta else ident) for x in alphabet}
    aut = FuzzyAutomaton(lat, rec.states, tuple(alphabet), delta)
    return FuzzyRecognizer(aut, rec.sigma, rec.tau)


def natural_projection(
    word: Word, from_alphabet: tuple[str, ...], to_alphabet: tuple[str, ...]
) -> Word:
    """Delete the letters outside the smaller alphabet; reindex the rest."""
    if not set(to_alphabet) <= set(from_alphabet):
        raise NotASuperset(f"{from_alphabet} does not contain {to_alphabet}")
    check_word(from_alphabet, word)
    index = {x: i for i, x in enumerate(to_alphabet)}
    out = []
    for i in word:
        name = from_alphabet[i]
        if name in index:
            out.append(index[name])
    return tuple(out)


# ---------------------------------------------------------------------------
# prefix closure and blocking


def bounded_reach_matrix(rec: FuzzyRecognizer, horizon: int) -> FuzzyMatrix:
    """T_h = join of delta_v over all words v with |v| <= h.

    Composition distributes over joins, so f o T_h o tau equals the join of
    f o delta_v o tau over the same words.  With D the join of the letter
    matrices, T_h = (I v D) o T_(h-1): one level composition per step.
    Since x * y <= x, T_h is constant from h = n - 1 on and covers all of
    X*; the iteration stops at the first step that changes nothing.
    """
    if horizon < 0:
        raise ValidationError("horizon must be nonnegative")
    lv = Levels(rec)
    return lv.matrix(_reach_levels(lv, horizon))


def _reach_levels(lv: Levels, horizon: int) -> list:
    """`bounded_reach_matrix` on the machine's levels."""
    codec, n = lv.codec, lv.n
    ident = [codec.top if i == j else codec.zero for i in range(n) for j in range(n)]
    # levels are ordered as their values, so a join is an entrywise max
    step = list(map(max, ident, *lv.delta))
    current = ident
    for _ in range(horizon):
        stepped = compose_levels(codec, step, current, n, n, n)
        if stepped == current:
            break
        current = stepped
    return current


def prefix_closure_at(rec: FuzzyRecognizer, word: Word, horizon: int) -> Fraction:
    """join over |v| <= horizon of L(rec)(word . v): a lower bound of the
    prefix-closure, exact whenever the supremum is attained in the horizon,
    as it always is for horizon >= n - 1."""
    if horizon < 0:
        raise ValidationError("horizon must be nonnegative")
    lv = Levels(require_recognizer(rec, "a word's fuzzy state"))
    codec, n = lv.codec, lv.n
    f = compose_levels(codec, lv.state_after(word), _reach_levels(lv, horizon), 1, n, n)
    return codec.decode(compose_levels(codec, f, lv.tau, 1, n, 1))[0]


@record
class BlockingVerdict:
    verdict: str  # 'nonblocking' | 'blocking' | 'undetermined'
    witness: Word | None

    @property
    def decided(self) -> bool:
        return self.verdict != "undetermined"


def check_blocking(
    rec: FuzzyRecognizer,
    horizon: int,
    max_states: int = 4096,
    max_depth: int = 64,
) -> BlockingVerdict:
    """Decide whether the prefix-closure of L falls strictly below L_g.

    The prefix-closure at the word of a forward family member f is exactly
    f o T o tau for the reach matrix T = bounded_reach_matrix(rec, n) (see
    the module docstring), so every member inspected is decided exactly.
    When the family closes, every word is covered and the verdict is
    'blocking' or 'nonblocking'.  When it is truncated, the members up to
    the horizon are inspected: a gap there is a certified 'blocking', and
    finding none gives 'undetermined'.
    """
    if horizon < 1:
        raise ValidationError("horizon must be at least 1")
    lv = Levels(require_recognizer(rec, "the blocking check"))
    family, truncated = lv.family("forward", max_states, max_depth)
    codec, n = lv.codec, lv.n
    # (f o T) o tau = f o (T o tau): one product for all members
    reach_tau = compose_levels(codec, _reach_levels(lv, n), lv.tau, n, n, 1)
    for vec, word in family.items():
        if truncated and len(word) > horizon:
            break
        # levels are ordered as their values
        if compose_levels(codec, vec, reach_tau, 1, n, 1)[0] < max(vec):
            return BlockingVerdict("blocking", word)
    return BlockingVerdict("undetermined" if truncated else "nonblocking", None)


def conflict_check(
    a: FuzzyRecognizer,
    b: FuzzyRecognizer,
    horizon: int,
    max_states: int = 4096,
    max_depth: int = 64,
) -> BlockingVerdict:
    """Blocking analysis of the parallel composition of a and b."""
    composed = parallel_compose(a, b)
    return check_blocking(
        composed.recognizer, horizon, max_states=max_states, max_depth=max_depth
    )
