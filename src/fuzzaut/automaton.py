"""Fuzzy automata and recognizers.

Words are tuples of alphabet indices; the empty word is the empty tuple.
Letter names only matter at the document/CLI boundary.

`Levels` is the one place that encodes a machine: its letters, sigma, tau
and at most one relation, with one codec.  A word's fuzzy state, its
membership degree and its generated degree are one walk on those levels
(`Levels.state_after`), decoded once.  `Levels.walk`, the one search
of the reachable fuzzy-state family, runs on its caller's levels and yields
each member as it is found: the bounded language comparison stops at the
first member of a direct sum whose halves disagree.  `Levels.family`
collects the walk under a state cap: the weak reductions and the blocking
check use its members as they are, and `reachable_state_family` decodes
them once.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from copy import copy
from fractions import Fraction
from types import MappingProxyType

from .errors import (
    AlphabetMismatch,
    DimensionMismatch,
    LatticeMismatch,
    SizeLimitExceeded,
    UnknownLetter,
    ValidationError,
)
from .lattice import Lattice
from .record import record
from .relation import (
    FuzzyMatrix,
    FuzzyVector,
    compose,
    compose_levels,
    transpose,
    transpose_levels,
)

Word = tuple[int, ...]
EMPTY_WORD: Word = ()


@record
class FuzzyAutomaton:
    lattice: Lattice
    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    delta: Mapping[str, FuzzyMatrix]

    def __post_init__(self):
        if not isinstance(self.delta, Mapping):
            raise ValidationError(f"delta must be a mapping, got {type(self.delta).__name__}")
        # a read-only copy: the caller's dict may change after validation
        object.__setattr__(self, "delta", MappingProxyType(dict(self.delta)))
        n = len(self.states)
        if n == 0:
            raise ValidationError("automaton needs at least one state")
        if len(set(self.states)) != n:
            raise ValidationError("state names must be unique")
        if not self.alphabet:
            raise ValidationError("alphabet must be nonempty")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValidationError("letters must be unique")
        if set(self.delta) != set(self.alphabet):
            raise ValidationError("delta must map exactly the alphabet letters")
        for x in self.alphabet:
            m = self.delta[x]
            if m.lattice != self.lattice:
                raise LatticeMismatch(f"transition matrix for {x!r} uses a different lattice")
            if (m.rows, m.cols) != (n, n):
                raise DimensionMismatch(f"transition matrix for {x!r} must be {n}x{n}")

    def __reduce__(self):
        # pickle and deepcopy rebuild the automaton from a plain dict: a
        # mappingproxy cannot be pickled
        return type(self), (self.lattice, self.states, self.alphabet, dict(self.delta))

    @property
    def n(self) -> int:
        return len(self.states)

    def matrix(self, letter_index: int) -> FuzzyMatrix:
        try:
            return self.delta[self.alphabet[letter_index]]
        except IndexError:
            raise UnknownLetter(f"letter index {letter_index} out of range") from None


@record
class FuzzyRecognizer:
    automaton: FuzzyAutomaton
    sigma: FuzzyVector
    tau: FuzzyVector

    def __post_init__(self):
        n = self.automaton.n
        for name, v in (("sigma", self.sigma), ("tau", self.tau)):
            if v.lattice != self.automaton.lattice:
                raise LatticeMismatch(f"{name} uses a different lattice")
            if len(v) != n:
                raise DimensionMismatch(f"{name} must have length {n}")

    @property
    def lattice(self) -> Lattice:
        return self.automaton.lattice

    @property
    def states(self) -> tuple[str, ...]:
        return self.automaton.states

    @property
    def alphabet(self) -> tuple[str, ...]:
        return self.automaton.alphabet

    @property
    def delta(self) -> Mapping[str, FuzzyMatrix]:
        return self.automaton.delta

    @property
    def n(self) -> int:
        return self.automaton.n

    def matrix(self, letter_index: int) -> FuzzyMatrix:
        return self.automaton.matrix(letter_index)


Machine = FuzzyAutomaton | FuzzyRecognizer


def underlying(machine: Machine) -> FuzzyAutomaton:
    return machine.automaton if isinstance(machine, FuzzyRecognizer) else machine


def require_recognizer(machine, what: str) -> FuzzyRecognizer:
    """Raise ValidationError unless machine is a recognizer (has sigma and tau)."""
    if not isinstance(machine, FuzzyRecognizer):
        raise ValidationError(f"{what} needs a recognizer, got {type(machine).__name__}")
    return machine


def check_caps(max_states: int, max_depth: int) -> None:
    """Raise ValidationError unless the state family caps are usable."""
    if max_states < 1:
        raise ValidationError("max_states must be at least 1")
    if max_depth < 0:
        raise ValidationError("max_depth must be nonnegative")


def check_word(alphabet: tuple[str, ...], word: Word) -> None:
    """Raise UnknownLetter unless every letter index of word is in range."""
    k = len(alphabet)
    for i in word:
        if not 0 <= i < k:
            raise UnknownLetter(f"letter index {i} out of range for alphabet of size {k}")


def transition_of_word(machine: Machine, word: Word) -> FuzzyMatrix:
    """delta_u: identity for the empty word, composed letter matrices otherwise."""
    aut = underlying(machine)
    check_word(aut.alphabet, word)
    result = FuzzyMatrix.identity(aut.lattice, aut.n)
    for i in word:
        result = compose(result, aut.matrix(i))
    return result


def state_after(rec: FuzzyRecognizer, word: Word) -> FuzzyVector:
    """The fuzzy state sigma o delta_u the word drives the recognizer to."""
    lv = Levels(require_recognizer(rec, "a word's fuzzy state"))
    return FuzzyVector(lv.aut.lattice, lv.codec.decode(lv.state_after(word)))


def recognize(rec: FuzzyRecognizer, word: Word) -> Fraction:
    """Membership degree of the word: sigma o delta_u o tau."""
    lv = Levels(require_recognizer(rec, "a word's fuzzy state"))
    n = lv.n
    return lv.codec.decode(compose_levels(lv.codec, lv.state_after(word), lv.tau, 1, n, 1))[0]


def generate(rec: FuzzyRecognizer, word: Word) -> Fraction:
    """Degree to which the word drives some initial state anywhere at all."""
    lv = Levels(require_recognizer(rec, "a word's fuzzy state"))
    # levels are ordered as their values
    return lv.codec.decode([max(lv.state_after(word))])[0]


def reverse(machine: Machine) -> Machine:
    """Transpose every transition matrix; swap sigma and tau on recognizers."""
    aut = underlying(machine)
    rev = FuzzyAutomaton(
        aut.lattice,
        aut.states,
        aut.alphabet,
        {x: transpose(m) for x, m in aut.delta.items()},
    )
    if isinstance(machine, FuzzyRecognizer):
        return FuzzyRecognizer(rev, machine.tau, machine.sigma)
    return rev


# ---------------------------------------------------------------------------
# isomorphism


def _fingerprints(machine: Machine):
    aut = underlying(machine)
    n = aut.n
    fps = []
    for i in range(n):
        parts = []
        if isinstance(machine, FuzzyRecognizer):
            parts.append(("sigma", machine.sigma.entries[i]))
            parts.append(("tau", machine.tau.entries[i]))
        for x in aut.alphabet:
            m = aut.delta[x]
            parts.append((x, m[i, i], tuple(sorted(m.row(i))), tuple(sorted(m.col(i)))))
        fps.append(tuple(parts))
    return fps


def are_isomorphic(a: Machine, b: Machine, max_states: int = 12) -> tuple[int, ...] | None:
    """Exact isomorphism decision by backtracking with row-signature pruning.

    Returns a state bijection as a tuple phi with phi[i] = matching index in b,
    or None.  Refuses above max_states rather than approximating.
    """
    if isinstance(a, FuzzyRecognizer) != isinstance(b, FuzzyRecognizer):
        raise ValidationError("cannot compare an automaton with a recognizer")
    aut_a, aut_b = underlying(a), underlying(b)
    if aut_a.lattice != aut_b.lattice:
        raise LatticeMismatch("isomorphism needs a shared lattice")
    if aut_a.alphabet != aut_b.alphabet:
        raise AlphabetMismatch(f"{aut_a.alphabet} vs {aut_b.alphabet}")
    n = aut_a.n
    if n != aut_b.n:
        return None
    if n > max_states:
        raise SizeLimitExceeded(f"isomorphism capped at {max_states} states, got {n}")

    fps_a, fps_b = _fingerprints(a), _fingerprints(b)
    if sorted(fps_a) != sorted(fps_b):
        return None
    candidates = [[j for j in range(n) if fps_b[j] == fps_a[i]] for i in range(n)]
    mats_a = [aut_a.delta[x] for x in aut_a.alphabet]
    mats_b = [aut_b.delta[x] for x in aut_b.alphabet]

    # assign states in order of fewest candidates first
    order = sorted(range(n), key=lambda i: len(candidates[i]))
    phi: dict[int, int] = {}
    used = [False] * n

    def extend(pos: int) -> bool:
        if pos == n:
            return True
        i = order[pos]
        for j in candidates[i]:
            if used[j]:
                continue
            # the diagonal entries already match through the fingerprints
            if not all(
                ma[i, k] == mb[j, l] and ma[k, i] == mb[l, j]
                for ma, mb in zip(mats_a, mats_b)
                for k, l in phi.items()
            ):
                continue
            phi[i] = j
            used[j] = True
            if extend(pos + 1):
                return True
            del phi[i]
            used[j] = False
        return False

    if not extend(0):
        return None
    return tuple(phi[i] for i in range(n))


# ---------------------------------------------------------------------------
# levels and the accessible fuzzy subset construction


class Levels:
    """A machine and at most one relation on its states, encoded by one
    codec built from all of their values.  Vectors and relations stay flat
    row-major level lists from here until the caller decodes its result."""

    def __init__(self, machine: Machine, relation: FuzzyMatrix | None = None):
        aut = underlying(machine)
        self.aut, self.n = aut, aut.n
        self.recognizer = isinstance(machine, FuzzyRecognizer)
        groups = [aut.delta[x].entries for x in aut.alphabet]
        if self.recognizer:
            groups += [machine.sigma.entries, machine.tau.entries]
        if relation is not None:
            if relation.lattice != aut.lattice or relation.rows != aut.n or not relation.is_square:
                raise ValidationError("relation does not match the automaton")
            groups.append(relation.entries)
        self.codec, levels = aut.lattice.encode(*groups)
        k = len(aut.alphabet)
        self.delta = levels[:k]
        self.sigma, self.tau = (levels[k], levels[k + 1]) if self.recognizer else (None, None)
        self.relation = levels[-1] if relation is not None else None

    def reversed(self) -> "Levels":
        """The levels of the reversed machine and of R^T on the same codec:
        every letter and the relation transposed, sigma and tau swapped."""
        rev = copy(self)
        rev.delta = [transpose_levels(d, self.n) for d in self.delta]
        rev.sigma, rev.tau = self.tau, self.sigma
        if self.relation is not None:
            rev.relation = transpose_levels(self.relation, self.n)
        return rev

    def state_after(self, word: Word) -> list:
        """sigma o delta_u, letter by letter on these levels."""
        check_word(self.aut.alphabet, word)
        codec, n, v = self.codec, self.n, self.sigma
        for i in word:
            v = compose_levels(codec, v, self.delta[i], 1, n, n)
        return v

    def matrix(self, levels: list) -> FuzzyMatrix:
        return FuzzyMatrix(self.aut.lattice, self.n, self.n, self.codec.decode(levels))

    def walk(self, direction: str, max_depth: int):
        """Breadth-first closure of {sigma} under f -> f o dx (forward) or of
        {tau} under f -> dx o f (reverse), over words of length <= max_depth:
        yields each new member, a level tuple, with its witness word, in
        length-then-lex order, and computes no member before it is asked for.
        The codec is injective and closed under join and otimes, so two
        members are equal exactly when their values are."""
        if direction not in ("forward", "reverse"):
            raise ValidationError(f"direction must be 'forward' or 'reverse', got {direction!r}")
        codec, n = self.codec, self.n
        first = tuple(self.sigma if direction == "forward" else self.tau)
        seen = {first}
        frontier = [(EMPTY_WORD, first)]
        yield first, EMPTY_WORD
        for _ in range(max_depth):
            nxt: list[tuple[Word, tuple]] = []
            if direction == "forward":
                expansions = ((w + (xi,), compose_levels(codec, f, m, 1, n, n))
                              for w, f in frontier for xi, m in enumerate(self.delta))
            else:
                # prepend the letter: tau_{x u} = delta_x o tau_u; letter-outer
                # iteration keeps witnesses in length-then-lex order
                expansions = (((xi,) + w, compose_levels(codec, m, f, n, n, 1))
                              for xi, m in enumerate(self.delta) for w, f in frontier)
            for word, g in expansions:
                g = tuple(g)
                if g not in seen:
                    seen.add(g)
                    nxt.append((word, g))
                    yield g, word
            if not nxt:
                return
            frontier = nxt

    def family(self, direction: str, max_states: int, max_depth: int) -> tuple[dict, bool]:
        """`walk` collected: each member mapped to its witness word, and
        whether a cap stopped the search."""
        check_caps(max_states, max_depth)
        seen: dict[tuple, Word] = {}
        for g, word in self.walk(direction, max_depth):
            if len(seen) >= max_states:
                return seen, True
            seen[g] = word
        # members at depth max_depth form a frontier that was never expanded
        return seen, len(word) == max_depth


@record
class FuzzyStateFamily:
    """All distinct fuzzy state sets reachable from sigma (forward) or tau (reverse).

    Members are (witness word, vector) in length-then-lexicographic discovery
    order.  complete means the family is closed under every letter; truncated
    means a cap stopped exploration before closure could be verified.
    """

    direction: str
    members: tuple[tuple[Word, FuzzyVector], ...]
    complete: bool
    truncated: bool


def reachable_state_family(
    rec: FuzzyRecognizer,
    direction: str,
    max_states: int = 4096,
    max_depth: int = 64,
) -> FuzzyStateFamily:
    """`Levels.family` on the recognizer's levels, decoded once."""
    lv = Levels(require_recognizer(rec, "the state family"))
    members, truncated = lv.family(direction, max_states, max_depth)
    lat, decode = lv.aut.lattice, lv.codec.decode
    decoded = tuple((w, FuzzyVector(lat, decode(g))) for g, w in members.items())
    return FuzzyStateFamily(direction, decoded, complete=not truncated, truncated=truncated)


def words_up_to(alphabet_size: int, max_len: int):
    """All words of length <= max_len in length-then-lexicographic order."""
    for length in range(max_len + 1):
        yield from itertools.product(range(alphabet_size), repeat=length)
