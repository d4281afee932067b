"""Verifiers: the second route of a dual check against the main algorithms.

Two routes here share no code with the level kernel: the bitmask brute
force over crisp quasi-orders (`brute_force_greatest_invariant`) and the
scalar `Fraction` composition `reference_compose`.  The bounded language
comparison and `check_general_system` run on the library's own search and
kernel: the comparison walks the state family of the direct sum with
`Levels.walk` on `compose_levels`, and the general system builds its
dressed recognizer with `relation.compose`.  A kernel-free walk is still
to come; until then the tests check both against word-by-word
`reference_compose`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain

from .automaton import (
    FuzzyAutomaton,
    FuzzyRecognizer,
    Levels,
    Machine,
    Word,
    require_recognizer,
    underlying,
)
from .errors import (
    AlphabetMismatch,
    DimensionMismatch,
    LatticeMismatch,
    NotBoolean,
    SizeLimitExceeded,
    ValidationError,
)
from .lattice import ONE, ZERO
from .record import record
from .relation import (
    FuzzyMatrix,
    FuzzyVector,
    compose,
    compose_levels,
    compose_vm,
    overlap,
    require_quasi_order,
)


def reference_compose(p: FuzzyMatrix, q: FuzzyMatrix) -> FuzzyMatrix:
    """(P o Q)(a,b) = join_c P(a,c) * Q(c,b) with the scalar `Fraction`
    operations of `Lattice`: the reference for the level kernel behind
    `relation.compose`."""
    if p.lattice != q.lattice:
        raise LatticeMismatch(f"{p.lattice.describe()} vs {q.lattice.describe()}")
    if p.cols != q.rows:
        raise DimensionMismatch(f"cannot compose {p.rows}x{p.cols} with {q.rows}x{q.cols}")
    lat = p.lattice
    otimes, join = lat.otimes, lat.join
    out = []
    for i in range(p.rows):
        prow = p.row(i)
        for j in range(q.cols):
            qcol = q.col(j)
            acc = ZERO
            for x, y in zip(prow, qcol):
                if x != ZERO and y != ZERO:
                    acc = join(acc, otimes(x, y))
            out.append(acc)
    return FuzzyMatrix(lat, p.rows, q.cols, tuple(out))


@record
class EquivalenceVerdict:
    equal_up_to: int
    first_divergence: tuple[Word, Fraction, Fraction] | None

    @property
    def equal(self) -> bool:
        return self.first_divergence is None


def _direct_sum(a: FuzzyRecognizer, b: FuzzyRecognizer) -> FuzzyRecognizer:
    """A (+) B: block-diagonal letters, sigma and tau concatenated.  Its
    fuzzy state after a word u is (sigma_A o delta_u, sigma_B o delta_u)."""
    lat = a.lattice
    na, nb = a.n, b.n
    n = na + nb

    def block(x: str) -> FuzzyMatrix:
        ma, mb = a.delta[x], b.delta[x]
        rows = [ma.row(i) + (ZERO,) * nb for i in range(na)]
        rows += [(ZERO,) * na + mb.row(i) for i in range(nb)]
        return FuzzyMatrix(lat, n, n, tuple(chain.from_iterable(rows)))

    aut = FuzzyAutomaton(lat, tuple(map(str, range(n))), a.alphabet, {x: block(x) for x in a.alphabet})
    return FuzzyRecognizer(aut, FuzzyVector(lat, a.sigma.entries + b.sigma.entries),
                           FuzzyVector(lat, a.tau.entries + b.tau.entries))


def languages_equal_up_to(a: FuzzyRecognizer, b: FuzzyRecognizer, k: int) -> EquivalenceVerdict:
    """Compare recognized languages on every word of length <= k, in
    length-then-lexicographic order, with exact value equality.

    Walks the forward state family of the direct sum A (+) B to depth k
    and stops at the first member whose two halves give different degrees.
    A word whose pair of fuzzy states was already reached has an earlier
    witness with the same degrees, and so have its extensions, so that
    member's witness is the first diverging word.  The work is bounded by
    the number of distinct pairs, and by k where they are infinitely many;
    only a divergence is decoded.  The empty word is compared before the
    sum is built."""
    if k < 0:
        raise ValidationError(f"word length bound must be nonnegative, got {k}")
    for machine in (a, b):
        require_recognizer(machine, "a language comparison")
    if a.alphabet != b.alphabet:
        raise AlphabetMismatch(f"{a.alphabet} vs {b.alphabet}")
    if a.lattice != b.lattice:
        raise LatticeMismatch(f"{a.lattice.describe()} vs {b.lattice.describe()}")
    xa, xb = overlap(a.sigma, a.tau), overlap(b.sigma, b.tau)
    if xa != xb:
        return EquivalenceVerdict(k, ((), xa, xb))
    lv = Levels(_direct_sum(a, b))
    codec, na, nb = lv.codec, a.n, b.n
    tau_a, tau_b = lv.tau[:na], lv.tau[na:]
    for g, word in lv.walk("forward", k):
        xa = compose_levels(codec, g[:na], tau_a, 1, na, 1)
        xb = compose_levels(codec, g[na:], tau_b, 1, nb, 1)
        if xa != xb:
            return EquivalenceVerdict(k, (word, *codec.decode(xa + xb)))
    return EquivalenceVerdict(k, None)


# ---------------------------------------------------------------------------
# crisp quasi-order enumeration (bitmask rows, independent of relation.py)


@lru_cache(maxsize=None)
def _crisp_quasi_orders(n: int) -> tuple[tuple[int, ...], ...]:
    """All reflexive transitive crisp relations on n states, as row bitmasks."""
    if n > 4:
        raise SizeLimitExceeded(f"quasi-order enumeration capped at 4 states, got {n}")
    out = []
    offdiag = [(i, j) for i in range(n) for j in range(n) if i != j]
    for bits in range(1 << len(offdiag)):
        rows = [1 << i for i in range(n)]
        for k, (i, j) in enumerate(offdiag):
            if bits >> k & 1:
                rows[i] |= 1 << j
        # transitive iff every successor's row is contained in mine
        if not any(_bit_apply(row, rows) & ~row for row in rows):
            out.append(tuple(rows))
    return tuple(out)


def crisp_quasi_orders(lattice, n: int) -> list[FuzzyMatrix]:
    """All crisp quasi-orders on n states as Boolean-valued matrices."""
    mats = []
    for rows in _crisp_quasi_orders(n):
        flat = tuple(
            ONE if rows[i] >> j & 1 else ZERO for i in range(n) for j in range(n)
        )
        mats.append(FuzzyMatrix(lattice, n, n, flat))
    return mats


def _as_bitrows(m: FuzzyMatrix) -> tuple[int, ...]:
    rows = []
    for i in range(m.rows):
        bits = 0
        for j, v in enumerate(m.row(i)):
            if v == ONE:
                bits |= 1 << j
            elif v != ZERO:
                raise NotBoolean(f"entry ({i},{j}) = {v} is not crisp")
        rows.append(bits)
    return tuple(rows)


def _bit_apply(vec: int, p: tuple[int, ...]) -> int:
    # image of a state set under a relation: union of successor rows
    acc = 0
    m = vec
    while m:
        j = (m & -m).bit_length() - 1
        acc |= p[j]
        m &= m - 1
    return acc


def _bit_compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(_bit_apply(row, q) for row in p)


def brute_force_greatest_invariant(machine: Machine, side: str) -> FuzzyMatrix:
    """Greatest right/left invariant crisp quasi-order, by direct filtering.

    Enumerates every crisp quasi-order on <= 4 Boolean states, keeps those
    satisfying the defining equations, and returns their join (union closed
    transitively), which the filter must accept again.
    """
    aut = underlying(machine)
    lat = aut.lattice
    if lat.kind != "boolean":
        raise NotBoolean(f"brute force requires the Boolean lattice, got {lat.describe()}")
    n = aut.n
    if n > 4:
        raise SizeLimitExceeded(f"brute force capped at 4 states, got {n}")

    deltas = [_as_bitrows(aut.delta[x]) for x in aut.alphabet]
    if isinstance(machine, FuzzyRecognizer):
        tau_bits = sum(1 << i for i, v in enumerate(machine.tau.entries) if v == ONE)
        sigma_bits = sum(1 << i for i, v in enumerate(machine.sigma.entries) if v == ONE)
    else:
        tau_bits = sigma_bits = None

    def accepted(rows: tuple[int, ...]) -> bool:
        for d in deltas:
            dr = _bit_compose(d, rows)
            target = dr if side == "right" else _bit_compose(rows, d)
            lhs = _bit_compose(rows, dr) if side == "right" else _bit_compose(_bit_compose(rows, d), rows)
            if lhs != target:
                return False
        if side == "right" and tau_bits is not None:
            if _bit_apply(tau_bits, _transpose_bits(rows, n)) != tau_bits:
                return False
        if side == "left" and sigma_bits is not None:
            if _bit_apply(sigma_bits, rows) != sigma_bits:
                return False
        return True

    solutions = [rows for rows in _crisp_quasi_orders(n) if accepted(rows)]
    best = tuple(0 for _ in range(n))
    union = list(best)
    for rows in solutions:
        for i in range(n):
            union[i] |= rows[i]
    # transitive closure of the union (the join in the quasi-order lattice)
    changed = True
    while changed:
        changed = False
        for i in range(n):
            acc = _bit_apply(union[i], tuple(union))
            if acc & ~union[i]:
                union[i] |= acc
                changed = True
    joined = tuple(union)
    if not accepted(joined):
        raise AssertionError("join of invariant quasi-orders failed the filter")
    flat = tuple(ONE if joined[i] >> j & 1 else ZERO for i in range(n) for j in range(n))
    return FuzzyMatrix(lat, n, n, flat)


def _transpose_bits(rows: tuple[int, ...], n: int) -> tuple[int, ...]:
    return tuple(
        sum(1 << j for j in range(n) if rows[j] >> i & 1) for i in range(n)
    )


# ---------------------------------------------------------------------------
# the general system


def check_general_system(
    rec: FuzzyRecognizer, r: FuzzyMatrix, k: int
) -> tuple[bool, Word | None]:
    """Verify sigma o R o dx1 o R o ... o R o dxn o R o tau equals the plain
    product for every word of length <= k; returns the first witness word
    (length-then-lexicographic) on failure.

    The left-hand side is the language of the R-dressed recognizer
    (sigma o R, dx o R, tau), so this is a bounded language comparison."""
    require_recognizer(rec, "the general system")
    require_quasi_order(r)
    delta = {x: compose(m, r) for x, m in rec.delta.items()}
    aut = FuzzyAutomaton(rec.lattice, rec.states, rec.alphabet, delta)
    dressed = FuzzyRecognizer(aut, compose_vm(rec.sigma, r), rec.tau)
    verdict = languages_equal_up_to(rec, dressed, k)
    if verdict.equal:
        return True, None
    return False, verdict.first_divergence[0]
