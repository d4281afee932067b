"""Shared builders: showcase machines, random corpora, hypothesis strategies."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import strategies as st

from fuzzaut import (
    FuzzyAutomaton,
    FuzzyMatrix,
    FuzzyRecognizer,
    FuzzyVector,
    Lattice,
    transitive_closure,
)

BOOL = Lattice.boolean()
GODEL = Lattice.godel()
PROD = Lattice.product()
LUK = Lattice.lukasiewicz()
CHAIN4 = Lattice.chain(4)


def mat(lat, rows):
    return FuzzyMatrix.from_rows(lat, [[F(v) for v in row] for row in rows])


def vec(lat, values):
    return FuzzyVector.from_values(lat, [F(v) for v in values])


def aut(lat, letters, *matrices, states=None):
    n = matrices[0].rows
    names = states or tuple(str(i + 1) for i in range(n))
    return FuzzyAutomaton(lat, tuple(names), tuple(letters), dict(zip(letters, matrices)))


def rec(automaton, sigma, tau):
    return FuzzyRecognizer(automaton, sigma, tau)


# ---------------------------------------------------------------------------
# showcase machines


def automaton_ri_beats_rie():
    """Boolean, two letters; its greatest invariant quasi-order merges states
    that no invariant equivalence can merge."""
    return aut(
        BOOL,
        ("x", "y"),
        mat(BOOL, [[1, 0, 0], [0, 0, 0], [0, 0, 0]]),
        mat(BOOL, [[1, 0, 0], [1, 1, 0], [1, 0, 0]]),
    )


def product_nonterminating():
    """Product lattice, two states; the invariant iteration descends forever."""
    return aut(PROD, ("x",), mat(PROD, [["1/5", 0], [0, "1/10"]]))


def product_three_state():
    """Product lattice where the quasi-order iteration stops but the
    equivalence iteration does not."""
    return aut(PROD, ("x",), mat(PROD, [[0, 1, 1], [0, 1, 1], ["1/2", 0, 0]]))


def godel_cycle_automaton():
    """Goedel lattice; fuzzy reduction merges states the crisp one cannot."""
    return aut(GODEL, ("x",), mat(GODEL, [[0, "1/10", 0], ["1/5", 0, 0], ["1/10", 0, 0]]))


def sri_two_round_automaton():
    """Strong-invariance reduction needs two rounds here: 3 -> 2 -> 1."""
    return aut(BOOL, ("x",), mat(BOOL, [[1, 0, 1], [1, 0, 0], [1, 0, 0]]))


def four_state_chain_automaton():
    return aut(
        BOOL,
        ("x",),
        mat(BOOL, [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]]),
    )


def tau_chain_recognizer():
    """4 states, one letter; the weak right invariant strictly beats ri."""
    return rec(four_state_chain_automaton(), vec(BOOL, [1, 0, 0, 0]), vec(BOOL, [0, 0, 1, 0]))


def minimality_witness_recognizer():
    """Recognizes exactly the one-letter word; no quotient reaches the
    2-state minimal recognizer."""
    return rec(four_state_chain_automaton(), vec(BOOL, [0, 1, 0, 0]), vec(BOOL, [0, 0, 1, 1]))


def blocking_showcase_recognizer():
    """Nonblocking itself, but its weak-right-invariant quotient blocks."""
    return rec(four_state_chain_automaton(), vec(BOOL, [0, 1, 0, 1]), vec(BOOL, [0, 1, 0, 1]))


def alternating_showcase_automaton():
    return aut(
        BOOL,
        ("x", "y"),
        mat(BOOL, [[1, 0, 0], [0, 0, 0], [0, 0, 0]]),
        mat(BOOL, [[0, 1, 0], [1, 1, 1], [1, 0, 0]]),
    )


def alternating_showcase_recognizer():
    """Alternating right-then-left reduction shrinks it; left-then-right stalls."""
    return rec(alternating_showcase_automaton(), vec(BOOL, [1, 0, 0]), vec(BOOL, [0, 1, 1]))


def general_system_probe_recognizer():
    """A quasi-order failing language preservation while its natural
    equivalence passes."""
    return rec(alternating_showcase_automaton(), vec(BOOL, [1, 1, 1]), vec(BOOL, [1, 0, 1]))


def no_greatest_solution_recognizer():
    """Two language-preserving quasi-orders whose join is not one."""
    return rec(
        aut(BOOL, ("x",), mat(BOOL, [[0, 1, 0], [0, 0, 0], [0, 0, 0]])),
        vec(BOOL, [1, 1, 1]),
        vec(BOOL, [1, 1, 1]),
    )


def funnel_recognizer(n=14):
    """Goedel; every state has its own initial degree, so no left round can
    merge two states, and every transition leads into state 1 or 2."""
    x = [[0] * n for _ in range(n)]
    y = [[0] * n for _ in range(n)]
    for i in range(n):
        x[i][i % 2] = ("1/2", 1, "7/10")[i % 3]
        y[i][(i + 1) % 2] = (1, "3/10")[i % 2]
    sigma = [F(i + 1, n + 1) for i in range(n)]
    tau = [(1, "1/2", 0)[i % 3] for i in range(n)]
    return rec(aut(GODEL, ("x", "y"), mat(GODEL, x), mat(GODEL, y)), vec(GODEL, sigma), vec(GODEL, tau))


def cycle_recognizer(n=13):
    """Goedel; one cyclic permutation letter, distinct initial and terminal
    degrees."""
    p = [[1 if j == (i + 1) % n else 0 for j in range(n)] for i in range(n)]
    return rec(
        aut(GODEL, ("x",), mat(GODEL, p)),
        vec(GODEL, [F(i + 1, n + 1) for i in range(n)]),
        vec(GODEL, [F(n - i, n + 1) for i in range(n)]),
    )


def one_state_sink(lat, letters=("x",)):
    ident = mat(lat, [[1]])
    a = FuzzyAutomaton(lat, ("b",), tuple(letters), {x: ident for x in letters})
    return rec(a, vec(lat, [1]), vec(lat, [1]))


# ---------------------------------------------------------------------------
# random corpora (seeded, deterministic)

VALUE_POOLS = {
    "boolean": [F(0), F(0), F(1)],
    "godel": [F(0), F(0), F(1, 10), F(3, 10), F(1, 2), F(7, 10), F(1)],
    "chain": [F(0), F(0), F(1, 4), F(1, 2), F(3, 4), F(1)],
    "product": [F(0), F(0), F(1, 4), F(1, 2), F(1)],
    "lukasiewicz": [F(0), F(0), F(1, 4), F(1, 2), F(3, 4), F(1)],
}

CORPUS_LATTICES = (BOOL, GODEL, CHAIN4)


def rand_matrix(rng: random.Random, lat, n):
    pool = VALUE_POOLS[lat.kind]
    return FuzzyMatrix(lat, n, n, tuple(rng.choice(pool) for _ in range(n * n)))


def rand_vector(rng: random.Random, lat, n):
    pool = VALUE_POOLS[lat.kind]
    return FuzzyVector(lat, tuple(rng.choice(pool) for _ in range(n)))


def rand_automaton(rng: random.Random, lat, n, letters=("x", "y")):
    names = tuple(str(i + 1) for i in range(n))
    delta = {x: rand_matrix(rng, lat, n) for x in letters}
    return FuzzyAutomaton(lat, names, tuple(letters), delta)


def rand_recognizer(rng: random.Random, lat, n, letters=("x", "y")):
    return FuzzyRecognizer(
        rand_automaton(rng, lat, n, letters),
        rand_vector(rng, lat, n),
        rand_vector(rng, lat, n),
    )


def rand_quasi_order(rng: random.Random, lat, n):
    m = rand_matrix(rng, lat, n)
    entries = list(m.entries)
    for i in range(n):
        entries[i * n + i] = F(1)
    return transitive_closure(FuzzyMatrix(lat, n, n, tuple(entries)))


# ---------------------------------------------------------------------------
# hypothesis strategies


def value_strategy(lat):
    return st.sampled_from(VALUE_POOLS[lat.kind])


def matrix_strategy(lat, min_n=1, max_n=4):
    def build(n):
        return st.lists(
            value_strategy(lat), min_size=n * n, max_size=n * n
        ).map(lambda vals: FuzzyMatrix(lat, n, n, tuple(vals)))

    return st.integers(min_n, max_n).flatmap(build)


def square_matrices_same_size(lat, count, n=3):
    return st.tuples(
        *(
            st.lists(value_strategy(lat), min_size=n * n, max_size=n * n).map(
                lambda vals: FuzzyMatrix(lat, n, n, tuple(vals))
            )
            for _ in range(count)
        )
    )


# the seven lattices of the kernel tests, with values drawn beyond the pools

LATTICES = {
    "boolean": Lattice.boolean(),
    "godel": Lattice.godel(),
    "product": Lattice.product(),
    "lukasiewicz": Lattice.lukasiewicz(),
    "chain1": Lattice.chain(1),
    "chain4": Lattice.chain(4),
    "chain7": Lattice.chain(7),
}


def values_of(lat):
    """Carrier values: any rational for godel (no fixed pool), coprime
    denominators for lukasiewicz, the grid for chain(n)."""
    if lat.kind == "boolean":
        return st.sampled_from([F(0), F(1)])
    if lat.kind == "chain":
        return st.integers(0, lat.n).map(lambda k: F(k, lat.n))
    zero_one = st.sampled_from([F(0), F(1)])
    if lat.kind == "lukasiewicz":
        return st.one_of(zero_one, st.sampled_from([F(1, 3), F(2, 7), F(2, 3), F(5, 7)]),
                         st.fractions(0, 1, max_denominator=12))
    if lat.kind == "product":
        return st.one_of(zero_one, st.fractions(0, 1, max_denominator=9))
    return st.one_of(zero_one, st.fractions(0, 1, max_denominator=1000))


def matrices(lat, rows, cols):
    return st.lists(values_of(lat), min_size=rows * cols, max_size=rows * cols).map(
        lambda vals: FuzzyMatrix(lat, rows, cols, tuple(vals))
    )


def vectors(lat, n):
    return st.lists(values_of(lat), min_size=n, max_size=n).map(
        lambda vals: FuzzyVector(lat, tuple(vals))
    )


@st.composite
def recognizers(draw, lat, letters=("x", "y"), max_n=4):
    n = draw(st.integers(1, max_n))
    delta = {x: draw(matrices(lat, n, n)) for x in letters}
    automaton = FuzzyAutomaton(lat, tuple(str(i) for i in range(n)), letters, delta)
    return FuzzyRecognizer(automaton, draw(vectors(lat, n)), draw(vectors(lat, n)))


@pytest.fixture
def rng():
    return random.Random(20240811)
