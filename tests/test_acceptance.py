"""Acceptance suite: one test per criterion, exact tolerances, one printed
pass line each.  Randomized criteria run on fixed-seed corpora.

Run with `pytest tests/test_acceptance.py -v -s` to see the pass lines.
"""

import itertools
import random
import time
from fractions import Fraction as F

from fuzzaut import (
    FuzzyMatrix,
    Lattice,
    afterset_quotient,
    aftersets,
    are_isomorphic,
    brute_force_greatest_invariant,
    check_blocking,
    check_general_system,
    conflict_check,
    crisp_quasi_orders,
    greatest_invariant,
    languages_equal_up_to,
    leq,
    meet,
    natural_equivalence,
    quotient_quasi_order,
    transpose,
    alternate_reduce,
)

from conftest import (
    BOOL,
    CORPUS_LATTICES,
    GODEL,
    PROD,
    alternating_showcase_recognizer,
    automaton_ri_beats_rie,
    blocking_showcase_recognizer,
    godel_cycle_automaton,
    mat,
    minimality_witness_recognizer,
    one_state_sink,
    product_nonterminating,
    product_three_state,
    rand_quasi_order,
    rand_recognizer,
    sri_two_round_automaton,
    tau_chain_recognizer,
)


def _pass(n, label, started):
    print(f"PASS criterion {n}: {label} ({time.perf_counter() - started:.2f}s)")


def test_criterion_1_golden_examples():
    started = time.perf_counter()

    # worked quasi-order: natural equivalence, bit-exact
    r = mat(GODEL, [[1, "3/10", "3/10"], [0, 1, "1/5"], [0, 1, 1]])
    assert natural_equivalence(r) == mat(GODEL, [[1, 0, 0], [0, 1, "1/5"], [0, "1/5", 1]])

    # product 2-state: iterates halve forever, cap reported honestly
    prod2 = product_nonterminating()
    for k in range(1, 11):
        report = greatest_invariant(prod2, "ri", max_iter=k)
        assert report.quasi_order == FuzzyMatrix(
            PROD, 2, 2, (F(1), F(1), F(1, 2 ** (k - 1)), F(1))
        )
    assert not greatest_invariant(prod2, "ri", max_iter=256).converged

    # product 3-state: quasi-order iteration stops, equivalence one does not
    prod3 = product_three_state()
    ri3 = greatest_invariant(prod3, "ri")
    assert ri3.converged
    assert ri3.quasi_order == mat(PROD, [[1, 1, 1], [1, 1, 1], ["1/2", "1/2", 1]])
    assert not greatest_invariant(prod3, "rie", max_iter=64).converged

    # Boolean two-letter showcase: quasi-order beats equivalence
    show = automaton_ri_beats_rie()
    ri = greatest_invariant(show, "ri").quasi_order
    assert ri == mat(BOOL, [[1, 1, 1], [0, 1, 1], [0, 1, 1]])
    e_r = natural_equivalence(ri)
    assert e_r == mat(BOOL, [[1, 0, 0], [0, 1, 1], [0, 1, 1]])
    assert greatest_invariant(show, "rie").quasi_order == FuzzyMatrix.identity(BOOL, 3)
    from fuzzaut import compose

    assert compose(compose(ri, show.delta["y"]), ri) == FuzzyMatrix.universal(BOOL, 3)
    assert compose(compose(e_r, show.delta["y"]), e_r) == mat(
        BOOL, [[1, 0, 0], [1, 1, 1], [1, 1, 1]]
    )
    assert are_isomorphic(afterset_quotient(show, ri), afterset_quotient(show, e_r)) is None

    # Goedel cycle: fuzzy vs crisp invariant
    cyc = godel_cycle_automaton()
    assert greatest_invariant(cyc, "ri").quasi_order == mat(
        GODEL, [[1, "1/10", 1], [1, 1, 1], [1, "1/10", 1]]
    )
    assert greatest_invariant(cyc, "cri").quasi_order == mat(
        GODEL, [[1, 0, 0], [0, 1, 1], [0, 0, 1]]
    )

    # strong invariance on the showcase: closed form, quotient matrices,
    # and a fixed point at 3 states
    sri = greatest_invariant(show, "sri").quasi_order
    assert sri == mat(BOOL, [[1, 0, 1], [0, 1, 1], [0, 0, 1]])
    q2 = afterset_quotient(show, sri)
    assert q2.n == 3
    assert q2.delta["x"] == mat(BOOL, [[1, 0, 1], [0, 0, 0], [0, 0, 0]])
    assert q2.delta["y"] == mat(BOOL, [[1, 0, 1], [1, 1, 1], [1, 0, 1]])
    sri2 = greatest_invariant(q2, "sri").quasi_order
    assert sri2 == mat(BOOL, [[1, 0, 1], [0, 1, 1], [0, 0, 1]])
    assert are_isomorphic(afterset_quotient(q2, sri2), q2) is not None

    # two-round strong descent 3 -> 2 -> 1
    desc = sri_two_round_automaton()
    s1 = greatest_invariant(desc, "sri").quasi_order
    assert s1 == mat(BOOL, [[1, 1, 1], [0, 1, 1], [0, 1, 1]])
    d2 = afterset_quotient(desc, s1)
    assert d2.n == 2
    d3 = afterset_quotient(d2, greatest_invariant(d2, "sri").quasi_order)
    assert d3.n == 1

    # 4-state recognizer: weak right invariant strictly above right invariant
    chain_rec = tau_chain_recognizer()
    ri4 = greatest_invariant(chain_rec, "ri").quasi_order
    wri4 = greatest_invariant(chain_rec, "wri").quasi_order
    assert ri4 == mat(BOOL, [[1, 1, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 1]])
    assert wri4 == mat(BOOL, [[1, 1, 0, 1], [1, 1, 0, 1], [1, 1, 1, 1], [1, 1, 0, 1]])
    assert leq(ri4, wri4) and ri4 != wri4
    assert len(aftersets(wri4)) == 2

    # alternate schedules: right-first shrinks, left-first stalls
    alt = alternating_showcase_recognizer()
    wrl = alternate_reduce(alt, "wrl")
    assert wrl.state_trace == (3, 3, 2) and wrl.reduct.n == 2
    wlr = alternate_reduce(alt, "wlr")
    assert wlr.state_trace == (3, 3) and wlr.reduct.n == 3

    # blocking showcase: the original is nonblocking, its weak-right quotient
    # blocks, and the one-state partner preserves both verdicts
    block = blocking_showcase_recognizer()
    quotient = greatest_invariant(block, "wri").quotient
    partner = one_state_sink(BOOL)
    assert check_blocking(block, 4).verdict == "nonblocking"
    blocked = check_blocking(quotient, 4)
    assert blocked.verdict == "blocking" and blocked.witness == (0, 0)
    assert conflict_check(block, partner, 4).verdict == "nonblocking"
    assert conflict_check(quotient, partner, 4).verdict == "blocking"

    _pass(1, "golden example suite reproduced bit-exactly", started)


def test_criterion_2_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(1202)
    checked = 0
    for _ in range(200):
        n = rng.randint(1, 4)
        letters = ("x", "y")[: rng.randint(1, 2)]
        machine = rand_recognizer(rng, BOOL, n, letters)
        if rng.random() < 0.5:
            machine = machine.automaton
        for side, method in (("right", "ri"), ("left", "li")):
            expected = brute_force_greatest_invariant(machine, side)
            report = greatest_invariant(machine, method)
            assert report.converged
            assert report.quasi_order == expected, (side, machine)
            checked += 1
    assert checked == 400
    _pass(2, f"{checked} fixpoints match exhaustive enumeration", started)


def _language_corpus():
    rng = random.Random(1203)
    corpus = []
    for i in range(100):
        lat = CORPUS_LATTICES[i % 3]
        n = rng.randint(2, 5)
        letters = ("x", "y")[: rng.randint(1, 2)]
        corpus.append(rand_recognizer(rng, lat, n, letters))
    return corpus


METHODS_UNDER_TEST = ("ri", "li", "sri", "sli", "wri", "wli")


def test_criterion_3_language_preservation():
    started = time.perf_counter()
    corpus = _language_corpus()
    preserved = 0
    skipped = 0
    for rec in corpus:
        for method in METHODS_UNDER_TEST:
            report = greatest_invariant(rec, method)
            if not report.converged:
                skipped += 1
                continue
            verdict = languages_equal_up_to(rec, report.quotient, 6)
            assert verdict.equal, (rec.lattice.kind, method, verdict.first_divergence)
            ok, witness = check_general_system(rec, natural_equivalence(report.quasi_order), 6)
            assert ok, (rec.lattice.kind, method, witness)
            preserved += 1
    assert preserved >= 590  # locally finite lattices: convergence is the norm
    _pass(3, f"{preserved} quotients language-preserving ({skipped} skipped as approximate)", started)


def test_criterion_4_containment_chain():
    started = time.perf_counter()
    corpus = _language_corpus()
    for rec in corpus:
        sri = greatest_invariant(rec, "sri").quasi_order
        ri = greatest_invariant(rec, "ri")
        assert ri.converged
        cri = greatest_invariant(rec, "cri")
        assert leq(sri, ri.quasi_order)
        assert leq(cri.quasi_order, ri.quasi_order)
        wri = greatest_invariant(rec, "wri")
        if wri.converged:
            assert leq(ri.quasi_order, wri.quasi_order)
    _pass(4, "sri <= ri <= wri and crisp ri <= ri on the whole corpus", started)


def test_criterion_5_structural_theorems():
    started = time.perf_counter()
    rng = random.Random(1205)
    for i in range(50):
        lat = CORPUS_LATTICES[i % 3]
        n = rng.randint(2, 5)
        rec = rand_recognizer(rng, lat, n)
        r = rand_quasi_order(rng, lat, n)
        s = rand_quasi_order(rng, lat, n)
        small = meet(r, s)
        # the foresets of a quasi-order are the aftersets of its transpose, and
        # they sit at the same states: afterset and foreset quotients agree
        fore, after = aftersets(transpose(small)), aftersets(small)
        assert [i for i, _ in fore] == [i for i, _ in after]
        # second isomorphism: A/S and (A/R)/(S/R)
        lifted = quotient_quasi_order(small, s)
        lhs = afterset_quotient(rec, s)
        rhs = afterset_quotient(afterset_quotient(rec, small), lifted)
        assert are_isomorphic(lhs, rhs) is not None
    _pass(5, "afterset/foreset and second-isomorphism checks on 50 pairs", started)


def test_criterion_6_minimality_witness():
    started = time.perf_counter()
    rec = minimality_witness_recognizer()
    all_orders = crisp_quasi_orders(BOOL, 4)
    assert len(all_orders) == 355
    solution_sizes = [
        len(aftersets(q)) for q in all_orders if check_general_system(rec, q, 6)[0]
    ]
    assert solution_sizes, "the equality relation must solve the general system"
    assert min(solution_sizes) == 3
    _pass(
        6,
        f"no general-system solution among {len(all_orders)} quasi-orders "
        f"drops below 3 afterset states",
        started,
    )


def test_criterion_7_lattice_laws():
    started = time.perf_counter()
    one, zero = F(1), F(0)
    lattices = [BOOL, GODEL, PROD, Lattice.lukasiewicz(), Lattice.chain(20)]
    for lat in lattices:
        grid = lat.carrier_sample(21)
        otimes, residuum = lat.otimes, lat.residuum
        for x in grid:
            assert otimes(x, one) == x and otimes(x, zero) == zero
        pair = {(x, y): otimes(x, y) for x in grid for y in grid}
        for (x, y), v in pair.items():
            assert v == pair[y, x]
        for x, y, z in itertools.product(grid, repeat=3):
            xy = pair[x, y]
            assert (xy <= z) == (x <= residuum(y, z))
            assert otimes(xy, z) == otimes(x, pair[y, z])
            assert pair[x, y if y >= z else z] == max(xy, pair[x, z])
    _pass(7, "adjunction, monoid and distributivity laws on 21-point grids", started)


def test_criterion_8_infimum_documentation():
    started = time.perf_counter()
    report = greatest_invariant(product_nonterminating(), "ri", max_iter=64)
    assert not report.converged
    inf = report.iterate_infimum
    assert inf[1, 0] == F(1, 2**63)
    assert inf[0, 0] == inf[0, 1] == inf[1, 1] == F(1)
    # the three unit entries already agree with the true greatest invariant
    # quasi-order [[1,1],[0,1]]; only the descending entry is still open
    _pass(8, "bounded iteration documents descent toward the limit", started)
