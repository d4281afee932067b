import operator
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzaut import (
    ContainmentViolated,
    EquivalenceRequired,
    FuzzyMatrix,
    FuzzyRecognizer,
    Lattice,
    NotQuasiOrder,
    ValidationError,
    afterset_quotient,
    aftersets,
    alternate_reduce,
    are_isomorphic,
    check_blocking,
    crisp_part,
    from_fuzzy_set_left,
    greatest_invariant,
    is_fuzzy_order,
    is_quasi_order,
    join,
    l_step,
    leq,
    meet,
    natural_equivalence,
    quotient_quasi_order,
    r_step,
    reverse,
    transitive_closure,
    transpose,
    underlying,
)
from fuzzaut import reduction, relation
from fuzzaut.reduction import leq_step, req_step
from fuzzaut.oracle import check_general_system, languages_equal_up_to
from fuzzaut.reduction import is_invariant

from conftest import (
    BOOL,
    CHAIN4,
    CORPUS_LATTICES,
    GODEL,
    LATTICES,
    PROD,
    alternating_showcase_recognizer,
    aut,
    automaton_ri_beats_rie,
    blocking_showcase_recognizer,
    cycle_recognizer,
    funnel_recognizer,
    godel_cycle_automaton,
    mat,
    matrices,
    minimality_witness_recognizer,
    one_state_sink,
    product_nonterminating,
    product_three_state,
    rand_quasi_order,
    rand_recognizer,
    recognizers,
    sri_two_round_automaton,
    tau_chain_recognizer,
    vec,
)


class TestRStep:
    def test_product_first_iterate(self):
        a = product_nonterminating()
        u = FuzzyMatrix.universal(PROD, 2)
        assert meet(u, r_step(a, u)) == mat(PROD, [[1, 1], ["1/2", 1]])

    def test_single_state(self):
        a = one_state_sink(GODEL).automaton
        assert r_step(a, FuzzyMatrix.universal(GODEL, 1)) == mat(GODEL, [[1]])

    def test_product_three_state_first_iterate(self):
        a = product_three_state()
        u = FuzzyMatrix.universal(PROD, 3)
        assert meet(u, r_step(a, u)) == mat(PROD, [[1, 1, 1], [1, 1, 1], ["1/2", "1/2", 1]])

    def test_requires_quasi_order(self):
        a = product_nonterminating()
        with pytest.raises(NotQuasiOrder):
            r_step(a, mat(PROD, [[0, 1], [1, 0]]))

    @pytest.mark.parametrize("lat", [BOOL, GODEL, CHAIN4, PROD])
    @pytest.mark.parametrize("step", [r_step, l_step, req_step, leq_step])
    def test_check_reads_the_square_block(self, lat, step):
        # the one letter is the identity, so dx o R = R o dx = R and only
        # the R o R block of the step's product can reject R
        a = aut(lat, ("x",), FuzzyMatrix.identity(lat, 3))
        v = 1 if lat == BOOL else "3/4"  # v * v > 0 on every lattice here
        not_transitive = mat(lat, [[1, v, 0], [0, 1, v], [0, 0, 1]])
        with pytest.raises(NotQuasiOrder, match="^relation is not transitive$"):
            step(a, not_transitive)
        not_reflexive = mat(lat, [[0, v, v], [0, v, v], [0, 0, 1]])
        with pytest.raises(NotQuasiOrder, match="^relation is not reflexive$"):
            step(a, not_reflexive)

    def test_one_product_per_step_and_per_invariant_quotient(self, monkeypatch, rng):
        calls = []
        original = reduction.compose_levels
        counted = lambda *args: calls.append(args) or original(*args)  # noqa: E731
        monkeypatch.setattr(reduction, "compose_levels", counted)
        a = rand_recognizer(rng, GODEL, 6).automaton
        for step in (r_step, l_step, req_step, leq_step):
            calls.clear()
            step(a, FuzzyMatrix.universal(GODEL, 6))
            assert len(calls) == 1
        for method in ("ri", "li", "rie", "cli_crisp", "sri", "sli"):
            calls.clear()
            report = greatest_invariant(a, method)
            assert report.converged
            # one product per step after the first iterate, one for the quotient
            assert len(calls) == report.iterates

    def test_one_encode_per_blocking_check_and_per_weak_method(self, monkeypatch, rng):
        # the state family, the reach matrix and every member's test run on
        # the one codec of the machine's levels
        calls = []
        original = Lattice.encode
        counted = lambda *args: calls.append(args) or original(*args)  # noqa: E731
        monkeypatch.setattr(Lattice, "encode", counted)
        machine = rand_recognizer(rng, GODEL, 6)
        for run in [lambda: check_blocking(machine, 4)] + [
            lambda method=method: greatest_invariant(machine, method)
            for method in ("wri", "wli", "wrie", "wlie")
        ]:
            calls.clear()
            run()
            assert len(calls) == 1

    def test_report_checks_only_an_unchecked_result(self, monkeypatch, rng):
        # the step that finds a converged iterate equal to its successor has
        # checked it; a closed form, a weak result and an iterate left by
        # max_iter are checked by the report
        calls = []
        original = relation.require_quasi_order_levels
        counted = lambda *args: calls.append(args) or original(*args)  # noqa: E731
        monkeypatch.setattr(relation, "require_quasi_order_levels", counted)
        machine = rand_recognizer(rng, GODEL, 6)
        cases = [(machine, method, 256, True, 0) for method in ("ri", "li", "rie", "cli_crisp")]
        cases += [(machine, "sri", 256, True, 1), (machine, "wri", 256, True, 1)]
        cases += [(product_nonterminating(), "ri", 3, False, 1)]
        for m, method, max_iter, converged, checks in cases:
            calls.clear()
            report = greatest_invariant(m, method, max_iter=max_iter)
            assert report.converged == converged
            assert len(calls) == checks, method

    @pytest.mark.parametrize("method", ["ri", "li"])
    def test_changed_column_check_catches_a_bad_iterate(self, monkeypatch, method):
        # the first step's residual loses one entry, so the first iterate is
        # reflexive but not transitive; the next step checks only the
        # changed columns and must still reject it
        calls = []
        original = reduction.residual_levels

        def faulty(codec, p, q, k, m, n):
            out = original(codec, p, q, k, m, n)
            calls.append(m)
            if len(calls) == 1:
                i = next(i for i, x in enumerate(out) if x == codec.top and i // n != i % n)
                out[i] = codec.zero
            return out

        monkeypatch.setattr(reduction, "residual_levels", faulty)
        # the first iterate is [[1, 1, 1], [1/2, 1, 1], [1/4, 1/2, 1]] (ri) or
        # its transpose (li), from three distinct rows of dx o R
        a = aut(GODEL, ("x",), mat(GODEL, [[1, 0, 0], [0, "1/2", 0], [0, 0, "1/4"]]))
        with pytest.raises(NotQuasiOrder, match="^relation is not transitive$"):
            greatest_invariant(a, method)
        # the second step rejected it before its own residual
        assert len(calls) == 1

    def test_monotone(self, rng):
        a = rand_recognizer(rng, GODEL, 4).automaton
        for _ in range(10):
            r = rand_quasi_order(rng, GODEL, 4)
            s = rand_quasi_order(rng, GODEL, 4)
            small, big = meet(r, s), r
            assert leq(r_step(a, small), r_step(a, big))
            assert leq(l_step(a, small), l_step(a, big))


class TestGreatestInvariant:
    def test_boolean_showcase_ri_and_rie(self):
        a = automaton_ri_beats_rie()
        ri = greatest_invariant(a, "ri")
        assert ri.converged
        assert ri.quasi_order == mat(BOOL, [[1, 1, 1], [0, 1, 1], [0, 1, 1]])
        rie = greatest_invariant(a, "rie")
        assert rie.quasi_order == FuzzyMatrix.identity(BOOL, 3)

    def test_godel_fuzzy_vs_crisp(self):
        a = godel_cycle_automaton()
        ri = greatest_invariant(a, "ri")
        assert ri.quasi_order == mat(GODEL, [[1, "1/10", 1], [1, 1, 1], [1, "1/10", 1]])
        cri = greatest_invariant(a, "cri")
        assert cri.quasi_order == mat(GODEL, [[1, 0, 0], [0, 1, 1], [0, 0, 1]])
        assert ri.state_trace == (3, 2)
        assert cri.state_trace == (3, 3)

    def test_product_never_converges(self):
        a = product_nonterminating()
        report = greatest_invariant(a, "ri", max_iter=64)
        assert not report.converged
        assert report.iterates == 64
        assert report.quasi_order[1, 0] == F(1, 2**63)
        assert report.iterate_infimum == report.quasi_order
        for k in range(1, 11):
            partial = greatest_invariant(a, "ri", max_iter=k)
            assert partial.quasi_order[1, 0] == F(1, 2 ** (k - 1))

    def test_product_three_state_ri_converges_rie_does_not(self):
        a = product_three_state()
        ri = greatest_invariant(a, "ri")
        assert ri.converged
        assert ri.quasi_order == mat(PROD, [[1, 1, 1], [1, 1, 1], ["1/2", "1/2", 1]])
        rie = greatest_invariant(a, "rie", max_iter=40)
        assert not rie.converged
        assert rie.quasi_order[0, 2] == F(1, 2**39)

    def test_recognizer_constraint_applies(self):
        rec = tau_chain_recognizer()
        ri = greatest_invariant(rec, "ri")
        assert ri.quasi_order == mat(
            BOOL, [[1, 1, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 1]]
        )
        assert leq(ri.quasi_order, from_fuzzy_set_left(rec.tau))

    def test_converged_results_satisfy_equations(self, rng):
        for lat in CORPUS_LATTICES:
            for _ in range(5):
                recz = rand_recognizer(rng, lat, 4)
                for method, side in (("ri", "right"), ("li", "left")):
                    report = greatest_invariant(recz, method)
                    assert report.converged
                    assert is_invariant(recz, report.quasi_order, side)

    def test_start_must_be_quasi_order(self):
        a = automaton_ri_beats_rie()
        with pytest.raises(NotQuasiOrder):
            greatest_invariant(a, "ri", start=mat(BOOL, [[0, 1, 0], [0, 0, 0], [0, 1, 1]]))

    def test_equivalence_methods_reject_asymmetric_start(self):
        a = automaton_ri_beats_rie()
        start = mat(BOOL, [[1, 1, 1], [0, 1, 1], [0, 1, 1]])
        with pytest.raises(EquivalenceRequired):
            greatest_invariant(a, "rie", start=start)

    @pytest.mark.parametrize("method", ["ri", "rie", "wri", "wrie"])
    def test_one_start_check_for_every_method(self, method):
        rec = tau_chain_recognizer()
        with pytest.raises(ValidationError):
            greatest_invariant(rec, method, start=FuzzyMatrix.universal(BOOL, 3))
        with pytest.raises(ValidationError):
            greatest_invariant(rec, method, start=FuzzyMatrix.universal(GODEL, 4))
        with pytest.raises(NotQuasiOrder):
            greatest_invariant(rec, method, start=mat(BOOL, [[0] * 4] * 4))
        asymmetric = mat(BOOL, [[1, 1, 1, 1], [0, 1, 1, 1], [0, 0, 1, 1], [0, 0, 0, 1]])
        if method.endswith("e"):
            with pytest.raises(EquivalenceRequired):
                greatest_invariant(rec, method, start=asymmetric)
        else:
            assert leq(greatest_invariant(rec, method, start=asymmetric).quasi_order, asymmetric)

    def test_unknown_method(self):
        with pytest.raises(ValidationError):
            greatest_invariant(automaton_ri_beats_rie(), "zigzag")

    @pytest.mark.parametrize("max_iter", [0, -3])
    def test_max_iter_below_one_rejected(self, max_iter):
        with pytest.raises(ValidationError, match="max_iter must be at least 1"):
            greatest_invariant(automaton_ri_beats_rie(), "ri", max_iter=max_iter)
        # one iterate is legal: the start itself, not known to be stable
        assert not greatest_invariant(automaton_ri_beats_rie(), "ri", max_iter=1).converged

    def test_weak_needs_recognizer(self):
        with pytest.raises(ValidationError):
            greatest_invariant(automaton_ri_beats_rie(), "wri")

    @pytest.mark.parametrize("method", sorted(reduction.METHODS))
    def test_family_caps_checked_for_every_method(self, method):
        rec = tau_chain_recognizer()
        with pytest.raises(ValidationError, match="max_states must be at least 1"):
            greatest_invariant(rec, method, max_states=0)
        with pytest.raises(ValidationError, match="max_depth must be nonnegative"):
            greatest_invariant(rec, method, max_depth=-1)


class TestStronglyInvariant:
    def test_showcase(self):
        a = automaton_ri_beats_rie()
        assert greatest_invariant(a, "sri").quasi_order == mat(
            BOOL, [[1, 0, 1], [0, 1, 1], [0, 0, 1]]
        )

    def test_two_round_automaton(self):
        a = sri_two_round_automaton()
        s = greatest_invariant(a, "sri").quasi_order
        assert s == mat(BOOL, [[1, 1, 1], [0, 1, 1], [0, 1, 1]])
        a2 = afterset_quotient(a, s)
        assert greatest_invariant(a2, "sri").quasi_order == FuzzyMatrix.universal(BOOL, 2)

    def test_identity_transitions(self):
        # brute check on 2 states: R o I = I forces R = I, so the greatest
        # strongly right invariant quasi-order over identity transitions is
        # the identity relation
        a = aut(BOOL, ("x",), FuzzyMatrix.identity(BOOL, 2))
        kernel = greatest_invariant(a, "sri").quasi_order
        from fuzzaut.oracle import crisp_quasi_orders
        from fuzzaut.relation import compose

        solutions = [
            q
            for q in crisp_quasi_orders(BOOL, 2)
            if all(compose(q, m) == m for m in a.delta.values())
        ]
        best = max(solutions, key=lambda q: sum(q.entries))
        assert kernel == best == FuzzyMatrix.identity(BOOL, 2)

    def test_results_satisfy_equations(self, rng):
        for lat in CORPUS_LATTICES:
            recz = rand_recognizer(rng, lat, 4)
            for side, method in (("right", "sri"), ("left", "sli")):
                strongest = greatest_invariant(recz, method).quasi_order
                assert is_invariant(recz, strongest, side, strong=True)


def test_is_invariant_matches_the_equations(rng):
    """The left side runs as the right side of the reversed machine; both
    sides and strengths agree with the defining equations written out."""
    from fuzzaut import compose, compose_mv, compose_vm

    answers = set()
    for lat in CORPUS_LATTICES:
        for _ in range(6):
            recz = rand_recognizer(rng, lat, 3)
            for r in (FuzzyMatrix.identity(lat, 3), rand_quasi_order(rng, lat, 3)):
                ds = list(recz.delta.values())
                right = compose_mv(r, recz.tau) == recz.tau
                left = compose_vm(recz.sigma, r) == recz.sigma
                expected = {
                    ("right", False): right
                    and all(compose(r, compose(d, r)) == compose(d, r) for d in ds),
                    ("right", True): right and all(compose(r, d) == d for d in ds),
                    ("left", False): left
                    and all(compose(compose(r, d), r) == compose(r, d) for d in ds),
                    ("left", True): left and all(compose(d, r) == d for d in ds),
                }
                for (side, strong), value in expected.items():
                    assert is_invariant(recz, r, side, strong) == value
                    answers.add(value)
    assert answers == {True, False}


# each left method and the right method it is the mirror image of
TWINS = {"li": "ri", "lie": "rie", "cli_crisp": "cri", "sli": "sri", "wli": "wri", "wlie": "wrie"}


@pytest.mark.parametrize("name", sorted(LATTICES))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_left_report_is_the_right_report_of_the_reverse(name, data):
    """R is left invariant for M exactly when R^T is right invariant for
    reverse(M): each left report is its twin's on reverse(M), transposed,
    after as many iterates, and its quotient is the twin's reversed."""
    rec = data.draw(recognizers(LATTICES[name]))
    caps = {"max_iter": 8, "max_states": 64, "max_depth": 8}
    for left, right in TWINS.items():
        weak = reduction.METHODS[left].source == "weak"
        for machine in (rec,) if weak else (rec, rec.automaton):
            report = greatest_invariant(machine, left, **caps)
            twin = greatest_invariant(reverse(machine), right, **caps)
            if weak and not report.converged:
                # a truncated family need not be discovered in the same order
                continue
            assert report.quasi_order == transpose(twin.quasi_order)
            assert (report.iterates, report.converged) == (twin.iterates, twin.converged)
            assert report.quotient == reverse(twin.quotient)


class TestWeaklyInvariant:
    def test_tau_chain_showcase(self):
        rec = tau_chain_recognizer()
        report = greatest_invariant(rec, "wri")
        assert report.converged
        expected = mat(BOOL, [[1, 1, 0, 1], [1, 1, 0, 1], [1, 1, 1, 1], [1, 1, 0, 1]])
        assert report.quasi_order == expected
        assert report.state_trace == (4, 2)
        ri = greatest_invariant(rec, "ri").quasi_order
        assert leq(ri, expected) and ri != expected

    def test_alternating_showcase_both_sides(self):
        rec = alternating_showcase_recognizer()
        wri = greatest_invariant(rec, "wri")
        assert wri.quasi_order == mat(BOOL, [[1, 0, 0], [0, 1, 1], [0, 0, 1]])
        a2 = wri.quotient
        wli2 = greatest_invariant(a2, "wli")
        assert wli2.quasi_order == mat(BOOL, [[1, 0, 0], [0, 1, 1], [0, 1, 1]])

    def test_all_terminal_deterministic_gives_universal(self):
        # deterministic complete transitions keep tau_u at all-ones forever
        a = aut(BOOL, ("x", "y"), mat(BOOL, [[0, 1], [1, 0]]), mat(BOOL, [[1, 0], [1, 0]]))
        rec = FuzzyRecognizer(a, vec(BOOL, [1, 0]), vec(BOOL, [1, 1]))
        report = greatest_invariant(rec, "wri")
        assert report.quasi_order == FuzzyMatrix.universal(BOOL, 2)

    def test_truncation_is_reported_and_sound(self):
        a = product_nonterminating()
        rec = FuzzyRecognizer(a, vec(PROD, [1, 1]), vec(PROD, [1, "1/2"]))
        report = greatest_invariant(rec, "wli", max_states=8)
        assert not report.converged
        # every discovered sigma_u still constrains: result stays a quasi-order
        # above the true answer computed with a larger cap
        fuller = greatest_invariant(rec, "wli", max_states=64)
        assert leq(fuller.quasi_order, report.quasi_order)

    def test_weak_equivalence_is_natural_equivalence_of_weak_order(self, rng):
        for lat in CORPUS_LATTICES:
            recz = rand_recognizer(rng, lat, 4)
            wri = greatest_invariant(recz, "wri")
            wrie = greatest_invariant(recz, "wrie")
            if wri.converged and wrie.converged:
                assert wrie.quasi_order == natural_equivalence(wri.quasi_order)


class TestAftersetQuotient:
    def test_strongly_invariant_showcase(self):
        a = automaton_ri_beats_rie()
        s = greatest_invariant(a, "sri").quasi_order
        q = afterset_quotient(a, s)
        assert q.states == ("Q1", "Q2", "Q3")
        assert q.delta["x"] == mat(BOOL, [[1, 0, 1], [0, 0, 0], [0, 0, 0]])
        assert q.delta["y"] == mat(BOOL, [[1, 0, 1], [1, 1, 1], [1, 0, 1]])

    def test_identity_gives_isomorphic_copy(self, rng):
        recz = rand_recognizer(rng, GODEL, 4)
        q = afterset_quotient(recz, FuzzyMatrix.identity(GODEL, 4))
        assert are_isomorphic(recz, q) is not None

    def test_alternating_showcase_chain(self):
        rec = alternating_showcase_recognizer()
        r1 = greatest_invariant(rec, "wri").quasi_order
        a2 = afterset_quotient(rec, r1)
        assert a2.automaton.states == ("Q1", "Q2", "Q3")
        assert a2.delta["x"] == mat(BOOL, [[1, 0, 0], [0, 0, 0], [0, 0, 0]])
        # (3,3) entry of the y-matrix recomputes to 0 by the sandwich formula
        assert a2.delta["y"] == mat(BOOL, [[0, 1, 1], [1, 1, 1], [1, 0, 0]])
        assert a2.sigma.entries == (1, 0, 0)
        assert a2.tau.entries == (0, 1, 1)
        r2 = greatest_invariant(a2, "wli").quasi_order
        a3 = afterset_quotient(a2, r2)
        assert a3.delta["x"] == mat(BOOL, [[1, 0], [0, 0]])
        assert a3.delta["y"] == mat(BOOL, [[0, 1], [1, 1]])
        assert a3.sigma.entries == (1, 0)
        assert a3.tau.entries == (0, 1)

    def test_dimension_check(self):
        with pytest.raises(ValidationError):
            afterset_quotient(automaton_ri_beats_rie(), FuzzyMatrix.identity(BOOL, 4))


class TestForesetQuotient:
    # one state per distinct column of R: the foresets sit at the afterset
    # representatives, so the foreset quotient is the afterset quotient
    def test_isomorphic_to_afterset(self):
        a = automaton_ri_beats_rie()
        r = greatest_invariant(a, "ri").quasi_order
        assert afterset_quotient(a, r).n == len(aftersets(transpose(r)))

    def test_identity(self, rng):
        recz = rand_recognizer(rng, CHAIN4, 4)
        q = afterset_quotient(recz, FuzzyMatrix.identity(CHAIN4, 4))
        assert are_isomorphic(recz, q) is not None

    def test_weakly_reduced_recognizer(self):
        rec = tau_chain_recognizer()
        r = greatest_invariant(rec, "wri").quasi_order
        assert afterset_quotient(rec, r).n == len(aftersets(transpose(r))) == 2


def _entries(machine):
    """Every letter's entries, then sigma and tau on a recognizer."""
    aut = underlying(machine)
    out = [x for letter in aut.alphabet for x in aut.delta[letter].entries]
    if isinstance(machine, FuzzyRecognizer):
        out += machine.sigma.entries + machine.tau.entries
    return out


@pytest.mark.parametrize("name", sorted(LATTICES))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_same_size_quotient_is_isomorphic_only_when_equal(name, data):
    # a quotient that keeps its input's size lies above it entrywise, so an
    # isomorphism, which keeps the sum of the entries, leaves it equal: one
    # comparison is alternate_reduce's whole isomorphism test
    rec = data.draw(recognizers(LATTICES[name]))
    caps = {"max_states": 64, "max_depth": 8}
    for method, spec in reduction.METHODS.items():
        machines = (rec,) if spec.source == "weak" else (rec, rec.automaton)
        for machine, max_iter in [(m, i) for m in machines for i in (2, 256)]:
            q = greatest_invariant(machine, method, max_iter=max_iter, **caps).quotient
            if q.n != machine.n:
                continue
            mine, theirs = _entries(q), _entries(machine)
            assert all(map(operator.ge, mine, theirs))
            assert (are_isomorphic(q, machine) is not None) == (mine == theirs)


@pytest.mark.parametrize("name", sorted(LATTICES))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_foreset_quotient_is_the_afterset_quotient(name, data):
    # rows a and b of a quasi-order are equal exactly when columns a and b
    # are, and R^T is a quasi-order exactly when R is
    lat = LATTICES[name]
    rec = data.draw(recognizers(lat))
    r = data.draw(matrices(lat, rec.n, rec.n))
    reflexive = join(r, FuzzyMatrix.identity(lat, rec.n))
    q = transitive_closure(reflexive)
    fore = [i for i, _ in aftersets(transpose(q))]
    for machine in (rec, rec.automaton):
        names = tuple(f"Q{underlying(machine).states[i]}" for i in fore)
        assert underlying(afterset_quotient(machine, q)).states == names
        for s in (r, reflexive):
            if is_quasi_order(s).is_quasi_order:
                continue
            with pytest.raises(NotQuasiOrder):
                afterset_quotient(machine, s)
            with pytest.raises(NotQuasiOrder):
                aftersets(transpose(s))
            with pytest.raises(NotQuasiOrder):
                aftersets(s)


class TestQuotientQuasiOrder:
    def test_self_quotient_is_order(self):
        r = greatest_invariant(automaton_ri_beats_rie(), "ri").quasi_order
        rt = quotient_quasi_order(r, r)
        assert is_fuzzy_order(rt)

    def test_identity_base(self):
        r = greatest_invariant(automaton_ri_beats_rie(), "ri").quasi_order
        assert quotient_quasi_order(FuzzyMatrix.identity(BOOL, 3), r) == r

    def test_natural_equivalence_base(self):
        r = greatest_invariant(automaton_ri_beats_rie(), "ri").quasi_order
        e = natural_equivalence(r)
        assert quotient_quasi_order(e, r) == mat(BOOL, [[1, 1], [0, 1]])

    def test_containment_enforced(self):
        r = greatest_invariant(automaton_ri_beats_rie(), "ri").quasi_order
        e = natural_equivalence(r)
        with pytest.raises(ContainmentViolated):
            quotient_quasi_order(r, e)


class TestAlternateReduce:
    def test_weak_right_first_shrinks(self):
        result = alternate_reduce(alternating_showcase_recognizer(), "wrl")
        assert result.state_trace == (3, 3, 2)
        assert result.stop_reason == "isomorphic"
        assert result.reduct.n == 2
        assert [r.method for r in result.reports] == ["wri", "wli", "wri"]

    def test_weak_left_first_stalls(self):
        result = alternate_reduce(alternating_showcase_recognizer(), "wlr")
        assert result.state_trace == (3, 3)
        assert result.reduct.n == 3
        assert result.stop_reason == "isomorphic"

    def test_plain_schedules_match_weak_ones_here(self):
        # on this recognizer the invariant and weakly invariant quasi-orders
        # coincide, so rl behaves like wrl
        result = alternate_reduce(alternating_showcase_recognizer(), "rl")
        assert result.state_trace == (3, 3, 2)

    def test_single_state_stops_immediately(self):
        result = alternate_reduce(one_state_sink(BOOL), "wrl")
        assert result.reports == ()
        assert result.stop_reason == "single_state"
        assert result.state_trace == (1,)

    def test_weak_schedule_needs_recognizer(self):
        with pytest.raises(ValidationError):
            alternate_reduce(automaton_ri_beats_rie(), "wrl")

    def test_unknown_schedule(self):
        with pytest.raises(ValidationError):
            alternate_reduce(one_state_sink(BOOL), "zigzag")

    @pytest.mark.parametrize("max_rounds", [0, -1])
    def test_max_rounds_below_one_rejected(self, max_rounds):
        with pytest.raises(ValidationError, match="max_rounds must be at least 1"):
            alternate_reduce(alternating_showcase_recognizer(), "wrl", max_rounds=max_rounds)

    def test_same_size_round_with_new_entries_goes_on(self):
        # 14 states: the first left round keeps every state, but its
        # quotient differs from the input entry for entry, so the chain goes on
        rec = funnel_recognizer(14)
        result = alternate_reduce(rec, "lr")
        assert result.state_trace == (14, 14, 5, 5)
        assert result.stop_reason == "isomorphic"
        assert [r.method for r in result.reports] == ["li", "ri", "li", "ri"]
        assert languages_equal_up_to(rec, result.reduct, 4).equal

    def test_identical_quotient_stops_above_isomorphism_cap(self):
        # 13 states throughout: the second round reproduces its input entry
        # for entry, which needs no isomorphism search
        rec = cycle_recognizer(13)
        for schedule in ("lr", "rl"):
            result = alternate_reduce(rec, schedule)
            assert result.state_trace == (13, 13)
            assert result.stop_reason == "isomorphic"
            assert len(result.reports) == 2
            assert languages_equal_up_to(rec, result.reduct, 4).equal

    def test_sri_descent_is_two_rounds(self):
        # strong invariance is not one-step reduced: 3 -> 2 -> 1
        a = sri_two_round_automaton()
        s1 = greatest_invariant(a, "sri").quasi_order
        a2 = afterset_quotient(a, s1)
        assert a2.n == 2
        s2 = greatest_invariant(a2, "sri").quasi_order
        a3 = afterset_quotient(a2, s2)
        assert a3.n == 1


class TestStructuralTheorems:
    def test_ri_quotient_is_reduced(self, rng):
        machines = [automaton_ri_beats_rie(), godel_cycle_automaton()]
        machines += [rand_recognizer(rng, lat, 4) for lat in CORPUS_LATTICES]
        for m in machines:
            report = greatest_invariant(m, "ri")
            if not report.converged:
                continue
            again = greatest_invariant(report.quotient, "ri")
            assert is_fuzzy_order(again.quasi_order)
            assert again.state_trace[0] == again.state_trace[1]

    def test_wri_quotient_is_reduced(self, rng):
        for lat in CORPUS_LATTICES:
            recz = rand_recognizer(rng, lat, 4)
            report = greatest_invariant(recz, "wri")
            if not report.converged:
                continue
            again = greatest_invariant(report.quotient, "wri")
            if again.converged:
                assert is_fuzzy_order(again.quasi_order)
                assert again.state_trace[0] == again.state_trace[1]

    def test_second_isomorphism(self, rng):
        for lat in CORPUS_LATTICES:
            for _ in range(5):
                recz = rand_recognizer(rng, lat, 4)
                r = rand_quasi_order(rng, lat, 4)
                s = rand_quasi_order(rng, lat, 4)
                small = meet(r, s)
                big = s
                sq = quotient_quasi_order(small, big)
                lhs = afterset_quotient(recz, big)
                rhs = afterset_quotient(afterset_quotient(recz, small), sq)
                assert are_isomorphic(lhs, rhs) is not None

    def test_quotient_lifting_keeps_invariance(self):
        a = automaton_ri_beats_rie()
        big = greatest_invariant(a, "ri").quasi_order
        small = natural_equivalence(big)  # language-preserving, below big
        lifted = quotient_quasi_order(small, big)
        quotient = afterset_quotient(a, small)
        assert is_invariant(quotient, lifted, "right")

    def test_containment_chain(self, rng):
        for lat in CORPUS_LATTICES:
            for _ in range(4):
                recz = rand_recognizer(rng, lat, 4)
                sri = greatest_invariant(recz, "sri").quasi_order
                ri = greatest_invariant(recz, "ri")
                wri = greatest_invariant(recz, "wri")
                cri = greatest_invariant(recz, "cri")
                assert leq(sri, ri.quasi_order)
                if wri.converged:
                    assert leq(ri.quasi_order, wri.quasi_order)
                assert leq(cri.quasi_order, ri.quasi_order)

    def test_language_preserved_by_invariant_quotients(self, rng):
        for lat in CORPUS_LATTICES:
            recz = rand_recognizer(rng, lat, 4)
            for method in ("ri", "li", "sri", "sli", "wri", "wli"):
                report = greatest_invariant(recz, method)
                if not report.converged:
                    continue
                verdict = languages_equal_up_to(recz, report.quotient, 6)
                assert verdict.equal, (lat.kind, method, verdict.first_divergence)
                ok, witness = check_general_system(
                    recz, natural_equivalence(report.quasi_order), 6
                )
                assert ok, (lat.kind, method, witness)

    def test_minimality_witness_never_reaches_two_states(self):
        rec = minimality_witness_recognizer()
        for method in ("ri", "li", "sri", "sli", "wri", "wli"):
            report = greatest_invariant(rec, method)
            assert report.state_trace[1] >= 3

    def test_iterates_descend_onto_brute_force_fixpoint(self, rng):
        from fuzzaut import brute_force_greatest_invariant
        from conftest import rand_automaton

        for _ in range(6):
            a = rand_automaton(rng, BOOL, 4)
            floor = brute_force_greatest_invariant(a, "right")
            previous = None
            for k in range(1, 6):
                iterate = greatest_invariant(a, "ri", max_iter=k).quasi_order
                assert leq(floor, iterate)
                if previous is not None:
                    assert leq(iterate, previous)
                previous = iterate
