import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzaut import (
    AlphabetMismatch,
    FuzzyAutomaton,
    FuzzyMatrix,
    FuzzyRecognizer,
    LatticeMismatch,
    NotBoolean,
    SizeLimitExceeded,
    ValidationError,
    afterset_quotient,
    aftersets,
    brute_force_greatest_invariant,
    check_general_system,
    crisp_quasi_orders,
    greatest_invariant,
    join,
    languages_equal_up_to,
    natural_equivalence,
    transitive_closure,
    words_up_to,
)
from fuzzaut.oracle import EquivalenceVerdict, reference_compose

from conftest import (
    BOOL,
    CHAIN4,
    GODEL,
    LATTICES,
    alternating_showcase_recognizer,
    automaton_ri_beats_rie,
    general_system_probe_recognizer,
    matrices,
    mat,
    minimality_witness_recognizer,
    no_greatest_solution_recognizer,
    one_state_sink,
    rand_automaton,
    rand_recognizer,
    recognizers,
    values_of,
    vec,
)


class TestLanguagesEqual:
    def test_self(self):
        a = alternating_showcase_recognizer()
        assert languages_equal_up_to(a, a, 6).equal

    def test_invariant_quotient(self):
        a = alternating_showcase_recognizer()
        q = greatest_invariant(a, "ri").quotient
        verdict = languages_equal_up_to(a, q, 6)
        assert verdict.equal and verdict.equal_up_to == 6

    def test_distinguishes_different_languages(self):
        a = one_state_sink(BOOL)
        b = FuzzyRecognizer(a.automaton, a.sigma, vec(BOOL, [0]))
        verdict = languages_equal_up_to(a, b, 3)
        assert not verdict.equal
        assert verdict.first_divergence == ((), 1, 0)

    def test_divergence_is_length_lex_first(self):
        rec = general_system_probe_recognizer()
        r = mat(BOOL, [[1, 1, 1], [0, 1, 1], [0, 0, 1]])
        from fuzzaut import afterset_quotient

        q = afterset_quotient(rec, r)
        verdict = languages_equal_up_to(rec, q, 6)
        assert verdict.first_divergence[0] == (0, 1)  # x then y

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatch):
            languages_equal_up_to(
                one_state_sink(BOOL, ("x",)), one_state_sink(BOOL, ("y",)), 2
            )

    def test_lattice_mismatch(self):
        with pytest.raises(LatticeMismatch):
            languages_equal_up_to(one_state_sink(BOOL), one_state_sink(GODEL), 2)

    def test_negative_length_bound_rejected(self):
        a = one_state_sink(BOOL)
        b = FuzzyRecognizer(a.automaton, a.sigma, vec(BOOL, [0]))
        with pytest.raises(ValidationError, match="word length bound must be nonnegative"):
            languages_equal_up_to(a, b, -1)
        # zero compares the empty word only
        assert languages_equal_up_to(a, b, 0).first_divergence[0] == ()


class TestBruteForce:
    def test_matches_iterative_on_showcase(self):
        a = automaton_ri_beats_rie()
        assert brute_force_greatest_invariant(a, "right") == greatest_invariant(a, "ri").quasi_order
        assert brute_force_greatest_invariant(a, "left") == greatest_invariant(a, "li").quasi_order

    def test_single_state(self):
        a = one_state_sink(BOOL).automaton
        assert brute_force_greatest_invariant(a, "right") == mat(BOOL, [[1]])

    def test_recognizer_constraints(self, rng):
        for _ in range(20):
            rec = rand_recognizer(rng, BOOL, 3)
            for side, method in (("right", "ri"), ("left", "li")):
                assert brute_force_greatest_invariant(rec, side) == greatest_invariant(
                    rec, method
                ).quasi_order

    def test_too_large(self):
        a = rand_automaton(random.Random(3), BOOL, 5)
        with pytest.raises(SizeLimitExceeded):
            brute_force_greatest_invariant(a, "right")

    def test_not_boolean(self):
        a = rand_automaton(random.Random(3), GODEL, 3)
        with pytest.raises(NotBoolean):
            brute_force_greatest_invariant(a, "right")

    def test_enumeration_too_large(self):
        with pytest.raises(SizeLimitExceeded, match="capped at 4 states"):
            crisp_quasi_orders(BOOL, 5)

    def test_enumeration_counts(self):
        # labeled preorders on n elements: 1, 4, 29, 355
        assert len(crisp_quasi_orders(BOOL, 1)) == 1
        assert len(crisp_quasi_orders(BOOL, 2)) == 4
        assert len(crisp_quasi_orders(BOOL, 3)) == 29
        assert len(crisp_quasi_orders(BOOL, 4)) == 355


class TestGeneralSystem:
    def test_probe_quasi_order_fails_at_xy(self):
        rec = general_system_probe_recognizer()
        r = mat(BOOL, [[1, 1, 1], [0, 1, 1], [0, 0, 1]])
        ok, witness = check_general_system(rec, r, 6)
        assert not ok and witness == (0, 1)

    def test_natural_equivalence_of_probe_passes(self):
        rec = general_system_probe_recognizer()
        r = mat(BOOL, [[1, 1, 1], [0, 1, 1], [0, 0, 1]])
        ok, witness = check_general_system(rec, natural_equivalence(r), 6)
        assert ok and witness is None

    def test_universal_fails_at_xx(self):
        rec = no_greatest_solution_recognizer()
        ok, witness = check_general_system(rec, FuzzyMatrix.universal(BOOL, 3), 6)
        assert not ok and witness == (0, 0)

    def test_join_of_solutions_need_not_solve(self):
        rec = no_greatest_solution_recognizer()
        e = mat(BOOL, [[1, 0, 0], [0, 1, 1], [0, 1, 1]])
        f = mat(BOOL, [[1, 0, 1], [0, 1, 0], [1, 0, 1]])
        assert check_general_system(rec, e, 6)[0]
        assert check_general_system(rec, f, 6)[0]
        u = transitive_closure(join(e, f))
        assert u == FuzzyMatrix.universal(BOOL, 3)
        assert not check_general_system(rec, u, 6)[0]

    def test_minimality_witness(self):
        rec = minimality_witness_recognizer()
        counts = [
            len(aftersets(q))
            for q in crisp_quasi_orders(BOOL, 4)
            if check_general_system(rec, q, 6)[0]
        ]
        assert counts and min(counts) == 3


def reference_general_system(rec, r, k):
    """Word by word with `reference_compose`: sigma o R o dx1 o R o ... o R o
    tau against sigma o dx1 o ... o tau, in length-then-lex order."""
    lat, n = rec.lattice, rec.n
    sigma = FuzzyMatrix(lat, 1, n, rec.sigma.entries)
    tau = FuzzyMatrix(lat, n, 1, rec.tau.entries)
    for word in words_up_to(len(rec.alphabet), k):
        plain, dressed = sigma, reference_compose(sigma, r)
        for i in word:
            plain = reference_compose(plain, rec.matrix(i))
            dressed = reference_compose(reference_compose(dressed, rec.matrix(i)), r)
        if reference_compose(plain, tau) != reference_compose(dressed, tau):
            return False, word
    return True, None


@st.composite
def general_systems(draw, lat):
    """A recognizer, the transitive closure of a reflexive random relation
    and a length bound k <= 3."""
    rec = draw(recognizers(lat))
    n = rec.n
    entries = [F(1) if i == j else draw(values_of(lat)) for i in range(n) for j in range(n)]
    r = transitive_closure(FuzzyMatrix(lat, n, n, tuple(entries)))
    return rec, r, draw(st.integers(0, 3))


@pytest.mark.parametrize("name", sorted(LATTICES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_general_system_matches_word_by_word_reference(name, data):
    rec, r, k = data.draw(general_systems(LATTICES[name]))
    assert check_general_system(rec, r, k) == reference_general_system(rec, r, k)
    with pytest.raises(ValidationError):
        check_general_system(rec, r, -1)


def test_automaton_inputs_rejected_as_such():
    automaton = automaton_ri_beats_rie()
    rec = one_state_sink(BOOL, automaton.alphabet)
    with pytest.raises(ValidationError, match="needs a recognizer"):
        languages_equal_up_to(automaton, rec, 3)
    with pytest.raises(ValidationError, match="needs a recognizer"):
        languages_equal_up_to(rec, automaton, 3)
    with pytest.raises(ValidationError, match="needs a recognizer"):
        check_general_system(automaton, FuzzyMatrix.identity(BOOL, automaton.n), 3)


def reference_languages_equal(a, b, k):
    """Word by word with `reference_compose`: sigma o dx1 o ... o dxn o tau
    of both recognizers, in length-then-lex order."""

    def degree(rec, word):
        lat, n = rec.lattice, rec.n
        v = FuzzyMatrix(lat, 1, n, rec.sigma.entries)
        for i in word:
            v = reference_compose(v, rec.matrix(i))
        return reference_compose(v, FuzzyMatrix(lat, n, 1, rec.tau.entries)).entries[0]

    for word in words_up_to(len(a.alphabet), k):
        da, db = degree(a, word), degree(b, word)
        if da != db:
            return EquivalenceVerdict(k, (word, da, db))
    return EquivalenceVerdict(k, None)


@st.composite
def language_pairs(draw, lat):
    """A recognizer and one of: an independent recognizer, possibly of
    another size; its ri quotient (iteration capped, as the product lattice
    may descend forever); a recognizer with its sigma and tau and new
    letters, which tends to diverge on longer words."""
    a = draw(recognizers(lat))
    kind = draw(st.sampled_from(("independent", "quotient", "letters")))
    if kind == "independent":
        b = draw(recognizers(lat))
    elif kind == "quotient":
        b = greatest_invariant(a, "ri", max_iter=8).quotient
    else:
        delta = {x: draw(matrices(lat, a.n, a.n)) for x in a.alphabet}
        b = FuzzyRecognizer(FuzzyAutomaton(lat, a.states, a.alphabet, delta), a.sigma, a.tau)
    return a, b, draw(st.integers(0, 4))


@pytest.mark.parametrize("name", sorted(LATTICES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_language_comparison_matches_word_by_word_reference(name, data):
    a, b, k = data.draw(language_pairs(LATTICES[name]))
    assert languages_equal_up_to(a, b, k) == reference_languages_equal(a, b, k)


def test_long_bound_needs_only_the_pair_family():
    """The walk stops at the pair family, so k = 1000 costs about what k = 6
    costs and gives its verdict: 2^1001 words would never finish."""
    pairs = []
    for seed, lat in enumerate((BOOL, GODEL, CHAIN4)):
        rec = rand_recognizer(random.Random(seed), lat, 10)
        pairs.append((rec, greatest_invariant(rec, "ri").quotient))
    probe = general_system_probe_recognizer()
    pairs.append((probe, afterset_quotient(probe, mat(BOOL, [[1, 1, 1], [0, 1, 1], [0, 0, 1]]))))
    for a, b in pairs:
        verdict = languages_equal_up_to(a, b, 1000)
        assert verdict.equal_up_to == 1000
        assert verdict.first_divergence == languages_equal_up_to(a, b, 6).first_divergence
    assert verdict.first_divergence[0] == (0, 1)
