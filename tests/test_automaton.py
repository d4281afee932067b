import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzaut import (
    FuzzyMatrix,
    FuzzyVector,
    SizeLimitExceeded,
    UnknownLetter,
    ValidationError,
    are_isomorphic,
    compose,
    compose_vm,
    generate,
    overlap,
    reachable_state_family,
    recognize,
    reverse,
    transition_of_word,
    words_up_to,
)
from fuzzaut.automaton import FuzzyAutomaton, FuzzyRecognizer, Levels

from conftest import (
    BOOL,
    GODEL,
    PROD,
    alternating_showcase_recognizer,
    aut,
    blocking_showcase_recognizer,
    mat,
    minimality_witness_recognizer,
    one_state_sink,
    product_nonterminating,
    rand_recognizer,
    tau_chain_recognizer,
    vec,
)


class TestTransitionOfWord:
    def test_empty_word_is_identity(self):
        a = minimality_witness_recognizer().automaton
        assert transition_of_word(a, ()) == FuzzyMatrix.identity(BOOL, 4)

    def test_two_steps(self):
        a = minimality_witness_recognizer().automaton
        expected = mat(BOOL, [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
        assert transition_of_word(a, (0, 0)) == expected

    def test_unknown_letter(self):
        a = minimality_witness_recognizer().automaton
        with pytest.raises(UnknownLetter):
            transition_of_word(a, (3,))

    def test_concatenation(self, rng):
        rec = rand_recognizer(rng, GODEL, 4)
        for u in [(0,), (0, 1), (1, 1, 0)]:
            for v in [(), (1,), (0, 0)]:
                assert transition_of_word(rec, u + v) == compose(
                    transition_of_word(rec, u), transition_of_word(rec, v)
                )


class TestRecognize:
    def test_single_letter_language(self):
        rec = minimality_witness_recognizer()
        assert recognize(rec, (0,)) == 1
        assert recognize(rec, ()) == 0
        assert recognize(rec, (0, 0)) == 0
        assert recognize(rec, (0, 0, 0)) == 0

    def test_empty_word_is_sigma_tau(self):
        rec = blocking_showcase_recognizer()
        assert recognize(rec, ()) == overlap(rec.sigma, rec.tau) == 1

    def test_zero_initial(self):
        base = minimality_witness_recognizer()
        rec = FuzzyRecognizer(base.automaton, vec(BOOL, [0, 0, 0, 0]), base.tau)
        for w in words_up_to(1, 4):
            assert recognize(rec, w) == 0


class TestGenerate:
    def test_blocking_showcase(self):
        rec = blocking_showcase_recognizer()
        assert generate(rec, (0,)) == 1
        assert generate(rec, (0, 0)) == 0

    def test_zero_initial(self):
        base = blocking_showcase_recognizer()
        rec = FuzzyRecognizer(base.automaton, vec(BOOL, [0, 0, 0, 0]), base.tau)
        assert generate(rec, ()) == 0

    def test_prefix_closed_and_dominates_recognize(self, rng):
        rec = rand_recognizer(rng, GODEL, 4)
        for u in words_up_to(2, 3):
            assert recognize(rec, u) <= generate(rec, u)
            for v in [(0,), (1,), (0, 1)]:
                assert generate(rec, u + v) <= generate(rec, u)


class TestReverse:
    def test_involution(self):
        rec = alternating_showcase_recognizer()
        assert reverse(reverse(rec)) == rec

    def test_symmetric_fixed_point(self):
        sym = mat(GODEL, [[0, "1/2"], ["1/2", 0]])
        f = vec(GODEL, ["1/2", "1/2"])
        rec = FuzzyRecognizer(aut(GODEL, ("x",), sym), f, f)
        assert reverse(rec) == rec

    def test_witness_recognizer(self):
        rec = reverse(minimality_witness_recognizer())
        assert rec.sigma.entries == (0, 0, 1, 1)
        assert rec.tau.entries == (0, 1, 0, 0)
        assert rec.delta["x"] == mat(BOOL, [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 1, 0, 0]])

    def test_word_reversal(self, rng):
        rec = rand_recognizer(rng, GODEL, 4)
        rev = reverse(rec)
        for u in words_up_to(2, 4):
            assert recognize(rev, u) == recognize(rec, tuple(reversed(u)))


class TestIsomorphism:
    def test_self(self):
        a = alternating_showcase_recognizer()
        assert are_isomorphic(a, a) == (0, 1, 2)

    def test_permuted_copy(self, rng):
        rec = rand_recognizer(rng, GODEL, 5)
        perm = list(range(5))
        rng.shuffle(perm)
        aut_ = rec.automaton
        delta = {
            x: FuzzyMatrix(
                GODEL,
                5,
                5,
                tuple(m[perm.index(i), perm.index(j)] for i in range(5) for j in range(5)),
            )
            for x, m in aut_.delta.items()
        }
        other = FuzzyRecognizer(
            FuzzyAutomaton(GODEL, tuple(f"s{i}" for i in range(5)), aut_.alphabet, delta),
            FuzzyVector(GODEL, tuple(rec.sigma.entries[perm.index(i)] for i in range(5))),
            FuzzyVector(GODEL, tuple(rec.tau.entries[perm.index(i)] for i in range(5))),
        )
        phi = are_isomorphic(rec, other)
        assert phi is not None
        for i in range(5):
            assert phi[i] == perm.index(i) or rec.delta  # mapping must be consistent
        # verify the bijection witnesses equality of transitions
        for x in aut_.alphabet:
            for i in range(5):
                for j in range(5):
                    assert aut_.delta[x][i, j] == delta[x][phi[i], phi[j]]

    def test_size_mismatch(self):
        assert are_isomorphic(one_state_sink(BOOL), blocking_showcase_recognizer()) is None

    def test_cap(self):
        rec = rand_recognizer(random.Random(7), BOOL, 5)
        with pytest.raises(SizeLimitExceeded):
            are_isomorphic(rec, rec, max_states=4)

    def test_symmetry_and_transitivity(self, rng):
        a = rand_recognizer(rng, BOOL, 4)
        b = rand_recognizer(rng, BOOL, 4)
        ab = are_isomorphic(a, b)
        ba = are_isomorphic(b, a)
        assert (ab is None) == (ba is None)

    def test_transitive_on_permuted_triples(self, rng):
        base = rand_recognizer(rng, GODEL, 4)

        def permuted(rec, perm):
            inv = [perm.index(i) for i in range(4)]
            delta = {
                x: FuzzyMatrix(
                    GODEL, 4, 4, tuple(m[inv[i], inv[j]] for i in range(4) for j in range(4))
                )
                for x, m in rec.automaton.delta.items()
            }
            return FuzzyRecognizer(
                FuzzyAutomaton(GODEL, rec.states, rec.alphabet, delta),
                FuzzyVector(GODEL, tuple(rec.sigma.entries[inv[i]] for i in range(4))),
                FuzzyVector(GODEL, tuple(rec.tau.entries[inv[i]] for i in range(4))),
            )

        b = permuted(base, [1, 3, 0, 2])
        c = permuted(base, [2, 0, 3, 1])
        assert are_isomorphic(base, b) is not None
        assert are_isomorphic(b, c) is not None
        assert are_isomorphic(base, c) is not None


class TestStateFamily:
    def test_reverse_family_collapses(self):
        rec = tau_chain_recognizer()
        fam = reachable_state_family(rec, "reverse")
        assert fam.complete and not fam.truncated
        assert [(w, v.entries) for w, v in fam.members] == [
            ((), (0, 0, 1, 0)),
            ((0,), (0, 0, 0, 0)),
        ]

    def test_single_absorbing_state(self):
        rec = one_state_sink(GODEL)
        fam = reachable_state_family(rec, "forward")
        assert fam.complete
        assert [v.entries for _, v in fam.members] == [(F(1),)]

    def test_product_family_truncates(self):
        a = product_nonterminating()
        rec = FuzzyRecognizer(a, vec(PROD, [1, 1]), vec(PROD, [1, 1]))
        fam = reachable_state_family(rec, "forward", max_states=16, max_depth=64)
        assert fam.truncated and not fam.complete
        assert len(fam.members) == 16

    def test_depth_cap_marks_truncation(self):
        a = product_nonterminating()
        rec = FuzzyRecognizer(a, vec(PROD, [1, 1]), vec(PROD, [1, 1]))
        fam = reachable_state_family(rec, "forward", max_states=1000, max_depth=3)
        assert fam.truncated

    def test_bad_direction(self):
        with pytest.raises(ValidationError):
            reachable_state_family(one_state_sink(BOOL), "sideways")

    def test_negative_depth_rejected(self):
        with pytest.raises(ValidationError, match="max_depth must be nonnegative"):
            reachable_state_family(one_state_sink(BOOL), "forward", max_depth=-1)
        # a zero cap is legal: the start alone, not known to be closed
        fam = reachable_state_family(one_state_sink(BOOL), "forward", max_depth=0)
        assert fam.truncated and len(fam.members) == 1

    def test_complete_family_evaluates_language(self, rng):
        rec = rand_recognizer(rng, BOOL, 4)
        fam = reachable_state_family(rec, "forward")
        assert fam.complete
        # every step from a member lands on a member, so the family alone
        # evaluates every word
        members = {v for _, v in fam.members}
        mats = [rec.automaton.delta[x] for x in rec.alphabet]
        for w in words_up_to(2, 5):
            v = rec.sigma
            for i in w:
                assert v in members
                v = compose_vm(v, mats[i])
            assert v in members and overlap(v, rec.tau) == recognize(rec, w)

    def test_witness_words_are_length_lex(self, rng):
        rec = rand_recognizer(rng, BOOL, 4)
        for direction in ("forward", "reverse"):
            fam = reachable_state_family(rec, direction)
            words = [w for w, _ in fam.members]
            assert words == sorted(words, key=lambda w: (len(w), w))

    @pytest.mark.parametrize("direction", ["forward", "reverse"])
    def test_walk_yields_the_family_in_order(self, rng, direction):
        nonterminating = FuzzyRecognizer(product_nonterminating(), vec(PROD, [1, 1]), vec(PROD, [1, 1]))
        for rec in (rand_recognizer(rng, BOOL, 4), rand_recognizer(rng, GODEL, 5), nonterminating):
            lv = Levels(rec)
            for depth in (0, 2, 6):
                walked = list(lv.walk(direction, depth))
                family, _ = lv.family(direction, 4096, depth)
                assert walked == list(family.items())
                capped, truncated = lv.family(direction, 3, depth)
                assert list(capped.items()) == walked[:3]
                assert truncated == (len(walked) > 3 or len(walked[-1][1]) == depth)


@settings(max_examples=25)
@given(data=st.data())
def test_recognize_matches_matrix_route(data):
    seed = data.draw(st.integers(0, 10_000))
    rng = random.Random(seed)
    rec = rand_recognizer(rng, GODEL, 3)
    word = tuple(data.draw(st.lists(st.integers(0, 1), max_size=4)))
    via_matrix = overlap(
        FuzzyVector(
            GODEL,
            tuple(
                compose(
                    FuzzyMatrix(GODEL, 1, 3, rec.sigma.entries),
                    transition_of_word(rec, word),
                ).entries
            ),
        ),
        rec.tau,
    )
    assert recognize(rec, word) == via_matrix
