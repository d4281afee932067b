import random
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzaut import (
    EmptySharedAlphabet,
    Lattice,
    LatticeMismatch,
    NotASuperset,
    UnknownLetter,
    ValidationError,
    are_isomorphic,
    check_blocking,
    conflict_check,
    generate,
    greatest_invariant,
    input_extension,
    join,
    natural_projection,
    parallel_compose,
    prefix_closure_at,
    product_compose,
    reachable_state_family,
    recognize,
    transition_of_word,
    words_up_to,
)
from fuzzaut.automaton import state_after
from fuzzaut.des import bounded_reach_matrix

from conftest import (
    BOOL,
    GODEL,
    LATTICES,
    PROD,
    alternating_showcase_recognizer,
    aut,
    blocking_showcase_recognizer,
    mat,
    one_state_sink,
    rand_recognizer,
    rec,
    recognizers,
    vec,
)


def blocked_quotient():
    base = blocking_showcase_recognizer()
    return greatest_invariant(base, "wri").quotient


def small_pair(lat=BOOL, letters=("x", "y")):
    rng = random.Random(99)
    return rand_recognizer(rng, lat, 2, letters), rand_recognizer(rng, lat, 2, letters)


class TestProductCompose:
    def test_one_state_partner_keeps_languages(self):
        a = blocking_showcase_recognizer()
        b = one_state_sink(BOOL)
        prod = product_compose(a, b).recognizer
        for w in words_up_to(1, 5):
            assert recognize(prod, w) == recognize(a, w)
            assert generate(prod, w) == generate(a, w)

    def test_one_state_partner_is_isomorphic_copy(self):
        a = alternating_showcase_recognizer()
        b = one_state_sink(BOOL, letters=("x", "y"))
        prod = product_compose(a, b).recognizer
        assert are_isomorphic(prod, a) is not None

    def test_language_is_pointwise_meet(self):
        a, b = small_pair()
        prod = product_compose(a, b).recognizer
        for w in words_up_to(2, 4):
            assert recognize(prod, w) == BOOL.otimes(recognize(a, w), recognize(b, w))
            assert generate(prod, w) == BOOL.otimes(generate(a, w), generate(b, w))

    def test_empty_shared_alphabet_rejected(self):
        a = one_state_sink(BOOL, letters=("x",))
        b = one_state_sink(BOOL, letters=("y",))
        with pytest.raises(EmptySharedAlphabet):
            product_compose(a, b)

    def test_lattice_mismatch(self):
        with pytest.raises(LatticeMismatch):
            product_compose(one_state_sink(BOOL), one_state_sink(GODEL))


class TestParallelCompose:
    def test_equal_alphabets_reduce_to_product(self):
        a, b = small_pair()
        par = parallel_compose(a, b)
        prod = product_compose(a, b)
        assert par.recognizer == prod.recognizer
        assert par.private_left == par.private_right == ()

    def test_disjoint_alphabets_shuffle(self):
        rng = random.Random(5)
        a = rand_recognizer(rng, BOOL, 2, letters=("x",))
        b = rand_recognizer(rng, BOOL, 2, letters=("y",))
        par = parallel_compose(a, b)
        rec_ = par.recognizer
        assert rec_.alphabet == ("x", "y")
        for w in words_up_to(2, 4):
            px = natural_projection(w, rec_.alphabet, a.alphabet)
            py = natural_projection(w, rec_.alphabet, b.alphabet)
            assert generate(rec_, w) == BOOL.otimes(generate(a, px), generate(b, py))
            assert recognize(rec_, w) == BOOL.otimes(recognize(a, px), recognize(b, py))

    def test_partner_with_private_idle_letter(self):
        a = alternating_showcase_recognizer()
        ident = mat(BOOL, [[1]])
        b = rec(
            aut(BOOL, ("x", "y", "z"), ident, ident, ident, states=("b",)),
            vec(BOOL, [1]),
            vec(BOOL, [1]),
        )
        par = parallel_compose(a, b).recognizer
        for w in words_up_to(3, 4):
            px = natural_projection(w, par.alphabet, a.alphabet)
            assert recognize(par, w) == recognize(a, px)

    def test_projection_identity_on_sampled_words(self):
        rng = random.Random(11)
        a = rand_recognizer(rng, GODEL, 2, letters=("x", "s"))
        b = rand_recognizer(rng, GODEL, 2, letters=("s", "y"))
        par = parallel_compose(a, b)
        rec_ = par.recognizer
        assert par.shared_alphabet == ("s",)
        for w in words_up_to(3, 4):
            px = natural_projection(w, rec_.alphabet, a.alphabet)
            py = natural_projection(w, rec_.alphabet, b.alphabet)
            assert generate(rec_, w) == GODEL.otimes(generate(a, px), generate(b, py))

    def test_matches_composition_of_input_extensions(self):
        rng = random.Random(13)
        a = rand_recognizer(rng, BOOL, 2, letters=("x", "s"))
        b = rand_recognizer(rng, BOOL, 2, letters=("s", "y"))
        z = ("x", "s", "y")
        par = parallel_compose(a, b).recognizer
        extended = product_compose(input_extension(a, z), input_extension(b, z)).recognizer
        assert are_isomorphic(par, extended) is not None

    def test_associative_up_to_isomorphism(self):
        rng = random.Random(17)
        a = rand_recognizer(rng, BOOL, 2, letters=("x", "s"))
        b = rand_recognizer(rng, BOOL, 2, letters=("s", "y"))
        c = rand_recognizer(rng, BOOL, 2, letters=("y", "z"))
        left = parallel_compose(parallel_compose(a, b).recognizer, c).recognizer
        right = parallel_compose(a, parallel_compose(b, c).recognizer).recognizer
        assert left.alphabet == right.alphabet
        assert are_isomorphic(left, right) is not None


class TestInputExtension:
    def test_same_alphabet_is_identity(self):
        a = alternating_showcase_recognizer()
        assert input_extension(a, a.alphabet) == a

    def test_new_letters_act_as_identity(self):
        a = one_state_sink(BOOL, letters=("x",))
        ext = input_extension(a, ("x", "y"))
        assert ext.delta["y"] == mat(BOOL, [[1]])

    def test_language_factors_through_projection(self):
        rng = random.Random(23)
        a = rand_recognizer(rng, GODEL, 3, letters=("x", "y"))
        z = ("x", "y", "w")
        ext = input_extension(a, z)
        for w in words_up_to(3, 4):
            p = natural_projection(w, z, a.alphabet)
            assert generate(ext, w) == generate(a, p)
            assert recognize(ext, w) == recognize(a, p)

    def test_requires_superset(self):
        a = alternating_showcase_recognizer()
        with pytest.raises(NotASuperset):
            input_extension(a, ("x", "w"))


class TestNaturalProjection:
    def test_word_already_inside(self):
        assert natural_projection((0, 1, 0), ("x", "y"), ("x", "y")) == (0, 1, 0)

    def test_fully_outside_gives_empty(self):
        assert natural_projection((1, 1), ("x", "y"), ("x",)) == ()

    def test_deletes_foreign_letters(self):
        # y x y with X = {x}
        assert natural_projection((1, 0, 1), ("x", "y"), ("x",)) == (0,)

    def test_requires_subset(self):
        with pytest.raises(NotASuperset):
            natural_projection((), ("x",), ("x", "y"))

    @pytest.mark.parametrize("word", [(-1, 0), (0, 2)])
    def test_letter_index_out_of_range(self, word):
        # -1 wrapped to the last letter, and 2 raised a raw IndexError
        with pytest.raises(UnknownLetter, match="out of range for alphabet of size 2"):
            natural_projection(word, ("a", "b"), ("b",))


class TestPrefixClosure:
    def test_blocking_showcase_values(self):
        a = blocking_showcase_recognizer()
        assert prefix_closure_at(a, (), 4) == 1
        assert prefix_closure_at(a, (0, 0), 4) == 0

    def test_horizon_zero_is_recognize(self):
        a = blocking_showcase_recognizer()
        for w in words_up_to(1, 3):
            assert prefix_closure_at(a, w, 0) == recognize(a, w)

    def test_quotient_gap(self):
        q = blocked_quotient()
        assert prefix_closure_at(q, (0, 0), 4) == 0
        assert generate(q, (0, 0)) == 1

    def test_chain_against_generate(self, rng):
        recz = rand_recognizer(rng, GODEL, 3)
        for w in words_up_to(2, 3):
            pc = prefix_closure_at(recz, w, 6)
            assert recognize(recz, w) <= pc <= generate(recz, w)

    def test_one_encode_per_word_walk(self, monkeypatch, rng):
        # the walk, tau, the max and the reach matrix read the one codec of
        # the machine's levels, whatever the word's length
        calls = []
        original = Lattice.encode
        counted = lambda *args: calls.append(args) or original(*args)  # noqa: E731
        monkeypatch.setattr(Lattice, "encode", counted)
        recz = rand_recognizer(rng, GODEL, 5)
        word = (0, 1, 1, 0)
        for run in (state_after, recognize, generate, lambda r, w: prefix_closure_at(r, w, 3)):
            calls.clear()
            run(recz, word)
            assert len(calls) == 1


class TestReachMatrix:
    @pytest.mark.parametrize("name", sorted(LATTICES))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_join_of_word_transitions(self, name, data):
        letters = ("x", "y")[: data.draw(st.integers(1, 2))]
        recz = data.draw(recognizers(LATTICES[name], letters))
        for h in range(5):
            words = words_up_to(len(letters), h)
            expected = reduce(join, (transition_of_word(recz, w) for w in words))
            assert bounded_reach_matrix(recz, h) == expected

    @pytest.mark.parametrize("name", sorted(LATTICES))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_stable_from_n_states(self, name, data):
        # x * y <= x on every lattice, the product lattice included
        letters = ("x", "y")[: data.draw(st.integers(1, 2))]
        recz = data.draw(recognizers(LATTICES[name], letters))
        assert bounded_reach_matrix(recz, recz.n) == bounded_reach_matrix(recz, recz.n + 2)

    @pytest.mark.parametrize("horizon", [-1, -3])
    def test_negative_horizon_rejected(self, horizon):
        # as prefix_closure_at does, rather than returning the identity
        rec = blocking_showcase_recognizer()
        for call in (bounded_reach_matrix, lambda r, h: prefix_closure_at(r, (), h)):
            with pytest.raises(ValidationError, match="horizon must be nonnegative"):
                call(rec, horizon)


class TestBlocking:
    def test_showcase_is_nonblocking(self):
        verdict = check_blocking(blocking_showcase_recognizer(), 4)
        assert verdict.verdict == "nonblocking"

    def test_quotient_blocks_at_xx(self):
        verdict = check_blocking(blocked_quotient(), 4)
        assert verdict.verdict == "blocking"
        assert verdict.witness == (0, 0)

    def test_all_accepting_identity_is_nonblocking(self):
        ident = mat(BOOL, [[1, 0], [0, 1]])
        a = rec(aut(BOOL, ("x",), ident), vec(BOOL, [1, 1]), vec(BOOL, [1, 1]))
        assert check_blocking(a, 4).verdict == "nonblocking"

    def test_undetermined_on_truncation(self):
        # product-lattice recognizer whose state family never closes and
        # whose languages agree on every finite horizon
        from conftest import PROD

        mp = mat(PROD, [["1/2", 0], [0, "1/2"]])
        a = rec(aut(PROD, ("x",), mp), vec(PROD, [1, 0]), vec(PROD, [1, 1]))
        verdict = check_blocking(a, 3, max_states=8)
        assert verdict.verdict == "undetermined"

    def test_truncated_family_decides_gap_within_horizon(self):
        # product lattice: x halves states 0 and 2, so the family never
        # closes; y leads 0 to 2, from where no word reaches tau
        x = mat(PROD, [["1/2", 0, 0], [0, 0, 0], [0, 0, "1/2"]])
        y = mat(PROD, [[0, 0, 1], [0, 0, 0], [0, 0, 0]])
        a = rec(aut(PROD, ("x", "y"), x, y), vec(PROD, [1, 0, 0]), vec(PROD, [1, 0, 0]))
        verdict = check_blocking(a, 3, max_states=8)
        assert verdict.verdict == "blocking"
        assert verdict.witness == (1,)

    @pytest.mark.parametrize("name", sorted(set(LATTICES) - {"product"}))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_verdict_matches_continuations(self, name, data):
        letters = ("x", "y")[: data.draw(st.integers(1, 2))]
        recz = data.draw(recognizers(LATTICES[name], letters))
        k, n = len(letters), recz.n

        def closure(w):
            # continuations up to n letters already attain the prefix-closure
            return max(recognize(recz, w + v) for v in words_up_to(k, n))

        # the horizon bounds truncated families only, and these are finite
        verdict = check_blocking(recz, 1)
        if verdict.verdict == "blocking":
            assert closure(verdict.witness) < generate(recz, verdict.witness)
        elif verdict.verdict == "nonblocking":
            for w in words_up_to(k, 3):
                assert closure(w) == generate(recz, w)


    @pytest.mark.parametrize("name", sorted(LATTICES))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_verdict_and_witness_match_the_public_route(self, name, data):
        # the product lattice's families need not close: truncate them
        max_states = 8 if name == "product" else 4096
        letters = ("x", "y")[: data.draw(st.integers(1, 2))]
        recz = data.draw(recognizers(LATTICES[name], letters))
        horizon = data.draw(st.integers(1, 3))
        family = reachable_state_family(recz, "forward", max_states=max_states)
        expected = ("undetermined" if family.truncated else "nonblocking", None)
        for word, _ in family.members:
            if family.truncated and len(word) > horizon:
                break
            if prefix_closure_at(recz, word, recz.n) < generate(recz, word):
                expected = ("blocking", word)
                break
        verdict = check_blocking(recz, horizon, max_states=max_states)
        assert (verdict.verdict, verdict.witness) == expected


# each public function that reads sigma or tau, on a bare automaton a
# (r is a recognizer over the same letters, for the two-operand ones)
NEEDS_A_RECOGNIZER = {
    "reachable_state_family": lambda a, r: reachable_state_family(a, "forward"),
    "check_blocking": lambda a, r: check_blocking(a, 4),
    "conflict_check": lambda a, r: conflict_check(r, a, 4),
    "parallel_compose_left": lambda a, r: parallel_compose(a, r),
    "parallel_compose_right": lambda a, r: parallel_compose(r, a),
    "product_compose_left": lambda a, r: product_compose(a, r),
    "product_compose_right": lambda a, r: product_compose(r, a),
    "prefix_closure_at": lambda a, r: prefix_closure_at(a, (0,), 2),
    "recognize": lambda a, r: recognize(a, (0,)),
    "generate": lambda a, r: generate(a, (0,)),
    "input_extension": lambda a, r: input_extension(a, ("x", "y")),
}


@pytest.mark.parametrize("name", sorted(NEEDS_A_RECOGNIZER))
def test_bare_automaton_is_refused_where_a_recognizer_is_needed(name):
    r = blocking_showcase_recognizer()
    with pytest.raises(ValidationError, match="needs a recognizer"):
        NEEDS_A_RECOGNIZER[name](r.automaton, r)


class TestConflict:
    def test_showcase_conflicts(self):
        a = blocking_showcase_recognizer()
        b = one_state_sink(BOOL)
        assert conflict_check(a, b, 4).verdict == "nonblocking"
        assert conflict_check(blocked_quotient(), b, 4).verdict == "blocking"

    def test_nonblocking_partner_passthrough(self, rng):
        a = rand_recognizer(rng, BOOL, 3, letters=("x",))
        b = one_state_sink(BOOL)
        own = check_blocking(a, 4)
        assert conflict_check(a, b, 4).verdict == own.verdict

    def test_weak_left_quotient_preserves_verdict(self):
        a = alternating_showcase_recognizer()
        quotient = greatest_invariant(a, "wli").quotient
        b = one_state_sink(BOOL, letters=("x", "y"))
        assert conflict_check(a, b, 4).verdict == conflict_check(quotient, b, 4).verdict

    def test_weak_left_quotient_is_language_equivalent(self):
        a = alternating_showcase_recognizer()
        quotient = greatest_invariant(a, "wli").quotient
        for w in words_up_to(2, 5):
            assert recognize(quotient, w) == recognize(a, w)
            assert generate(quotient, w) == generate(a, w)

    def test_weak_right_quotient_can_change_generated_language(self):
        # the classic failure: generated language grows under a weakly
        # right invariant quotient, breaking conflict equivalence
        a = blocking_showcase_recognizer()
        q = blocked_quotient()
        assert generate(a, (0, 0)) == 0
        assert generate(q, (0, 0)) == 1
