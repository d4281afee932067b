from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzaut import (
    DimensionMismatch,
    FuzzyMatrix,
    FuzzyVector,
    LatticeMismatch,
    LatticeValueError,
    NotQuasiOrder,
    aftersets,
    compose,
    compose_mv,
    compose_vm,
    crisp_part,
    from_fuzzy_set_left,
    from_fuzzy_set_right,
    is_fuzzy_equivalence,
    is_fuzzy_order,
    is_quasi_order,
    join,
    leq,
    meet,
    natural_equivalence,
    overlap,
    transitive_closure,
    transpose,
)
from fuzzaut.oracle import reference_compose
from fuzzaut.reduction import greatest_invariant

from conftest import (
    BOOL,
    GODEL,
    LATTICES,
    automaton_ri_beats_rie,
    blocking_showcase_recognizer,
    mat,
    matrices,
    matrix_strategy,
    square_matrices_same_size,
    tau_chain_recognizer,
    vec,
)


def worked_quasi_order():
    return mat(GODEL, [[1, "3/10", "3/10"], [0, 1, "1/5"], [0, 1, 1]])


class TestEntryValidation:
    def test_repeated_off_carrier_object_rejected(self):
        half = F(1, 2)
        with pytest.raises(LatticeValueError):
            FuzzyMatrix(BOOL, 2, 2, (half,) * 4)
        with pytest.raises(LatticeValueError):
            FuzzyVector(BOOL, (half, half))
        # the first bad entry still raises first
        with pytest.raises(LatticeValueError, match="1/2"):
            FuzzyVector(BOOL, (F(0), half, F(3), half))

    def test_int_entry_rejected(self):
        with pytest.raises(LatticeValueError, match="expected Fraction"):
            FuzzyMatrix(BOOL, 1, 2, (F(0), 1))
        with pytest.raises(LatticeValueError, match="expected Fraction"):
            FuzzyVector(GODEL, (F(1), 0))

    @pytest.mark.parametrize("value", [0.1, 0.5, 1.0, True, False])
    def test_float_and_bool_values_rejected(self, value):
        # a float or a bool would be converted silently: 0.1 to
        # 3602879701896397/36028797018963968, True to 1
        with pytest.raises(LatticeValueError, match="expected Fraction, int or str"):
            FuzzyVector.from_values(GODEL, [value])
        with pytest.raises(LatticeValueError, match="expected Fraction, int or str"):
            FuzzyMatrix.from_rows(BOOL, [[F(0), value]])

    @pytest.mark.parametrize("text", ["abc", "1e-5000"])
    def test_str_values_parsed_by_the_lattice(self, text):
        # as in a document: no bare ValueError, no 16,610-bit denominator
        with pytest.raises(LatticeValueError, match="^cannot parse value"):
            FuzzyVector.from_values(GODEL, [text])
        with pytest.raises(LatticeValueError, match="^cannot parse value"):
            FuzzyMatrix.from_rows(GODEL, [[text]])

    def test_fraction_int_and_str_values_accepted(self):
        expected = FuzzyVector(GODEL, (F(1, 2), F(0), F(1), F(3, 10)))
        assert FuzzyVector.from_values(GODEL, [F(1, 2), 0, 1, "3/10"]) == expected
        assert FuzzyMatrix.from_rows(GODEL, [[F(1, 2), 0], [1, "3/10"]]).entries == expected.entries


class TestCompose:
    def test_identity_is_neutral(self):
        q = worked_quasi_order()
        ident = FuzzyMatrix.identity(GODEL, 3)
        assert compose(ident, q) == q
        assert compose(q, ident) == q

    def test_quasi_order_idempotent(self):
        r = mat(GODEL, [[1, "3/10"], [0, 1]])
        assert compose(r, r) == r

    def test_sandwich_is_all_ones(self):
        a = automaton_ri_beats_rie()
        r = greatest_invariant(a, "ri").quasi_order
        sandwich = compose(compose(r, a.delta["y"]), r)
        assert sandwich == FuzzyMatrix.universal(BOOL, 3)

    def test_vector_matrix(self):
        rec = blocking_showcase_recognizer()
        sigma = vec(BOOL, [0, 1, 0, 0])
        assert compose_vm(sigma, rec.delta["x"]).entries == (0, 0, 0, 1)

    def test_overlap(self):
        rec = blocking_showcase_recognizer()
        assert overlap(rec.sigma, rec.tau) == 1
        assert overlap(vec(BOOL, [1, 1]), vec(BOOL, [0, 0])) == 0

    def test_matrix_vector(self):
        q = worked_quasi_order()
        out = compose_mv(q, vec(GODEL, [0, 1, 0]))
        assert out.entries == (F(3, 10), F(1), F(1))

    def test_dimension_and_lattice_errors(self):
        with pytest.raises(DimensionMismatch):
            compose(worked_quasi_order(), FuzzyMatrix.identity(GODEL, 2))
        with pytest.raises(LatticeMismatch):
            compose(FuzzyMatrix.identity(GODEL, 2), FuzzyMatrix.identity(BOOL, 2))
        with pytest.raises(DimensionMismatch):
            overlap(vec(BOOL, [1]), vec(BOOL, [1, 0]))


class TestTransitiveClosure:
    def test_adds_path(self):
        r = mat(BOOL, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        closed = transitive_closure(r)
        assert closed == mat(BOOL, [[0, 1, 1], [0, 0, 1], [0, 0, 0]])

    def test_quasi_order_is_fixed(self):
        q = worked_quasi_order()
        assert transitive_closure(q) == q

    def test_symmetric_pair(self):
        r = mat(GODEL, [[0, "1/2"], ["1/2", 0]])
        assert transitive_closure(r) == mat(GODEL, [["1/2", "1/2"], ["1/2", "1/2"]])

    @given(matrix_strategy(GODEL))
    def test_closure_laws(self, r):
        closed = transitive_closure(r)
        assert leq(r, closed)
        assert transitive_closure(closed) == closed
        assert leq(compose(closed, closed), closed)

    @pytest.mark.parametrize("name", sorted(LATTICES))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_closure_is_the_join_of_the_first_n_powers(self, name, data):
        # x * y <= x on every lattice, so no path longer than n adds a value;
        # the powers are taken with the scalar reference, not the kernel
        lat = LATTICES[name]
        n = data.draw(st.integers(1, 5))
        r = data.draw(matrices(lat, n, n))
        power = expected = r
        for _ in range(n - 1):
            power = reference_compose(power, r)
            expected = join(expected, power)
        assert transitive_closure(r) == expected


class TestPredicates:
    def test_worked_example_is_quasi_order(self):
        w = is_quasi_order(worked_quasi_order())
        assert w.is_quasi_order and not w.symmetric

    def test_invariant_result_is_quasi_order_not_order(self):
        r = greatest_invariant(automaton_ri_beats_rie(), "ri").quasi_order
        assert is_quasi_order(r).is_quasi_order
        assert not is_fuzzy_order(r)

    def test_identity_is_order(self):
        ident = FuzzyMatrix.identity(BOOL, 3)
        assert is_fuzzy_order(ident)
        assert is_fuzzy_equivalence(ident)

    def test_requires_square(self):
        with pytest.raises(DimensionMismatch):
            is_quasi_order(FuzzyMatrix(BOOL, 1, 2, (F(0), F(1))))


class TestNaturalEquivalence:
    def test_worked_example(self):
        e = natural_equivalence(worked_quasi_order())
        assert e == mat(GODEL, [[1, 0, 0], [0, 1, "1/5"], [0, "1/5", 1]])

    def test_symmetric_fixed_point(self):
        e = mat(GODEL, [[1, "1/5"], ["1/5", 1]])
        assert natural_equivalence(e) == e

    def test_invariant_showcase(self):
        r = greatest_invariant(automaton_ri_beats_rie(), "ri").quasi_order
        assert natural_equivalence(r) == mat(BOOL, [[1, 0, 0], [0, 1, 1], [0, 1, 1]])

    def test_rejects_non_quasi_order(self):
        with pytest.raises(NotQuasiOrder):
            natural_equivalence(mat(BOOL, [[0, 1], [0, 1]]))

    @given(matrix_strategy(GODEL, min_n=2))
    def test_below_and_equivalence(self, r):
        q = transitive_closure(join(r, FuzzyMatrix.identity(r.lattice, r.rows)))
        e = natural_equivalence(q)
        assert leq(e, q)
        assert is_fuzzy_equivalence(e)


class TestFromFuzzySet:
    def test_tau_constraint_matrix(self):
        r = from_fuzzy_set_left(vec(BOOL, [0, 0, 1, 0]))
        assert r == mat(BOOL, [[1, 1, 0, 1], [1, 1, 0, 1], [1, 1, 1, 1], [1, 1, 0, 1]])

    def test_all_ones_gives_universal(self):
        assert from_fuzzy_set_right(vec(GODEL, [1, 1, 1])) == FuzzyMatrix.universal(GODEL, 3)

    def test_godel_left(self):
        assert from_fuzzy_set_left(vec(GODEL, [1, "1/2"])) == mat(GODEL, [[1, 1], ["1/2", 1]])

    @given(st_vec=matrix_strategy(GODEL, min_n=2, max_n=4))
    def test_always_quasi_orders(self, st_vec):
        f = st_vec.row_vector(0)
        for r in (from_fuzzy_set_right(f), from_fuzzy_set_left(f)):
            assert is_quasi_order(r).is_quasi_order


class TestCrispPart:
    def test_godel_showcase(self):
        r = mat(GODEL, [[1, "1/10", 1], [1, 1, 1], [1, "1/10", 1]])
        assert crisp_part(r) == mat(GODEL, [[1, 0, 1], [1, 1, 1], [1, 0, 1]])

    def test_crisp_fixed_point(self):
        r = mat(BOOL, [[1, 0], [1, 1]])
        assert crisp_part(r) == r
        u = FuzzyMatrix.universal(GODEL, 3)
        assert crisp_part(u) == u


class TestAftersets:
    def test_invariant_showcase_two_classes(self):
        r = greatest_invariant(automaton_ri_beats_rie(), "ri").quasi_order
        reps = aftersets(r)
        assert [i for i, _ in reps] == [0, 1]

    def test_identity_keeps_all(self):
        assert len(aftersets(FuzzyMatrix.identity(BOOL, 4))) == 4

    def test_weakly_reduced_recognizer(self):
        r = greatest_invariant(tau_chain_recognizer(), "wri").quasi_order
        assert len(aftersets(r)) == 2

    def test_rejects_non_quasi_order(self):
        with pytest.raises(NotQuasiOrder):
            aftersets(mat(BOOL, [[1, 1], [1, 0]]))

    @given(matrix_strategy(GODEL, min_n=2))
    def test_row_count_equals_column_count(self, r):
        q = transitive_closure(join(r, FuzzyMatrix.identity(r.lattice, r.rows)))
        rows = aftersets(q)
        cols = aftersets(transpose(q))
        assert len(rows) == len(cols)
        assert [i for i, _ in rows] == [j for j, _ in cols]


@settings(max_examples=40)
@given(square_matrices_same_size(GODEL, 3))
def test_composition_laws(ms):
    p, q, r = ms
    assert compose(compose(p, q), r) == compose(p, compose(q, r))
    assert compose(p, join(q, r)) == join(compose(p, q), compose(p, r))
    if leq(p, q):
        assert leq(compose(p, r), compose(q, r))
        assert leq(compose(r, p), compose(r, q))


@given(square_matrices_same_size(BOOL, 2))
def test_meet_join_transpose(ms):
    p, q = ms
    assert meet(p, q) == meet(q, p)
    assert transpose(transpose(p)) == p
    assert leq(meet(p, q), join(p, q))
