"""The value records: construction, checks, equality, hashing, immutability,
repr and copying of all twelve, the read-only carriers of matrices,
vectors and transition maps, and the modules `import fuzzaut.cli` loads."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import fuzzaut
from fuzzaut import (
    AlternateReduction,
    BlockingVerdict,
    ComposedRecognizer,
    DimensionMismatch,
    EquivalenceVerdict,
    FuzzyAutomaton,
    FuzzyMatrix,
    FuzzyRecognizer,
    FuzzyStateFamily,
    FuzzyVector,
    Lattice,
    LatticeMismatch,
    LatticeValueError,
    ReductionReport,
    ValidationError,
    greatest_invariant,
)
from fuzzaut.reduction import Method

BOOL = Lattice.boolean()
M1 = FuzzyMatrix(BOOL, 1, 1, (F(1),))
V1 = FuzzyVector(BOOL, (F(1),))
AUT = FuzzyAutomaton(BOOL, ("p",), ("x",), {"x": M1})
REC = FuzzyRecognizer(AUT, V1, V1)
REPORT = ReductionReport("ri", 1, True, M1, REC)


def args_of(cls):
    """Field names and one valid argument tuple, built afresh on each call."""
    return {
        Lattice: (("kind", "n"), ("chain", 4)),
        FuzzyVector: (("lattice", "entries"), (BOOL, (F(1), F(0)))),
        FuzzyMatrix: (("lattice", "rows", "cols", "entries"), (BOOL, 1, 2, (F(0), F(1)))),
        FuzzyAutomaton: (("lattice", "states", "alphabet", "delta"),
                         (BOOL, ("p",), ("x",), {"x": M1})),
        FuzzyRecognizer: (("automaton", "sigma", "tau"), (AUT, V1, V1)),
        FuzzyStateFamily: (("direction", "members", "truncated"),
                           ("forward", (((), V1),), False)),
        Method: (("side", "kernel", "source", "crisp"), ("left", "biresiduum", "weak", True)),
        ReductionReport: (("method", "iterates", "converged", "quasi_order", "quotient"),
                          ("ri", 1, True, M1, REC)),
        AlternateReduction: (("schedule", "reports", "reduct", "state_trace", "stop_reason"),
                             ("rl", (REPORT,), REC, (1,), "single_state")),
        ComposedRecognizer: (("recognizer", "left_states", "right_states", "shared_alphabet",
                              "private_left", "private_right"),
                             (REC, ("p",), ("q",), ("x",), (), ())),
        BlockingVerdict: (("verdict", "witness"), ("blocking", (0, 1))),
        EquivalenceVerdict: (("equal_up_to", "first_divergence"), (3, ((0,), F(1), F(0)))),
    }[cls]


RECORDS = [Lattice, FuzzyVector, FuzzyMatrix, FuzzyAutomaton, FuzzyRecognizer, FuzzyStateFamily,
           Method, ReductionReport, AlternateReduction, ComposedRecognizer, BlockingVerdict,
           EquivalenceVerdict]


def _hashable(value):
    try:
        hash(value)
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
class TestRecordSemantics:
    def test_positional_and_keyword_construction_agree(self, cls):
        names, args = args_of(cls)
        assert cls.__match_args__ == names
        by_position = cls(*args)
        by_keyword = cls(**dict(zip(names, args)))
        assert by_position == by_keyword
        for name, value in zip(names, args):
            assert getattr(by_position, name) == value

    def test_wrong_arguments_raise_type_error(self, cls):
        names, args = args_of(cls)
        with pytest.raises(TypeError):
            cls(*args, None)
        with pytest.raises(TypeError):
            cls(*args, not_a_field=None)
        with pytest.raises(TypeError):
            cls(*args, **{names[0]: args[0]})
        with pytest.raises(TypeError):
            cls()

    def test_equality_holds_within_one_class_only(self, cls):
        _, args = args_of(cls)
        sub = type("Sub", (cls,), {})
        record = cls(*args)
        assert record == cls(*args_of(cls)[1])
        assert record != sub(*args)
        assert record != tuple(args)
        assert not (record != cls(*args))

    def test_equal_records_hash_equal_when_their_fields_hash(self, cls):
        _, args = args_of(cls)
        a, b = cls(*args), cls(*args_of(cls)[1])
        if all(map(_hashable, args)):
            assert hash(a) == hash(b)
            assert len({a, b}) == 1
        else:
            with pytest.raises(TypeError):
                hash(a)

    def test_fields_cannot_be_assigned_or_deleted(self, cls):
        names, args = args_of(cls)
        record = cls(*args)
        for name in names:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.not_a_field = 1
        assert cls(*args) == record

    def test_repr_lists_every_field(self, cls):
        names, args = args_of(cls)
        record = cls(*args)
        fields = ", ".join(f"{name}={getattr(record, name)!r}" for name in names)
        assert repr(record) == f"{cls.__qualname__}({fields})"

    def test_copy_round_trips(self, cls):
        names, args = args_of(cls)
        record = cls(*args)
        twin = copy.copy(record)
        assert type(twin) is cls and twin == record
        for name in names:
            assert getattr(twin, name) == getattr(record, name)

    def test_pickle_and_deepcopy_round_trip(self, cls):
        _, args = args_of(cls)
        record = cls(*args)
        assert pickle.loads(pickle.dumps(record)) == record
        assert copy.deepcopy(record) == record

    def test_match_binds_the_fields_in_order(self, cls):
        _, args = args_of(cls)
        match cls(*args):
            case cls(first, second):
                assert (first, second) == tuple(args[:2])
            case _:
                pytest.fail("class pattern did not match")


def test_defaults_and_literal_reprs():
    assert Lattice("godel") == Lattice("godel", None) == Lattice(kind="godel")
    assert Lattice("godel").n is None
    assert Method("right", "residuum", "iterative").crisp is False
    assert repr(Lattice.chain(4)) == "Lattice(kind='chain', n=4)"
    assert repr(Lattice.godel()) == "Lattice(kind='godel', n=None)"
    assert (repr(Method("right", "residuum", "iterative"))
            == "Method(side='right', kernel='residuum', source='iterative', crisp=False)")
    assert (repr(BlockingVerdict("nonblocking", None))
            == "BlockingVerdict(verdict='nonblocking', witness=None)")
    assert repr(M1) == ("FuzzyMatrix(lattice=Lattice(kind='boolean', n=None), rows=1, cols=1, "
                        "entries=(Fraction(1, 1),))")


def test_derived_attributes_follow_the_fields():
    # the last iterate is the infimum of the descending iterates, the state
    # trace is read off the relation and the quotient, and a family is
    # complete exactly when no cap truncated it
    ones = FuzzyVector(BOOL, (F(1), F(1)))
    merged = greatest_invariant(FuzzyRecognizer(
        FuzzyAutomaton(BOOL, ("p", "q"), ("x",), {"x": FuzzyMatrix(BOOL, 2, 2, (F(1),) * 4)}),
        ones, ones), "ri")
    for report in (REPORT, merged):
        assert report.iterate_infimum is report.quasi_order
    assert REPORT.state_trace == (1, 1) and merged.state_trace == (2, 1)
    for truncated in (True, False):
        family = FuzzyStateFamily("forward", (((), V1),), truncated)
        assert family.complete is not truncated


@pytest.mark.parametrize("build, error", [
    (lambda: Lattice("nope"), LatticeValueError),
    (lambda: Lattice("chain", 0), LatticeValueError),
    (lambda: Lattice("godel", 3), LatticeValueError),
    (lambda: FuzzyVector(BOOL, (F(1, 2),)), LatticeValueError),
    (lambda: FuzzyMatrix(BOOL, 2, 2, (F(1),)), DimensionMismatch),
    (lambda: FuzzyMatrix(BOOL, 1, 1, (F(2),)), LatticeValueError),
    (lambda: FuzzyAutomaton(BOOL, (), ("x",), {}), ValidationError),
    (lambda: FuzzyAutomaton(BOOL, ("p",), ("x",), {"y": M1}), ValidationError),
    (lambda: FuzzyAutomaton(BOOL, ("p",), ("x",), [("x", M1)]), ValidationError),
    (lambda: FuzzyAutomaton(Lattice.godel(), ("p",), ("x",), {"x": M1}), LatticeMismatch),
    (lambda: FuzzyRecognizer(AUT, V1, FuzzyVector(BOOL, (F(1), F(0)))), DimensionMismatch),
], ids=["kind", "chain-n", "godel-n", "vector-entry", "matrix-shape", "matrix-entry",
        "no-states", "delta-letters", "delta-pairs", "delta-lattice", "tau-length"])
def test_post_init_checks_still_reject(build, error):
    with pytest.raises(error):
        build()


# ---------------------------------------------------------------------------
# read-only carriers


@pytest.mark.parametrize("entries", [[F(1)], iter((F(1),)), range(1)], ids=["list", "iterator", "range"])
def test_vector_and_matrix_refuse_entries_that_are_not_a_tuple(entries):
    with pytest.raises(ValidationError, match="tuple"):
        FuzzyVector(BOOL, entries)
    with pytest.raises(ValidationError, match="tuple"):
        FuzzyMatrix(BOOL, 1, 1, entries)


def test_automaton_holds_a_read_only_copy_of_delta():
    delta = {"x": FuzzyMatrix(BOOL, 2, 2, (F(1), F(0), F(1), F(1)))}
    a = FuzzyAutomaton(BOOL, ("p", "q"), ("x",), delta)
    kept = delta["x"]
    delta["x"] = FuzzyMatrix(BOOL, 3, 3, (F(1),) * 9)
    delta["y"] = kept
    assert a.delta == {"x": kept} and a.delta["x"] is kept
    with pytest.raises(TypeError):
        a.delta["x"] = kept
    # the copy still compares equal to a plain dict and to its twin
    twin = FuzzyAutomaton(BOOL, ("p", "q"), ("x",), {"x": kept})
    assert a == twin
    assert greatest_invariant(a, "ri") == greatest_invariant(twin, "ri")


# ---------------------------------------------------------------------------
# start-up imports


def test_cli_import_leaves_out_dataclasses_inspect_and_typing():
    # -S: the modules site imports for itself would hide a regression
    src = str(Path(fuzzaut.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probe = ("import sys, fuzzaut.cli; "
             "print(' '.join(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules))))")
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.split() == []
