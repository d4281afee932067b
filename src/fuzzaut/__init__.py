"""State reduction of fuzzy automata by fuzzy quasi-orders over residuated lattices."""

from .errors import (
    AlphabetMismatch,
    ContainmentViolated,
    DimensionMismatch,
    EmptySharedAlphabet,
    EquivalenceRequired,
    FuzzautError,
    LatticeMismatch,
    LatticeValueError,
    NotASuperset,
    NotBoolean,
    NotQuasiOrder,
    ParseError,
    SizeLimitExceeded,
    UnknownLetter,
    ValidationError,
)
from .lattice import Lattice
from .relation import (
    FuzzyMatrix,
    FuzzyVector,
    QuasiOrderWitness,
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
from .automaton import (
    FuzzyAutomaton,
    FuzzyRecognizer,
    FuzzyStateFamily,
    are_isomorphic,
    generate,
    reachable_state_family,
    recognize,
    reverse,
    transition_of_word,
    underlying,
    words_up_to,
)
from .reduction import (
    AlternateReduction,
    ReductionReport,
    afterset_quotient,
    alternate_reduce,
    greatest_invariant,
    l_step,
    quotient_quasi_order,
    r_step,
)
from .des import (
    BlockingVerdict,
    ComposedRecognizer,
    check_blocking,
    conflict_check,
    input_extension,
    natural_projection,
    parallel_compose,
    prefix_closure_at,
    product_compose,
)
from .oracle import (
    EquivalenceVerdict,
    brute_force_greatest_invariant,
    check_general_system,
    crisp_quasi_orders,
    languages_equal_up_to,
)

__version__ = "0.1.0"
