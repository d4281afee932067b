"""Exception taxonomy shared by all modules."""


class FuzzautError(Exception):
    """Base class for all library errors."""


class LatticeValueError(FuzzautError):
    """A value does not belong to the lattice carrier (off-grid, out of [0,1], unparseable)."""


class LatticeMismatch(FuzzautError):
    """Operands live over different lattices."""


class DimensionMismatch(FuzzautError):
    """Vector/matrix shapes do not line up."""


class NotQuasiOrder(FuzzautError):
    """A relation required to be reflexive and transitive is not."""


class EquivalenceRequired(FuzzautError):
    """An equivalence-variant method was given a non-symmetric start relation."""


class ContainmentViolated(FuzzautError):
    """A required entrywise containment R <= S does not hold."""


class UnknownLetter(FuzzautError):
    """A word refers to a letter outside the automaton alphabet."""


class SizeLimitExceeded(FuzzautError):
    """An exact decision or brute-force enumeration was asked to run beyond
    its size cap."""


class NotBoolean(FuzzautError):
    """Brute-force enumeration requires the Boolean lattice."""


class AlphabetMismatch(FuzzautError):
    """Two automata that must share an alphabet do not."""


class NotASuperset(FuzzautError):
    """Alphabet extension/projection needs X to be a subset of Y."""


class EmptySharedAlphabet(FuzzautError):
    """Product composition needs a nonempty shared alphabet."""


class ParseError(FuzzautError):
    """An input document is syntactically malformed."""


class ValidationError(FuzzautError):
    """An input document or argument violates a structural invariant."""
