"""Complete residuated lattices on [0,1] with exact rational arithmetic.

Five structures are supported, all linearly ordered by the rational order:

    boolean       carrier {0,1}, classical conjunction/implication
    godel         x*y = min(x,y),        x->y = 1 if x<=y else y
    product       x*y = x*y (Goguen),    x->y = 1 if x<=y else y/x
    lukasiewicz   x*y = max(x+y-1, 0),   x->y = min(1-x+y, 1)
    chain(n)      carrier {0, 1/n, ..., 1}, index arithmetic
                  a_k * a_l = a_max(k+l-n,0),  a_k -> a_l = a_min(n-k+l,n)

Values are `fractions.Fraction` in canonical reduced form, so every
operation is exact and fixpoint detection can use structural equality.
No floats appear anywhere.

Bulk computations do not run on `Fraction`s.  `Lattice.encode` builds a
`Codec` from the union of every value a computation starts from and maps
those values to levels, which the relation kernel computes on; results are
decoded once at the end.  The codec families:

    min       boolean, godel: a value's level is its rank among the sorted
              values and {0, 1}; x*y = min, x->y = top if x<=y else y
    shift     chain(n) with L = n, lukasiewicz with L = lcm of the
              denominators: level k stands for k/L;
              x*y = max(k+l-L, 0), x->y = min(L-k+l, L)
    product   the identity over `Fraction` (product is not locally finite,
              so no finite level set exists); exact, with denominator growth

Each family is closed under its operations, so every level that arises
decodes to the value the `Fraction` operations give.  The scalar
operations of `Lattice` (`otimes`, `residuum`, `biresiduum`) are the
reference semantics the levels are tested against; the library computes
on levels only.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from operator import attrgetter

from .errors import LatticeValueError
from .record import record

ZERO = Fraction(0)
ONE = Fraction(1)

KINDS = ("boolean", "godel", "product", "lukasiewicz", "chain")

_NUM_DEN = attrgetter("numerator", "denominator")

# CPython's default int-string digit limit, which already refuses "1/" + 5000 digits
MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)")


@record
class Lattice:
    """Descriptor selecting the residuated-lattice semantics of all values."""

    kind: str
    n: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise LatticeValueError(f"unknown lattice kind {self.kind!r}")
        if self.kind == "chain":
            # bool is an int subclass; a float or a string is never coerced
            n = self.n
            if isinstance(n, bool) or not isinstance(n, int) or n < 1:
                raise LatticeValueError(f"chain level count must be an integer >= 1, got {n!r}")
        elif self.n is not None:
            raise LatticeValueError(f"lattice kind {self.kind!r} takes no parameter n")

    # -- constructors ------------------------------------------------------

    @classmethod
    def boolean(cls) -> "Lattice":
        return cls("boolean")

    @classmethod
    def godel(cls) -> "Lattice":
        return cls("godel")

    @classmethod
    def product(cls) -> "Lattice":
        return cls("product")

    @classmethod
    def lukasiewicz(cls) -> "Lattice":
        return cls("lukasiewicz")

    @classmethod
    def chain(cls, n: int) -> "Lattice":
        return cls("chain", n)

    # -- carrier -----------------------------------------------------------

    @property
    def zero(self) -> Fraction:
        return ZERO

    @property
    def one(self) -> Fraction:
        return ONE

    def validate(self, x: Fraction) -> Fraction:
        """Check carrier membership; off-grid values are rejected, never snapped."""
        if not isinstance(x, Fraction):
            raise LatticeValueError(f"expected Fraction, got {type(x).__name__}")
        # integer tests on the reduced form (den > 0): x in [0,1] iff
        # 0 <= num <= den, x in {0,1} iff den == 1, x*n integral iff den | n
        num, den = x.numerator, x.denominator
        if num < 0 or num > den:
            raise LatticeValueError(f"value {x} outside [0,1]")
        if self.kind == "boolean":
            if den != 1:
                raise LatticeValueError(f"value {x} not in the Boolean carrier {{0,1}}")
        elif self.kind == "chain":
            if self.n % den:
                raise LatticeValueError(f"value {x} not on the chain({self.n}) grid")
        return x

    def carrier_sample(self, points: int = 21) -> list[Fraction]:
        """An evenly spaced grid of carrier values (used by the law tests)."""
        if self.kind == "boolean":
            return [ZERO, ONE]
        if self.kind == "chain":
            return [Fraction(k, self.n) for k in range(self.n + 1)]
        step = points - 1
        return [Fraction(k, step) for k in range(points)]

    # -- operations --------------------------------------------------------

    def meet(self, x: Fraction, y: Fraction) -> Fraction:
        return x if x <= y else y

    def join(self, x: Fraction, y: Fraction) -> Fraction:
        return x if x >= y else y

    def otimes(self, x: Fraction, y: Fraction) -> Fraction:
        kind = self.kind
        if kind == "godel" or kind == "boolean":
            return x if x <= y else y
        if kind == "product":
            return x * y
        if kind == "lukasiewicz":
            z = x + y - ONE
            return z if z > ZERO else ZERO
        k = self._level(x) + self._level(y) - self.n
        return Fraction(k, self.n) if k > 0 else ZERO

    def residuum(self, x: Fraction, y: Fraction) -> Fraction:
        """The largest z with x*z <= y (adjoint of otimes)."""
        if x <= y:
            return ONE
        kind = self.kind
        if kind == "godel" or kind == "boolean":
            return y
        if kind == "product":
            return y / x
        if kind == "lukasiewicz":
            return ONE - x + y
        k = self.n - self._level(x) + self._level(y)
        return Fraction(k, self.n) if k < self.n else ONE

    def biresiduum(self, x: Fraction, y: Fraction) -> Fraction:
        return self.meet(self.residuum(x, y), self.residuum(y, x))

    def _level(self, x: Fraction) -> int:
        k = x * self.n
        if k.denominator != 1:
            raise LatticeValueError(f"value {x} not on the chain({self.n}) grid")
        return int(k)

    # -- levels ------------------------------------------------------------

    def encode(self, *groups) -> tuple["Codec", list[list]]:
        """A codec for the union of the values in `groups` (sequences of
        carrier values), and each group as a list of levels.

        Each distinct entry object is mapped to its level once, keyed by
        (numerator, denominator): the matrices repeat a few value objects,
        and hashing a `Fraction` costs several times more than that pair.
        """
        if self.kind == "product":
            return Codec("product", ZERO, ONE, None), [list(g) for g in groups]
        objects = {id(x): x for g in groups for x in g}
        keys = {i: _NUM_DEN(x) for i, x in objects.items()}
        if self.kind in ("chain", "lukasiewicz"):
            top = self.n if self.kind == "chain" else lcm(*{d for _, d in keys.values()})
            codec = Codec("shift", 0, top, _ShiftValues(top))
            level = {i: num * (top // den) for i, (num, den) in keys.items()}
        else:
            values = {(0, 1): ZERO, (1, 1): ONE}
            values.update((key, objects[i]) for i, key in keys.items())
            # exact integer key: distinct p/q, r/s differ by >= 1/(qs) > 2**-shift
            shift = 2 * max(den for _, den in values).bit_length()
            ordered = sorted(values, key=lambda key: (key[0] << shift) // key[1])
            rank = {key: i for i, key in enumerate(ordered)}
            codec = Codec("min", 0, len(ordered) - 1, [values[key] for key in ordered])
            level = {i: rank[key] for i, key in keys.items()}
        return codec, [list(map(level.__getitem__, map(id, g))) for g in groups]

    # -- text syntax -------------------------------------------------------

    def parse(self, text: str) -> Fraction:
        """Parse "p/q", a decimal literal, "0" or "1" into a carrier value.

        A decimal exponent beyond MAX_EXPONENT in magnitude is refused before
        `Fraction` expands it: "1e-3000000" would otherwise cost seconds and
        a ten-million-bit denominator."""
        if not isinstance(text, str):
            raise LatticeValueError(f"cannot parse value {text!r}: expected a string")
        exponent = _EXPONENT.search(text)
        # five significant digits already exceed the bound
        if exponent and int(exponent[1].replace("_", "").lstrip("0")[:5] or 0) > MAX_EXPONENT:
            raise LatticeValueError(f"cannot parse value {text!r}: exponent beyond {MAX_EXPONENT}")
        try:
            x = Fraction(text.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise LatticeValueError(f"cannot parse value {text!r}: {exc}") from None
        return self.validate(x)

    def format(self, x: Fraction) -> str:
        """Canonical text form: reduced "p/q", or "0"/"1"/integer-free numerator."""
        return str(x)

    def describe(self) -> str:
        return f"chain({self.n})" if self.kind == "chain" else self.kind


class _ShiftValues(dict):
    """level -> Fraction(level, L), built on first use: L can be large, and
    only the levels a result holds are ever decoded."""

    def __init__(self, top: int):
        super().__init__()
        self.top = top

    def __missing__(self, level: int) -> Fraction:
        x = self[level] = Fraction(level, self.top)
        return x


class Codec:
    """The levels of one computation (see the module docstring).

    `zero` and `top` are the levels of 0 and 1.  The relation kernel
    applies each family's formulas (see the module docstring) to a whole
    line at once, one level against every entry of a line packed into one
    int (`relation.broadcast_levels`), from the formula alone.  `top`
    picks the lanes: up to top 8 a lane is one byte holding level y in
    unary, (1 << y) - 1, so the join of two lines is | and the meet &,
    and each output line is one C-level fold; from top 9 on a lane is
    binary and holds 2 top + 1, with a guard-bit select per join or meet.
    A shift codec's L can be about a million, or beyond 2^63, so no table
    over the levels is ever built and the binary lanes widen with top.
    `otimes` is the scalar * on levels, for the DES Kronecker product.
    """

    __slots__ = ("family", "zero", "top", "_values")

    def __init__(self, family: str, zero, top, values):
        self.family = family
        self.zero = zero
        self.top = top
        self._values = values

    def decode(self, levels) -> tuple[Fraction, ...]:
        if self.family == "product":
            return tuple(levels)
        return tuple(map(self._values.__getitem__, levels))

    def otimes(self, k, l):
        if self.family == "min":
            return k if k <= l else l
        if self.family == "shift":
            z = k + l - self.top
            return z if z > 0 else 0
        return k * l
