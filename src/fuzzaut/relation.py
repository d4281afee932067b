"""Dense fuzzy vectors and matrices over a shared lattice.

Relations are endorelations stored row-major; rectangular shapes exist only
as intermediate results of compositions.  All containers are immutable and
every operation is a pure function, so values can be shared freely.

Compositions run on levels (see `lattice.Codec`): `compose` encodes both
operands with one codec, calls the level kernel `compose_levels` on flat
row-major lists and decodes the result once.  `compose_vm`, `compose_mv`
and `overlap` are its 1 x n . n x n, n x n . n x 1 and 1 x n . n x 1
shapes, through the same helper.

For the min and shift families the kernel's inner loop is one row
broadcast (`broadcast_levels`): row a of P o Q is the entrywise join over
c of row c of Q scaled by the single level P(a,c).  Each row is packed
once per call into one int with one lane per entry, in one of two
encodings chosen by the codec's top:

- top <= 8 (Boolean, chain(n) for n <= 8, Godel over at most 9 values,
  Lukasiewicz with L <= 8): unary byte lanes, level y as the byte
  (1 << y) - 1.  The lane-wise max is then | and the min is &, so the
  join or meet of all the scaled rows of an output row is one C-level
  `functools.reduce` over `or_` or `and_`, and a scaled row is one to
  three whole-int operations (min * keeps the k low bits of each lane,
  shift * moves them down by L - k).
- top >= 9: binary lanes of B bytes, B the least with
  2 top + 1 < 2^(8B - 1), so that a lane holds the sum of two levels below
  its top bit, the guard; B has no cap, as a Lukasiewicz L can exceed
  2^63.  A scaled row is a few whole-int operations, the family's formula
  clamped into [0, top] (a lane holds no negative or over-top value):
  min(y, k) for min *, a saturating y - (L - k) for shift *,
  min(y + L - k, L) for shift ->.  The join of two rows is a guard-bit
  select: g = ((a | H) - b) & H keeps the guard of each lane where a >= b,
  g - (g >> (8B - 1)) fills the bits below it, and an xor through that
  mask picks a or b, one Python-level step per scaled row.

In both, a scaled row is built once per (c, level) on first use, level 0
is skipped (x * 0 = 0) and top passes the row through (x * 1 = x).  When
the result has more rows than columns the kernel broadcasts columns of P
by the levels of Q instead (* commutes), so a vector costs one pass.  A
1 x 1 result (`overlap`) has no line to broadcast: it is one pass over the
pairs.  Product compositions multiply the nonzero pairs only.

Every meet of residua is one call of `residual_levels`, the right residual
of relations: for a k x m P and a k x n Q, the m x n matrix (a,b) -> the
meet over c of P(c,a) -> Q(c,b).  For min and shift it is the same
broadcast with the meet select, the columns of P as scalars and the rows
of Q as lines; product takes u -> v over column pairs in closed form.  As
x <-> y = (x -> y) meet (y -> x), a meet of biresidua is the residual met
with its transpose.  The reduction's steps, closed forms and constraints
and `from_fuzzy_set_right` all use it, and the reduction driver keeps its
relations as levels across a whole iteration.  `oracle.reference_compose`
is the `Fraction` route the kernel is tested against.

The quasi-order check on levels, `require_quasi_order_levels`, composes
r o r and reads it against r.  It runs on input from outside only: every
relation the reduction driver builds is a quasi-order by construction.
`is_quasi_order`, `require_quasi_order` and `aftersets` run that one check
on a square matrix's own levels; `is_quasi_order` is a bool, its answer.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import reduce
from itertools import chain, compress
from operator import add, and_, le, or_

from .errors import (
    DimensionMismatch,
    LatticeMismatch,
    LatticeValueError,
    NotQuasiOrder,
    ValidationError,
)
from .lattice import _NUM_DEN, Codec, Lattice, ONE, ZERO
from .record import record


def _check_entries(lattice: Lattice, entries) -> None:
    # a list would leave the record unhashable, unequal to its tuple twin
    # and open to mutation after its entries were validated
    if not isinstance(entries, tuple):
        raise ValidationError(f"entries must be a tuple, got {type(entries).__name__}")
    # one check per distinct entry object: parsed and decoded values repeat
    for x in {id(x): x for x in entries}.values():
        lattice.validate(x)


@record
class FuzzyVector:
    """A fuzzy subset of an n-element set."""

    lattice: Lattice
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        _check_entries(self.lattice, self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> Fraction:
        return self.entries[i]

    @classmethod
    def from_values(cls, lattice: Lattice, values: Iterable) -> "FuzzyVector":
        return cls(lattice, tuple(_entry(lattice, v) for v in values))

    @classmethod
    def zeros(cls, lattice: Lattice, n: int) -> "FuzzyVector":
        return cls(lattice, (ZERO,) * n)

    @classmethod
    def ones(cls, lattice: Lattice, n: int) -> "FuzzyVector":
        return cls(lattice, (ONE,) * n)


@record
class FuzzyMatrix:
    """A fuzzy relation (rows x cols matrix of lattice values), row-major."""

    lattice: Lattice
    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        _check_entries(self.lattice, self.entries)
        if len(self.entries) != self.rows * self.cols:
            raise DimensionMismatch(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} entries, "
                f"got {len(self.entries)}"
            )

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple[Fraction, ...]:
        return self.entries[j :: self.cols]

    def row_vector(self, i: int) -> FuzzyVector:
        return FuzzyVector(self.lattice, self.row(i))

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @classmethod
    def from_rows(cls, lattice: Lattice, rows: Sequence[Sequence]) -> "FuzzyMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        for r in rows:
            if len(r) != ncols:
                raise DimensionMismatch("ragged rows")
        flat = tuple(_entry(lattice, v) for r in rows for v in r)
        return cls(lattice, nrows, ncols, flat)

    @classmethod
    def identity(cls, lattice: Lattice, n: int) -> "FuzzyMatrix":
        flat = tuple(ONE if i == j else ZERO for i in range(n) for j in range(n))
        return cls(lattice, n, n, flat)

    @classmethod
    def universal(cls, lattice: Lattice, n: int) -> "FuzzyMatrix":
        return cls(lattice, n, n, (ONE,) * (n * n))


def _entry(lattice: Lattice, v) -> Fraction:
    """A `Fraction`, int or str (through `Lattice.parse`) as a `Fraction`; a
    float or a bool is refused, not converted (0.1 is not 1/10, True not 1)."""
    if isinstance(v, str):
        return lattice.parse(v)
    if isinstance(v, bool) or not isinstance(v, (Fraction, int)):
        raise LatticeValueError(f"expected Fraction, int or str, got {type(v).__name__} {v!r}")
    return Fraction(v)


def _check_same_lattice(a, b) -> Lattice:
    if a.lattice != b.lattice:
        raise LatticeMismatch(f"{a.lattice.describe()} vs {b.lattice.describe()}")
    return a.lattice


# ---------------------------------------------------------------------------
# compositions


def compose(p: FuzzyMatrix, q: FuzzyMatrix) -> FuzzyMatrix:
    """(P o Q)(a,b) = join_c P(a,c) * Q(c,b)."""
    lat = _check_same_lattice(p, q)
    if p.cols != q.rows:
        raise DimensionMismatch(f"cannot compose {p.rows}x{p.cols} with {q.rows}x{q.cols}")
    entries = _compose_entries(lat, p.entries, q.entries, p.rows, p.cols, q.cols)
    return FuzzyMatrix(lat, p.rows, q.cols, entries)


def _compose_entries(lat: Lattice, p, q, rows: int, inner: int, cols: int) -> tuple[Fraction, ...]:
    """Encode both operands with one codec, run the kernel, decode."""
    codec, (pl, ql) = lat.encode(p, q)
    return codec.decode(compose_levels(codec, pl, ql, rows, inner, cols))


def compose_levels(codec: Codec, p: list, q: list, rows: int, inner: int, cols: int) -> list:
    """The level kernel: P o Q for a rows x inner P and an inner x cols Q,
    both flat row-major level lists of one codec."""
    if codec.family == "product":
        # Fraction products are dear: multiply the nonzero pairs only
        prows = [p[i * inner : (i + 1) * inner] for i in range(rows)]
        qcols = [q[j::cols] for j in range(cols)]
        zero = codec.zero
        col_nonzero = [{c for c, y in enumerate(col) if y} for col in qcols]
        out = []
        for row in prows:
            row_nonzero = {c for c, x in enumerate(row) if x}
            out.extend(
                [
                    max([row[c] * col[c] for c in row_nonzero & nonzero], default=zero)
                    for col, nonzero in zip(qcols, col_nonzero)
                ]
            )
        return out
    if rows == cols == 1:
        # a dot product: one pass over the pairs, no line to broadcast
        if codec.family == "min":
            return [max([x if x < y else y for x, y in zip(p, q)], default=0)]
        z = max(map(add, p, q), default=0) - codec.top
        return [z if z > 0 else 0]
    if rows <= cols:
        # row a of P o Q is the join over c of P(a,c) * (row c of Q)
        prows = (p[a * inner : (a + 1) * inner] for a in range(rows))
        qrows = [q[c * cols : (c + 1) * cols] for c in range(inner)]
        return list(chain.from_iterable(broadcast_levels(codec, "otimes", prows, qrows, cols)))
    # * commutes: column b of P o Q is the join over c of Q(c,b) * (column c of P)
    qcols = (q[b::cols] for b in range(cols))
    pcols = [p[c::inner] for c in range(inner)]
    return list(chain.from_iterable(zip(*broadcast_levels(codec, "otimes", qcols, pcols, rows))))


def broadcast_levels(codec: Codec, op: str, scalars: Iterable, lines: list, width: int) -> list:
    """The row-broadcast primitive of the min and shift families.

    For each level list s in `scalars` (of length len(lines)), one output
    line of `width` levels (a list, or `bytes` on unary lanes): for op
    "otimes" the entrywise join over c of lines[c] * s[c], for op
    "residuum" the entrywise meet over c of s[c] -> lines[c].

    Each line is packed once into one int with a lane per entry.  A codec
    with top <= 8 gets unary byte lanes (`_broadcast_unary`): level y is
    the byte (1 << y) - 1, packed by `bytes.translate` and unpacked by a
    popcount table, so the join of two lines is | and the meet &, and each
    output line is one C-level `functools.reduce` over its scaled lines.
    A larger top gets binary lanes of B bytes, B the least with
    2 top + 1 < 2^(8B - 1): a lane holds the sum of two levels and still
    has its top bit, the guard, clear, and the join or meet of two lines
    is a Python-level guard-bit select.  Either way the family's formula
    (see `Codec`) is a few whole-int operations per scaled line, clamped
    into [0, top].  Level 0 is skipped, as its scaled line is the
    aggregate's identity (x * 0 = 0, 0 -> y = 1), top passes its line
    through unscaled (x * 1 = x, 1 -> y = y), and every other scaled line
    is built once per (c, level), on first use, and shared by the output
    lines that need it.
    """
    top = codec.top
    if top <= 8:
        return _broadcast_unary(codec, op, scalars, lines, width)
    size = (2 * top + 1).bit_length() // 8 + 1
    shift, nbytes = 8 * size - 1, width * size
    ones = int.from_bytes(b"\1".ljust(size, b"\0") * width, "little")
    guard, tops = ones << shift, top * ones

    def ge(a: int, b: int) -> int:
        # the bits below the guard in the lanes where a >= b: the guard
        # survives a lane's subtraction exactly there, and g - (g >> shift)
        # fills the bits below it (the operands' guards are clear, so a
        # select never needs the guard bit itself)
        g = ((a | guard) - b) & guard
        return g - (g >> shift)

    if size == 1:
        packed = [int.from_bytes(bytes(line), "little") for line in lines]
        unpack = lambda z: list(z.to_bytes(nbytes, "little"))  # noqa: E731
    else:
        packed = [
            int.from_bytes(b"".join([y.to_bytes(size, "little") for y in line]), "little")
            for line in lines
        ]

        def unpack(z: int) -> list:
            data = z.to_bytes(nbytes, "little")
            return [int.from_bytes(data[i : i + size], "little") for i in range(0, nbytes, size)]

    if codec.family == "min":
        if op == "otimes":
            # min(y, k)
            def scale(y: int, k: int) -> int:
                k *= ones
                return y ^ ((y ^ k) & ge(y, k))

        else:
            # top where y >= k, else y
            def scale(y: int, k: int) -> int:
                return y ^ ((y ^ tops) & ge(y, k * ones))

    elif op == "otimes":
        # max(y - (L - k), 0): the guard keeps a lane's borrow in the lane
        def scale(y: int, k: int) -> int:
            s = (y | guard) - (top - k) * ones
            g = s & guard
            return s & (g - (g >> shift))

    else:
        # min(y + L - k, L)
        def scale(y: int, k: int) -> int:
            s = y + (top - k) * ones
            return s ^ ((s ^ tops) & ge(s, tops))

    join = op == "otimes"
    memo = _ScaledLines(packed, scale)
    out = []
    for s in scalars:
        scaled = iter([
            packed[c] if level == top else memo[c, level]
            for c, level in enumerate(s)
            if level  # the zero level of min and shift is 0
        ])
        # with every level skipped, the aggregate's identity: zeros or tops
        acc = next(scaled, 0 if join else tops)
        for z in scaled:
            # the select, inlined: d is acc ^ z in the lanes where acc >= z,
            # so acc ^ d is the lane-wise min and z ^ d the max
            g = ((acc | guard) - z) & guard
            d = (acc ^ z) & (g - (g >> shift))
            acc = z ^ d if join else acc ^ d
        out.append(unpack(acc))
    return out


class _ScaledLines(dict):
    """(c, level) -> packed[c] scaled by level, built on first use."""

    def __init__(self, packed: list, scale):
        super().__init__()
        self.packed, self.scale = packed, scale

    def __missing__(self, key: tuple) -> int:
        c, level = key
        z = self[key] = self.scale(self.packed[c], level)
        return z


# level y as the unary byte (1 << y) - 1 and back, for tops up to 8
_UNARY = bytes((1 << y) - 1 for y in range(9)).ljust(256, b"\0")
_POPCOUNT = bytes(map(int.bit_count, range(256)))


def _broadcast_unary(codec: Codec, op: str, scalars: Iterable, lines: list, width: int) -> list:
    """`broadcast_levels` on unary byte lanes (top <= 8): the lane-wise max
    is | and the min is &, so an output line is one C-level fold."""
    top = codec.top
    ones = int.from_bytes(b"\1" * width, "little")
    # the identity of the join is all zeros, of the meet all tops
    fold, identity = (or_, 0) if op == "otimes" else (and_, ones * ((1 << top) - 1))
    if top == 1:
        # Boolean levels 0 and 1 are their own unary bytes, and every
        # nonzero level is top, whose scaled line is the line itself
        packed = [int.from_bytes(bytes(line), "little") for line in lines]
        folds = (reduce(fold, compress(packed, s), identity) for s in scalars)
        return [z.to_bytes(width, "little") for z in folds]
    packed = [int.from_bytes(bytes(line).translate(_UNARY), "little") for line in lines]
    if codec.family == "min":
        if op == "otimes":
            # min(y, k): the k low bits of each lane
            scale = lambda y, k: y & ones * ((1 << k) - 1)  # noqa: E731
        else:
            # top where y >= k (bit k - 1 set), else y
            scale = lambda y, k: y | ((y >> (k - 1)) & ones) * ((1 << top) - 1)  # noqa: E731
    elif op == "otimes":
        # max(y - (L - k), 0): a lane's bits moved down; the bits that cross
        # in from the lane above land at 8 - (L - k) >= k and are masked off
        scale = lambda y, k: (y >> (top - k)) & ones * ((1 << k) - 1)  # noqa: E731
    else:
        # min(y + L - k, L): the bits that cross into the lane above land
        # below L - k, where the low bits are set anyway, and the bits left
        # at L and above are cleared by the meet, which starts at all tops
        scale = lambda y, k: (y << (top - k)) | ones * ((1 << (top - k)) - 1)  # noqa: E731
    # the scaled line of (c, level) sits at key c * (top + 1) + level; level
    # top is the line itself, and level 0 (the identity) is dropped by compress
    stride = top + 1
    memo = _UnaryLines(zip(range(top, stride * len(lines), stride), packed))
    memo.packed, memo.scale, memo.stride = packed, scale, stride
    get, starts = memo.__getitem__, range(0, stride * len(lines), stride)
    folds = (reduce(fold, map(get, compress(map(add, starts, s), s)), identity) for s in scalars)
    return [z.to_bytes(width, "little").translate(_POPCOUNT) for z in folds]


class _UnaryLines(dict):
    """c * stride + level -> packed[c] scaled by level, built on first use."""

    def __missing__(self, key: int) -> int:
        c, level = divmod(key, self.stride)
        z = self[key] = self.scale(self.packed[c], level)
        return z


def residual_levels(codec: Codec, p: list, q: list, k: int, m: int, n: int) -> list:
    """The residual kernel: the m x n level matrix (a,b) -> the meet over c
    of P(c,a) -> Q(c,b), for a k x m P and a k x n Q (flat row-major, one
    codec).  An empty meet (k = 0) is top.  The meet over c of
    P(c,a) <-> Q(c,b) is this met with the transpose of the residual of
    Q by P, as x <-> y = (x -> y) meet (y -> x)."""
    if codec.family == "product":
        # over two columns u, v: u -> v is 1 where u <= v, else v / u
        implies = lambda u, v: min([y / x for x, y in zip(u, v) if x > y], default=codec.top)
        pcols, qcols = [p[a::m] for a in range(m)], [q[b::n] for b in range(n)]
        return [implies(u, v) for u in pcols for v in qcols]
    # row a of the result: the meet over c of P(c,a) -> (row c of Q), over
    # blocks of c, so that the scaled lines of a block (at most m per c) are
    # dropped before the next block: a state family can have thousands of c
    out, block = None, 1 + 4096 // max(m, 1)
    for lo in range(0, k or 1, block):
        hi = min(k, lo + block)
        pcols = (p[lo * m + a : hi * m : m] for a in range(m))
        qrows = [q[c * n : (c + 1) * n] for c in range(lo, hi)]
        rows = chain.from_iterable(broadcast_levels(codec, "residuum", pcols, qrows, n))
        out = list(rows) if out is None else list(map(min, out, rows))
    return out


def compose_vm(f: FuzzyVector, p: FuzzyMatrix) -> FuzzyVector:
    """(f o P)(a) = join_b f(b) * P(b,a): the kernel on a 1 x n f."""
    lat = _check_same_lattice(f, p)
    if len(f) != p.rows:
        raise DimensionMismatch(f"vector length {len(f)} vs {p.rows} rows")
    return FuzzyVector(lat, _compose_entries(lat, f.entries, p.entries, 1, p.rows, p.cols))


def compose_mv(p: FuzzyMatrix, f: FuzzyVector) -> FuzzyVector:
    """(P o f)(a) = join_b P(a,b) * f(b): the kernel on an n x 1 f."""
    lat = _check_same_lattice(p, f)
    if p.cols != len(f):
        raise DimensionMismatch(f"{p.cols} cols vs vector length {len(f)}")
    return FuzzyVector(lat, _compose_entries(lat, p.entries, f.entries, p.rows, p.cols, 1))


def overlap(f: FuzzyVector, g: FuzzyVector) -> Fraction:
    """Degree of overlapping: join_a f(a) * g(a), the kernel on 1 x n f and n x 1 g."""
    lat = _check_same_lattice(f, g)
    if len(f) != len(g):
        raise DimensionMismatch(f"vector lengths {len(f)} vs {len(g)}")
    return _compose_entries(lat, f.entries, g.entries, 1, len(f), 1)[0]


# ---------------------------------------------------------------------------
# pointwise algebra


def _pointwise(op, p: FuzzyMatrix, q: FuzzyMatrix) -> FuzzyMatrix:
    lat = _check_same_lattice(p, q)
    if (p.rows, p.cols) != (q.rows, q.cols):
        raise DimensionMismatch(f"{p.rows}x{p.cols} vs {q.rows}x{q.cols}")
    return FuzzyMatrix(lat, p.rows, p.cols, tuple(op(x, y) for x, y in zip(p.entries, q.entries)))


def meet(p: FuzzyMatrix, q: FuzzyMatrix) -> FuzzyMatrix:
    return _pointwise(p.lattice.meet, p, q)


def join(p: FuzzyMatrix, q: FuzzyMatrix) -> FuzzyMatrix:
    return _pointwise(p.lattice.join, p, q)


def transpose(p: FuzzyMatrix) -> FuzzyMatrix:
    return FuzzyMatrix(p.lattice, p.cols, p.rows, tuple(transpose_levels(p.entries, p.cols)))


def transpose_levels(r: Sequence, cols: int) -> list:
    """The transpose of a flat row-major matrix with `cols` columns."""
    return list(chain.from_iterable(r[j::cols] for j in range(cols)))


def leq(p: FuzzyMatrix, q: FuzzyMatrix) -> bool:
    """Entrywise p <= q."""
    _check_same_lattice(p, q)
    if (p.rows, p.cols) != (q.rows, q.cols):
        raise DimensionMismatch(f"{p.rows}x{p.cols} vs {q.rows}x{q.cols}")
    return all(x <= y for x, y in zip(p.entries, q.entries))


# ---------------------------------------------------------------------------
# closures and predicates


def transitive_closure(r: FuzzyMatrix) -> FuzzyMatrix:
    """Least transitive relation above r, by squaring: r <- r v r o r.

    x*y <= x on every lattice here, so a path through a repeated state never
    beats its shortcut and the closure is the join of the first n powers.
    k squarings cover the first 2^k powers, so within ceil(log2 n) + 1 of
    them one squaring changes nothing, and the loop stops there.
    """
    if not r.is_square:
        raise DimensionMismatch("transitive closure needs a square matrix")
    while (nxt := join(r, compose(r, r))) != r:
        r = nxt
    return r


def is_quasi_order(r: FuzzyMatrix) -> bool:
    """Whether the square relation r is reflexive and transitive (r o r <= r)."""
    try:
        _quasi_order_levels(r)
    except NotQuasiOrder:
        return False
    return True


def is_fuzzy_equivalence(r: FuzzyMatrix) -> bool:
    return is_quasi_order(r) and r == transpose(r)


def is_fuzzy_order(r: FuzzyMatrix) -> bool:
    """Quasi-order whose crisp part is antisymmetric."""
    if not is_quasi_order(r):
        return False
    n = r.rows
    for i in range(n):
        for j in range(i + 1, n):
            if r.entries[i * n + j] == ONE and r.entries[j * n + i] == ONE:
                return False
    return True


def require_quasi_order(r: FuzzyMatrix) -> FuzzyMatrix:
    _quasi_order_levels(r)
    return r


def _quasi_order_levels(r: FuzzyMatrix) -> tuple[Codec, list]:
    """The codec and levels of r, once r is checked to be a square
    quasi-order: the one check behind `is_quasi_order`,
    `require_quasi_order` and `aftersets`."""
    if not r.is_square:
        raise DimensionMismatch("quasi-order test needs a square matrix")
    codec, (levels,) = r.lattice.encode(r.entries)
    require_quasi_order_levels(codec, levels, r.rows)
    return codec, levels


def require_quasi_order_levels(codec: Codec, r: list, n: int) -> None:
    """Raise NotQuasiOrder unless the n x n level relation r is reflexive
    and transitive (r o r <= r)."""
    missing = []
    if any(r[i * n + i] != codec.top for i in range(n)):
        missing.append("reflexive")
    if not all(map(le, compose_levels(codec, r, r, n, n, n), r)):
        missing.append("transitive")
    if missing:
        raise NotQuasiOrder(f"relation is not {' or '.join(missing)}")


def natural_equivalence(r: FuzzyMatrix) -> FuzzyMatrix:
    """E_R = R meet R^{-1}; a fuzzy equivalence below the quasi-order R."""
    require_quasi_order(r)
    return meet(r, transpose(r))


def from_fuzzy_set_right(f: FuzzyVector) -> FuzzyMatrix:
    """R_f(a,b) = f(a) -> f(b); always a quasi-order."""
    codec, (v,) = f.lattice.encode(f.entries)
    n = len(v)
    levels = residual_levels(codec, v, v, 1, n, n)
    return FuzzyMatrix(f.lattice, n, n, codec.decode(levels))


def from_fuzzy_set_left(f: FuzzyVector) -> FuzzyMatrix:
    """R^f(a,b) = f(b) -> f(a), the transpose of R_f; always a quasi-order."""
    return transpose(from_fuzzy_set_right(f))


def crisp_part(r: FuzzyMatrix) -> FuzzyMatrix:
    """Entry 1 where r is 1, else 0, over the same lattice."""
    flat = tuple(ONE if x == ONE else ZERO for x in r.entries)
    return FuzzyMatrix(r.lattice, r.rows, r.cols, flat)


def aftersets(r: FuzzyMatrix) -> list[tuple[int, FuzzyVector]]:
    """Distinct rows of a quasi-order, keyed by least realizing state index
    (see `afterset_reps`)."""
    codec, levels = _quasi_order_levels(r)
    return [(i, r.row_vector(i)) for i in afterset_reps(codec, levels, r.rows)]


def afterset_reps(codec: Codec, r: list, n: int) -> list[int]:
    """Least state index of each distinct row of the n x n level quasi-order r.

    First-occurrence order makes quotient constructions deterministic; the
    count always equals the distinct-column count.  r is not checked: the
    public callers check their input, and the reduction driver builds only
    quasi-orders (see `reduction`).
    """
    return distinct_rows(codec, [r[i * n : (i + 1) * n] for i in range(n)])[1]


def distinct_rows(codec: Codec, rows: Sequence) -> tuple[list[int], list[int]]:
    """The class of each level row (equal rows share one) and the index of
    the first row of each class, both in first-occurrence order.  Product
    rows are keyed by (numerator, denominator) pairs: hashing a `Fraction`
    costs several times more, and more as its denominator grows."""
    key = (lambda row: tuple(map(_NUM_DEN, row))) if codec.family == "product" else tuple
    index: dict[tuple, tuple[int, int]] = {}
    classes = [index.setdefault(key(row), (len(index), i))[0] for i, row in enumerate(rows)]
    return classes, [i for _, i in index.values()]
