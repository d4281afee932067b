"""The level kernel against the scalar `Fraction` operations of `Lattice`.

`relation.compose` encodes, runs `compose_levels` and decodes;
`oracle.reference_compose` computes the same join of products value by
value.  The vector compositions, the reachable state family and the DES
compositions are checked against it too.  The residual kernel
`residual_levels`, the refinement steps, the weakly invariant methods and
the DES products are checked against their defining formulas written out
here with scalar lattice operations.
"""

import random
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzaut import (
    FuzzyAutomaton,
    FuzzyMatrix,
    FuzzyRecognizer,
    FuzzyVector,
    afterset_quotient,
    aftersets,
    compose,
    compose_mv,
    compose_vm,
    crisp_part,
    from_fuzzy_set_left,
    from_fuzzy_set_right,
    greatest_invariant,
    join,
    meet,
    overlap,
    parallel_compose,
    product_compose,
    reachable_state_family,
    transitive_closure,
    transpose,
    underlying,
)
from fuzzaut import reduction
from fuzzaut.lattice import ONE, ZERO, Lattice
from fuzzaut.oracle import reference_compose
from fuzzaut.reduction import METHODS, l_step, leq_step, r_step, req_step
from fuzzaut.relation import residual_levels, transpose_levels

from conftest import LATTICES, mat, matrices, recognizers, values_of, vectors

@st.composite
def operand_pairs(draw, lat):
    """P (rows x inner) and Q (inner x cols), drawn independently, so their
    value sets differ: square, 1 x n, n x 1, any other shapes, and tall
    (rows > cols) and wide (rows < cols) shapes up to 12, which the kernel
    broadcasts along columns and along rows."""
    n = draw(st.integers(1, 6))
    any_shape = tuple(draw(st.integers(1, 5)) for _ in range(3))
    inner = draw(st.integers(1, 6))
    short = draw(st.integers(2, 11))
    long = draw(st.integers(short + 1, 12))
    rows, inner, cols = draw(
        st.sampled_from(
            [(n, n, n), (1, n, n), (n, n, 1), (1, n, 1), (n, 1, n), any_shape,
             (long, inner, short), (short, inner, long)]
        )
    )
    return draw(matrices(lat, rows, inner)), draw(matrices(lat, inner, cols))


@pytest.mark.parametrize("name", sorted(LATTICES))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_compose_matches_reference(name, data):
    lat = LATTICES[name]
    p, q = data.draw(operand_pairs(lat))
    assert compose(p, q) == reference_compose(p, q)


def test_lukasiewicz_coprime_denominators():
    # 1/3 and 2/7 only meet on the grid of L = 21
    luk = LATTICES["lukasiewicz"]
    p = mat(luk, [["1/3", "2/3"], [1, 0]])
    q = mat(luk, [["5/7", "2/7"], [1, "6/7"]])
    codec, _ = luk.encode(p.entries, q.entries)
    assert codec.family == "shift" and codec.top == 21
    assert compose(p, q) == reference_compose(p, q) == mat(luk, [["2/3", "11/21"], ["5/7", "2/7"]])


def test_godel_values_outside_both_operands_pools():
    godel = LATTICES["godel"]
    p = mat(godel, [["1/997", "13/14"]])
    q = mat(godel, [["2/3"], ["1/1000"]])
    assert compose(p, q) == reference_compose(p, q) == mat(godel, [["1/997"]])


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_level_operations_match_scalar_operations(name):
    lat = LATTICES[name]
    sample = lat.carrier_sample()
    codec, (levels,) = lat.encode(sample)
    assert codec.decode(levels) == tuple(sample)
    for k, x in zip(levels, sample):
        for l, y in zip(levels, sample):
            assert codec.decode([codec.otimes(k, l)]) == (lat.otimes(x, y),)


@pytest.mark.parametrize("name", sorted(LATTICES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_residual_matches_reference(name, data):
    lat = LATTICES[name]
    # rectangular: k = 0 is the empty meet, and m != n
    k, m = data.draw(st.integers(0, 5)), data.draw(st.integers(1, 6))
    n = data.draw(st.integers(1, 6).filter(lambda n: n != m))
    p = data.draw(st.lists(values_of(lat), min_size=k * m, max_size=k * m))
    q = data.draw(st.lists(values_of(lat), min_size=k * n, max_size=k * n))
    codec, (pl, ql) = lat.encode(p, q)
    residuals = {}
    for op in ("residuum", "biresiduum"):
        scalar = getattr(lat, op)
        residuals[op] = tuple(
            min([scalar(p[c * m + a], q[c * n + b]) for c in range(k)], default=ONE)
            for a in range(m)
            for b in range(n)
        )
    residual = residual_levels(codec, pl, ql, k, m, n)
    assert codec.decode(residual) == residuals["residuum"]
    # x <-> y = (x -> y) meet (y -> x): the meet of biresidua is the residual
    # of P by Q met with the transpose of the residual of Q by P
    swapped = transpose_levels(residual_levels(codec, ql, pl, k, n, m), m)
    assert codec.decode(list(map(min, residual, swapped))) == residuals["biresiduum"]


@pytest.mark.parametrize("name", ["godel", "chain4"])
def test_residual_over_thousands_of_rows(name):
    # a state family can give k in the thousands, which the kernel meets in
    # blocks of rows.  P is 0 (0 -> y = 1) except in one row per column,
    # placed first, in the middle and last, so each block decides some
    # entries and none may be dropped.
    lat = LATTICES[name]
    rng = random.Random(5)
    pool = lat.carrier_sample(9)
    k, m, n = 5000, 3, 4
    p, q = [ZERO] * (k * m), [rng.choice(pool) for _ in range(k * n)]
    for a, c in enumerate((0, k // 2, k - 1)):
        p[c * m + a] = rng.choice(pool[1:])
    codec, (pl, ql) = lat.encode(p, q)
    expected = tuple(
        min(lat.residuum(p[c * m + a], q[c * n + b]) for c in range(k))
        for a in range(m)
        for b in range(n)
    )
    assert expected != (ONE,) * (m * n)
    assert codec.decode(residual_levels(codec, pl, ql, k, m, n)) == expected


@pytest.mark.parametrize("name", ["godel", "chain4"])
def test_residual_memory_stays_within_a_block(name):
    # only one block's scaled lines are alive at a time: 0.3-0.6 MB here,
    # where the lines of all k = 4000 rows at once take 4.4-8.6 MB
    lat = LATTICES[name]
    rng = random.Random(7)
    pool = lat.carrier_sample(9)
    k, m, n = 4000, 12, 12
    p, q = ([rng.choice(pool) for _ in range(k * w)] for w in (m, n))
    codec, (pl, ql) = lat.encode(p, q)
    tracemalloc.start()
    try:
        residual_levels(codec, pl, ql, k, m, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def reference_step(machine, r, side, op):
    """The meet over letters x and states c of op((dx o R)(b,c), (dx o R)(a,c))
    (right) or op((R o dx)(c,a), (R o dx)(c,b)) (left), value by value."""
    aut = underlying(machine)
    lat, n = aut.lattice, aut.n
    out = [ONE] * (n * n)
    for x in aut.alphabet:
        if side == "right":
            m = reference_compose(aut.delta[x], r)
            pairs = lambda a, b, c: (m[b, c], m[a, c])  # noqa: E731
        else:
            m = reference_compose(r, aut.delta[x])
            pairs = lambda a, b, c: (m[c, a], m[c, b])  # noqa: E731
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    out[a * n + b] = lat.meet(out[a * n + b], op(*pairs(a, b, c)))
    return FuzzyMatrix(lat, n, n, tuple(out))


@pytest.mark.parametrize("name", sorted(LATTICES))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_steps_match_reference(name, data):
    lat = LATTICES[name]
    # up to 7 states, so levels repeat within a line
    n = data.draw(st.integers(1, 7))
    letters = ("x", "y")[: data.draw(st.integers(1, 2))]
    delta = {x: data.draw(matrices(lat, n, n)) for x in letters}
    machine = FuzzyAutomaton(lat, tuple(str(i) for i in range(n)), letters, delta)
    universal = FuzzyMatrix.universal(lat, n)
    identity = FuzzyMatrix.identity(lat, n)
    # R_f(a,b) = f(a) -> f(b): a quasi-order, neither symmetric nor crisp in general
    drawn = from_fuzzy_set_right(data.draw(vectors(lat, n)))
    for r in (universal, identity, drawn, transpose(drawn)):
        assert r_step(machine, r) == reference_step(machine, r, "right", lat.residuum)
        assert l_step(machine, r) == reference_step(machine, r, "left", lat.residuum)
        assert req_step(machine, r) == reference_step(machine, r, "right", lat.biresiduum)
        assert leq_step(machine, r) == reference_step(machine, r, "left", lat.biresiduum)
    # the closed form is the same meet taken over the letters themselves
    for method, side in (("sri", "right"), ("sli", "left")):
        assert greatest_invariant(machine, method).quasi_order == reference_step(
            machine, identity, side, lat.residuum
        )


@st.composite
def machines_with_copies(draw, lat, recognizer=None, copy=False):
    """An automaton or recognizer whose states copy those of a base machine
    of at most four states: a copy repeats its original's row and column in
    every letter and its entries of sigma and tau.  `recognizer` forces the
    kind (drawn when None), and `copy` forces at least one copied state."""
    base = draw(st.integers(1, 4))
    of = draw(st.lists(st.integers(0, base - 1), min_size=1, max_size=5 if copy else 6))
    if copy:
        of.append(draw(st.sampled_from(of)))
    n = len(of)
    letters = ("x", "y")[: draw(st.integers(1, 2))]
    delta = {}
    for x in letters:
        m = draw(matrices(lat, base, base))
        entries = tuple(m[of[a], of[b]] for a in range(n) for b in range(n))
        delta[x] = FuzzyMatrix(lat, n, n, entries)
    automaton = FuzzyAutomaton(lat, tuple(str(i) for i in range(n)), letters, delta)
    if not (draw(st.booleans()) if recognizer is None else recognizer):
        return automaton
    sigma, tau = (draw(vectors(lat, base)) for _ in range(2))
    return FuzzyRecognizer(
        automaton,
        FuzzyVector(lat, tuple(sigma[i] for i in of)),
        FuzzyVector(lat, tuple(tau[i] for i in of)),
    )


FULL_STEPS = {
    ("right", "residuum"): r_step,
    ("left", "residuum"): l_step,
    ("right", "biresiduum"): req_step,
    ("left", "biresiduum"): leq_step,
}


def plain_iteration(machine, method, start, max_iter):
    """R <- R meet step(R) with the public full step (its crisp part for a
    crisp method), from the start met with the recognizer constraint:
    (the last iterate, iterates, converged)."""
    spec = METHODS[method]
    aut = underlying(machine)
    r = FuzzyMatrix.universal(aut.lattice, aut.n) if start is None else start
    if isinstance(machine, FuzzyRecognizer):
        if spec.side == "right":
            constraint = from_fuzzy_set_left(machine.tau)
        else:
            constraint = from_fuzzy_set_right(machine.sigma)
        if spec.kernel == "biresiduum":
            constraint = meet(constraint, transpose(constraint))
        r = meet(r, constraint)
    part = crisp_part if spec.crisp else (lambda m: m)
    r = part(r)
    for iterates in range(2, max_iter + 1):
        refined = meet(r, part(FULL_STEPS[spec.side, spec.kernel](machine, r)))
        if refined == r:
            return r, iterates, True
        r = refined
    return r, max_iter, False


@pytest.mark.parametrize("name", sorted(LATTICES))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_driver_matches_plain_iteration(name, data):
    # the driver refines only the changed columns and the distinct rows of
    # each iterate, and runs the left side transposed: every iterate and
    # the iterate count must still be those of the plain iteration
    lat = LATTICES[name]
    machine = data.draw(machines_with_copies(lat))
    method = data.draw(st.sampled_from(("ri", "li", "rie", "lie", "cri", "cli_crisp")))
    max_iter = data.draw(st.sampled_from((2, 3, 256)))
    n = underlying(machine).n
    start = None
    if data.draw(st.booleans()):
        r = data.draw(matrices(lat, n, n))
        if METHODS[method].kernel == "biresiduum":
            r = join(r, transpose(r))
        start = transitive_closure(join(r, FuzzyMatrix.identity(lat, n)))
    report = greatest_invariant(machine, method, start=start, max_iter=max_iter)
    expected = plain_iteration(machine, method, start, max_iter)
    assert (report.quasi_order, report.iterates, report.converged) == expected


@pytest.mark.parametrize("method", ["sri", "wri"])
@pytest.mark.parametrize("name", sorted(LATTICES))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_constraint_residual_runs_on_distinct_states(method, name, data):
    # a copy repeats its original's row in every letter and its entry of
    # tau, so every constraint term, a column of tau or of a letter or a
    # member of the state family, has equal entries at the two: the
    # constraint's residual runs on one state of each class of such states
    lat = LATTICES[name]
    machine = data.draw(machines_with_copies(lat, True if method == "wri" else None, copy=True))
    aut = underlying(machine)
    tau = machine.tau.entries if isinstance(machine, FuzzyRecognizer) else (None,) * aut.n
    classes = {(tau[a], *(d.row(a) for d in aut.delta.values())) for a in range(aut.n)}
    sizes = []
    original = reduction.residual_levels
    counted = lambda *args: sizes.append(args[-2]) or original(*args)  # noqa: E731
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reduction, "residual_levels", counted)
        greatest_invariant(machine, method, max_states=8 if lat.kind == "product" else 512)
    assert sizes and max(sizes) <= len(classes)


def test_lukasiewicz_large_common_denominator():
    # L = 997 * 991 = 988027 levels: lines are scaled by formula, and no
    # level-by-level table is ever built
    luk = LATTICES["lukasiewicz"]
    delta = {
        "x": mat(luk, [["1/997", "990/991", 1], [0, "500/997", "1/991"], ["996/997", 1, "3/991"]]),
        "y": mat(luk, [[1, 0, "2/997"], ["7/991", 1, 0], ["498/997", "1/997", "989/991"]]),
    }
    machine = FuzzyAutomaton(luk, ("0", "1", "2"), ("x", "y"), delta)
    r = from_fuzzy_set_right(FuzzyVector(luk, (F(1, 997), F(700, 991), F(1))))
    codec, _ = luk.encode(*(d.entries for d in delta.values()), r.entries)
    assert codec.family == "shift" and codec.top == 988027
    tracemalloc.start()
    try:
        composed = (compose(delta["x"], r), compose(r, delta["y"]))
        steps = (r_step(machine, r), req_step(machine, r))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a table with one entry per level would hold 988027 references, ~8 MB
    assert peak < 1_000_000
    assert composed == (reference_compose(delta["x"], r), reference_compose(r, delta["y"]))
    assert steps == (
        reference_step(machine, r, "right", luk.residuum),
        reference_step(machine, r, "right", luk.biresiduum),
    )


def lane_boundaries():
    """Case -> (lattice, its values other than 0 and 1, the codec's top).
    Up to top 8 the kernel packs a line into unary byte lanes, level y as
    (1 << y) - 1; from top 9 on, into binary lanes of B bytes, B the least
    with 2 top + 1 < 2^(8B - 1): tops 9 and 63 give B = 1, top 64 and top
    100 give B = 2 and a Lukasiewicz L near 2^64 gives B = 9."""
    godel, luk = Lattice.godel(), Lattice.lukasiewicz()
    inner = [F(k, 997) for k in sorted(random.Random(16).sample(range(1, 997), 63))]
    p, q = 2**32 - 5, 2**32 - 17  # both prime
    big = p * q
    return {
        # the last unary top and the first binary one
        "godel-9-values": (godel, inner[:7], 8),
        "godel-10-values": (godel, inner[:8], 9),
        "chain8": (Lattice.chain(8), [F(k, 8) for k in range(1, 8)], 8),
        "chain9": (Lattice.chain(9), [F(k, 9) for k in range(1, 9)], 9),
        "lukasiewicz-8": (luk, [F(k, 8) for k in range(1, 8)], 8),
        "lukasiewicz-9": (luk, [F(k, 9) for k in range(1, 9)], 9),
        "godel-64-values": (godel, inner[:62], 63),
        "godel-65-values": (godel, inner, 64),
        "chain63": (Lattice.chain(63), [F(k, 63) for k in range(1, 63)], 63),
        "chain64": (Lattice.chain(64), [F(k, 64) for k in range(1, 64)], 64),
        # each level fits a 1-byte lane's 7 bits, the sum of two does not
        "chain100": (Lattice.chain(100), [F(k, 100) for k in (1, 2, 37, 50, 63, 98, 99)], 100),
        "lukasiewicz-63": (luk, [F(k, d) for d in (7, 9) for k in range(1, d)], 63),
        "lukasiewicz-64": (luk, [F(k, 64) for k in range(1, 64, 2)], 64),
        "lukasiewicz-near-2^64": (
            luk,
            [F(k, d) for d in (p, q) for k in (1, 2, d // 3, d // 2, d - 2, d - 1)]
            + [F(1, big), F(big - 1, big)],
            big,
        ),
    }


LANE_BOUNDARIES = lane_boundaries()


@pytest.mark.parametrize("case", sorted(LANE_BOUNDARIES))
def test_kernel_at_lane_width_boundaries(case):
    # every operand holds every value of the case, so each codec has the
    # case's top, and levels 1 and top - 1 occur as scalars and in lines
    lat, inner, top = LANE_BOUNDARIES[case]
    pool = [ZERO, ONE, *inner]
    rng = random.Random(case)

    def covering(rows, cols):
        entries = pool + [rng.choice(pool) for _ in range(rows * cols - len(pool))]
        rng.shuffle(entries)
        return FuzzyMatrix(lat, rows, cols, tuple(entries))

    # tall (rows > cols) broadcasts columns of P, wide broadcasts rows of Q
    for rows, inner_dim, cols in ((12, 7, 10), (10, 7, 12)):
        p, q = covering(rows, inner_dim), covering(inner_dim, cols)
        assert lat.encode(p.entries, q.entries)[0].top == top
        assert compose(p, q) == reference_compose(p, q)
    k, m, n = 9, 8, 8
    p, q = covering(k, m), covering(k, n)
    codec, (pl, ql) = lat.encode(p.entries, q.entries)
    assert codec.top == top
    expected = tuple(
        min(lat.residuum(p.entries[c * m + a], q.entries[c * n + b]) for c in range(k))
        for a in range(m)
        for b in range(n)
    )
    assert codec.decode(residual_levels(codec, pl, ql, k, m, n)) == expected
    n = 9
    delta = {x: covering(n, n) for x in ("x", "y")}
    machine = FuzzyAutomaton(lat, tuple(str(i) for i in range(n)), ("x", "y"), delta)
    drawn = from_fuzzy_set_right(FuzzyVector(lat, tuple(rng.choice(pool) for _ in range(n))))
    for r in (FuzzyMatrix.identity(lat, n), drawn, transpose(drawn)):
        assert r_step(machine, r) == reference_step(machine, r, "right", lat.residuum)
        assert req_step(machine, r) == reference_step(machine, r, "right", lat.biresiduum)


def test_min_codec_orders_values_a_float_cannot_tell_apart():
    godel = LATTICES["godel"]
    big = 10**30
    x, y = F(big - 1, big), F(big, big + 1)
    assert float(x) == float(y) and x < y
    codec, (levels,) = godel.encode([y, x, F(1, 2)])
    # levels of 0, 1/2, x, y, 1
    assert levels == [3, 2, 1] and codec.top == 4
    assert codec.decode(levels) == (y, x, F(1, 2))


# ---------------------------------------------------------------------------
# vector shapes, the state family and the DES products


def as_row(f):
    return FuzzyMatrix(f.lattice, 1, len(f), f.entries)


def as_col(f):
    return FuzzyMatrix(f.lattice, len(f), 1, f.entries)


@pytest.mark.parametrize("name", sorted(LATTICES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_vector_compositions_match_reference(name, data):
    lat = LATTICES[name]
    n, m = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    f, g = data.draw(vectors(lat, n)), data.draw(vectors(lat, n))
    p, q = data.draw(matrices(lat, n, m)), data.draw(matrices(lat, m, n))
    assert compose_vm(f, p).entries == reference_compose(as_row(f), p).entries
    assert compose_mv(q, f).entries == reference_compose(q, as_col(f)).entries
    assert overlap(f, g) == reference_compose(as_row(f), as_col(g))[0, 0]


@pytest.mark.parametrize("name", sorted(LATTICES))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_report_quotients_match_the_general_quotient(name, data):
    """A converged iterative or closed-form report reads its quotient off
    dx o R (or R o dx); every non-weak report's quotient, converged or not,
    must be R o dx o R, sigma o R and R o tau at the representatives."""
    lat = LATTICES[name]
    n = data.draw(st.integers(1, 6))
    letters = ("x", "y", "z")[: data.draw(st.integers(1, 3))]
    delta = {x: data.draw(matrices(lat, n, n)) for x in letters}
    machine = FuzzyAutomaton(lat, tuple(str(i) for i in range(n)), letters, delta)
    if data.draw(st.booleans()):
        sigma, tau = data.draw(vectors(lat, n)), data.draw(vectors(lat, n))
        machine = FuzzyRecognizer(machine, sigma, tau)
    # a small cap leaves some runs unconverged, on the product lattice most
    max_iter = data.draw(st.sampled_from([2, 3, 12]))
    for method, spec in METHODS.items():
        if spec.source == "weak":
            continue
        report = greatest_invariant(machine, method, max_iter=max_iter)
        r = report.quasi_order
        assert report.quotient == afterset_quotient(machine, r)
        reps = [a for a, _ in aftersets(r)]
        at_reps = lambda m: tuple(m[a, b] for a in reps for b in reps)  # noqa: E731
        quotient = underlying(report.quotient)
        for x in letters:
            expected = at_reps(reference_compose(reference_compose(r, delta[x]), r))
            assert quotient.delta[x].entries == expected
        if isinstance(machine, FuzzyRecognizer):
            sigma = reference_compose(as_row(machine.sigma), r)
            tau = reference_compose(r, as_col(machine.tau))
            assert report.quotient.sigma.entries == tuple(sigma[0, b] for b in reps)
            assert report.quotient.tau.entries == tuple(tau[a, 0] for a in reps)


def reference_member(rec, direction, word):
    """sigma o delta_w (forward) or delta_w o tau (reverse), letter by letter."""
    mats = [rec.delta[x] for x in rec.alphabet]
    if direction == "forward":
        v = as_row(rec.sigma)
        for i in word:
            v = reference_compose(v, mats[i])
    else:
        v = as_col(rec.tau)
        for i in reversed(word):
            v = reference_compose(mats[i], v)
    return v.entries


@pytest.mark.parametrize("name", sorted(LATTICES))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_state_family_matches_reference(name, data):
    lat = LATTICES[name]
    letters = ("x", "y")[: data.draw(st.integers(1, 2))]
    rec = data.draw(recognizers(lat, letters))
    # product families may be infinite: only small caps there
    cap = data.draw(st.sampled_from([1, 3, 8] if lat.kind == "product" else [1, 3, 512]))
    for direction in ("forward", "reverse"):
        fam = reachable_state_family(rec, direction, max_states=cap)
        entries = [v.entries for _, v in fam.members]
        assert len(set(entries)) == len(entries)
        for word, v in fam.members:
            assert v.entries == reference_member(rec, direction, word)
        assert fam.complete != fam.truncated
        if fam.complete:
            members = set(entries)
            for _, v in fam.members:
                for m in rec.delta.values():
                    if direction == "forward":
                        step = reference_compose(as_row(v), m)
                    else:
                        step = reference_compose(m, as_col(v))
                    assert step.entries in members


@pytest.mark.parametrize("name", sorted(LATTICES))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_weak_methods_meet_their_constraints(name, data):
    lat = LATTICES[name]
    letters = ("x", "y")[: data.draw(st.integers(1, 2))]
    rec = data.draw(recognizers(lat, letters))
    n = rec.n
    cap = 8 if lat.kind == "product" else 512
    # the right side meets tau_u(b) op tau_u(a), the left sigma_u(a) op sigma_u(b)
    for method, direction, op in (("wri", "reverse", lat.residuum),
                                  ("wli", "forward", lat.residuum),
                                  ("wrie", "reverse", lat.biresiduum),
                                  ("wlie", "forward", lat.biresiduum)):
        members = [v for _, v in reachable_state_family(rec, direction, max_states=cap).members]
        if direction == "reverse":
            pairs = lambda v, a, b: (v[b], v[a])  # noqa: E731
        else:
            pairs = lambda v, a, b: (v[a], v[b])  # noqa: E731
        expected = tuple(
            min(op(*pairs(v, a, b)) for v in members) for a in range(n) for b in range(n)
        )
        assert greatest_invariant(rec, method, max_states=cap).quasi_order.entries == expected


def reference_composition(a, b, alphabet):
    """The product-space letter matrices, sigma and tau, entry by entry with
    the scalar operations: otimes on shared letters, and on a private letter
    the owner's entry where the other component stays put, else 0."""
    lat = a.lattice
    aset, bset = set(a.alphabet), set(b.alphabet)
    delta = {}
    for x in alphabet:
        flat = []
        for p in range(a.n):
            for q in range(b.n):
                for p2 in range(a.n):
                    for q2 in range(b.n):
                        if x in aset and x in bset:
                            flat.append(lat.otimes(a.delta[x][p, p2], b.delta[x][q, q2]))
                        elif x in aset:
                            flat.append(a.delta[x][p, p2] if q == q2 else ZERO)
                        else:
                            flat.append(b.delta[x][q, q2] if p == p2 else ZERO)
        delta[x] = tuple(flat)
    sigma = tuple(lat.otimes(x, y) for x in a.sigma.entries for y in b.sigma.entries)
    tau = tuple(lat.otimes(x, y) for x in a.tau.entries for y in b.tau.entries)
    return delta, sigma, tau


@pytest.mark.parametrize("name", sorted(LATTICES))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_compositions_match_reference(name, data):
    lat = LATTICES[name]
    # x is private to the left, z to the right, y is shared
    a = data.draw(recognizers(lat, ("x", "y"), max_n=3))
    b = data.draw(recognizers(lat, ("y", "z"), max_n=3))
    for composed, alphabet in ((parallel_compose(a, b), ("x", "y", "z")),
                               (product_compose(a, b), ("y",))):
        rec = composed.recognizer
        assert rec.alphabet == alphabet
        delta, sigma, tau = reference_composition(a, b, alphabet)
        assert {x: m.entries for x, m in rec.delta.items()} == delta
        assert (rec.sigma.entries, rec.tau.entries) == (sigma, tau)
