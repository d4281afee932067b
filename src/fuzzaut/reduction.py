"""Invariant quasi-order constructions and afterset quotients.

Every reduction method is one row of the table `METHODS`: a name mapped to
its side, its kernel, its source and whether it is crisp.

    side     right (R o dx o R = dx o R) or left (R o dx o R = R o dx)
    kernel   residuum (a quasi-order) or biresiduum (an equivalence)
    source   iterative  the descending iteration R <- R meet R^r (or R^l)
             closed     strongly invariant, in closed form (no iteration)
             weak       weakly invariant, over the reachable state family
    crisp    the iterates pass through their crisp part

    ri / li       iterative quasi-order     rie / lie     iterative equivalence
    cri / cli_crisp   crisp iterative       sri / sli     closed form
    wri / wli     weak quasi-order          wrie / wlie   weak equivalence

`greatest_invariant` is the one driver: it looks the method up, encodes the
machine and the start relation with one codec (`automaton.Levels`), checks
the start on those levels the same way for every method, and branches on
the source.

Left is right on the reversed machine.  R is left invariant for a machine
exactly when R^T is right invariant for its reverse, whose letters are the
transposes dx^T and whose sigma and tau trade places, and (R^l)^T =
(R^T)^r over the letters dx^T.  So the driver runs every left method as its
right twin on `Levels.reversed()`, whose relation is the start transposed,
and the report transposes the result back once.  Everything else in the module
is written for the right side alone.

On a recognizer every start is first met with the constraint quasi-order
R^tau, the largest R with R o tau = tau (for a left method, whose tau is
sigma, the transpose of R_sigma).  The weak methods meet the same
constraint for every member of the reachable state family, whose first
member is tau itself.  `Levels.family` runs on the driver's own levels, so
its members are constraints as they stand, with no decode.  It is taken on
the original machine, forward on the left: its members read the same as
rows or as columns.  The closed form, R(a,b) = the meet over letters
x and states c of dx(b,c) -> dx(a,c), is one more such constraint, the
letters met in with tau.  The constraints, the closed form and the steps
are all meets of residua over term vectors, each one `_meet_of_residua`.
Equivalence methods meet biresidua, and x <-> y = (x -> y) meet (y -> x):
E^r = S meet S^T for S the quasi-order step at E, and likewise for each
constraint.

A step makes one composition, [d1; ...; dk; R] o R, which gives every
dx o R, read by the step's residual, and R o R, read by the quasi-order
check before the residual is taken.

Each step refines only what changed.  A column c that R_(i+1) =
R_i meet R_i^r shares with R_i gives the same column c of every dx o R,
so its terms (dx o R)(b,c) -> (dx o R)(a,c) are at least R_i^r >= R_(i+1)
and leave the next meet unchanged: R_(i+2) is R_(i+1) met with the terms
of the changed columns alone.  This holds for the biresiduum too, and for
the crisp methods, whose iterates are crisp.  Within those columns a step
keeps one column of each class of equal columns (equal columns of R give
equal columns of every product, hence equal terms), and, the meet being
idempotent, runs the residual on the distinct rows of
[d1 o R | ... | dk o R] there and expands it.  (Joining the stack's
columns over classes of equal rows of R before the product is exact too,
since * distributes over the join, but once equal columns are dropped it
cost more than the product it saved.)  Every iterate of the plain
iteration is still computed, bit for bit.  The
check reads R o R at the changed columns only, and stays complete: at an
unchanged column b, R_(i+1) <= R_i and the earlier check give
(R_(i+1) o R_(i+1))(.,b) <= (R_i o R_i)(.,b) <= R_i(.,b) = R_(i+1)(.,b).
So a converged iterate has been checked by its last step, and its report
takes the afterset representatives without a product of its own.  The
public `r_step`, `l_step`, `req_step` and `leq_step` compute the full step.

A reflexive R with R <= R^r satisfies R o dx o R = dx o R, and one below
R^tau satisfies R o tau = tau.  A converged iterate of an iterative method
satisfies both (the biresiduum and the crisp part lie below the residuum),
and so does a closed-form result, since R <= the strongly invariant form
gives R o dx <= dx.  Their quotients read every letter's transitions off one
stacked product at the afterset representatives, and tau at the
representatives themselves (see `_quotient_from_reps`).  Weak methods,
unconverged reports and the public `afterset_quotient` compose R o dx o R in
full, in two products for all letters.  A left report takes the quotient of
the reversed machine by R^T and reverses it back: every block transposed,
sigma and tau swapped.  The representatives are the same, since two rows of
a quasi-order are equal exactly when the same two columns are; so the
foreset quotient, one state per distinct column of R, is this quotient too.

An alternate round stops when its quotient equals its input entry for entry,
and that is the isomorphism decision itself.  A quotient keeps its input's
size only when every row of R is distinct, so its representatives are the
states in order, and R being reflexive makes every entry at least the
input's: (R o dx o R)(a,b) >= R(a,a) * dx(a,b) * R(b,b), sigma o R >= sigma
and R o tau >= tau (the invariant shortcut reads the same values, and a left
report is such a quotient reversed).  An isomorphism would carry each letter,
sigma and tau onto the other machine's, with equal sums of entries, and a
machine above another entrywise with equal sums is equal to it.

Iterations over locally finite lattices terminate; over the product lattice
they may not, in which case the report carries the last iterate instead of
raising.  Every iterate is met with the one before, so the last iterate is
also the infimum of all of them.
"""

from __future__ import annotations

from itertools import chain
from operator import is_not, itemgetter

from .automaton import (
    FuzzyAutomaton,
    FuzzyRecognizer,
    Levels,
    Machine,
    check_caps,
    require_recognizer,
    reverse,
    underlying,
)
from .errors import ContainmentViolated, EquivalenceRequired, ValidationError
from .lattice import Codec
from .record import record
from .relation import (
    FuzzyMatrix,
    FuzzyVector,
    afterset_reps,
    aftersets,
    compose,
    compose_levels,
    compose_mv,
    distinct_rows,
    leq,
    require_quasi_order,
    require_quasi_order_levels,
    require_quasi_order_square,
    residual_levels,
    transpose,
    transpose_levels,
)


@record
class Method:
    """One row of the method table (see the module docstring)."""

    side: str  # "right" | "left"
    kernel: str  # "residuum" | "biresiduum"
    source: str  # "iterative" | "closed" | "weak"
    crisp: bool = False


METHODS = {
    "ri": Method("right", "residuum", "iterative"),
    "li": Method("left", "residuum", "iterative"),
    "rie": Method("right", "biresiduum", "iterative"),
    "lie": Method("left", "biresiduum", "iterative"),
    "cri": Method("right", "residuum", "iterative", crisp=True),
    "cli_crisp": Method("left", "residuum", "iterative", crisp=True),
    "sri": Method("right", "residuum", "closed"),
    "sli": Method("left", "residuum", "closed"),
    "wri": Method("right", "residuum", "weak"),
    "wli": Method("left", "residuum", "weak"),
    "wrie": Method("right", "biresiduum", "weak"),
    "wlie": Method("left", "biresiduum", "weak"),
}


@record
class ReductionReport:
    method: str
    iterates: int
    converged: bool
    quasi_order: FuzzyMatrix
    quotient: Machine
    state_trace: tuple[int, int]
    iterate_infimum: FuzzyMatrix


# ---------------------------------------------------------------------------
# one-step operators


def r_step(machine: Machine, r: FuzzyMatrix) -> FuzzyMatrix:
    """R^r(a,b) = meet over letters x and states c of (dx o R)(b,c) -> (dx o R)(a,c)."""
    return _step(machine, r, side="right", kernel="residuum")


def l_step(machine: Machine, r: FuzzyMatrix) -> FuzzyMatrix:
    """R^l(a,b) = meet over x, c of (R o dx)(c,a) -> (R o dx)(c,b)."""
    return _step(machine, r, side="left", kernel="residuum")


def req_step(machine: Machine, e: FuzzyMatrix) -> FuzzyMatrix:
    """Equivalence kernel: biresiduum of rows of dx o E."""
    return _step(machine, e, side="right", kernel="biresiduum")


def leq_step(machine: Machine, e: FuzzyMatrix) -> FuzzyMatrix:
    return _step(machine, e, side="left", kernel="biresiduum")


def _step(machine: Machine, r: FuzzyMatrix, side: str, kernel: str) -> FuzzyMatrix:
    """The full step R^r; R^l is the right step of the reversed machine at
    R^T, transposed back."""
    lv = Levels(machine, r)
    left = side == "left"
    if left:
        lv = lv.reversed()
    step = _right_step(lv.codec, lv.n, _letters(lv), lv.relation, range(lv.n), kernel)
    return lv.matrix(transpose_levels(step, lv.n) if left else step)


def _letters(lv: Levels) -> list:
    """Column c of the stacked letters [d1; ...; dk], for each state c."""
    n = lv.n
    return [list(chain.from_iterable(d[c::n] for d in lv.delta)) for c in range(n)]


def _right_step(codec: Codec, n: int, letters: list, r: list, cols, kernel: str) -> list:
    """The meet over letters x and the columns c in `cols` of
    (dx o R)(b,c) -> (dx o R)(a,c) at (a,b), met with its transpose for
    the biresiduum kernel: R^r when cols holds every column, and in the
    driver the terms of the columns that changed in the last iterate (see
    the module docstring).  `letters` holds the columns of [d1; ...; dk].
    R is checked to be reflexive and, at `cols`, transitive first.

    One product, [d1; ...; dk; R] o R at cols, gives every dx o R and R o R
    there.  It is taken transposed, (R at cols)^T o [d1; ...; dk; R]^T, so
    that each row of the result holds one column of every dx o R and of
    R o R.  Equal columns of R give equal columns of the product, so one of
    each is kept.  The terms are the columns of every dx o R there, met by
    `_meet_of_residua`."""
    # the columns of R at cols, one of each class of equal columns
    at_cols = [r[b::n] for b in cols]
    at_cols = [at_cols[b] for b in distinct_rows(codec, at_cols)[1]]
    k, w, h = len(letters[0]) // n, len(at_cols), len(letters[0]) + n
    bound = list(chain.from_iterable(at_cols))
    # row c of [d1; ...; dk; R]^T: column c of each dx, then of R
    stack = list(chain.from_iterable(letters[c] + r[c::n] for c in range(n)))
    out = compose_levels(codec, bound, stack, w, n, h)
    # row b of out: column b of each dx o R, then of R o R
    square = chain.from_iterable(out[b * h + k * n : (b + 1) * h] for b in range(w))
    require_quasi_order_square(codec, r, list(square), n, bound)
    columns = [out[b * h + x * n : b * h + (x + 1) * n] for b in range(w) for x in range(k)]
    return _meet_of_residua(codec, n, columns, kernel)


def _crisp_levels(codec: Codec, r: list) -> list:
    top, zero = codec.top, codec.zero
    return [top if x == top else zero for x in r]


def _changed_columns(old: list, new: list, n: int) -> list[int]:
    # new is map(min, old, step), and min returns its first argument on a
    # tie: an entry changed iff it is another object (no Fraction compare)
    diff = list(map(is_not, old, new))
    return [b for b in range(n) if any(diff[b::n])]


def _meet_of_residua(codec: Codec, n: int, terms: list, kernel: str) -> list:
    """R(a,b) = the meet over the term vectors v (each over the n states)
    of v(b) -> v(a), or of v(a) <-> v(b) for the biresiduum kernel.  The
    residual X(i,j) = the meet over v of v(i) -> v(j) runs on one state of
    each class of states equal in every term; R is X^T for the residuum and
    the symmetric X meet X^T for the biresiduum, expanded over the classes."""
    rows = list(zip(*terms))
    state_class, firsts = distinct_rows(codec, rows)
    m = len(firsts)
    if m < n:
        terms = zip(*(rows[i] for i in firsts))
    flat = list(chain.from_iterable(terms))
    residual = residual_levels(codec, flat, flat, len(flat) // m, m, m)
    out = transpose_levels(residual, m)
    if kernel == "biresiduum":
        out = list(map(min, residual, out))
    if m == n:
        return out
    pick = itemgetter(*state_class)
    lines = [pick(out[i * m : (i + 1) * m]) for i in range(m)]
    return list(chain.from_iterable(lines[i] for i in state_class))


# ---------------------------------------------------------------------------
# the invariance predicate (exact equalities, used by tests and callers)


def is_invariant(machine: Machine, r: FuzzyMatrix, side: str, strong: bool = False) -> bool:
    """Right: R o dx o R = dx o R for every letter (strong: R o dx = dx) and,
    on a recognizer, R o tau = tau.  Left is right on the reversed machine
    with R transposed: R o dx o R = R o dx (strong: dx o R = dx), sigma o R = sigma."""
    if side not in ("right", "left"):
        raise ValidationError(f"side must be 'right' or 'left', got {side!r}")
    if side == "left":
        return is_invariant(reverse(machine), transpose(r), "right", strong)
    require_quasi_order(r)
    for d in underlying(machine).delta.values():
        target = d if strong else compose(d, r)
        if compose(r, target) != target:
            return False
    return not isinstance(machine, FuzzyRecognizer) or compose_mv(r, machine.tau) == machine.tau


# ---------------------------------------------------------------------------
# the driver


def greatest_invariant(
    machine: Machine,
    method: str,
    start: FuzzyMatrix | None = None,
    max_iter: int = 256,
    max_states: int = 4096,
    max_depth: int = 64,
) -> ReductionReport:
    """Greatest quasi-order of the given kind below start (default: universal).

    Iterative methods refine until two consecutive iterates are equal; the
    comparison is exact structural equality, there is no tolerance.  If the
    cap is hit first the report has converged=False and carries the last
    iterate, which is also the infimum of all iterates: they descend.  Weak
    methods report converged=False when the state family fails to close
    within max_states / max_depth: the result is then a sound
    over-approximation (every discovered vector still constrains).
    """
    spec = METHODS.get(method)
    if spec is None:
        raise ValidationError(f"unknown method {method!r}; expected one of {tuple(METHODS)}")
    if spec.source == "weak":
        require_recognizer(machine, f"method {method}")
    if max_iter < 1:
        raise ValidationError(f"max_iter must be at least 1, got {max_iter}")
    check_caps(max_states, max_depth)
    lv = Levels(machine, start)
    if start is not None:
        require_quasi_order_levels(lv.codec, lv.relation, lv.n)
        if spec.kernel == "biresiduum" and transpose_levels(lv.relation, lv.n) != lv.relation:
            raise EquivalenceRequired(f"method {method} needs an equivalence start")

    left = spec.side == "left"
    if spec.source == "weak":
        # taken on the original machine, so that a truncated family keeps
        # its discovery order; its vectors read the same as rows or columns
        family, truncated = lv.family("forward" if left else "reverse", max_states, max_depth)
    if left:
        # a left method is the right one on the reversed machine and R^T
        lv = lv.reversed()
    codec, n = lv.codec, lv.n
    current = lv.relation if start is not None else [codec.top] * (n * n)
    # the constraint's terms: tau or the family members, and every letter's columns
    terms = list(family) if spec.source == "weak" else [lv.tau] if lv.recognizer else []
    if spec.source == "closed":
        terms += [d[c::n] for d in lv.delta for c in range(n)]
    if terms:
        constraint = _meet_of_residua(codec, n, terms, spec.kernel)
        current = list(map(min, current, constraint))
    if spec.crisp:
        current = _crisp_levels(codec, current)
    if spec.source == "weak":
        return _report(lv, method, current, len(family), not truncated)
    if spec.source == "closed":
        return _report(lv, method, current, iterates=1, converged=True)

    letters = _letters(lv)
    iterates = 1
    converged = False
    # R_i <= R_(i-1)^r bounds the terms of the columns R_i shares with
    # R_(i-1), so each step after the first takes the changed columns only
    cols = range(n)
    while iterates < max_iter:
        step = _right_step(codec, n, letters, current, cols, spec.kernel)
        if spec.crisp:
            step = _crisp_levels(codec, step)
        refined = list(map(min, current, step))
        iterates += 1
        if refined == current:
            converged = True
            break
        cols = _changed_columns(current, refined, n)
        current = refined
    return _report(lv, method, current, iterates, converged)


def _report(lv: Levels, method, relation, iterates, converged) -> ReductionReport:
    spec = METHODS[method]
    # a converged iterate was checked by its last step; a closed form, a
    # weak result or an iterate left by max_iter was not
    checked = converged and spec.source == "iterative"
    reps = afterset_reps(lv.codec, relation, lv.n, checked)
    # a converged iterate and a closed form are invariant
    quotient = _quotient_from_reps(lv, relation, reps, converged and spec.source != "weak")
    if spec.side == "left":
        # back from the reversed machine
        relation, quotient = transpose_levels(relation, lv.n), reverse(quotient)
    quasi_order = lv.matrix(relation)
    return ReductionReport(
        method=method,
        iterates=iterates,
        converged=converged,
        quasi_order=quasi_order,
        quotient=quotient,
        state_trace=(lv.n, len(reps)),
        # the iterates descend, so their infimum is the last one
        iterate_infimum=quasi_order,
    )


# ---------------------------------------------------------------------------
# quotients


def _quotient_from_reps(lv: Levels, r: list, reps: list[int], invariant: bool = False) -> Machine:
    """Transitions R o dx o R, initial sigma o R and terminal R o tau, at the
    representatives only, from two products for all letters: R at the
    representatives' rows times [d1 | ... | dk | tau] gives every R o dx
    and R o tau there, and [R o d1; ...; R o dk; sigma] times R at their
    columns gives every R o dx o R and sigma o R.

    An invariant R, reflexive with R <= R^r and R o tau = tau, needs the
    second product alone: R o dx o R = dx o R, with each dx at the
    representatives' rows in the stack, and tau is read at the
    representatives."""
    codec, n, m, k = lv.codec, lv.n, len(reps), len(lv.delta)
    aut, lat = lv.aut, lv.aut.lattice
    if invariant:
        rows = [x for d in lv.delta for a in reps for x in d[a * n : (a + 1) * n]]
        tau = [lv.tau[a] for a in reps] if lv.recognizer else None
    else:
        wide = []  # row-major [d1 | ... | dk | tau]
        for c in range(n):
            wide += chain.from_iterable(d[c * n : (c + 1) * n] for d in lv.delta)
            if lv.recognizer:
                wide.append(lv.tau[c])
        h = len(wide) // n
        rep_rows = [x for a in reps for x in r[a * n : (a + 1) * n]]
        out = compose_levels(codec, rep_rows, wide, m, n, h)
        # [R o d1; ...; R o dk] at the representatives' rows
        starts = [a * h + j * n for j in range(k) for a in range(m)]
        rows = [x for s in starts for x in out[s : s + n]]
        tau = out[k * n :: h] if lv.recognizer else None
    stacked = rows + lv.sigma if lv.recognizer else rows
    rep_cols = [r[c * n + b] for c in range(n) for b in reps]
    out = compose_levels(codec, stacked, rep_cols, len(stacked) // n, n, m)
    blocks = (out[j : j + m * m] for j in range(0, k * m * m, m * m))
    delta = {x: FuzzyMatrix(lat, m, m, codec.decode(b)) for x, b in zip(aut.alphabet, blocks)}
    names = tuple(f"Q{aut.states[i]}" for i in reps)
    quotient_aut = FuzzyAutomaton(lat, names, aut.alphabet, delta)
    if not lv.recognizer:
        return quotient_aut
    sigma = FuzzyVector(lat, codec.decode(out[k * m * m :]))
    return FuzzyRecognizer(quotient_aut, sigma, FuzzyVector(lat, codec.decode(tau)))


def afterset_quotient(machine: Machine, r: FuzzyMatrix) -> Machine:
    """The afterset automaton/recognizer: one state per distinct row of r,
    transitions (R o dx o R), initial sigma o R, terminal R o tau."""
    lv = Levels(machine, r)
    return _quotient_from_reps(lv, lv.relation, afterset_reps(lv.codec, lv.relation, lv.n))


def quotient_quasi_order(r: FuzzyMatrix, s: FuzzyMatrix) -> FuzzyMatrix:
    """S/R on the afterset representatives of R, defined by S/R(R_a,R_b) = S(a,b)."""
    require_quasi_order(r)
    require_quasi_order(s)
    if (r.rows, r.cols) != (s.rows, s.cols):
        raise ContainmentViolated("relations must share dimensions")
    if not leq(r, s):
        raise ContainmentViolated("need R <= S entrywise")
    reps = [i for i, _ in aftersets(r)]
    flat = tuple(s[a, b] for a in reps for b in reps)
    return FuzzyMatrix(r.lattice, len(reps), len(reps), flat)


# ---------------------------------------------------------------------------
# alternate reductions


@record
class AlternateReduction:
    """Outcome of an alternating reduction schedule.

    reports holds one ReductionReport per executed round, including the final
    round whose quotient merely reproduced its input.  state_trace lists the
    sizes of the reduction chain itself (start first, ending at the reduct).
    stop_reason is one of 'isomorphic', 'single_state', 'max_rounds'.
    """

    schedule: str
    reports: tuple[ReductionReport, ...]
    reduct: Machine
    state_trace: tuple[int, ...]
    stop_reason: str


SCHEDULES = {
    "rl": ("ri", "li"),
    "lr": ("li", "ri"),
    "wrl": ("wri", "wli"),
    "wlr": ("wli", "wri"),
}


def alternate_reduce(
    machine: Machine,
    schedule: str,
    max_rounds: int = 16,
    max_iter: int = 256,
    max_states: int = 4096,
    max_depth: int = 64,
) -> AlternateReduction:
    """Alternate right- and left-side greatest invariant reductions.

    Stops when a round's quotient is isomorphic to its input, when a single
    state remains, or after max_rounds.  The round that witnessed the
    isomorphism stays in the report list; the reduct is the automaton the
    chain had reached before it.

    A round's quotient is isomorphic to its input exactly when the two are
    equal entry for entry, state names aside (see the module docstring), so
    one comparison decides it at every size.
    """
    if schedule not in SCHEDULES:
        raise ValidationError(f"unknown schedule {schedule!r}; expected one of {sorted(SCHEDULES)}")
    if schedule.startswith("w"):
        require_recognizer(machine, f"schedule {schedule}")
    if max_rounds < 1:
        raise ValidationError(f"max_rounds must be at least 1, got {max_rounds}")
    methods = SCHEDULES[schedule]

    current = machine
    trace = [underlying(machine).n]
    reports: list[ReductionReport] = []
    stop = "max_rounds"
    for round_index in range(max_rounds):
        if underlying(current).n == 1:
            stop = "single_state"
            break
        method = methods[round_index % 2]
        report = greatest_invariant(
            current, method, max_iter=max_iter, max_states=max_states, max_depth=max_depth
        )
        reports.append(report)
        quotient = report.quotient
        if _same_entries(quotient, current):
            stop = "isomorphic"
            break
        current = quotient
        trace.append(underlying(current).n)
        if underlying(current).n == 1:
            stop = "single_state"
            break
    return AlternateReduction(schedule, tuple(reports), current, tuple(trace), stop)


def _same_entries(a: Machine, b: Machine) -> bool:
    """Equal transition matrices (and sigma, tau), whatever the state names."""
    aut_a, aut_b = underlying(a), underlying(b)
    if any(aut_a.delta[x].entries != aut_b.delta[x].entries for x in aut_a.alphabet):
        return False
    if isinstance(a, FuzzyRecognizer):
        return a.sigma.entries == b.sigma.entries and a.tau.entries == b.tau.entries
    return True
