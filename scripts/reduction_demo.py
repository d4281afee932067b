#!/usr/bin/env python3
"""Walk through the reduction toolbox on a handful of small machines.

Builds the showcase automata, runs every reduction method, and prints the
resulting quasi-orders, quotients and state traces.  Useful as a smoke test
and as a reading companion for the library API.
"""

from fractions import Fraction as F

from fuzzaut import (
    FuzzyAutomaton,
    FuzzyMatrix,
    FuzzyRecognizer,
    FuzzyVector,
    Lattice,
    alternate_reduce,
    check_blocking,
    conflict_check,
    greatest_invariant,
    underlying,
)

BOOL = Lattice.boolean()
GODEL = Lattice.godel()
PROD = Lattice.product()


def mk(lat, rows):
    return FuzzyMatrix.from_rows(lat, [[F(v) for v in row] for row in rows])


def show_matrix(lat, m, indent="    "):
    for i in range(m.rows):
        print(indent + "[" + "  ".join(lat.format(v) for v in m.row(i)) + "]")


def show_report(machine, report):
    lat = underlying(machine).lattice
    state = "converged" if report.converged else "NOT converged"
    print(f"  {report.method:>9}: {report.state_trace[0]} -> {report.state_trace[1]} states, "
          f"{report.iterates} iterates, {state}")
    show_matrix(lat, report.quasi_order)


def demo_boolean_two_letter():
    print("== Boolean automaton where quasi-orders beat equivalences ==")
    a = FuzzyAutomaton(
        BOOL,
        ("1", "2", "3"),
        ("x", "y"),
        {
            "x": mk(BOOL, [[1, 0, 0], [0, 0, 0], [0, 0, 0]]),
            "y": mk(BOOL, [[1, 0, 0], [1, 1, 0], [1, 0, 0]]),
        },
    )
    for method in ("ri", "rie", "sri", "cri"):
        show_report(a, greatest_invariant(a, method))
    print()


def demo_product_descent():
    print("== Product-lattice automaton with an endless descent ==")
    a = FuzzyAutomaton(
        PROD, ("1", "2"), ("x",), {"x": mk(PROD, [["1/5", 0], [0, "1/10"]])}
    )
    for cap in (4, 16, 64):
        report = greatest_invariant(a, "ri", max_iter=cap)
        print(f"  cap {cap:>3}: entry (2,1) = {PROD.format(report.quasi_order[1, 0])}")
    print()


def demo_alternate():
    print("== Alternating reductions on a 3-state recognizer ==")
    aut = FuzzyAutomaton(
        BOOL,
        ("1", "2", "3"),
        ("x", "y"),
        {
            "x": mk(BOOL, [[1, 0, 0], [0, 0, 0], [0, 0, 0]]),
            "y": mk(BOOL, [[0, 1, 0], [1, 1, 1], [1, 0, 0]]),
        },
    )
    rec = FuzzyRecognizer(
        aut,
        FuzzyVector.from_values(BOOL, [1, 0, 0]),
        FuzzyVector.from_values(BOOL, [0, 1, 1]),
    )
    for schedule in ("wrl", "wlr"):
        result = alternate_reduce(rec, schedule)
        trace = " -> ".join(str(k) for k in result.state_trace)
        print(f"  {schedule}: {trace} (stopped: {result.stop_reason})")
    print()


def demo_blocking():
    print("== Blocking analysis before and after a weak-right reduction ==")
    aut = FuzzyAutomaton(
        BOOL,
        ("1", "2", "3", "4"),
        ("x",),
        {"x": mk(BOOL, [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]])},
    )
    rec = FuzzyRecognizer(
        aut,
        FuzzyVector.from_values(BOOL, [0, 1, 0, 1]),
        FuzzyVector.from_values(BOOL, [0, 1, 0, 1]),
    )
    quotient = greatest_invariant(rec, "wri").quotient
    partner = FuzzyRecognizer(
        FuzzyAutomaton(BOOL, ("b",), ("x",), {"x": mk(BOOL, [[1]])}),
        FuzzyVector.from_values(BOOL, [1]),
        FuzzyVector.from_values(BOOL, [1]),
    )
    print(f"  original:  {check_blocking(rec, 4).verdict}")
    print(f"  quotient:  {check_blocking(quotient, 4).verdict}")
    print(f"  conflict with idle partner: {conflict_check(quotient, partner, 4).verdict}")
    print()


if __name__ == "__main__":
    demo_boolean_two_letter()
    demo_product_descent()
    demo_alternate()
    demo_blocking()
