"""Document schema and command-line surface.

Automata travel as JSON:

    {"version": 1,
     "lattice": {"kind": "godel"},              # "chain" adds "n"
     "states": ["1", "2", "3"],
     "alphabet": ["x"],
     "delta": {"x": [["0","1/10","0"],["1/5","0","0"],["1/10","0","0"]]},
     "sigma": null, "tau": null}

sigma and tau are present together (recognizer) or both null (automaton).
Values are the lattice text syntax: reduced "p/q", decimals, "0", "1".

Exit codes: 0 success, 1 usage error, 2 validation error (an unreadable
input or an unwritable output included), 3 analysis undetermined
(non-convergence, truncation, undetermined blocking).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .automaton import (
    FuzzyAutomaton,
    FuzzyRecognizer,
    Machine,
    Word,
    reachable_state_family,
    require_recognizer,
    underlying,
)
from .des import check_blocking, parallel_compose, product_compose
from .errors import (
    FuzzautError,
    LatticeValueError,
    ParseError,
    ValidationError,
)
from .lattice import Lattice
from .oracle import languages_equal_up_to
from .reduction import (
    METHODS,
    SCHEDULES,
    ReductionReport,
    alternate_reduce,
    greatest_invariant,
)
from .relation import FuzzyMatrix, FuzzyVector

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# documents


def _lattice_from_doc(doc) -> Lattice:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ParseError("lattice must be an object with a 'kind' field")
    kind = doc["kind"]
    try:
        if kind == "chain":
            if "n" not in doc:
                raise ParseError("chain lattice needs field 'n'")
            return Lattice.chain(doc["n"])
        return Lattice(kind)
    except LatticeValueError as exc:
        raise ValidationError(str(exc)) from None


def _value_parser(lat: Lattice):
    """`lat.parse` that parses each distinct text once: a document repeats
    a few value texts many times."""
    parsed: dict[str, Fraction] = {}

    def parse(text: str) -> Fraction:
        value = parsed.get(text)
        if value is None:
            value = parsed[text] = lat.parse(text)
        return value

    return parse


def _matrix_from_doc(lat: Lattice, parse, rows, n: int, where: str) -> FuzzyMatrix:
    if not isinstance(rows, list) or len(rows) != n:
        raise ValidationError(f"{where}: expected {n} rows")
    flat = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise ValidationError(f"{where}: row {i} must have {n} entries")
        for j, text in enumerate(row):
            if not isinstance(text, str):
                raise ParseError(f"{where}: entry ({i},{j}) must be a string value")
            flat.append(parse(text))
    return FuzzyMatrix(lat, n, n, tuple(flat))


def _vector_from_doc(lat: Lattice, parse, values, n: int, where: str) -> FuzzyVector:
    if not isinstance(values, list) or len(values) != n:
        raise ValidationError(f"{where}: expected {n} entries")
    out = []
    for j, text in enumerate(values):
        if not isinstance(text, str):
            raise ParseError(f"{where}: entry {j} must be a string value")
        out.append(parse(text))
    return FuzzyVector(lat, tuple(out))


def machine_from_document(doc) -> Machine:
    """Build a validated automaton or recognizer from a parsed JSON object."""
    if not isinstance(doc, dict):
        raise ParseError("document root must be an object")
    for field in ("version", "lattice", "states", "alphabet", "delta"):
        if field not in doc:
            raise ParseError(f"missing field {field!r}")
    version = doc["version"]
    # True == 1 and 1.0 == 1: only the integer itself names the schema
    if isinstance(version, bool) or not isinstance(version, int) or version != SCHEMA_VERSION:
        raise ParseError(f"unsupported schema version {version!r}")
    lat = _lattice_from_doc(doc["lattice"])
    states = doc["states"]
    alphabet = doc["alphabet"]
    if not isinstance(states, list) or not all(isinstance(s, str) for s in states):
        raise ParseError("states must be a list of strings")
    if not isinstance(alphabet, list) or not all(isinstance(x, str) for x in alphabet):
        raise ParseError("alphabet must be a list of strings")
    if not isinstance(doc["delta"], dict):
        raise ParseError("delta must map letters to matrices")
    n = len(states)
    if set(doc["delta"]) != set(alphabet):
        raise ValidationError("delta letters must match the alphabet exactly")
    parse = _value_parser(lat)
    delta = {
        x: _matrix_from_doc(lat, parse, doc["delta"][x], n, f"delta[{x}]") for x in alphabet
    }
    aut = FuzzyAutomaton(lat, tuple(states), tuple(alphabet), delta)
    sigma = doc.get("sigma")
    tau = doc.get("tau")
    if (sigma is None) != (tau is None):
        raise ValidationError("sigma and tau must be present together or both null")
    if sigma is None:
        return aut
    return FuzzyRecognizer(
        aut,
        _vector_from_doc(lat, parse, sigma, n, "sigma"),
        _vector_from_doc(lat, parse, tau, n, "tau"),
    )


def load(path: str) -> Machine:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:
        # not UTF-8, an integer past the int-string digit limit, or too deep
        raise ParseError(f"{path}: unreadable document: {exc}") from None
    return machine_from_document(doc)


def _load_recognizer(path: str) -> FuzzyRecognizer:
    return require_recognizer(load(path), path)


def _lattice_doc(lat: Lattice):
    return {"kind": lat.kind, "n": lat.n} if lat.kind == "chain" else {"kind": lat.kind}


def _matrix_doc(lat: Lattice, m: FuzzyMatrix):
    return [[lat.format(v) for v in m.row(i)] for i in range(m.rows)]


def machine_to_document(machine: Machine) -> dict:
    aut = underlying(machine)
    lat = aut.lattice
    doc = {
        "version": SCHEMA_VERSION,
        "lattice": _lattice_doc(lat),
        "states": list(aut.states),
        "alphabet": list(aut.alphabet),
        "delta": {x: _matrix_doc(lat, aut.delta[x]) for x in aut.alphabet},
        "sigma": None,
        "tau": None,
    }
    if isinstance(machine, FuzzyRecognizer):
        doc["sigma"] = [lat.format(v) for v in machine.sigma.entries]
        doc["tau"] = [lat.format(v) for v in machine.tau.entries]
    return doc


def dumps(doc) -> str:
    return json.dumps(doc, separators=(",", ":")) + "\n"


def _write(doc, path: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dumps(doc))
    except OSError as exc:
        raise FuzzautError(f"cannot write {path}: {exc}") from None


def save(machine: Machine, path: str) -> None:
    _write(machine_to_document(machine), path)


def report_to_document(report: ReductionReport) -> dict:
    lat = report.quasi_order.lattice
    return {
        "method": report.method,
        "iterates": report.iterates,
        "converged": report.converged,
        "quasi_order": _matrix_doc(lat, report.quasi_order),
        "iterate_infimum": _matrix_doc(lat, report.iterate_infimum),
        "state_trace": list(report.state_trace),
        "quotient": machine_to_document(report.quotient),
    }


def format_word(word: Word, alphabet: tuple[str, ...]) -> str:
    return ".".join(alphabet[i] for i in word)


# ---------------------------------------------------------------------------
# command surface


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _print_matrix(lat: Lattice, m: FuzzyMatrix, indent: str = "  ") -> None:
    for i in range(m.rows):
        print(indent + "[" + ", ".join(lat.format(v) for v in m.row(i)) + "]")


def _cmd_info(args) -> int:
    machine = load(args.input)
    aut = underlying(machine)
    kind = "recognizer" if isinstance(machine, FuzzyRecognizer) else "automaton"
    print(f"kind: {kind}")
    print(f"lattice: {aut.lattice.describe()}")
    print(f"states: {len(aut.states)} ({', '.join(aut.states)})")
    print(f"alphabet: {', '.join(aut.alphabet)}")
    return 0


def _cmd_reduce(args) -> int:
    machine = load(args.input)
    report = greatest_invariant(
        machine,
        args.method,
        max_iter=args.max_iter,
        max_states=args.max_states,
        max_depth=args.max_depth,
    )
    lat = underlying(machine).lattice
    print(f"method: {report.method}")
    print(f"iterates: {report.iterates}")
    print(f"converged: {'true' if report.converged else 'false'}")
    print(f"state trace: {report.state_trace[0]} -> {report.state_trace[1]}")
    print("quasi-order:" if report.converged else "last iterate:")
    _print_matrix(lat, report.quasi_order)
    if not report.converged:
        print("iterate infimum:")
        _print_matrix(lat, report.iterate_infimum)
    if args.output:
        save(report.quotient, args.output)
        print(f"quotient written to {args.output}")
    return 0 if report.converged else 3


def _cmd_alternate(args) -> int:
    machine = load(args.input)
    result = alternate_reduce(machine, args.schedule, max_rounds=args.max_rounds)
    print(f"schedule: {args.schedule}")
    for i, report in enumerate(result.reports, start=1):
        arrow = f"{report.state_trace[0]} -> {report.state_trace[1]}"
        print(
            f"round {i}: method {report.method}, {arrow}, "
            f"{'converged' if report.converged else 'not converged'}"
        )
    print(f"state trace: {' -> '.join(str(k) for k in result.state_trace)}")
    print(f"stopped: {result.stop_reason}")
    if args.output:
        save(result.reduct, args.output)
        print(f"reduct written to {args.output}")
    inner_ok = all(r.converged for r in result.reports)
    return 0 if result.stop_reason != "max_rounds" and inner_ok else 3


def _cmd_equiv(args) -> int:
    a = _load_recognizer(args.left)
    b = _load_recognizer(args.right)
    verdict = languages_equal_up_to(a, b, args.max_len)
    if verdict.equal:
        print(f"equal up to {args.max_len}")
        return 0
    word, va, vb = verdict.first_divergence
    lat = a.lattice
    print(
        f"diverge at '{format_word(word, a.alphabet)}': "
        f"{lat.format(va)} vs {lat.format(vb)}"
    )
    return 0


def _cmd_determinize(args) -> int:
    machine = _load_recognizer(args.input)
    direction = "forward" if args.direction == "fwd" else "reverse"
    family = reachable_state_family(
        machine, direction, max_states=args.max_states, max_depth=args.max_depth
    )
    lat = machine.lattice
    print(f"direction: {direction}")
    print(f"members: {len(family.members)}")
    print(f"complete: {'true' if family.complete else 'false'}")
    for word, vec in family.members:
        name = format_word(word, machine.alphabet)
        values = ", ".join(lat.format(v) for v in vec.entries)
        print(f"  '{name}': [{values}]")
    if args.output:
        doc = {
            "direction": direction,
            "complete": family.complete,
            "truncated": family.truncated,
            "members": [
                {
                    "word": format_word(word, machine.alphabet),
                    "vector": [lat.format(v) for v in vec.entries],
                }
                for word, vec in family.members
            ],
        }
        _write(doc, args.output)
        print(f"family written to {args.output}")
    return 0 if family.complete else 3


def _cmd_des(args) -> int:
    if args.des_command in ("parallel", "product"):
        a = _load_recognizer(args.left)
        b = _load_recognizer(args.right)
        composed = parallel_compose(a, b) if args.des_command == "parallel" else product_compose(a, b)
        rec = composed.recognizer
        print(f"states: {rec.n}")
        print(f"alphabet: {', '.join(rec.alphabet)}")
        print(f"shared: {', '.join(composed.shared_alphabet) or '-'}")
        print(f"private left: {', '.join(composed.private_left) or '-'}")
        print(f"private right: {', '.join(composed.private_right) or '-'}")
        if args.output:
            save(rec, args.output)
            print(f"composition written to {args.output}")
        return 0
    if args.des_command == "blocking":
        rec = _load_recognizer(args.left)
    else:  # conflict: blocking of the parallel composition
        rec = parallel_compose(_load_recognizer(args.left), _load_recognizer(args.right)).recognizer
    verdict = check_blocking(rec, args.horizon)
    print(f"verdict: {verdict.verdict}")
    if verdict.witness is not None:
        print(f"witness: '{format_word(verdict.witness, rec.alphabet)}'")
    return 0 if verdict.decided else 3


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fuzzaut", description="Fuzzy automata reduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="validate and summarize a document")
    p.add_argument("input")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("reduce", help="compute a greatest invariant quasi-order and quotient")
    p.add_argument("--method", required=True, choices=[m if m != "cli_crisp" else "cli" for m in METHODS])
    p.add_argument("--input", required=True)
    p.add_argument("--max-iter", type=int, default=256)
    p.add_argument("--max-states", type=int, default=4096)
    p.add_argument("--max-depth", type=int, default=64)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("alternate", help="alternate right/left reductions")
    p.add_argument("--input", required=True)
    p.add_argument("--schedule", required=True, choices=sorted(SCHEDULES))
    p.add_argument("--max-rounds", type=int, default=16)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_alternate)

    p = sub.add_parser("equiv", help="compare recognized languages up to a length")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--max-len", type=int, default=6)
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("determinize", help="accessible fuzzy subset construction")
    p.add_argument("--input", required=True)
    p.add_argument("--direction", required=True, choices=["fwd", "rev"])
    p.add_argument("--max-states", type=int, default=4096)
    p.add_argument("--max-depth", type=int, default=64)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_determinize)

    p = sub.add_parser("des", help="discrete-event-system analyses")
    des_sub = p.add_subparsers(dest="des_command", required=True)
    for name in ("parallel", "product"):
        q = des_sub.add_parser(name)
        q.add_argument("left")
        q.add_argument("right")
        q.add_argument("--output")
        q.set_defaults(func=_cmd_des)
    q = des_sub.add_parser("blocking")
    q.add_argument("left")
    q.add_argument("--horizon", type=int, default=8)
    q.set_defaults(func=_cmd_des)
    q = des_sub.add_parser("conflict")
    q.add_argument("left")
    q.add_argument("right")
    q.add_argument("--horizon", type=int, default=8)
    q.set_defaults(func=_cmd_des)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "method", None) == "cli":
            args.method = "cli_crisp"
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except FuzzautError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())
