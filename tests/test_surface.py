"""The library's surface: the names the traced benchmark rebinds resolve,
no module, test or script imports a name it never uses, every predicate
answers with a bool, and every public count refuses what is not an int."""

import ast
import importlib.util
from pathlib import Path

import pytest

import fuzzaut
import fuzzaut.cli  # noqa: F401  (the traced benchmark wraps cli.load/save/main)
from fuzzaut import (
    FuzzyAutomaton,
    FuzzyMatrix,
    FuzzyRecognizer,
    FuzzyVector,
    Lattice,
    LatticeValueError,
    ValidationError,
    alternate_reduce,
    are_isomorphic,
    check_blocking,
    crisp_quasi_orders,
    greatest_invariant,
    languages_equal_up_to,
    prefix_closure_at,
    reachable_state_family,
    words_up_to,
)
from fuzzaut.des import bounded_reach_matrix

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fuzzaut"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    # a name that the traced benchmark wraps must stay on its module, or a
    # `--trace 1` run fails in `Tracer.install` with an AttributeError
    traced = _load_spans().TRACED
    assert traced
    missing = [
        f"{mod}.{name}"
        for mod, name in traced.values()
        if not callable(getattr(getattr(fuzzaut, mod, None), name, None))
    ]
    assert missing == []
    assert callable(fuzzaut.Lattice.parse)


def _annotation_names(node):
    """Names inside a string annotation such as `-> "FuzzyVector"`."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {n.id for n in ast.walk(ast.parse(node.value, mode="eval")) if isinstance(n, ast.Name)}
    return set()


def unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
    return sorted(f"line {line}: {name}" for name, line in imported.items() if name not in used)


def test_the_scan_sees_an_unused_import():
    source = "from __future__ import annotations\nimport os, sys\nfrom x import a, b as c\n"
    source += "def f(v: 'a') -> int:\n    return sys.maxsize\n"
    assert unused_imports(source) == ["line 2: os", "line 3: c"]


# the library's modules by file name, the tests and scripts by folder and
# file name; `__init__.py` imports to re-export, so it is left out
SCANNED = {p.name: p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"}
SCANNED |= {f"{d}/{p.name}": p for d in ("tests", "scripts") for p in (ROOT / d).glob("*.py")}


@pytest.mark.parametrize("path", sorted(SCANNED))
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(SCANNED[path].read_text(encoding="utf-8")) == []


def non_bool_predicates(source: str) -> list[str]:
    """The top-level `def is_*` of a module not annotated `-> bool`."""
    return [
        node.name
        for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("is_")
        and not (isinstance(node.returns, ast.Name) and node.returns.id == "bool")
    ]


def test_the_scan_sees_a_predicate_that_is_not_a_bool():
    source = "def is_a(r) -> bool: ...\ndef is_b(r) -> Witness: ...\ndef is_c(r): ...\n"
    source += "def a_is(r) -> int: ...\nclass K:\n    def is_d(self) -> int: ...\n"
    assert non_bool_predicates(source) == ["is_b", "is_c"]


@pytest.mark.parametrize("name", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_every_predicate_answers_with_a_bool(name):
    assert non_bool_predicates((PACKAGE / name).read_text(encoding="utf-8")) == []


# ---------------------------------------------------------------------------
# counts

BOOL = Lattice.boolean()
_ONE = FuzzyMatrix(BOOL, 1, 1, (BOOL.one,))
_V = FuzzyVector(BOOL, (BOOL.one,))
REC = FuzzyRecognizer(FuzzyAutomaton(BOOL, ("p",), ("x",), {"x": _ONE}), _V, _V)


@pytest.mark.parametrize("call", [
    lambda: reachable_state_family(REC, "forward", max_depth=2.5),
    lambda: reachable_state_family(REC, "forward", max_states=True),
    lambda: alternate_reduce(REC, "rl", max_rounds=1.5),
    lambda: bounded_reach_matrix(REC, 2.5),
    lambda: prefix_closure_at(REC, (0,), 1.5),
    lambda: languages_equal_up_to(REC, REC, 2.5),
    lambda: languages_equal_up_to(REC, REC, None),
    lambda: greatest_invariant(REC, "ri", max_iter=2.5),
    lambda: greatest_invariant(REC, "ri", max_iter=True),
    lambda: check_blocking(REC, 2.5),
    lambda: are_isomorphic(REC, REC, max_states=1.5),
    lambda: list(words_up_to(2, 1.5)),
    lambda: crisp_quasi_orders(BOOL, 2.5),
], ids=["family-depth", "family-states-bool", "alternate-rounds", "reach-horizon",
        "prefix-horizon", "equiv-float", "equiv-none", "max-iter-float", "max-iter-bool",
        "blocking-horizon", "isomorphism-cap", "words-length", "crisp-quasi-orders"])
def test_every_public_count_refuses_a_non_integer(call):
    with pytest.raises(ValidationError, match="must be an integer"):
        call()


def test_parse_refuses_a_non_string():
    with pytest.raises(LatticeValueError, match="expected a string"):
        Lattice.godel().parse(5)
