"""The library's surface: the names the traced benchmark rebinds resolve,
and no module imports a name it never uses."""

import ast
import importlib.util
from pathlib import Path

import pytest

import fuzzaut
import fuzzaut.cli  # noqa: F401  (the traced benchmark wraps cli.load/save/main)

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


@pytest.mark.parametrize(
    "path", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
)
def test_no_module_imports_a_name_it_never_uses(path):
    # `__init__.py` imports to re-export, so it is left out
    assert unused_imports((PACKAGE / path).read_text(encoding="utf-8")) == []
