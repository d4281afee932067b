"""Reports of all twelve methods on seeded machines, pinned as documents.

Each case is one (machine, method, caps) triple over one of the seven
`LATTICES`: a seeded automaton runs the eight methods that need no
recognizer, a seeded recognizer and a sparse one, whose states merge more
often, run all twelve.  Every iterative method also runs with `max_iter`
= 2, which leaves most iterations unconverged, and the product runs stop
at `max_iter` = 12 at the latest.  Every weak method also runs with
`max_states` = 4, which truncates most families.

`data/golden_reports.json` holds the `report_to_document` output of each
case, so any change of an answer, of a count of iterates or of a quotient
shows up here.  Regenerate it only from a trusted implementation:

    PYTHONPATH=src python tests/test_golden_reports.py > tests/data/golden_reports.json
"""

import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from fuzzaut import FuzzyAutomaton, FuzzyMatrix, FuzzyRecognizer, FuzzyVector, greatest_invariant
from fuzzaut.cli import report_to_document
from fuzzaut.reduction import METHODS

from conftest import LATTICES

PINNED = Path(__file__).resolve().parent / "data" / "golden_reports.json"

POOLS = {
    "boolean": [F(0), F(1)],
    "godel": [F(0), F(1, 10), F(3, 10), F(1, 2), F(7, 10), F(1)],
    "product": [F(0), F(1, 4), F(1, 2), F(3, 5), F(1)],
    "lukasiewicz": [F(0), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(1)],
}


def pool(name):
    lat = LATTICES[name]
    if lat.kind == "chain":
        return [F(k, lat.n) for k in range(lat.n + 1)]
    return POOLS[name]


def machine(name, n, seed, recognizer, zeros=1):
    """A seeded machine on two letters; each entry is 0 with the weight
    `zeros` + 1, and any other value of the pool with the weight 1."""
    rng, lat = random.Random(seed), LATTICES[name]
    values = [F(0)] * zeros + pool(name)

    def entries(count):
        return tuple(rng.choice(values) for _ in range(count))

    delta = {x: FuzzyMatrix(lat, n, n, entries(n * n)) for x in ("x", "y")}
    a = FuzzyAutomaton(lat, tuple(str(i + 1) for i in range(n)), ("x", "y"), delta)
    if not recognizer:
        return a
    return FuzzyRecognizer(a, FuzzyVector(lat, entries(n)), FuzzyVector(lat, entries(n)))


def cases():
    out = {}
    for seed, name in enumerate(sorted(LATTICES)):
        full = {"max_iter": 12} if name == "product" else {}
        machines = {
            "automaton": machine(name, 4, seed, recognizer=False),
            "recognizer": machine(name, 5, 100 + seed, recognizer=True),
            "sparse": machine(name, 5, 200 + seed, recognizer=True, zeros=12),
        }
        for kind, m in machines.items():
            for method, spec in METHODS.items():
                if spec.source == "weak" and kind == "automaton":
                    continue
                caps = [full]
                if spec.source == "iterative":
                    caps.append({"max_iter": 2})
                elif spec.source == "weak":
                    caps.append({"max_states": 4})
                for kwargs in caps:
                    label = ",".join(f"{k}={v}" for k, v in kwargs.items()) or "defaults"
                    out[f"{name}/{kind}/{method}/{label}"] = (m, method, kwargs)
    return out


CASES = cases()


def report_documents() -> dict:
    return {
        key: report_to_document(greatest_invariant(m, method, **kwargs))
        for key, (m, method, kwargs) in CASES.items()
    }


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINNED.read_text(encoding="utf-8"))


def test_pins_cover_every_case(pinned):
    assert sorted(pinned) == sorted(CASES)


def test_corpus_reaches_every_ending(pinned):
    # converged and unconverged iterations, complete and truncated families
    endings = {(METHODS[doc["method"]].source, doc["converged"]) for doc in pinned.values()}
    assert endings == {(s, c) for s in ("iterative", "weak") for c in (True, False)} | {
        ("closed", True)
    }
    # every method's quotient merges states somewhere
    merging = {doc["method"] for doc in pinned.values() if len(set(doc["state_trace"])) == 2}
    assert merging == set(METHODS)


@pytest.mark.parametrize("key", sorted(CASES))
def test_report_matches_pinned_document(pinned, key):
    m, method, kwargs = CASES[key]
    assert report_to_document(greatest_invariant(m, method, **kwargs)) == pinned[key]


if __name__ == "__main__":
    docs = report_documents()
    lines = (f"{json.dumps(key)}: {json.dumps(docs[key], sort_keys=True)}" for key in sorted(docs))
    print("{\n" + ",\n".join(lines) + "\n}")
