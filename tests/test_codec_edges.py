"""Codec edge cases, pinned to reports of the all-`Fraction` implementation.

Each case stresses how the level codec is built: start values that occur
nowhere in the machine, a Goedel machine without the value 0 whose crisp
part needs it, the one-level chain(1), a single state, and a product
iteration that never settles.  `data/codec_edge_reports.json` holds
the `report_to_document` output that the `Fraction` implementation gave
for every (case, method) pair; regenerate it only from such a reference:

    PYTHONPATH=src python tests/test_codec_edges.py > tests/data/codec_edge_reports.json
"""

import json
from pathlib import Path

import pytest

from fuzzaut import Lattice, greatest_invariant
from fuzzaut.cli import report_to_document

from conftest import GODEL, aut, mat, product_three_state, rec, vec

PINNED = Path(__file__).resolve().parent / "data" / "codec_edge_reports.json"

CHAIN1 = Lattice.chain(1)
LUK = Lattice.lukasiewicz()


def godel_with_foreign_start():
    """Goedel recognizer on {0, 1/2, 1}; the start uses 1/3 and 2/7."""
    a = aut(
        GODEL,
        ("x", "y"),
        mat(GODEL, [[0, "1/2", 1], [1, 0, "1/2"], [0, 0, 1]]),
        mat(GODEL, [["1/2", 0, 0], [0, 1, 0], [1, "1/2", 0]]),
    )
    start = mat(GODEL, [[1, "1/3", "2/7"], ["1/3", 1, "2/7"], ["2/7", "2/7", 1]])
    return rec(a, vec(GODEL, [1, "1/2", 0]), vec(GODEL, [0, 1, 1])), start


def godel_positive_automaton():
    """Goedel automaton whose every value is positive and below 1."""
    return aut(
        GODEL,
        ("x",),
        mat(GODEL, [["1/2", "1/4", "1/4"], ["3/4", "1/2", "1/4"], ["1/4", "1/4", "1/4"]]),
    )


def chain1_recognizer():
    """chain(1) has the two levels 0 and 1; states 2 and 3 behave alike."""
    a = aut(
        CHAIN1,
        ("x", "y"),
        mat(CHAIN1, [[0, 1, 1], [0, 0, 0], [0, 0, 0]]),
        mat(CHAIN1, [[1, 0, 0], [0, 1, 1], [0, 1, 1]]),
    )
    return rec(a, vec(CHAIN1, [1, 0, 0]), vec(CHAIN1, [0, 1, 1]))


def one_state_recognizer():
    """One Lukasiewicz state whose values have coprime denominators."""
    a = aut(LUK, ("x", "y"), mat(LUK, [["2/3"]]), mat(LUK, [["1/4"]]))
    return rec(a, vec(LUK, ["1/2"]), vec(LUK, ["3/5"]))


def cases():
    godel, start = godel_with_foreign_start()
    out = {}
    for method in ("ri", "li", "rie"):
        out[f"godel-start/{method}"] = (godel, method, {"start": start})
    for method in ("cri", "sli"):
        out[f"godel-positive/{method}"] = (godel_positive_automaton(), method, {})
    for method in ("ri", "lie", "cli_crisp", "wri"):
        out[f"chain1/{method}"] = (chain1_recognizer(), method, {})
    for method in ("ri", "sri", "wli"):
        out[f"one-state/{method}"] = (one_state_recognizer(), method, {})
    out["product/rie"] = (product_three_state(), "rie", {"max_iter": 12})
    return out


def report_documents() -> dict:
    return {
        key: report_to_document(greatest_invariant(machine, method, **kwargs))
        for key, (machine, method, kwargs) in cases().items()
    }


@pytest.mark.parametrize("key", sorted(cases()))
def test_report_matches_fraction_reference(key):
    expected = json.loads(PINNED.read_text(encoding="utf-8"))[key]
    machine, method, kwargs = cases()[key]
    assert report_to_document(greatest_invariant(machine, method, **kwargs)) == expected


if __name__ == "__main__":
    print(json.dumps(report_documents(), indent=1, sort_keys=True))
