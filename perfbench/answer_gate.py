"""Answer checks that run outside every timed region.

(a) At the default seed, the sha256 of every job's canonical result text
    must equal the digest pinned in `pinned/<workload>.json`.
(b) An independent evaluator: recognized degrees computed word by word
    from the documents with `Fraction` and this file's own ⊗, never through
    `fuzzaut.relation`.  A converged reduction must recognize the same
    degree as its input on every word up to WORD_LEN; a family member must
    be the vector its witness word reaches; a parallel composition must
    recognize La(word|a) ⊗ Lb(word|b).
(c) Boolean ri/li jobs with n <= 4 must equal
    `oracle.brute_force_greatest_invariant`.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

PIN_DIR = Path(__file__).resolve().parent / "pinned"
WORD_LEN = 4


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_pins(workload: str) -> dict:
    path = PIN_DIR / f"{workload}.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))


def save_pins(workload: str, pins: dict) -> Path:
    PIN_DIR.mkdir(exist_ok=True)
    path = PIN_DIR / f"{workload}.json"
    path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# (b) the independent evaluator


class Evaluator:
    """A recognizer read from its JSON document, evaluated word by word.

    On the locally finite lattices every value is a multiple of 1/L, where
    L is the least common denominator of the document, and ⊗ keeps that
    grid, so values are held as integers k standing for k/L:
    Gödel and Boolean ⊗ is min, Łukasiewicz ⊗ is max(x + y - L, 0), and
    on chain(n) the product a_k ⊗ a_l = a_max(k+l-n, 0) is the same
    formula.  Product values stay `Fraction`s with ⊗ = x·y.
    """

    def __init__(self, doc: dict):
        kind = doc["lattice"]["kind"]
        self.alphabet = list(doc["alphabet"])
        self.n = len(doc["states"])
        rows = {x: [[Fraction(v) for v in row] for row in doc["delta"][x]]
                for x in self.alphabet}
        sigma = [Fraction(v) for v in doc["sigma"]]
        tau = [Fraction(v) for v in doc["tau"]]
        if kind == "product":
            self.scale = 1
            self.otimes = lambda x, y: x * y
            conv = lambda v: v  # noqa: E731
        else:
            dens = {v.denominator for v in sigma + tau}
            dens.update(v.denominator for m in rows.values() for row in m for v in row)
            scale = self.scale = math.lcm(*dens)
            if kind in ("godel", "boolean"):
                self.otimes = min
            else:
                self.otimes = lambda x, y: x + y - scale if x + y > scale else 0
            conv = lambda v: v.numerator * (scale // v.denominator)  # noqa: E731
        self.delta = {x: [[conv(v) for v in row] for row in m] for x, m in rows.items()}
        self.sigma = [conv(v) for v in sigma]
        self.tau = [conv(v) for v in tau]

    def value(self, v) -> Fraction:
        return Fraction(v) / self.scale

    def step(self, vec, letter):
        """vec ∘ δ_letter"""
        ot, m, n = self.otimes, self.delta[letter], self.n
        out = [0] * n
        for b in range(n):
            x = vec[b]
            if not x:
                continue
            row = m[b]
            for a in range(n):
                y = row[a]
                if y:
                    v = ot(x, y)
                    if v > out[a]:
                        out[a] = v
        return out

    def back(self, letter, vec):
        """δ_letter ∘ vec"""
        ot, m, n = self.otimes, self.delta[letter], self.n
        return [max([ot(m[a][b], vec[b]) for b in range(n) if m[a][b] and vec[b]], default=0)
                for a in range(n)]

    def end(self, vec) -> Fraction:
        return self.value(max([self.otimes(x, y) for x, y in zip(vec, self.tau) if x and y],
                              default=0))

    def degrees(self, max_len: int) -> dict:
        """Recognized degree of every word up to max_len (letter-name tuples)."""
        out = {}
        frontier = [((), self.sigma)]
        for length in range(max_len + 1):
            nxt = []
            for word, vec in frontier:
                out[word] = self.end(vec)
                if length < max_len:
                    nxt.extend((word + (x,), self.step(vec, x)) for x in self.alphabet)
            frontier = nxt
        return out


def word_len(ev: Evaluator) -> int:
    """WORD_LEN, one less for larger machines or alphabets (the cost grows
    with n^2 times the number of words)."""
    return WORD_LEN - (ev.n > 12) - (len(ev.alphabet) > 2)


def same_language(input_doc: dict, reduced_doc: dict) -> str | None:
    """None if both recognize the same degrees up to the word length."""
    a, b = Evaluator(input_doc), Evaluator(reduced_doc)
    k = word_len(a)
    da, db = a.degrees(k), b.degrees(k)
    for word, value in da.items():
        if db[word] != value:
            return f"word {'.'.join(word) or 'ε'}: input {value}, quotient {db[word]}"
    return None


def family_members_match(rec_doc: dict, family_doc: dict) -> str | None:
    """Each member is sigma∘δ_w (forward) or δ_w∘tau (reverse) for its word."""
    ev = Evaluator(rec_doc)
    forward = family_doc["direction"] == "forward"
    for word_text, values in family_doc["members"]:
        word = word_text.split(".") if word_text else []
        if forward:
            vec = ev.sigma
            for x in word:
                vec = ev.step(vec, x)
        else:
            vec = ev.tau
            for x in reversed(word):
                vec = ev.back(x, vec)
        if [ev.value(v) for v in vec] != [Fraction(v) for v in values]:
            return f"member {word_text or 'ε'} differs from its word's vector"
    return None


def parallel_matches(left_doc: dict, right_doc: dict, composed_doc: dict) -> str | None:
    """L(a||b)(w) = La(w|a) ⊗ Lb(w|b): ⊗ distributes over joins."""
    a, b, c = Evaluator(left_doc), Evaluator(right_doc), Evaluator(composed_doc)
    k = word_len(c)
    # both factors on the composed document's grid, where c.otimes applies
    la = {w: v * c.scale for w, v in a.degrees(k).items()}
    lb = {w: v * c.scale for w, v in b.degrees(k).items()}
    for word, value in c.degrees(k).items():
        wa = tuple(x for x in word if x in a.alphabet)
        wb = tuple(x for x in word if x in b.alphabet)
        if c.value(c.otimes(la[wa], lb[wb])) != value:
            return f"word {'.'.join(word) or 'ε'}: composed {value}"
    return None


# ---------------------------------------------------------------------------
# (c) the brute-force oracle


def oracle_matches(fz, machine, method, report) -> str | None:
    side = "right" if method == "ri" else "left"
    expected = fz.oracle.brute_force_greatest_invariant(machine, side)
    if expected != report.quasi_order:
        return f"{method} differs from the brute-force greatest invariant quasi-order"
    return None


def oracle_applies(job) -> bool:
    return (
        job.kind == "reduce"
        and job.lattice == "boolean"
        and job.states <= 4
        and job.args[1] in ("ri", "li")
    )
