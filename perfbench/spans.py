"""Spans recorded around calls into fuzzaut, from outside the library.

`Tracer.install` rebinds every module-level name under which a traced
function is reachable (its own module, every fuzzaut module that imported
it, and the package namespace), so calls between fuzzaut modules go
through a wrapper.  Each wrapper appends (name, start ns, end ns, parent
span, job id, extra) to an in-memory list; nothing is written until the
run ends.  Scalar lattice ops are too hot to wrap; probes.py measures them.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter_ns

# span name -> (defining module, function name)
TRACED = {
    "relation.compose": ("relation", "compose"),
    "relation.compose_vm": ("relation", "compose_vm"),
    "relation.compose_mv": ("relation", "compose_mv"),
    "relation.overlap": ("relation", "overlap"),
    "relation.meet": ("relation", "meet"),
    "relation.require_quasi_order": ("relation", "require_quasi_order"),
    "relation.aftersets": ("relation", "aftersets"),
    "reduction.greatest_invariant": ("reduction", "greatest_invariant"),
    "reduction.r_step": ("reduction", "r_step"),
    "reduction.l_step": ("reduction", "l_step"),
    "reduction.req_step": ("reduction", "req_step"),
    "reduction.leq_step": ("reduction", "leq_step"),
    "reduction.afterset_quotient": ("reduction", "afterset_quotient"),
    "reduction.alternate_reduce": ("reduction", "alternate_reduce"),
    "automaton.reachable_state_family": ("automaton", "reachable_state_family"),
    "automaton.are_isomorphic": ("automaton", "are_isomorphic"),
    "des.parallel_compose": ("des", "parallel_compose"),
    "des.bounded_reach_matrix": ("des", "bounded_reach_matrix"),
    "des.check_blocking": ("des", "check_blocking"),
    "oracle.languages_equal_up_to": ("oracle", "languages_equal_up_to"),
    "cli.load": ("cli", "load"),
    "cli.save": ("cli", "save"),
    "cli.main": ("cli", "main"),
}

COMPOSE_VEC = ("relation.compose_vm", "relation.compose_mv", "relation.overlap")
STEPS = ("reduction.r_step", "reduction.l_step", "reduction.req_step", "reduction.leq_step")


def _extra(name, result):
    """Counts read off a traced call's return value."""
    if name == "reduction.greatest_invariant":
        return result.iterates
    if name == "automaton.reachable_state_family":
        return (len(result.members), result.truncated)
    return None


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.job = None
        self._saved: list = []

    # -- recording -----------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        return idx

    def close(self, idx: int, name: str, start: int, extra=None) -> None:
        end = perf_counter_ns()
        self.stack.pop()
        parent = self.stack[-1] if self.stack else -1
        self.spans[idx] = (name, start, end, parent, self.job, extra)

    def wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            start = perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.close(idx, name, start, _extra(name, result) if result is not None else None)

        traced.__wrapped__ = fn
        return traced

    # -- installing ----------------------------------------------------------

    def install(self, fz) -> None:
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "fuzzaut" or key.startswith("fuzzaut."))]
        for name, (mod, attr) in TRACED.items():
            original = getattr(getattr(fz, mod), attr)
            wrapper = self.wrap(name, original)
            for m in modules:
                if m.__dict__.get(attr) is original:
                    self._saved.append((m, attr, original))
                    setattr(m, attr, wrapper)
        lattice_cls = fz.Lattice
        original_parse = lattice_cls.parse
        self._saved.append((lattice_cls, "parse", original_parse))
        lattice_cls.parse = self.wrap("lattice.parse", original_parse)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                name, start, end, parent, job, extra = s
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "job": job, "extra": extra}) + "\n")


# ---------------------------------------------------------------------------
# aggregation


def _child_ns(spans):
    child = defaultdict(int)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    return child


def aggregate(spans, keep) -> dict:
    """Per-layer sums over the spans whose job id satisfies `keep`.

    Self time is a span's duration minus the durations of its direct
    children (children never overlap: every layer runs on the caller's
    thread).  The two `_family_*` entries are raw counts for the hit ratio.
    """
    child = _child_ns(spans)
    calls = defaultdict(int)
    total = defaultdict(int)
    self_ns = defaultdict(int)
    members = members_added = truncated = family_vec = reach_compose = rounds = iterates = 0
    for i, (name, start, end, parent, job, extra) in enumerate(spans):
        if not keep(job):
            continue
        calls[name] += 1
        total[name] += end - start
        self_ns[name] += end - start - child[i]
        parent_name = spans[parent][0] if parent >= 0 else None
        if name == "automaton.reachable_state_family" and extra is not None:
            members += extra[0]
            members_added += extra[0] - 1
            truncated += int(extra[1])
        elif name in ("relation.compose_vm", "relation.compose_mv"):
            family_vec += parent_name == "automaton.reachable_state_family"
        elif name == "relation.compose":
            reach_compose += parent_name == "des.bounded_reach_matrix"
        elif name == "reduction.greatest_invariant":
            rounds += parent_name == "reduction.alternate_reduce"
            iterates += extra or 0

    def ms(ns):
        return ns / 1e6

    def group(names, table):
        return sum(table[n] for n in names)

    return {
        "lattice.parse.calls": calls["lattice.parse"],
        "lattice.parse.ms": ms(total["lattice.parse"]),
        "relation.compose.calls": calls["relation.compose"],
        "relation.compose.ms": ms(total["relation.compose"]),
        "relation.compose_vec.calls": group(COMPOSE_VEC, calls),
        "relation.compose_vec.ms": ms(group(COMPOSE_VEC, total)),
        "relation.meet.calls": calls["relation.meet"],
        "relation.meet.ms": ms(total["relation.meet"]),
        "relation.require_quasi_order.calls": calls["relation.require_quasi_order"],
        "relation.require_quasi_order.ms": ms(total["relation.require_quasi_order"]),
        "relation.aftersets.ms": ms(total["relation.aftersets"]),
        "reduction.greatest_invariant.self_ms": ms(self_ns["reduction.greatest_invariant"]),
        "reduction.step.calls": group(STEPS, calls),
        "reduction.step.self_ms": ms(group(STEPS, self_ns)),
        "reduction.afterset_quotient.ms": ms(total["reduction.afterset_quotient"]),
        "reduction.iterates": iterates,
        "reduction.alternate_reduce.rounds": rounds,
        "automaton.family.calls": calls["automaton.reachable_state_family"],
        "automaton.family.ms": ms(total["automaton.reachable_state_family"]),
        "automaton.family.self_ms": ms(self_ns["automaton.reachable_state_family"]),
        "automaton.family.members": members,
        "automaton.family.truncated": truncated,
        "automaton.are_isomorphic.calls": calls["automaton.are_isomorphic"],
        "automaton.are_isomorphic.ms": ms(total["automaton.are_isomorphic"]),
        "des.parallel_compose.ms": ms(total["des.parallel_compose"]),
        "des.bounded_reach_matrix.calls": calls["des.bounded_reach_matrix"],
        "des.bounded_reach_matrix.ms": ms(total["des.bounded_reach_matrix"]),
        "des.bounded_reach_matrix.compose_calls": reach_compose,
        "des.check_blocking.self_ms": ms(self_ns["des.check_blocking"]),
        "oracle.languages_equal_up_to.ms": ms(total["oracle.languages_equal_up_to"]),
        "cli.load.ms": ms(total["cli.load"]),
        "cli.save.ms": ms(total["cli.save"]),
        "cli.main.self_ms": ms(self_ns["cli.main"]),
        "_family_added": members_added,
        "_family_vec": family_vec,
    }


def combine(parts) -> dict:
    """Weighted sum of aggregate() results, with the family hit ratio:
    members added per vector product made inside family spans."""
    out = defaultdict(float)
    for sums, weight in parts:
        for key, value in sums.items():
            out[key] += value * weight
    added, vec = out.pop("_family_added"), out.pop("_family_vec")
    out["automaton.family.hit_ratio"] = added / vec if vec else 0.0
    return dict(out)


def self_ms_by_module(spans, keep) -> dict:
    """Self time summed per fuzzaut module (the part of a job each layer
    spent outside the layers it called)."""
    child = _child_ns(spans)
    out = defaultdict(float)
    for i, (name, start, end, parent, job, extra) in enumerate(spans):
        if name != "job" and keep(job):
            out[name.split(".", 1)[0]] += (end - start - child[i]) / 1e6
    return dict(out)
