#!/usr/bin/env python3
"""Time two fuzzaut trees against each other in one process.

    python3 scripts/compare_trees.py BASE CHANGE --workload reduce-finite --rounds 16 --seed 0

BASE and CHANGE are checkouts holding `src/fuzzaut`.  Both packages are
loaded into this one process under two names, so both sides run in the
same process and so at the same speed of the machine, which can differ
between whole processes.  The perfbench corpus of this checkout
(`perfbench/corpus.py`) is built once with BASE's package, and each tree
gets its own copy of every machine through its `cli.machine_to_document`
and `cli.machine_from_document`.  Each round times one whole corpus pass
per side (`perfbench/jobs.py` `execute`), and the side that runs first
alternates between rounds.

Prints each side's median pass time and its job p50 and p90 over every
execution, each round's pass-time ratio (change / base), and the number
of rounds the change won.  Exits 1 if the canonical text of any job
(`jobs.canonical`) differs between the trees.  The cli-docs workload is
refused: its jobs run the command line in subprocesses, outside either
loaded package.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib
import importlib.util
import math
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import corpus as corpora  # noqa: E402
import jobs  # noqa: E402

SIDES = ("base", "change")


def load_tree(root: Path, name: str):
    """`root`/src/fuzzaut imported as the package `name`, with its cli."""
    init = root / "src" / "fuzzaut" / "__init__.py"
    if not init.is_file():
        sys.exit(f"compare_trees: {init} not found")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    importlib.import_module(f"{name}.cli")
    return package


def load_method_comparison(fz):
    """scripts/method_comparison.py, which imports `fuzzaut` by name,
    bound to the package fz for the time of its import."""
    prefix = fz.__name__ + "."
    aliases = {"fuzzaut": fz}
    aliases.update(
        {"fuzzaut." + name[len(prefix):]: module
         for name, module in sys.modules.items() if name.startswith(prefix)}
    )
    saved = {name: sys.modules.get(name) for name in aliases}
    sys.modules.update(aliases)
    try:
        spec = importlib.util.spec_from_file_location(
            "method_comparison", ROOT / "scripts" / "method_comparison.py"
        )
        mc = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mc)
    finally:
        for name, module in saved.items():
            if module is None:
                del sys.modules[name]
            else:
                sys.modules[name] = module
    return mc


def for_tree(job, source, fz):
    """The job with every machine in its arguments rebuilt by fz."""

    def convert(arg):
        if isinstance(arg, (source.FuzzyAutomaton, source.FuzzyRecognizer)):
            return fz.cli.machine_from_document(source.cli.machine_to_document(arg))
        return arg

    return dataclasses.replace(job, args=tuple(map(convert, job.args)))


def percentile(sorted_values, q):
    """Nearest-rank percentile, as perfbench/run.py reports it."""
    return sorted_values[max(1, math.ceil(q * len(sorted_values))) - 1]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True, choices=sorted(corpora.WORKLOADS))
    p.add_argument("--rounds", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    if args.workload == "cli-docs":
        p.error("cli-docs runs subprocesses, which neither loaded tree times")
    if args.rounds < 1:
        p.error("--rounds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    trees = {side: load_tree(root.resolve(), f"fuzzaut_{side}")
             for side, root in zip(SIDES, (args.base, args.change))}
    source = trees["base"]
    with tempfile.TemporaryDirectory() as workdir:
        corpus = corpora.build(args.workload, source, load_method_comparison(source),
                               args.seed, Path(workdir))
    runs = {side: [for_tree(job, source, fz) for job in corpus.jobs]
            for side, fz in trees.items()}
    for side, fz in trees.items():
        jobs.execute(fz, for_tree(corpus.warmup, source, fz), ROOT, {})
    gc.collect()
    gc.freeze()

    passes = {side: [] for side in SIDES}
    times = {side: [] for side in SIDES}
    texts = {}
    for r in range(args.rounds):
        for side in SIDES if r % 2 == 0 else SIDES[::-1]:
            fz, total = trees[side], 0
            for job in runs[side]:
                start = perf_counter_ns()
                outcome = jobs.execute(fz, job, ROOT, {})
                ns = perf_counter_ns() - start
                total += ns
                times[side].append(ns)
                if r == 0:
                    texts.setdefault(side, []).append(jobs.canonical(fz, job, outcome, ROOT))
            passes[side].append(total)

    print(f"{args.workload} seed {args.seed}: {len(corpus.jobs)} jobs a pass, "
          f"{args.rounds} rounds")
    for side in SIDES:
        ordered = sorted(times[side])
        print(f"  {side:6}  median pass {statistics.median(passes[side]) / 1e6:9.1f} ms"
              f"  job p50 {percentile(ordered, 0.5) / 1e6:7.3f} ms"
              f"  job p90 {percentile(ordered, 0.9) / 1e6:7.3f} ms")
    ratios = [c / b for b, c in zip(passes["base"], passes["change"])]
    print("  ratio change/base per round: " + " ".join(f"{x:.3f}" for x in ratios))
    print(f"  change faster in {sum(x < 1 for x in ratios)}/{args.rounds} rounds,"
          f" median ratio {statistics.median(ratios):.3f}")
    differ = [job.id for job, a, b in zip(corpus.jobs, texts["base"], texts["change"]) if a != b]
    if differ:
        print(f"  ANSWERS DIFFER on {len(differ)} jobs, first: {', '.join(differ[:5])}")
        return 1
    print(f"  answers: identical canonical texts on all {len(corpus.jobs)} jobs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
