#!/usr/bin/env python3
"""Time the level kernels of two fuzzaut trees against each other.

    python3 scripts/kernel_bench.py BASE CHANGE --repeat 5 --output bench.json

BASE and CHANGE are checkouts holding `src/fuzzaut`, loaded into this one
process under two names by `compare_trees.load_tree`.  Each case is one
call of `relation.compose_levels` or `relation.residual_levels` on fixed
seeded level matrices, encoded by each tree's own `Lattice.encode`:

    compose   1 x n . n x n and n x n . n x n, n = 10, 20, 40
    residual  k x m P and k x n Q: 20 x 5 x 5, 2n x n x n (n = 10, 20, 40)
              and 81 x 40 x 40

over min codecs (Boolean top 1, Goedel tops 5, 6 and 60) and shift codecs
(chain(n) tops 4, 5 and 60).  A case's time is the best of R repeats of
one call, in microseconds; the two trees alternate inside every repeat.
Each side's median over the repeats is printed and recorded beside its
best: on a shared machine one best-of-R ratio can stray far from 1 for
identical code, and a best far below its median says the run was noisy.

Prints one line per case with both sides' best and median times and their
ratios (change / base).  Exits 1 if any case's output differs between the
trees.  With --output, also writes the times and a sha256 of each side's
output as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import random
import statistics
import sys
import timeit
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from compare_trees import SIDES, load_tree  # noqa: E402

CODECS = (
    ("min", 1), ("min", 5), ("min", 6), ("min", 60),
    ("shift", 4), ("shift", 5), ("shift", 60),
)
# (kernel, shape): compose rows x inner . inner x cols, residual k x m x n
SHAPES = [("compose", (1, n, n)) for n in (10, 20, 40)]
SHAPES += [("compose", (n, n, n)) for n in (10, 20, 40)]
SHAPES += [("residual", (20, 5, 5))]
SHAPES += [("residual", (2 * n, n, n)) for n in (10, 20, 40)]
SHAPES += [("residual", (81, 40, 40))]


def lattice(fz, family: str, top: int):
    """The lattice whose codec, over every value k / top, is (family, top)."""
    if family == "shift":
        return fz.Lattice.chain(top)
    return fz.Lattice.boolean() if top == 1 else fz.Lattice.godel()


def operands(fz, family: str, top: int, kernel: str, shape: tuple):
    """The tree's codec and the two level lists of one case."""
    a, b, c = shape
    sizes = (a * b, b * c) if kernel == "compose" else (a * b, a * c)
    rng = random.Random(f"{family} {top} {kernel} {shape}")
    values = [Fraction(k, top) for k in range(top + 1)]
    # every value occurs, so the codec's top is the case's
    groups = [values + [rng.choice(values) for _ in range(size - top - 1)] for size in sizes]
    for g in groups:
        rng.shuffle(g)
    codec, levels = lattice(fz, family, top).encode(*groups)
    if (codec.family, codec.top) != (family, top):
        sys.exit(f"kernel_bench: expected a {family} codec of top {top}, got "
                 f"{codec.family} {codec.top}")
    return codec, levels


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--repeat", type=int, default=5)
    p.add_argument("--output", type=Path)
    args = p.parse_args(argv)
    if args.repeat < 1:
        p.error("--repeat must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    trees = {side: load_tree(root.resolve(), f"fuzzaut_{side}")
             for side, root in zip(SIDES, (args.base, args.change))}
    cases, differ = [], []
    for kernel, shape in SHAPES:
        for family, top in CODECS:
            name = f"{kernel} {'x'.join(map(str, shape))} {family} top {top}"
            calls, digests = {}, {}
            for side, fz in trees.items():
                codec, (p, q) = operands(fz, family, top, kernel, shape)
                fn = getattr(fz.relation, f"{kernel}_levels")
                calls[side] = lambda fn=fn, codec=codec, p=p, q=q: fn(codec, p, q, *shape)
                digests[side] = hashlib.sha256(repr(calls[side]()).encode()).hexdigest()
            # one call per timing, enough calls to make a repeat last ~0.2 s
            number = max(1, timeit.Timer(calls["base"]).autorange()[0] // 2)
            times = {side: [] for side in SIDES}
            for r in range(args.repeat):
                for side in SIDES if r % 2 == 0 else SIDES[::-1]:
                    times[side].append(timeit.Timer(calls[side]).timeit(number) / number)
            us = {side: round(min(times[side]) * 1e6, 2) for side in SIDES}
            median_us = {side: round(statistics.median(times[side]) * 1e6, 2) for side in SIDES}
            ratio = min(times["change"]) / min(times["base"])
            median_ratio = statistics.median(times["change"]) / statistics.median(times["base"])
            same = digests["base"] == digests["change"]
            if not same:
                differ.append(name)
            print(f"{name:38} base {us['base']:9.2f} (med {median_us['base']:9.2f}) us"
                  f"  change {us['change']:9.2f} (med {median_us['change']:9.2f}) us"
                  f"  ratio {ratio:.3f} (med {median_ratio:.3f})"
                  f"{'' if same else '  OUTPUT DIFFERS'}")
            cases.append({"case": name, "us": us, "median_us": median_us, "ratio": round(ratio, 3),
                          "median_ratio": round(median_ratio, 3), "sha256": digests})
    if args.output:
        record = {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "repeat": args.repeat,
            "cases": cases,
        }
        args.output.write_text(json.dumps(record, indent=1) + "\n")
    if differ:
        print(f"OUTPUTS DIFFER on {len(differ)} cases, first: {', '.join(differ[:5])}")
        return 1
    print(f"outputs: identical on all {len(cases)} cases")
    return 0


if __name__ == "__main__":
    sys.exit(main())
