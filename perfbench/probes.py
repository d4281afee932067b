"""Probes for what span wrappers cannot reach.

- `interpreter_ms`: wall time of a bare `python -c pass`.
- `import_ms`: the cumulative import time of `fuzzaut` reported by
  `python -X importtime`.
- `lattice_op_ns`: ns per call of `Lattice.otimes`, `residuum` and `join`
  over value pairs drawn from the workload's own values.
"""

from __future__ import annotations

import random
import re
import statistics
import subprocess
import sys
from time import perf_counter_ns

REPEATS = 7
PAIRS = 4000
DENOMINATOR = re.compile(r"\d/(\d+)")


def interpreter_ms(root, env) -> float:
    times = []
    for _ in range(REPEATS):
        start = perf_counter_ns()
        subprocess.run([sys.executable, "-c", "pass"], cwd=root, env=env, check=True,
                       capture_output=True, timeout=60)
        times.append((perf_counter_ns() - start) / 1e6)
    return statistics.median(times)


def import_ms(root, env) -> float:
    times = []
    for _ in range(REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import fuzzaut"],
                              cwd=root, env=env, check=True, capture_output=True, text=True,
                              timeout=60)
        # "import time: self [us] | cumulative | imported package"
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] == "fuzzaut":
                times.append(int(parts[1]) / 1000)
    if not times:
        raise RuntimeError("python -X importtime reported no line for fuzzaut")
    return statistics.median(times)


def lattice_op_ns(value_pool, seed: int) -> dict:
    """Median over REPEATS of the mean ns per call, for each operation."""
    rng = random.Random(seed)
    by_lattice = {}
    for lat, v in value_pool:
        by_lattice.setdefault(lat, []).append(v)
    pairs = []
    lats = sorted(by_lattice, key=lambda lat: lat.describe())
    for i in range(PAIRS):
        lat = lats[i % len(lats)]
        values = by_lattice[lat]
        pairs.append((lat, rng.choice(values), rng.choice(values)))
    out = {}
    for op in ("otimes", "residuum", "join"):
        calls = [(getattr(lat, op), x, y) for lat, x, y in pairs]
        samples = []
        for _ in range(REPEATS):
            start = perf_counter_ns()
            for f, x, y in calls:
                f(x, y)
            samples.append((perf_counter_ns() - start) / len(calls))
        out[op] = statistics.median(samples)
    return out


def max_den_bits(texts) -> int:
    """Largest denominator bit length among the p/q literals in the texts."""
    return max((int(q).bit_length() for text in texts for q in DENOMINATOR.findall(text)),
               default=0)
