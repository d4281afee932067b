"""Seeded job corpora for the four benchmark workloads.

Every builder draws from one `random.Random(seed)`, so a seed fixes the
whole job list.  The job list is a sequence of blocks.  Each block holds
the same mix of job kinds, lattices, methods and sizes; only the random
values differ between blocks and between seeds.  The mix is fixed so that
a timed window of complete blocks always measures the same proportions.

The fuzzaut modules are passed in as arguments (`fz`, the package, and
`mc`, `scripts/method_comparison.py`) because set-up re-imports them on
every repetition.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

# distinct blocks per corpus: somewhat more than one timed run of 45 s
# measures at the seed; a faster program cycles through them again
BLOCKS = {"reduce-finite": 13, "family-des": 18, "reduce-product": 15, "cli-docs": 26}
LETTERS = ("x", "y")

# `method_comparison.random_recognizer` reads its value pool from
# `method_comparison.POOLS`, which covers boolean, godel and chain only.
EXTRA_POOLS = {
    "lukasiewicz": ["0", "0", "1/5", "2/5", "3/5", "4/5", "1"],
    "product": ["0", "0", "1/2", "2/3", "3/4", "1"],
}
POSITIVE = [Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(1, 3), Fraction(1, 4),
            Fraction(3, 5)]

FINITE_METHODS = ("ri", "li", "rie", "cri", "sri")
PRODUCT_METHODS = ("ri", "li", "rie", "wri", "wli")
FINITE_KINDS = ("boolean", "godel", "lukasiewicz", "chain4")
# four conflict checks in a block of 22 jobs: the 90th percentile of job
# time falls inside them rather than on the edge of their cluster
PAIRS = (("godel", 5, 5), ("godel", 5, 6), ("boolean", 5, 5), ("boolean", 5, 6))


@dataclass
class Job:
    """One unit of work.  `kind` selects how jobs.execute runs `args`."""

    id: str
    kind: str
    args: tuple
    lattice: str
    states: int = 0
    planted: bool = False
    # name of a known library defect this job may hit (see NOTES.md)
    defect: str = ""
    # cli jobs: relative path the command writes, and the input it reduces
    output: str | None = None
    reduces: str | None = None
    pair: tuple[str, str] | None = None


@dataclass
class Corpus:
    jobs: list[Job]
    block_sizes: list[int]
    warmup: Job
    # (lattice, value) pairs the lattice microbench draws from
    value_pool: list[tuple[object, Fraction]]


def add_pools(mc) -> None:
    for kind, pool in EXTRA_POOLS.items():
        mc.POOLS.setdefault(kind, pool)


def lattices(fz):
    lat = fz.Lattice
    return {
        "boolean": lat.boolean(),
        "godel": lat.godel(),
        "lukasiewicz": lat.lukasiewicz(),
        "chain4": lat.chain(4),
        "product": lat.product(),
    }


# ---------------------------------------------------------------------------
# machine builders


def planted_recognizer(fz, rng, lat, n, base, letters=LETTERS):
    """A k-state base recognizer copied onto n states.

    Every state is a copy of one base state, with the base's transition,
    initial and terminal degrees, so copies have equal rows and columns and
    the afterset quotient keeps at most k states.
    """
    k = base.n
    owner = list(range(k)) + [rng.randrange(k) for _ in range(n - k)]
    rng.shuffle(owner)
    delta = {
        x: fz.FuzzyMatrix(
            lat, n, n,
            tuple(base.delta[x][owner[i], owner[j]] for i in range(n) for j in range(n)),
        )
        for x in letters
    }
    aut = fz.FuzzyAutomaton(lat, tuple(str(i) for i in range(n)), tuple(letters), delta)
    return fz.FuzzyRecognizer(
        aut,
        fz.FuzzyVector(lat, tuple(base.sigma[o] for o in owner)),
        fz.FuzzyVector(lat, tuple(base.tau[o] for o in owner)),
    )


def sparse_automaton(fz, mc, rng, lat, n, letters):
    """At most one successor per state and letter, degrees from the pool."""
    pool = [lat.parse(v) for v in mc.POOLS[lat.kind] if v != "0"]
    delta = {}
    for x in letters:
        entries = [lat.zero] * (n * n)
        for i in range(n):
            if rng.random() < 0.8:
                entries[i * n + rng.randrange(n)] = rng.choice(pool)
        delta[x] = fz.FuzzyMatrix(lat, n, n, tuple(entries))
    return fz.FuzzyAutomaton(lat, tuple(f"s{i}" for i in range(n)), tuple(letters), delta)


def separated_recognizer(fz, mc, rng, lat, n, vector="tau", letters=LETTERS):
    """A funnel recognizer whose states all carry distinct terminal (or
    initial) degrees.  Any quasi-order below the terminal (initial)
    constraint then has n distinct aftersets, so no wri (li) round shrinks
    it.  Every transition leads into states 0 and 1, which keeps the
    reachable state family, and so the job, small.
    """
    pool = [lat.parse(v) for v in mc.POOLS[lat.kind] if v != "0"]
    delta = []
    for _ in letters:
        entries = [lat.zero] * (n * n)
        for i in range(n):
            entries[i * n + rng.randrange(2)] = rng.choice(pool)
        delta.append(entries)
    other = [rng.choice(pool) for _ in range(n)]
    degrees = [Fraction(i + 1, n + 1) for i in range(n)]
    rng.shuffle(degrees)
    if vector == "tau":
        return _recognizer(fz, lat, delta, other, degrees, letters)
    return _recognizer(fz, lat, delta, degrees, other, letters)


def des_component(fz, mc, rng, lat, n, letters):
    """A sparse plant model: one initial state, random terminal degrees."""
    aut = sparse_automaton(fz, mc, rng, lat, n, letters)
    pool = [lat.parse(v) for v in mc.POOLS[lat.kind]]
    sigma = fz.FuzzyVector(lat, (lat.one,) + (lat.zero,) * (n - 1))
    tau = fz.FuzzyVector(lat, tuple(rng.choice(pool) for _ in range(n)))
    return fz.FuzzyRecognizer(aut, sigma, tau)


def _recognizer(fz, lat, delta_entries, sigma, tau, letters=LETTERS):
    n = len(sigma)
    delta = {x: fz.FuzzyMatrix(lat, n, n, tuple(e)) for x, e in zip(letters, delta_entries)}
    aut = fz.FuzzyAutomaton(lat, tuple(str(i) for i in range(n)), tuple(letters), delta)
    return fz.FuzzyRecognizer(aut, fz.FuzzyVector(lat, tuple(sigma)),
                              fz.FuzzyVector(lat, tuple(tau)))


def crisp_recognizer(fz, rng, lat, n):
    """Transitions of degree 0 or 1, initial and terminal degrees from the
    product pool.  Every product iteration on these settles."""
    pool = [lat.parse(v) for v in EXTRA_POOLS["product"]]
    delta = [[lat.one if rng.random() < 0.4 else lat.zero for _ in range(n * n)]
             for _ in LETTERS]
    return _recognizer(fz, lat, delta, [rng.choice(pool) for _ in range(n)],
                       [rng.choice(pool) for _ in range(n)])


def diagonal_recognizer(fz, rng, lat, n):
    """Diagonal transitions with distinct positive degrees and positive
    initial and terminal degrees.  No product iteration on these settles:
    every iterate stays positive, and a fixpoint R would need
    dx(a) >= dx(b) whenever R(a, b) > 0, which fails for some pair."""
    delta = []
    for _ in LETTERS:
        degrees = rng.sample(POSITIVE, n)
        entries = [lat.zero] * (n * n)
        for i in range(n):
            entries[i * n + i] = degrees[i]
        delta.append(entries)
    return _recognizer(fz, lat, delta, [rng.choice(POSITIVE) for _ in range(n)],
                       [rng.choice(POSITIVE) for _ in range(n)])


def _machine(fz, mc, rng, lat, n, planted):
    if planted:
        base = mc.random_recognizer(rng, lat, max(2, n // 4), LETTERS)
        return planted_recognizer(fz, rng, lat, n, base)
    return mc.random_recognizer(rng, lat, n, LETTERS)


def _pool_of(lat, machines):
    values = set()
    for m in machines:
        for mat in m.delta.values():
            values.update(mat.entries)
        values.update(m.sigma.entries)
        values.update(m.tau.entries)
    return [(lat, v) for v in sorted(values)]


# ---------------------------------------------------------------------------
# workloads


def reduce_finite(fz, mc, rng, workdir):
    """greatest_invariant on the four locally finite lattices.

    Per block: every (lattice, method) pair at n = 10, half of them on
    planted machines; three n = 20 jobs and one closed-form sri job at
    n = 40; and Boolean ri and li at n = 4, which the brute-force oracle
    checks.  Iterative methods at n = 40 are left out: one such job takes
    up to 9 s at the seed, a third of a run.
    """
    lats = lattices(fz)
    slots = [(10, kind, method, (i + j) % 2 == 1)
             for i, kind in enumerate(FINITE_KINDS) for j, method in enumerate(FINITE_METHODS)]
    slots += [(20, "godel", "ri", False), (20, "godel", "li", True),
              (20, "chain4", "cri", True), (40, "boolean", "sri", False),
              (4, "boolean", "ri", False), (4, "boolean", "li", False)]
    jobs, sizes, pool = [], [], {}
    for b in range(BLOCKS["reduce-finite"]):
        for n, name, method, planted in slots:
            machine = _machine(fz, mc, rng, lats[name], n, planted)
            pool.setdefault(name, []).append(machine)
            tag = "planted" if planted else "random"
            jobs.append(Job(f"b{b}/n{n}/{name}/{method}/{tag}", "reduce", (machine, method),
                            name, states=n, planted=planted))
        sizes.append(len(slots))
    warmup_machine = mc.random_recognizer(rng, lats["godel"], 6, LETTERS)
    warmup = Job("warmup", "reduce", (warmup_machine, "sri"), "godel", states=6)
    value_pool = [pv for name, ms in pool.items() for pv in _pool_of(lats[name], ms)]
    return Corpus(jobs, sizes, warmup, value_pool)


def reduce_product(fz, mc, rng, workdir):
    """ri, li, rie, wri and wli on product recognizers under default caps.

    Whether a product iteration settles decides whether it costs a few
    milliseconds or max_iter iterates, so the corpus fixes that share by
    construction instead of leaving it to chance.  Per block, every method
    runs on crisp-transition machines with n = 4, 6, 10 and 12 and on a
    planted one with n = 8 (these settle), and on a diagonal machine with
    n = 4 (these never settle, and their denominators grow with every
    iterate).  The spread of sizes keeps the job-time distribution free of
    gaps, so its median and 90th percentile do not jump between clusters.
    """
    lat = lattices(fz)["product"]
    jobs, sizes, machines = [], [], []

    def add(b, method, machine, tag, planted=False):
        machines.append(machine)
        n = machine.n
        jobs.append(Job(f"b{b}/n{n}/product/{method}/{tag}", "reduce", (machine, method),
                        "product", states=n, planted=planted))

    for b in range(BLOCKS["reduce-product"]):
        start = len(jobs)
        for method in PRODUCT_METHODS:
            for n in (4, 6, 10, 12):
                add(b, method, crisp_recognizer(fz, rng, lat, n), "crisp")
            base = crisp_recognizer(fz, rng, lat, 2)
            add(b, method, planted_recognizer(fz, rng, lat, 8, base), "planted", True)
            add(b, method, diagonal_recognizer(fz, rng, lat, 4), "diagonal")
        sizes.append(len(jobs) - start)
    warmup = Job("warmup", "reduce", (crisp_recognizer(fz, rng, lat, 3), "sri"),
                 "product", states=3)
    return Corpus(jobs, sizes, warmup, _pool_of(lat, machines))


def family_des(fz, mc, rng, workdir):
    """The fuzzy-state-family BFS and the DES layer, on locally finite lattices.

    Per block: five weak reductions, a forward and a reverse family,
    alternate_reduce(wrl) on two small machines and on one 16-state machine
    whose states cannot merge (the >12-state isomorphism defect), and
    parallel_compose, check_blocking and conflict_check on four pairs of
    sparse 5- and 6-state plants sharing the letter "s".
    """
    lats = lattices(fz)
    jobs, sizes, pool = [], [], {}

    def add(job, *machines):
        pool.setdefault(job.lattice, []).extend(machines)
        jobs.append(job)

    for b in range(BLOCKS["family-des"]):
        start = len(jobs)
        for method, name, n in (("wri", "godel", 12), ("wli", "chain4", 10),
                                ("wlie", "boolean", 16), ("wri", "lukasiewicz", 8),
                                ("wlie", "godel", 8)):
            m = mc.random_recognizer(rng, lats[name], n, LETTERS)
            add(Job(f"b{b}/n{n}/{name}/{method}", "reduce", (m, method), name, states=n), m)
        for direction, name, n in (("forward", "godel", 16), ("reverse", "chain4", 12)):
            m = mc.random_recognizer(rng, lats[name], n, LETTERS)
            add(Job(f"b{b}/n{n}/{name}/family-{direction}", "family", (m, direction), name,
                    states=n), m)
        for name, n in (("boolean", 12), ("godel", 10)):
            m = mc.random_recognizer(rng, lats[name], n, LETTERS)
            add(Job(f"b{b}/n{n}/{name}/alternate-wrl", "alternate", (m, "wrl"), name,
                    states=n), m)
        m = separated_recognizer(fz, mc, rng, lats["godel"], 16, vector="tau")
        add(Job(f"b{b}/n16/godel/alternate-wrl-separated", "alternate", (m, "wrl"), "godel",
                states=16, defect="alternate-isomorphism-cap"), m)
        for name, na, nb in PAIRS:
            left = des_component(fz, mc, rng, lats[name], na, ("a", "s"))
            right = des_component(fz, mc, rng, lats[name], nb, ("b", "s"))
            tag = f"b{b}/{na}x{nb}/{name}"
            add(Job(f"{tag}/parallel", "parallel", (left, right), name, states=na * nb),
                left, right)
            add(Job(f"{tag}/blocking", "blocking", (left, 8), name, states=na), left)
            add(Job(f"{tag}/conflict", "conflict", (left, right, 8), name, states=na * nb))
        sizes.append(len(jobs) - start)
    warmup_machine = mc.random_recognizer(rng, lats["boolean"], 6, LETTERS)
    warmup = Job("warmup", "family", (warmup_machine, "forward"), "boolean", states=6)
    value_pool = [pv for name, ms in pool.items() for pv in _pool_of(lats[name], ms)]
    return Corpus(jobs, sizes, warmup, value_pool)


CLI_DOCSETS = 2


def cli_docs(fz, mc, rng, workdir):
    """`python -m fuzzaut` subprocesses on documents written here.

    Each block replays ten commands on one of four document sets; the
    sets differ only in their random values.
    """
    lats = lattices(fz)
    godel = lats["godel"]
    root = Path(workdir)
    docsets, machines = [], []
    for d in range(CLI_DOCSETS):
        rel = f".perfbench_work/cli/d{d}"
        (root / rel).mkdir(parents=True, exist_ok=True)
        big = mc.random_recognizer(rng, godel, 64, ("x", "y", "z"))
        rec = mc.random_recognizer(rng, godel, 10, LETTERS)
        quotient = fz.greatest_invariant(rec, "ri").quotient
        left = des_component(fz, mc, rng, godel, 5, ("a", "s"))
        right = des_component(fz, mc, rng, godel, 5, ("b", "s"))
        sep = separated_recognizer(fz, mc, rng, godel, 16, vector="sigma")
        docs = {"big": big, "rec": rec, "quot": quotient, "left": left, "right": right,
                "sep16": sep}
        for name, machine in docs.items():
            fz.cli.save(machine, str(root / rel / f"{name}.json"))
        machines.extend(docs.values())
        docsets.append(rel)

    def cmds(rel):
        p = lambda name: f"{rel}/{name}.json"  # noqa: E731
        out = lambda name: f"{rel}/out-{name}.json"  # noqa: E731
        return [
            ("info", ["info", p("big")], {}),
            ("reduce-sri", ["reduce", "--method", "sri", "--input", p("rec"), "--output",
                            out("sri")], {"output": out("sri"), "reduces": p("rec")}),
            ("reduce-ri", ["reduce", "--method", "ri", "--input", p("rec"), "--output",
                           out("ri")], {"output": out("ri"), "reduces": p("rec")}),
            ("reduce-wri", ["reduce", "--method", "wri", "--input", p("rec"), "--output",
                            out("wri")], {"output": out("wri"), "reduces": p("rec")}),
            ("equiv", ["equiv", p("rec"), p("quot")], {}),
            ("determinize", ["determinize", "--input", p("rec"), "--direction", "fwd"], {}),
            ("des-parallel", ["des", "parallel", p("left"), p("right"), "--output",
                              out("parallel")],
             {"output": out("parallel"), "pair": (p("left"), p("right"))}),
            ("des-blocking", ["des", "blocking", p("left")], {}),
            ("des-conflict", ["des", "conflict", p("left"), p("right")], {}),
            ("alternate-lr", ["alternate", "--input", p("sep16"), "--schedule", "lr",
                              "--output", out("alternate")],
             {"output": out("alternate"), "reduces": p("sep16"),
              "defect": "alternate-isomorphism-cap"}),
        ]

    jobs, sizes = [], []
    for b in range(BLOCKS["cli-docs"]):
        rel = docsets[b % CLI_DOCSETS]
        start = len(jobs)
        for name, argv, extra in cmds(rel):
            states = 16 if name == "alternate-lr" else 10
            jobs.append(Job(f"{rel.rsplit('/', 1)[1]}/{name}#{b}", "cli", (argv,), "godel",
                            states=states, **extra))
        sizes.append(len(jobs) - start)
    warm = cmds(docsets[0])[0]
    warmup = Job("warmup", "cli", (warm[1],), "godel")
    value_pool = [(m.lattice, v) for m in machines for mat in m.delta.values()
                  for v in set(mat.entries)]
    return Corpus(jobs, sizes, warmup, value_pool)


WORKLOADS = {
    "reduce-finite": reduce_finite,
    "family-des": family_des,
    "reduce-product": reduce_product,
    "cli-docs": cli_docs,
}


def build(workload: str, fz, mc, seed: int, workdir) -> Corpus:
    add_pools(mc)
    return WORKLOADS[workload](fz, mc, random.Random(seed), workdir)


def replay_argvs(corpus: Corpus) -> list[Job]:
    """The first block of a cli-docs corpus: one job per command."""
    return corpus.jobs[: corpus.block_sizes[0]]
