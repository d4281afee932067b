#!/usr/bin/env python3
"""Benchmark for fuzzaut: one workload per run, closed loop, exact answers.

    python3 perfbench/run.py --workload reduce-finite --seed 1 --seconds 45 --trace 0

Run it from the root of a checkout; it imports fuzzaut from `src/` and the
seeded recognizer builder from `scripts/method_comparison.py`.  One caller
runs the jobs of a seeded corpus (corpus.py) one after another, in complete
blocks, until `--seconds` of job time have been measured.  Every answer is
checked after the clock stops (answer_gate.py).

`--trace 0` reports the end-to-end metrics.  `--trace 1` runs each job
twice, untraced and then traced (spans.py), checks that both give the same
digest, adds the probes of probes.py and reports the per-layer metrics.
`--pin` recomputes the pinned digests of the default seed.

A human-readable report goes to stderr; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import math
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
DEFAULT_SEED = 0
SETUP_REPEATS = 5
# stop starting blocks after this much wall time, so a run that stalls
# still ends (and reports what it measured) well within three minutes
WALL_LIMIT_S = 110

sys.path.insert(0, str(HERE))
import answer_gate as gate  # noqa: E402
import corpus as corpora  # noqa: E402
import jobs  # noqa: E402
import probes  # noqa: E402
import spans  # noqa: E402


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_fuzzaut():
    """Import fuzzaut and method_comparison afresh (set-up is repeated)."""
    for key in list(sys.modules):
        if key == "fuzzaut" or key.startswith("fuzzaut.") or key == "method_comparison":
            del sys.modules[key]
    fz = importlib.import_module("fuzzaut")
    importlib.import_module("fuzzaut.cli")
    mc = importlib.import_module("method_comparison")
    return fz, mc


def setup(workload, seed, env):
    """Import, corpus generation, document writing and one warm-up job."""
    start = perf_counter_ns()
    fz, mc = import_fuzzaut()
    corpus = corpora.build(workload, fz, mc, seed, ROOT)
    warm = jobs.execute(fz, corpus.warmup, ROOT, env)
    if jobs.status(corpus.warmup, warm) != "ok":
        fail(f"warm-up job failed: {warm.error or warm.stderr}")
    return (perf_counter_ns() - start) / 1e9, fz, mc, corpus


def freeze():
    """Keep the collector from rescanning the corpus during the jobs, as it
    would not in a process that holds one machine."""
    gc.collect()
    gc.freeze()


class Ledger:
    """Per-execution records, plus the first outcome of each distinct job
    (which the answer gate checks)."""

    def __init__(self, corpus):
        self.corpus = corpus
        self.rows = []  # (job index, ns, status, known defect, digest, kept states)
        self.first = {}
        self.digests = {}
        self.texts = []
        self.mismatch = []

    def add(self, fz, idx, ns, outcome):
        job = self.corpus.jobs[idx]
        text = jobs.canonical(fz, job, outcome, ROOT)
        d = gate.digest(text)
        st = jobs.status(job, outcome)
        defect = st == "failed" and jobs.known_defect(job, outcome)
        kept = jobs.quotient_states(fz, job, outcome, ROOT) if st != "failed" else None
        self.rows.append((idx, ns, st, defect, d, kept))
        if idx not in self.first:
            self.first[idx] = outcome
            self.digests[idx] = d
            self.texts.append(text)
        elif self.digests[idx] != d:
            self.mismatch.append((job.id, "a repeated run gave another digest"))


def blocks(corpus):
    """Job indices block by block, cycling over the corpus."""
    starts = [0]
    for size in corpus.block_sizes:
        starts.append(starts[-1] + size)
    b = 0
    while True:
        i = b % len(corpus.block_sizes)
        yield range(starts[i], starts[i + 1])
        b += 1


def timed_run(fz, corpus, seconds, env) -> Ledger:
    ledger = Ledger(corpus)
    budget = seconds * 1e9
    elapsed = 0
    wall_end = perf_counter_ns() + WALL_LIMIT_S * 1e9
    for block in blocks(corpus):
        for idx in block:
            job = corpus.jobs[idx]
            start = perf_counter_ns()
            outcome = jobs.execute(fz, job, ROOT, env)
            ns = perf_counter_ns() - start
            elapsed += ns
            ledger.add(fz, idx, ns, outcome)
        if elapsed >= budget or perf_counter_ns() > wall_end:
            return ledger


# ---------------------------------------------------------------------------
# the answer gate


def check_answers(fz, workload, seed, ledger) -> list:
    """(a) pinned digests at the default seed, (b) the independent
    evaluator, (c) the brute-force oracle.  Returns (job id, reason) pairs."""
    problems = list(ledger.mismatch)
    pins = gate.load_pins(workload) if seed == DEFAULT_SEED else {}
    if seed == DEFAULT_SEED and not pins:
        problems.append(("*", f"no pinned digests in {gate.PIN_DIR.name}/{workload}.json"))
    for idx, outcome in ledger.first.items():
        job = ledger.corpus.jobs[idx]
        reason = None
        # a known-defect job is pinned as such; if it succeeds, (b) checks it
        if pins and not job.defect and pins.get(job.id) != ledger.digests[idx]:
            reason = f"digest {ledger.digests[idx][:12]} != pinned {str(pins.get(job.id))[:12]}"
        if reason is None and jobs.status(job, outcome) == "ok":
            reason = independent_check(fz, job, outcome)
        if reason is None and gate.oracle_applies(job) and outcome.error is None:
            reason = gate.oracle_matches(fz, job.args[0], job.args[1], outcome.value)
        if reason:
            problems.append((job.id, reason))
    return problems


def _doc(fz, machine):
    return fz.cli.machine_to_document(machine)


def _read(rel):
    return json.loads((ROOT / rel).read_text(encoding="utf-8"))


def independent_check(fz, job, outcome):
    v = outcome.value
    if job.kind == "reduce":
        return gate.same_language(_doc(fz, job.args[0]), _doc(fz, v.quotient))
    if job.kind == "alternate":
        return gate.same_language(_doc(fz, job.args[0]), _doc(fz, v.reduct))
    if job.kind == "family":
        return gate.family_members_match(
            _doc(fz, job.args[0]), json.loads(jobs.canonical(fz, job, outcome, ROOT)))
    if job.kind == "parallel":
        return gate.parallel_matches(
            _doc(fz, job.args[0]), _doc(fz, job.args[1]), _doc(fz, v.recognizer))
    if job.kind == "cli" and job.reduces:
        return gate.same_language(_read(job.reduces), _read(job.output))
    if job.kind == "cli" and job.pair:
        return gate.parallel_matches(_read(job.pair[0]), _read(job.pair[1]), _read(job.output))
    return None


# ---------------------------------------------------------------------------
# metrics


def percentile(sorted_values, q):
    """Nearest-rank percentile."""
    k = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[k - 1]


def block_rates(corpus, rows):
    """Jobs per second of each complete block of the timed run."""
    rates = []
    i = 0
    for size in itertools.cycle(corpus.block_sizes):
        if i + size > len(rows):
            return rates
        rates.append(size / (sum(r[1] for r in rows[i:i + size]) / 1e9))
        i += size


def end_to_end(workload, ledger, problems, setup_s):
    bad = {job_id for job_id, _ in problems}
    rows = ledger.rows
    attempted = len(rows)
    failed = undetermined = defects = unexpected = 0
    kept_in = kept_out = 0
    planted = 0
    for idx, ns, st, defect, d, kept in rows:
        job = ledger.corpus.jobs[idx]
        planted += job.planted
        if st == "failed" or job.id in bad:
            failed += 1
            if defect and job.id not in bad:
                defects += 1
            else:
                unexpected += 1
        elif st == "undetermined":
            undetermined += 1
        if kept is not None and st != "failed":
            kept_in += job.states
            kept_out += kept
    times = sorted(r[1] / 1e6 for r in rows)
    usage = resource.RUSAGE_CHILDREN if workload == "cli-docs" else resource.RUSAGE_SELF
    summary = {
        "setup_s": (setup_s, "s"),
        # the median block: one slow block moves it less than the mean
        "jobs_per_s": (statistics.median(block_rates(ledger.corpus, rows)), "1/s"),
        "job_p50_ms": (statistics.median(times), "ms"),
        "job_p90_ms": (percentile(times, 0.9), "ms"),
        "failed_ratio": (failed / attempted, "ratio"),
        "undetermined_ratio": (undetermined / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(usage).ru_maxrss / 1024, "MB"),
        "states_kept_ratio": (kept_out / kept_in if kept_in else 1.0, "ratio"),
        "completed_ratio": (1 - failed / attempted, "ratio"),
        "decided_ratio": (1 - undetermined / attempted, "ratio"),
    }
    counts = {
        "attempted": attempted,
        "failed": failed,
        "known_defects": defects,
        "unexpected_failures": unexpected,
        "undetermined": undetermined,
        "planted_share": planted / attempted,
        "beyond_p90": attempted - max(1, math.ceil(0.9 * attempted)),
    }
    return summary, counts


E2E_JSON = ("setup_s", "jobs_per_s", "job_p50_ms", "job_p90_ms", "peak_rss_mb",
            "states_kept_ratio", "completed_ratio", "decided_ratio")


def report_e2e(workload, seed, summary, counts, problems, setup_times):
    err = sys.stderr
    print(f"workload {workload}, seed {seed}: {counts['attempted']} jobs, "
          f"{counts['beyond_p90']} beyond p90", file=err)
    for name, (value, unit) in summary.items():
        print(f"  {name:20} {value:12.4f} {unit}", file=err)
    print(f"  set-up repeats (s): {', '.join(f'{t:.3f}' for t in setup_times)}", file=err)
    print(f"  planted share {counts['planted_share']:.3f}, undetermined share "
          f"{counts['undetermined'] / counts['attempted']:.3f}", file=err)
    print(f"  failures: {counts['known_defects']} known defect (alternate_reduce above "
          f"12 states), {counts['unexpected_failures']} other", file=err)
    for job_id, reason in problems[:20]:
        print(f"  ANSWER GATE: {job_id}: {reason}", file=err)


# ---------------------------------------------------------------------------
# the traced run


def traced_run(fz, workload, corpus, seconds, env, tracer):
    """Each job untraced and traced, in complete blocks; both runs must
    give the same digest."""
    replay = workload == "cli-docs"
    untraced = Ledger(corpus)
    traced = Ledger(corpus)
    budget = seconds * 1e9
    elapsed = plain_ns = traced_ns = 0
    wall_end = perf_counter_ns() + WALL_LIMIT_S * 1e9
    for count, block in enumerate(blocks(corpus), start=1):
        for idx in block:
            job = corpus.jobs[idx]
            # alternate which of the pair runs first
            for traced_side in ((False, True) if idx % 2 else (True, False)):
                if traced_side:
                    tracer.install(fz)
                    tracer.job = job.id
                    root_span = tracer.open("job")
                start = perf_counter_ns()
                outcome = jobs.execute(fz, job, ROOT, env, replay=replay)
                ns = perf_counter_ns() - start
                if traced_side:
                    tracer.close(root_span, "job", start)
                    tracer.uninstall()
                    traced.add(fz, idx, ns, outcome)
                    traced_ns += ns
                else:
                    untraced.add(fz, idx, ns, outcome)
                    plain_ns += ns
                elapsed += ns
            if untraced.rows[-1][4] != traced.rows[-1][4]:
                traced.mismatch.append((job.id, "traced digest differs from untraced"))
        if elapsed >= budget or perf_counter_ns() > wall_end:
            return untraced, traced, plain_ns, traced_ns, count


REPLAY = "replay:"


def replay_probe(fz, seed, env, tracer):
    """Traced in-process replay of one block of cli-docs commands."""
    cli_corpus = corpora.build("cli-docs", fz, importlib.import_module("method_comparison"),
                               seed, ROOT)
    tracer.install(fz)
    try:
        for job in corpora.replay_argvs(cli_corpus):
            tracer.job = REPLAY + job.id
            root_span = tracer.open("job")
            start = perf_counter_ns()
            jobs.execute(fz, job, ROOT, env, replay=True)
            tracer.close(root_span, "job", start)
    finally:
        tracer.uninstall()


def subprocess_agrees(fz, corpus, ledger, env) -> list:
    """cli-docs: the in-process replay must reproduce the subprocess result,
    checked once per distinct command line."""
    problems = []
    seen = set()
    for idx in ledger.first:
        job = corpus.jobs[idx]
        if tuple(job.args[0]) in seen:
            continue
        seen.add(tuple(job.args[0]))
        text = jobs.canonical(fz, job, jobs.execute(fz, job, ROOT, env), ROOT)
        if gate.digest(text) != ledger.digests[idx]:
            problems.append((job.id, "replay digest differs from the subprocess"))
    return problems


def is_job(job_id):
    return not str(job_id).startswith(REPLAY)


def is_replay(job_id):
    return str(job_id).startswith(REPLAY)


def per_layer(fz, workload, seed, corpus, env, tracer, traced, plain_ns, traced_ns, nblocks):
    """Per-layer metrics per block of the workload's corpus.  Outside
    cli-docs, one traced replay of the cli-docs commands is added, so the
    cli and oracle layers (and every other one) are measured on every
    workload."""
    parts = [(spans.aggregate(tracer.spans, is_job), 1 / nblocks)]
    if workload != "cli-docs":
        replay_probe(fz, seed, env, tracer)
        parts.append((spans.aggregate(tracer.spans, is_replay), 1))
    metrics = spans.combine(parts)
    pool = list(corpus.value_pool)
    for outcome in traced.first.values():
        v = outcome.value
        if v is not None and hasattr(v, "quasi_order"):
            pool.extend((v.quasi_order.lattice, x) for x in set(v.quasi_order.entries))
    ops = probes.lattice_op_ns(pool, seed)
    metrics["lattice.otimes.ns"] = ops["otimes"]
    metrics["lattice.residuum.ns"] = ops["residuum"]
    metrics["lattice.join.ns"] = ops["join"]
    metrics["lattice.max_den_bits"] = probes.max_den_bits(traced.texts)
    metrics["cli.interpreter_ms"] = probes.interpreter_ms(ROOT, env)
    metrics["cli.import_ms"] = probes.import_ms(ROOT, env)
    metrics["trace.overhead_ratio"] = plain_ns / traced_ns - 1
    by_module = {k: v / nblocks for k, v in spans.self_ms_by_module(tracer.spans, is_job).items()}
    metrics["trace.job_ms"] = traced_ns / 1e6 / nblocks
    metrics["trace.layer_self_ms"] = sum(by_module.values())
    return metrics, by_module


LAYER_UNITS = {"calls": "count", "ms": "ms", "self_ms": "ms", "ns": "ns"}


def layer_unit(name):
    last = name.rsplit(".", 1)[1]
    if last in LAYER_UNITS:
        return LAYER_UNITS[last]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("bits"):
        return "bits"
    return "count"


# ---------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(corpora.WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=45)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--pin", action="store_true",
                   help="run every job of the default seed once and rewrite its pinned digests")
    return p.parse_args(argv)


def pin(workload, env):
    _, fz, _, corpus = setup(workload, DEFAULT_SEED, env)
    ledger = Ledger(corpus)
    for idx, job in enumerate(corpus.jobs):
        ledger.add(fz, idx, 0, jobs.execute(fz, job, ROOT, env))
    problems = check_answers(fz, workload, None, ledger)
    for job_id, reason in problems:
        print(f"ANSWER GATE: {job_id}: {reason}", file=sys.stderr)
    if problems:
        sys.exit(1)
    pins = {corpus.jobs[idx].id: ("known-defect" if corpus.jobs[idx].defect else d)
            for idx, d in ledger.digests.items()}
    print(f"wrote {len(pins)} digests to {gate.save_pins(workload, pins)}", file=sys.stderr)


def main(argv=None):
    args = parse_args(argv)
    for required in (ROOT / "src" / "fuzzaut" / "__init__.py",
                     ROOT / "scripts" / "method_comparison.py"):
        if not required.is_file():
            fail(f"{required.relative_to(ROOT)} not found; run from a fuzzaut checkout")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "scripts")]
    WORK.mkdir(exist_ok=True)
    env = jobs.cli_env(ROOT)
    if args.pin:
        pin(args.workload, env)
        return

    if args.trace == 0:
        runs = [setup(args.workload, args.seed, env) for _ in range(SETUP_REPEATS)]
        setup_times = [r[0] for r in runs]
        _, fz, _, corpus = runs[-1]
        del runs
        freeze()
        ledger = timed_run(fz, corpus, args.seconds, env)
        gate_start = perf_counter_ns()
        problems = check_answers(fz, args.workload, args.seed, ledger)
        gate_s = (perf_counter_ns() - gate_start) / 1e9
        summary, counts = end_to_end(args.workload, ledger, problems,
                                     statistics.median(setup_times))
        report_e2e(args.workload, args.seed, summary, counts, problems, setup_times)
        print(f"  answer gate: {len(ledger.first)} distinct jobs checked in {gate_s:.2f} s",
              file=sys.stderr)
        result = {
            "correct": not problems,
            "attempted": counts["attempted"],
            "failed": counts["unexpected_failures"],
            "metrics": {k: {"value": summary[k][0], "unit": summary[k][1]} for k in E2E_JSON},
        }
    else:
        _, fz, _, corpus = setup(args.workload, args.seed, env)
        freeze()
        tracer = spans.Tracer()
        untraced, traced, plain_ns, traced_ns, nblocks = traced_run(
            fz, args.workload, corpus, args.seconds, env, tracer)
        problems = check_answers(fz, args.workload, args.seed, untraced) + traced.mismatch
        if args.workload == "cli-docs":
            problems += subprocess_agrees(fz, corpus, untraced, env)
        metrics, by_module = per_layer(fz, args.workload, args.seed, corpus, env, tracer,
                                       traced, plain_ns, traced_ns, nblocks)
        tracer.write(WORK / f"spans-{args.workload}-{args.seed}.jsonl")
        err = sys.stderr
        print(f"workload {args.workload}, seed {args.seed}: {len(traced.rows)} traced jobs "
              f"in {nblocks} blocks; per-layer figures are per block", file=err)
        for name, value in metrics.items():
            print(f"  {name:42} {value:14.4f} {layer_unit(name)}", file=err)
        print("  self time per module, per block of traced jobs (ms):", file=err)
        for module, ms in sorted(by_module.items(), key=lambda kv: -kv[1]):
            print(f"    {module:12} {ms:12.1f}", file=err)
        print(f"    {'(job time)':12} {metrics['trace.job_ms']:12.1f}", file=err)
        for job_id, reason in problems[:20]:
            print(f"  ANSWER GATE: {job_id}: {reason}", file=err)
        _, counts = end_to_end(args.workload, untraced, problems, 0.0)
        result = {
            "correct": not problems,
            "attempted": counts["attempted"],
            "failed": counts["unexpected_failures"],
            "metrics": {k: {"value": v, "unit": layer_unit(k)} for k, v in metrics.items()},
        }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
