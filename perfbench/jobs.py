"""Running one job and describing its result.

`execute` is the only code inside a timed region.  Everything else here
(canonical text, status) runs after the clock has stopped.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

CLI_TIMEOUT_S = 60


@dataclass
class Outcome:
    """What a job returned (or raised), before any checking."""

    value: object = None
    error: BaseException | None = None
    # cli jobs
    exit: int | None = None
    stdout: str = ""
    stderr: str = ""


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(argv, root: Path, env: dict) -> Outcome:
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "fuzzaut", *argv],
            cwd=root, env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
            stdin=subprocess.DEVNULL,
        )
    except subprocess.TimeoutExpired as exc:
        return Outcome(error=exc, stderr=f"no exit within {CLI_TIMEOUT_S} s")
    return Outcome(exit=proc.returncode, stdout=proc.stdout, stderr=proc.stderr)


def replay_cli(fz, argv) -> Outcome:
    """The same argv through fuzzaut.cli.main in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = fz.cli.main(list(argv))
    return Outcome(exit=code, stdout=out.getvalue(), stderr=err.getvalue())


def execute(fz, job, root: Path, env: dict, replay: bool = False) -> Outcome:
    """Run one job.  Whatever it raises is captured as its outcome: the
    loop goes on, and the job counts as failed."""
    a = job.args
    if job.kind == "cli":
        return replay_cli(fz, a[0]) if replay else run_cli(a[0], root, env)
    try:
        if job.kind == "reduce":
            value = fz.reduction.greatest_invariant(a[0], a[1])
        elif job.kind == "alternate":
            value = fz.reduction.alternate_reduce(a[0], a[1])
        elif job.kind == "family":
            value = fz.automaton.reachable_state_family(a[0], a[1])
        elif job.kind == "parallel":
            value = fz.des.parallel_compose(a[0], a[1])
        elif job.kind == "blocking":
            value = fz.des.check_blocking(a[0], a[1])
        elif job.kind == "conflict":
            value = fz.des.conflict_check(a[0], a[1], a[2])
        else:
            raise ValueError(f"unknown job kind {job.kind!r}")
    except Exception as exc:  # noqa: BLE001 - a job's failure is a result
        return Outcome(error=exc)
    return Outcome(value=value)


# ---------------------------------------------------------------------------
# after the clock


def _family_doc(fz, family, alphabet):
    return {
        "direction": family.direction,
        "complete": family.complete,
        "truncated": family.truncated,
        "members": [
            [fz.cli.format_word(w, alphabet), [str(v) for v in vec.entries]]
            for w, vec in family.members
        ],
    }


def canonical(fz, job, outcome: Outcome, root: Path) -> str:
    """The text the digest covers: documents, verdicts, exit code, stdout
    and any file the command wrote."""
    if job.kind == "cli" and outcome.error is None:
        doc = {"exit": outcome.exit, "stdout": outcome.stdout}
        if job.output and outcome.exit == 0:
            doc["output"] = (root / job.output).read_text(encoding="utf-8")
        return json.dumps(doc, sort_keys=True)
    if outcome.error is not None:
        return f"raised {type(outcome.error).__name__}: {outcome.error}"
    v = outcome.value
    if job.kind == "reduce":
        doc = fz.cli.report_to_document(v)
    elif job.kind == "alternate":
        doc = {
            "schedule": v.schedule,
            "state_trace": list(v.state_trace),
            "stop_reason": v.stop_reason,
            "reports": [fz.cli.report_to_document(r) for r in v.reports],
            "reduct": fz.cli.machine_to_document(v.reduct),
        }
    elif job.kind == "family":
        doc = _family_doc(fz, v, job.args[0].alphabet)
    elif job.kind == "parallel":
        doc = {
            "recognizer": fz.cli.machine_to_document(v.recognizer),
            "shared": list(v.shared_alphabet),
            "private_left": list(v.private_left),
            "private_right": list(v.private_right),
        }
    else:
        doc = {"verdict": v.verdict, "witness": None if v.witness is None else list(v.witness)}
    return json.dumps(doc, sort_keys=True)


def status(job, outcome: Outcome) -> str:
    """'ok', 'undetermined' or 'failed' (before the answer gate)."""
    if job.kind == "cli":
        if outcome.exit == 0:
            return "ok"
        return "undetermined" if outcome.exit == 3 else "failed"
    if outcome.error is not None:
        return "failed"
    v = outcome.value
    if job.kind == "reduce":
        return "ok" if v.converged else "undetermined"
    if job.kind == "alternate":
        done = v.stop_reason != "max_rounds" and all(r.converged for r in v.reports)
        return "ok" if done else "undetermined"
    if job.kind == "family":
        return "undetermined" if v.truncated else "ok"
    if job.kind in ("blocking", "conflict"):
        return "ok" if v.decided else "undetermined"
    return "ok"


def known_defect(job, outcome: Outcome) -> bool:
    """Whether a failure is the known defect the job was built to reach."""
    if job.defect != "alternate-isomorphism-cap":
        return False
    if job.kind == "cli":
        return outcome.exit == 2 and "isomorphism capped" in outcome.stderr
    return type(outcome.error).__name__ == "SizeLimitExceeded"


def quotient_states(fz, job, outcome: Outcome, root: Path) -> int | None:
    """States of the reduced machine, for jobs that reduce and succeeded."""
    if job.kind == "reduce" and outcome.error is None:
        return outcome.value.state_trace[1]
    if job.kind == "alternate" and outcome.error is None:
        return outcome.value.state_trace[-1]
    if job.kind == "cli" and job.reduces and outcome.exit == 0:
        doc = json.loads((root / job.output).read_text(encoding="utf-8"))
        return len(doc["states"])
    return None
