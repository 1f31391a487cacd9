#!/usr/bin/env python3
"""Benchmark of chronolog's command line, end to end or layer by layer.

Run from the repository root:

    python3 bench/run.py --workload chain_query --seed 1 --seconds 40 --trace 0

Workloads: chain_query and corpus_frontend (see bench/README.md). Each op
is one ``chronolog`` command (a ``frontend`` op: classify, then reason)
run in this process through ``chronolog.cli.main`` with ``--format json``,
one after another in one thread. After untimed warm-up ops the timed
phase runs whole rounds of the workload's ops until they have run for
``--seconds``, sampling fresh-interpreter starts between them, while a
fixed reference task is timed 20 times a second to track the host's
speed; every time reported is scaled to nominal host speed by it (see
``SpeedProbe``), and the times as measured go to standard error. Every
output is then checked apart from the program.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` runs one round through the
layers' own functions instead and reports per-layer metrics.
``--quick`` shrinks every input so that all workloads and checks run in
seconds.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_EVERY = 2.0  # seconds of timed ops between two fresh-interpreter samples
PROBE_EVERY = 0.05  # seconds between two timings of the reference task
PROBE_WINDOW = 0.1  # seconds around an op whose probes tell its host speed
REFERENCE_S = 0.0015  # the reference task's time at nominal host speed

sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402


def _import_chronolog():
    """Import the chronolog of this checkout's ``src``, never another one."""
    if not os.path.isfile(os.path.join(SRC, "chronolog", "cli.py")):
        sys.exit(f"error: no chronolog sources under {SRC}")
    sys.path.insert(0, SRC)
    import chronolog.cli

    if not os.path.abspath(chronolog.cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported chronolog from {chronolog.cli.__file__}")
    return chronolog.cli


def interpreter_start() -> tuple[float, float]:
    """When a fresh interpreter was started, and the time from then until
    ``import chronolog.cli`` returns: what every CLI call pays first."""
    env = dict(os.environ, PYTHONPATH=SRC)
    code = "import chronolog.cli, time; print(time.perf_counter())"
    start = time.perf_counter()  # CLOCK_MONOTONIC: comparable across processes
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT,
        capture_output=True, text=True, check=True,
    )
    return start, float(done.stdout) - start


def reference() -> int:
    """A fixed pure-Python task of about a millisecond (fractions, tuples,
    dicts, integers, as in chronolog's interval work). It imports nothing
    of chronolog, so its time tells the host's speed alone."""
    items = [(Fraction(i, 7) + Fraction(1, 3 + i % 5), i % 13) for i in range(120)]
    items.sort()
    groups: dict[int, list[Fraction]] = {}
    for value, key in items:
        groups.setdefault(key, []).append(value * 2 - 1)
    total = sum(len(values) for values in groups.values())
    for i in range(6000):
        total += i * i
    return total


class SpeedProbe:
    """Times ``reference`` every ``PROBE_EVERY`` seconds of wall time, from
    a ``SIGALRM`` handler in this one thread, so also in the middle of ops.

    The host's speed drifts by up to 2x, in phases of about a second and
    over minutes (see README, *Host noise*), which no run length averages
    out. So an op's time at nominal host speed is ``net`` (its own time
    less the probes that ran inside it) times ``speed`` (the mean of
    ``REFERENCE_S / probe time`` over the probes in and around it, which
    ran in the same speed phases as the op).
    """

    def __init__(self):
        self.starts: list[float] = []
        self.took: list[float] = []

    def _probe(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()  # the program's garbage is not the reference's work
        start = time.perf_counter()
        reference()
        took = time.perf_counter() - start
        if collecting:
            gc.enable()
        self.starts.append(start)
        self.took.append(took)

    def __enter__(self):
        for _ in range(3):
            reference()  # warm
        self._probe(None, None)
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY, PROBE_EVERY)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._probe(None, None)

    def speed(self, start: float, end: float) -> float:
        """The host's mean speed, as a share of nominal, over the probes
        from ``PROBE_WINDOW`` before ``start`` to as long after ``end``
        (the probes on either side of that span if none falls in it)."""
        lo = bisect.bisect_left(self.starts, start - PROBE_WINDOW)
        hi = bisect.bisect_left(self.starts, end + PROBE_WINDOW)
        near = self.took[max(0, min(lo, hi - 1)):max(hi, lo + 1)]
        return statistics.fmean(REFERENCE_S / took for took in near)

    def net(self, start: float, end: float) -> float:
        """The time from ``start`` to ``end`` less the probes inside it."""
        inside = slice(bisect.bisect_left(self.starts, start),
                       bisect.bisect_left(self.starts, end))
        return end - start - sum(self.took[inside])


class Runner:
    """Runs ops through ``cli.main`` with the workload's files on disk."""

    def __init__(self, cli, workload: workloads.Workload, workdir: str):
        self.cli = cli
        self.paths = {}
        for name, text in workload.files.items():
            self.paths[name] = os.path.join(workdir, name)
            with open(self.paths[name], "w", encoding="utf-8") as handle:
                handle.write(text)

    def argv(self, command) -> list[str]:
        return [self.paths.get(arg, arg) for arg in command]

    def command(self, command) -> str:
        """Run one command; return what it printed. Raises what it raises."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            self.cli.main(self.argv(command))
        return out.getvalue()

    def json(self, command) -> dict:
        return json.loads(self.command(command))


def timed_phase(runner: Runner, ops, seconds: float):
    """Whole rounds until ``seconds`` of ops have run, starting none that
    would likely end after ``1.25 * seconds``; one round at least, all
    under a ``SpeedProbe``.

    One fresh-interpreter start is sampled before the first op and then,
    between ops, after every ``SETUP_EVERY`` seconds of ops, so that the
    samples spread over the whole phase; the clock stops while they run.

    Returns the rounds run, the probe, each op's (start, end) per round,
    the interpreter starts, each op's first answers (None where it
    raised), what the raising ops raised, and the ops whose answer
    changed between rounds.
    """
    spans = [[] for _ in ops]
    outputs = [None] * len(ops)
    failures: list[str] = []
    errors: list[str] = []
    rounds = 0
    elapsed = 0.0
    next_start = SETUP_EVERY
    with SpeedProbe() as probe:
        starts = [interpreter_start()]
        while rounds == 0 or (
            elapsed < seconds and elapsed * (rounds + 1) / rounds <= 1.25 * seconds
        ):
            for i, op in enumerate(ops):
                began = time.perf_counter()
                try:
                    printed = [runner.command(c) for c in op.commands]
                except Exception:  # a traceback is no answer: count the op as failed
                    printed = None
                    failures.append(f"op {i} raised: {traceback.format_exc(limit=-1).strip()}")
                spans[i].append((began, time.perf_counter()))
                elapsed += spans[i][-1][1] - began
                if rounds == 0:
                    outputs[i] = printed
                elif printed != outputs[i]:
                    errors.append(f"op {i} answered differently in round {rounds + 1}")
                if elapsed >= next_start:
                    starts.append(interpreter_start())
                    next_start = elapsed + SETUP_EVERY
            rounds += 1
    return rounds, probe, spans, starts, outputs, failures, errors


def check_outputs(runner: Runner, ops, outputs):
    """Check every op's answer apart from the program.

    An op that printed no JSON answer (an error message instead) failed.
    Returns the indices of such ops, their messages and the errors found
    in the answers of the others."""
    unanswered, failures, errors = [], [], []
    for i, (op, printed) in enumerate(zip(ops, outputs)):
        if printed is None:
            continue
        try:
            answers = [json.loads(text) for text in printed]
        except json.JSONDecodeError:
            unanswered.append(i)
            failures.append(f"op {i} printed no JSON answer")
            continue
        try:
            found = check_answers(runner, op, answers)
        except Exception:  # an answer of the wrong shape, or a raising oracle
            found = [f"checking it raised: {traceback.format_exc(limit=-1).strip()}"]
        errors += [f"op {i}: {e}" for e in found]
    return unanswered, failures, errors


def check_answers(runner: Runner, op, answers) -> list[str]:
    kind = op.expect[0]
    if kind == "chain":
        return checks.check_chain(op.expect, answers)
    if kind == "week":
        return checks.check_week(op.expect, answers)
    if kind == "frontend":
        return checks.check_frontend(op.expect, answers)
    # corpus: compare the oracle with the grid evaluator outside timing
    horizon = checks.corpus_grid_horizon(answers[0])
    oracle = ("oracle",) + op.commands[0][1:5] + ("--horizon", str(horizon), "--format", "json")
    errors = checks.check_corpus(op.expect, answers, runner.json(oracle), horizon)
    if errors:
        errors.append("program:\n" + checks.program_text(op.expect))
    return errors


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(runner: Runner, workload, seconds: float) -> dict:
    for op in workload.warmup:
        for command in op.commands:
            runner.command(command)
    rounds, probe, spans, starts, outputs, failures, errors = timed_phase(
        runner, workload.ops, seconds
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    unanswered, unanswered_failures, check_errors = check_outputs(
        runner, workload.ops, outputs
    )
    # every time at nominal host speed (see SpeedProbe)
    latencies = [[probe.net(*span) * probe.speed(*span) for span in op] for op in spans]
    setup = [took * probe.speed(start, start + took) for start, took in starts]
    per_op_ms = [1000 * statistics.fmean(times) for times in latencies]
    raw = [[probe.net(*span) for span in op] for op in spans]
    print(f"as measured: setup_s {statistics.median(took for _, took in starts):.4f}"
          f" wall_s {sum(map(sum, raw)) / rounds:.4f}"
          f" op_p50_ms {1000 * statistics.median(map(statistics.fmean, raw)):.4f};"
          f" host speed {statistics.fmean(REFERENCE_S / t for t in probe.took):.3f}"
          f" of nominal over {len(probe.took)} probes", file=sys.stderr)
    return {
        "failures": failures + unanswered_failures,
        "errors": errors + check_errors,
        "attempted": rounds * len(workload.ops),
        "failed": len(failures) + rounds * len(unanswered),
        "metrics": {
            "setup_s": metric(statistics.median(setup), "s"),
            "wall_s": metric(sum(map(sum, latencies)) / rounds, "s"),
            "op_p50_ms": metric(statistics.median(per_op_ms), "ms"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        },
    }


def run_traced(runner: Runner, workload) -> dict:
    import trace_layers

    tracer = trace_layers.Tracer(runner.cli, runner.paths)
    outputs, failures = tracer.round(workload.ops)
    unanswered, unanswered_failures, errors = check_outputs(runner, workload.ops, outputs)
    return {
        "failures": failures + unanswered_failures,
        "errors": errors,
        "attempted": len(workload.ops),
        "failed": len(failures) + len(unanswered),
        "metrics": tracer.metrics(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    cli = _import_chronolog()
    workload = workloads.BUILDERS[args.workload](args.seed, args.quick)
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        runner = Runner(cli, workload, workdir)
        if args.trace:
            result = run_traced(runner, workload)
        else:
            result = run_untraced(runner, workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for message in (result["failures"] + result["errors"])[:20]:
        print(message, file=sys.stderr)
    print(json.dumps({
        "correct": not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # string hashing decides set order inside the program; fix it so
        # that traced counts repeat exactly from run to run
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  dict(os.environ, PYTHONHASHSEED="0"))
    sys.exit(main())
