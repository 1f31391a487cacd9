#!/usr/bin/env python3
"""Scaling sweeps: how an op's cost grows with the input's size.

Run from the repository root:  python3 bench/sweep.py

It times one op of ``chain`` at 11, 21 and 41 groups and of ``far_query``
at query times near 7000 and 70000, ``REPEAT`` times each on the inputs of
seed ``SEED``, checks every answer and prints one JSON line per size with
the median seconds. A later
change that claims a lower asymptotic cost reruns it on both commits.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import workloads  # noqa: E402

REPEAT = 3
SEED = 1
SWEEPS = (
    [("chain", "groups", k, workloads.chain, {"groups": k}) for k in (11, 21, 41)]
    + [("far_query", "time", t, workloads.far_query, {"base": t}) for t in (7000, 70000)]
)


def main() -> int:
    cli = run._import_chronolog()
    os.makedirs(run.WORK, exist_ok=True)
    for name, knob, size, build, sizes in SWEEPS:
        workload = build(SEED, **sizes)
        op = workload.ops[0]  # chain: its one op; far_query: its first query
        workdir = tempfile.mkdtemp(prefix="sweep-", dir=run.WORK)
        try:
            runner = run.Runner(cli, workload, workdir)
            times, printed = [], None
            for _ in range(REPEAT):
                start = time.perf_counter()
                printed = [runner.command(c) for c in op.commands]
                times.append(time.perf_counter() - start)
            _, failures, errors = run.check_outputs(runner, [op], [printed])
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps({
            "workload": name, knob: size, "correct": not (failures or errors),
            "median_s": statistics.median(times), "runs_s": times,
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
