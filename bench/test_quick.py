"""Self-test of the benchmark on its quick inputs (a few seconds).

Run from the repository root:  python3 -m pytest -q bench/test_quick.py

It is kept out of the repository's test suite, which collects ``tests/``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run as bench_run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def run(workload: str, trace: int, seed: int = 3) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = run(workload, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_counts_repeat_exactly(workload):
    first, second = run(workload, trace=1), run(workload, trace=1)
    assert first["correct"] and first["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == declared
    for name, unit in declared.items():
        if unit != "ms":
            assert first["metrics"][name] == second["metrics"][name], name


def test_speed_probe_scales_by_the_probes_around_an_op():
    probe = bench_run.SpeedProbe()
    nominal = bench_run.REFERENCE_S
    # probes at 0.0, 0.5, 1.0 and 1.5 s: nominal speed, then half, then nominal
    probe.starts = [0.0, 0.5, 1.0, 1.5]
    probe.took = [nominal, 2 * nominal, 2 * nominal, nominal]
    assert probe.net(0.4, 1.2) == pytest.approx(0.8 - 4 * nominal)
    assert probe.speed(0.45, 1.05) == pytest.approx(0.5)  # the two slow probes
    assert probe.speed(0.2, 0.3) == pytest.approx(0.75)  # none near: both neighbours
    assert probe.speed(2.0, 2.5) == pytest.approx(1.0)  # after the last probe


def test_seed_decides_the_inputs():
    for build in workloads.BUILDERS.values():
        assert build(5, quick=True) == build(5, quick=True)
        assert build(5, quick=True) != build(6, quick=True)


def test_corpus_filter_keeps_case_38_and_drops_reach_beyond_the_period():
    edges = workloads.normal_form_edges(workloads.CASE_38_RULES)
    assert workloads.lcm_period(edges) == 31977
    assert not workloads.reach_beyond_period(edges, 31977)
    # diamondminus[3,7] N0 -> A .  N0, A -> N0 .  period 3, reach 7
    rules = (([("diamondminus", 3, 7, "N0")], "A"), (["N0", "A"], "N0"))
    edges = workloads.normal_form_edges(rules)
    assert workloads.lcm_period(edges) == 3
    assert workloads.reach_beyond_period(edges, 3)


def test_bare_directory_fails_without_a_result():
    # BENCHMARK.json and bench/ alone, without src/: no chronolog to measure
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(ROOT, ".bench_work"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "chain_query", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0 and done.stdout == ""


# -- the checks reject wrong answers -----------------------------------------

def test_week_check_rejects_a_flipped_answer():
    expect = ("week", "Workday", Fraction(14004), Fraction(14005))  # Fri, then Sat
    assert checks.week_entailed("Workday", Fraction(14004), Fraction(14004))
    assert not checks.week_entailed("Workday", *expect[2:])
    assert checks.check_week(expect, [{"entailed": True}])
    assert not checks.check_week(expect, [{"entailed": False}])


def _chain_answer(offsets: dict[str, list[int]]) -> dict:
    patterns = [
        {"atom": atom, "offset": f"[{t},{t}]", "period": "5", "start_index": 0}
        for atom, times in offsets.items() for t in times
    ]
    return {"period": "5", "horizon": "0", "facts": [], "patterns": patterns}


def test_chain_check_rejects_a_missing_point():
    expect = ("chain", 2, (0, 3))  # P0 at 0, 3 (+5m); P1 at 1, 4 (+5m)
    assert checks.check_chain(expect, [_chain_answer({"P0": [0, 3], "P1": [1, 4]})]) == []
    assert checks.check_chain(expect, [_chain_answer({"P0": [0, 3], "P1": [1]})])


def test_corpus_check_rejects_an_oracle_that_differs_from_the_grid():
    rules = (([("boxminus", 1, 2, "A")], "B"),)
    facts = (("A", 0, 5),)
    assert checks.grid_model(rules, facts, 10)["B"] == checks._span(2, 6, 10)
    expect = ("corpus", "p", rules, facts)
    check = {"differences": [], "horizon": "10"}
    right = {"facts": [{"atom": "A", "intervals": ["[0,5]"]},
                       {"atom": "B", "intervals": ["[2,6]"]}]}
    wrong = {"facts": [{"atom": "A", "intervals": ["[0,5]"]},
                       {"atom": "B", "intervals": ["[2,7]"]}]}
    assert checks.check_corpus(expect, [check], right, 10) == []
    assert checks.check_corpus(expect, [check], wrong, 10)
    assert checks.check_corpus(expect, [{"differences": ["B"], "horizon": "10"}], right, 10)
