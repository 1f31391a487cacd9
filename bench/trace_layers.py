"""Per-layer metrics for one round of a workload.

The traced run does not go through ``cli.main``. It does what each CLI
command does by calling the layers' public functions itself, in two
passes over the round:

1. a timing pass, which times every layer call with the clock and takes
   the sizes (rules, cycles, groups, pieces) from the results;
2. a counting pass, which repeats the round under ``cProfile`` to count
   calls inside ``intervals`` and ``fractions`` and counts the windows
   ``reason`` slides through its public ``on_iteration`` hook (the hook
   copies the model on every call, so it stays out of the timing pass).

``pattern_length_ms`` and ``group_sort_ms`` time separate calls of the
functions ``reason`` also calls internally, so ``reason_ms`` includes that
work again. Every time is the layer's total over the round, in ms.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import time
import traceback

from chronolog import analysis, reasoner, syntax

LAYER_METRICS = (
    ("syntax.parse_ms", "ms"),
    ("syntax.normal_form_ms", "ms"),
    ("syntax.normal_form_rules", "count"),
    ("syntax.ground_ms", "ms"),
    ("syntax.ground_rules", "count"),
    ("analysis.classify_ms", "ms"),
    ("analysis.pattern_length_ms", "ms"),
    ("analysis.cycles", "count"),
    ("reasoner.reason_ms", "ms"),
    ("reasoner.windows", "count"),
    ("reasoner.period", "days"),
    ("reasoner.repr_pieces", "count"),
    ("reasoner.groups", "count"),
    ("reasoner.group_sort_ms", "ms"),
    ("reasoner.entails_ms", "ms"),
    ("reasoner.unroll_ms", "ms"),
    ("reasoner.unroll_pieces", "count"),
    ("reasoner.oracle_ms", "ms"),
    ("reasoner.oracle_pieces", "count"),
    ("intervals.calls", "count"),
    ("intervals.self_ms", "ms"),
    ("intervals.fraction_ops", "count"),
    ("intervals.union_calls", "count"),
    ("intervals.insert_calls", "count"),
    ("cli.other_ms", "ms"),
)

INTERVALS_FILE = os.path.join("chronolog", "intervals.py")


def _pieces(model) -> int:
    return sum(len(ivs) for _, ivs in model.items())


class Tracer:
    def __init__(self, cli, paths: dict[str, str]):
        self.cli = cli
        self.paths = paths
        self.values = {name: 0 for name, _ in LAYER_METRICS}
        self.timing = True

    def round(self, ops):
        """Both passes over ``ops``; returns the timing pass's JSON answers
        (None for an op that raised) and what the raising ops raised."""
        outputs, failures = [], []
        for i, op in enumerate(ops):
            try:
                outputs.append([self.command(c) for c in op.commands])
            except Exception:  # a traceback is no answer: count the op as failed
                outputs.append(None)
                failures.append(f"op {i} raised: {traceback.format_exc(limit=-1).strip()}")

        self.timing = False
        profile = cProfile.Profile()
        for op, printed in zip(ops, outputs):
            if printed is None:
                continue
            profile.enable()
            try:
                for command in op.commands:
                    self.command(command)
            finally:
                profile.disable()
        self._count_intervals(profile)
        return outputs, failures

    def metrics(self) -> dict:
        return {
            name: {"value": self.values[name], "unit": unit}
            for name, unit in LAYER_METRICS
        }

    # -- one CLI command, layer by layer -------------------------------------

    def _time(self, name: str, fn, *args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        if self.timing:
            self.values[name] += 1000 * (time.perf_counter() - start)
        return result

    def _count(self, name: str, amount) -> None:
        if self.timing:
            self.values[name] += amount

    def _on_window(self, group, n, model) -> None:
        self.values["reasoner.windows"] += 1

    def command(self, command) -> str:
        """Run one command the way ``cli.main`` does; return its JSON text."""
        start = time.perf_counter()
        args = self.cli.build_parser().parse_args(
            [self.paths.get(arg, arg) for arg in command]
        )
        with open(args.program, encoding="utf-8") as handle:
            program_text = handle.read()
        database_text = None
        if args.database is not None:
            with open(args.database, encoding="utf-8") as handle:
                database_text = handle.read()
        other = time.perf_counter() - start

        program = self._time("syntax.parse_ms", syntax.parse_program, program_text)
        database = reasoner.Model()
        if database_text is not None:
            database = self._time("syntax.parse_ms", syntax.parse_database, database_text)
        program = self._time("syntax.normal_form_ms", syntax.to_normal_form, program)
        self._count("syntax.normal_form_rules", len(program.rules))

        if args.command == "classify":
            report = self._time(
                "analysis.classify_ms", analysis.classify_rules, program,
                database if database_text is not None else None,
                cycle_cap=args.cycle_cap,
            )
            self._count("analysis.cycles", len(report.cycles))
            start = time.perf_counter()
            answer = _classify_answer(program, report)
        else:
            answer, start = self._reason_command(args, program, database)

        text = json.dumps(answer, indent=2, sort_keys=True) + "\n"
        other += time.perf_counter() - start
        self._count("cli.other_ms", 1000 * other)
        return text

    def _reason_command(self, args, program, database):
        ground = self._time("syntax.ground_ms", syntax.ground, program, database)
        self._count("syntax.ground_rules", len(ground.rules))
        self._time("analysis.pattern_length_ms", analysis.pattern_length, ground,
                   args.cycle_cap)
        if self.timing:
            cycles = analysis.simple_cycles(analysis.dependency_graph(ground), args.cycle_cap)
            self._count("analysis.cycles", sum(len(c) for c in cycles.values()))
        groups = self._time("reasoner.group_sort_ms", reasoner.group_and_sort, ground)
        self._count("reasoner.groups", len(groups))
        hook = {} if self.timing else {"on_iteration": self._on_window}
        pm = self._time(
            "reasoner.reason_ms", reasoner.reason, ground, database,
            window_cap=args.window_cap, cycle_cap=args.cycle_cap, **hook,
        )
        self._count("reasoner.repr_pieces", _pieces(pm.facts) + len(pm.patterns))
        if self.timing:
            self.values["reasoner.period"] = max(
                self.values["reasoner.period"], float(pm.period)
            )

        if args.command == "reason":
            start = time.perf_counter()
            return pm.to_dict(), start
        if args.command == "query":
            fact = self._time("syntax.parse_ms", syntax.parse_fact, args.query)
            verdict = self._time("reasoner.entails_ms", pm.entails, fact)
            start = time.perf_counter()
            return {"query": str(fact), "entailed": verdict}, start
        if args.command != "check" or args.horizon is not None:
            raise ValueError(f"the traced run does not cover {args.command!r} here")
        horizon = reasoner.max_time_point(database) + 3 * pm.period
        unrolled = self._time("reasoner.unroll_ms", pm.unroll, horizon)
        self._count("reasoner.unroll_pieces", _pieces(unrolled))
        oracle = self._time("reasoner.oracle_ms", reasoner.naive_fixpoint_bounded,
                            ground, database, horizon)
        self._count("reasoner.oracle_pieces", _pieces(oracle))
        start = time.perf_counter()
        differences = [
            f"{atom}: reason={unrolled.get(atom)} oracle={oracle.get(atom)}"
            for atom in sorted(set(unrolled.atoms()) | set(oracle.atoms()), key=str)
            if unrolled.get(atom) != oracle.get(atom)
        ]
        return {"horizon": str(horizon), "differences": differences}, start

    def _count_intervals(self, profile: cProfile.Profile) -> None:
        for (filename, _, function), (_, calls, self_s, _, _) in (
            pstats.Stats(profile).stats.items()
        ):
            if filename.endswith(INTERVALS_FILE):
                self.values["intervals.calls"] += calls
                self.values["intervals.self_ms"] += 1000 * self_s
                if function == "union":
                    self.values["intervals.union_calls"] += calls
                elif function == "insert_with_piece":
                    self.values["intervals.insert_calls"] += calls
            elif os.path.basename(filename) == "fractions.py":
                self.values["intervals.fraction_ops"] += calls


def _classify_answer(program, report) -> dict:
    """The structured answer ``classify --format json`` prints."""
    graph = analysis.dependency_graph(program)
    return {
        "fragments": {
            "bounded": report.bounded,
            "union_free": report.union_free,
            "temporal_linear": report.temporal_linear,
            "forward_propagating": report.forward_propagating,
        },
        "harmless_program": report.harmless_program,
        "pattern_length": None if report.pattern_len is None else str(report.pattern_len),
        "warning": report.warning,
        "finite_nodes": {n: report.finite_nodes.get(n) for n in graph.nodes},
        "rule_classes": {r.id: report.rule_classes[r.id].value for r in program.rules},
        "cycles": [
            {"nodes": list(c.nodes), "shift_sum": str(c.shift_sum), "weight": str(c.weight)}
            for c in report.cycles
        ],
    }
