"""Command-line interface: verdicts, formats, exit codes, determinism."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import chronolog
from chronolog import reasoner
from chronolog.cli import (
    EXIT_CAP,
    EXIT_FALSE,
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_OK,
    build_parser,
    main,
)
from chronolog.intervals import Interval, IntervalSet, parse_interval
from chronolog.reasoner import Model, Pattern, PeriodicModel, reason
from chronolog.syntax import (
    Atom,
    Fact,
    ground,
    parse_database,
    parse_program,
    to_normal_form,
)

from generators import _mutate
from test_acceptance import UNCOMPACTED_WORKED_EXAMPLE

FIXTURES = Path(__file__).parent / "fixtures"

WORKED_EXAMPLE = "diamondminus[3,4] A -> B .\nboxminus[3,4] B -> A .\n"
WEEKLY = "diamondminus[7d,7d] Monday -> Monday .\n"


@pytest.fixture()
def paths(tmp_path):
    program = tmp_path / "program.dmtl"
    program.write_text(WORKED_EXAMPLE)
    database = tmp_path / "facts.db"
    database.write_text("A@[0,1].\n")
    return str(program), str(database)


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestReasonCommand:
    def test_json_dump(self, paths, capsys):
        program, database = paths
        code, out = run(
            capsys, "reason", "--program", program, "--database", database,
            "--format", "json",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["type"] == "periodic"
        assert doc["period"] == "7"
        assert doc["horizon"] == "0"
        assert doc["facts"] == []
        assert doc["patterns"] == [
            {"atom": "A", "offset": "[0,1]", "period": "7", "start_index": 0},
            {"atom": "B", "offset": "[3,5]", "period": "7", "start_index": 0},
        ]
        printed = PeriodicModel(
            Model(),
            tuple(
                Pattern(Atom(p["atom"]), parse_interval(p["offset"]),
                        p["start_index"], Fraction(p["period"]))
                for p in doc["patterns"]
            ),
            Fraction(doc["period"]),
            Fraction(doc["horizon"]),
        )
        assert printed.unroll(70) == UNCOMPACTED_WORKED_EXAMPLE.unroll(70)

    def test_human_output(self, paths, capsys):
        program, database = paths
        code, out = run(capsys, "reason", "--program", program, "--database", database)
        assert code == EXIT_OK
        assert out.splitlines() == [
            "type: periodic",
            "period: 7",
            "horizon: 0",
            "facts:",
            "patterns:",
            "  A@[0,1]+7x for x>=0",
            "  B@[3,5]+7x for x>=0",
        ]

    def test_byte_identical_across_runs(self, paths, capsys):
        program, database = paths
        _, first = run(
            capsys, "reason", "--program", program, "--database", database,
            "--format", "json",
        )
        _, second = run(
            capsys, "reason", "--program", program, "--database", database,
            "--format", "json",
        )
        assert first == second


    def test_ground_instances_of_a_cycle_share_its_period(self, tmp_path, capsys):
        # 20 constants give 20^4 ground cycles but one cycle of labels
        program = tmp_path / "cycle.dmtl"
        program.write_text(
            "diamondminus[1,1] A(X) -> B(X) .\nB(X) -> C(X) .\n"
            "C(X) -> D(X) .\ndiamondminus[2,2] D(X) -> A(X) .\n"
        )
        database = tmp_path / "cycle.db"
        database.write_text("".join(f"A(c{i})@[0,0].\n" for i in range(20)))
        code, out = run(
            capsys, "reason", "--program", str(program), "--database", str(database),
            "--format", "json",
        )
        assert code == EXIT_OK
        assert json.loads(out)["period"] == "3"


class TestQueryCommand:
    def test_weekly_repetition(self, tmp_path, capsys):
        program = tmp_path / "weekly.dmtl"
        program.write_text(WEEKLY)
        database = tmp_path / "weekly.db"
        database.write_text("Monday@[0,1].\n")
        code, out = run(
            capsys, "query", "--program", str(program), "--database", str(database),
            "--query", "Monday@[98,99]",
        )
        assert (code, out.strip()) == (EXIT_OK, "true")
        code, out = run(
            capsys, "query", "--program", str(program), "--database", str(database),
            "--query", "Monday@[100,101]",
        )
        assert (code, out.strip()) == (EXIT_FALSE, "false")

    def test_entailed_query_exit_zero(self, paths, capsys):
        program, database = paths
        code, _ = run(
            capsys, "query", "--program", program, "--database", database,
            "--query", "B@[10,12]",
        )
        assert code == EXIT_OK

    def test_reported_atom_with_a_keyword_constant_queries_back(self, tmp_path, capsys):
        program = tmp_path / "copy.dmtl"
        program.write_text("A(X) -> B(X) .\n")
        database = tmp_path / "copy.db"
        database.write_text("A('inf')@[0,1].\n")
        files = ("--program", str(program), "--database", str(database))
        code, out = run(capsys, "reason", *files)
        assert code == EXIT_OK
        (atom,) = [line.split("@")[0].strip() for line in out.splitlines() if "B(" in line]
        code, _ = run(capsys, "query", *files, "--query", f"{atom}@[0,1]")
        assert code == EXIT_OK

    @pytest.mark.parametrize(
        "query, message",
        [
            ("Monday@[7,8] . Tuesday@[1,1]", "1:16: unexpected 'Tuesday' after the query"),
            ("Monday(X)@[7,8]", "1:10: a query must be ground"),
            ("Monday@[1d,2]", "1:1: query mixes unit-suffixed and bare durations"),
        ],
    )
    def test_malformed_query_exits_2(self, query, message, capsys):
        code = main([
            "query", "--program", str(FIXTURES / "weekly.dmtl"),
            "--database", str(FIXTURES / "weekly.db"), "--query", query,
        ])
        assert (code, capsys.readouterr().err) == (EXIT_INPUT, f"error: {message}\n")

    @pytest.mark.parametrize(
        "program_text, database_text, message",
        [
            ("Z until[1,2] Y -> W .\nB -> C .\n", "Z@[0,0].\nB@[3,4].\n",
             "reason supports only Horn, boxminus, and diamondminus rules"),
            ("-> Z .\nB -> C .\n", "B@[3,4].\n",
             "reason does not support facts over (-inf, inf)"),
            ("B -> C .\n", "Z@(-inf,0].\nB@[3,4].\n",
             "database fact Z@(-inf,0] is unbounded below"),
        ],
    )
    def test_input_error_outside_the_slice_exits_2(
        self, tmp_path, capsys, program_text, database_text, message
    ):
        """The whole input is checked before the query's slice is cut."""
        program = tmp_path / "p.dmtl"
        program.write_text(program_text)
        database = tmp_path / "d.db"
        database.write_text(database_text)
        code = main([
            "query", "--program", str(program), "--database", str(database),
            "--query", "C@[3,4]",
        ])
        assert (code, capsys.readouterr().err) == (EXIT_INPUT, f"error: {message}\n")

    def test_window_cap_counts_only_the_groups_the_query_reads(self, tmp_path, capsys):
        program = tmp_path / "p.dmtl"
        program.write_text("diamondminus[5,5] Z -> Z .\ndiamondminus[7,7] Z -> Z .\nB -> C .\n")
        database = tmp_path / "d.db"
        database.write_text("Z@[0,0].\nB@[3,4].\n")
        files = ["--program", str(program), "--database", str(database), "--window-cap", "2"]
        code, out = run(capsys, "query", *files, "--query", "C@[3,4]")
        assert (code, out) == (EXIT_OK, "true\n")
        # the group of Z still exceeds the cap where it is read
        assert main(["query", *files, "--query", "Z@[0,0]"]) == EXIT_CAP
        assert main(["reason", *files]) == EXIT_CAP

    def test_query_derives_only_the_groups_it_reads(self, tmp_path, capsys, monkeypatch):
        """Count guard: on a chain of 81 groups, a query on ``Pk`` derives
        the k + 1 groups ``P0`` to ``Pk`` and no other."""
        derive = reasoner._derive_group
        derived: set[frozenset[str]] = set()

        def recording(group, facts, patterns, window):
            derived.add(frozenset(map(str, group.atoms)))
            derive(group, facts, patterns, window)

        monkeypatch.setattr(reasoner, "_derive_group", recording)
        k = 81
        rules = [f"diamondminus[5,5] P{i} -> P{i} ." for i in range(k)]
        rules += [f"diamondminus[1,1] P{i} -> P{i + 1} ." for i in range(k - 1)]
        program = tmp_path / "chain.dmtl"
        program.write_text("\n".join(rules) + "\n")
        database = tmp_path / "chain.db"
        database.write_text("P0@[0,0].\nP0@[3,3].\n")
        files = ("--program", str(program), "--database", str(database))
        code, _ = run(capsys, "query", *files, "--query", "P0@[10,10]")
        assert code == EXIT_OK
        assert derived == {frozenset({"P0"})}
        derived.clear()
        code, _ = run(capsys, "query", *files, "--query", "P40@[48,48]")
        assert code == EXIT_OK
        assert derived == {frozenset({f"P{i}"}) for i in range(41)}


class TestClassifyCommand:
    def test_finite_markers(self, tmp_path, capsys):
        program = tmp_path / "p.dmtl"
        program.write_text(
            "diamondminus[1,2] X -> Y .\n"
            "X -> D .\n"
            "diamondminus[1,2] D -> D .\n"
        )
        code, out = run(
            capsys, "classify", "--program", str(program), "--format", "json"
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["finite_nodes"] == {"X": "i", "Y": "ii", "D": None}
        assert doc["rule_classes"] == {
            "r1": "harmless",
            "r2": "harmless",
            "r3": "dangerous",
        }
        assert doc["pattern_length"] == "1"

    def test_classify_with_database_changes_guard(self, tmp_path, capsys):
        program = tmp_path / "p.dmtl"
        program.write_text("boxminus[3,7] A -> A .\n")
        database = tmp_path / "d.db"
        database.write_text("A@[0,1].\n")
        _, without = run(capsys, "classify", "--program", str(program), "--format", "json")
        _, with_db = run(
            capsys, "classify", "--program", str(program), "--database", str(database),
            "--format", "json",
        )
        assert json.loads(without)["rule_classes"]["r1"] == "harmless"
        assert json.loads(with_db)["rule_classes"]["r1"] == "dangerous"

    def test_human_output_names_the_unseeded_assumption(self, tmp_path, capsys):
        program = tmp_path / "p.dmtl"
        program.write_text("boxminus[3,7] A -> A .\n")
        database = tmp_path / "d.db"
        database.write_text("A@[0,1].\n")
        note = "note: without --database, case (iv) marks assume every cycle is unseeded"
        _, without = run(capsys, "classify", "--program", str(program))
        _, with_db = run(
            capsys, "classify", "--program", str(program), "--database", str(database)
        )
        _, as_json = run(capsys, "classify", "--program", str(program), "--format", "json")
        assert note in without.splitlines()
        assert "A: finite (iv)" in without
        assert note not in with_db and "note" not in as_json

    def test_cycles_listed_by_scc_in_dependency_order(self, tmp_path, capsys):
        # Z feeds A, so Z's cycle comes first though A sorts first
        program = tmp_path / "p.dmtl"
        program.write_text(
            "diamondminus[2,2] A -> A .\nZ -> A .\ndiamondminus[1,1] Z -> Z .\n"
        )
        code, out = run(capsys, "classify", "--program", str(program), "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["cycles"] == [
            {"nodes": ["Z"], "shift_sum": "1", "weight": "[1,1]"},
            {"nodes": ["A"], "shift_sum": "2", "weight": "[2,2]"},
        ]


class TestOracleAndCheck:
    def test_oracle_dump(self, paths, capsys):
        program, database = paths
        code, out = run(
            capsys, "oracle", "--program", program, "--database", database,
            "--horizon", "14",
        )
        assert code == EXIT_OK
        assert "A@{[0,1], [7,8], [14,14]}" in out
        assert "B@{[3,5], [10,12]}" in out

    def test_check_reports_no_differences(self, paths, capsys):
        program, database = paths
        code, out = run(capsys, "check", "--program", program, "--database", database)
        assert code == EXIT_OK
        assert "no differences" in out

    def test_check_is_clean_on_six_prime_cycles(self, tmp_path, capsys):
        """Six ground cycles of one predicate, each with its own period."""
        primes = (2, 3, 5, 7, 11, 13)
        program = tmp_path / "primes.dmtl"
        program.write_text(
            "".join(f"diamondminus[{p},{p}] P(c{p}) -> P(c{p}) .\n" for p in primes)
        )
        database = tmp_path / "primes.db"
        database.write_text("".join(f"P(c{p})@[0,0].\n" for p in primes))
        files = ("--program", str(program), "--database", str(database))
        code, out = run(capsys, "check", *files, "--horizon", "600")
        assert code == EXIT_OK
        assert "no differences" in out
        code, out = run(capsys, "reason", *files, "--format", "json")
        assert code == EXIT_OK
        assert sorted(p["period"] for p in json.loads(out)["patterns"]) == sorted(map(str, primes))

    def test_default_horizon_reaches_past_the_representation_horizon(
        self, tmp_path, capsys
    ):
        # B@[10,10] lies past maxTimePoint + 3 periods (0 + 3 * 1), so the
        # default horizon must start from the representation's horizon
        program = tmp_path / "late.dmtl"
        program.write_text("diamondminus[10,10] A -> B .\n")
        database = tmp_path / "late.db"
        database.write_text("A@[0,0].\n")
        files = ["--program", str(program), "--database", str(database), "--format", "json"]
        _, out = run(capsys, "reason", *files)
        doc = json.loads(out)
        assert Fraction(doc["horizon"]) > 0 + 3 * Fraction(doc["period"])
        code, out = run(capsys, "check", *files)
        assert code == EXIT_OK
        checked = json.loads(out)
        assert checked["differences"] == []
        assert Fraction(checked["horizon"]) == Fraction(doc["horizon"]) + 3 * Fraction(
            doc["period"]
        )
        assert Fraction(checked["horizon"]) >= 10

    @pytest.mark.parametrize("fmt", ["human", "json"])
    def test_check_reports_a_moved_fact(self, tmp_path, capsys, monkeypatch, fmt):
        """Mutation: ``reason`` hands back its representation with B's
        first fact moved one unit later, so ``check`` exits 1 and names
        the difference."""
        real = reasoner.reason

        def moved(program, database, **caps):
            pm = real(program, database, **caps)
            facts = pm.facts.copy()
            first, *rest = facts.get(Atom("B"))
            facts.put(Atom("B"), IntervalSet.of(first.shift(1), *rest))
            return PeriodicModel(facts, pm.patterns, pm.period, pm.horizon)

        monkeypatch.setattr(reasoner, "reason", moved)
        program = tmp_path / "copy.dmtl"
        program.write_text("A -> B .\n")
        database = tmp_path / "copy.db"
        database.write_text("A@[0,1].\nA@[5,6].\n")
        code, out = run(
            capsys, "check", "--program", str(program), "--database", str(database),
            "--format", fmt,
        )
        assert code == EXIT_FALSE
        line = "B: reason={[1,2], [5,6]} oracle={[0,1], [5,6]}"
        if fmt == "json":
            assert json.loads(out) == {"horizon": "10", "differences": [line]}
        else:
            assert out == f"differences:\n  {line}\n"

    def test_check_runs_the_oracle_before_the_unroll(self, capsys, monkeypatch):
        """A far horizon: the oracle's step cap stops ``check`` (exit 3)
        before the unroll, which has no cap of its own, is built."""
        oracle = reasoner.naive_fixpoint_bounded
        unrolls = []
        monkeypatch.setattr(
            reasoner, "naive_fixpoint_bounded",
            lambda *args, **kwargs: oracle(*args, **kwargs, step_cap=1000),
        )
        monkeypatch.setattr(PeriodicModel, "unroll", lambda *args: unrolls.append(args))
        code = main([
            "check", "--program", str(FIXTURES / "weekly.dmtl"),
            "--database", str(FIXTURES / "weekly.db"), "--horizon", "1000000000000",
        ])
        assert code == EXIT_CAP
        assert capsys.readouterr().err == "error: oracle exceeded 1000 steps\n"
        assert unrolls == []

    def test_check_json(self, paths, capsys):
        program, database = paths
        code, out = run(
            capsys, "check", "--program", program, "--database", database,
            "--format", "json",
        )
        assert code == EXIT_OK
        assert json.loads(out)["differences"] == []


FIXTURE_PAIRS = [
    ("alternating.dmtl", "alternating.db"),
    ("box_loop.dmtl", "box_loop_short.db"),
    ("box_loop.dmtl", "box_loop_long.db"),
    ("diamond_join.dmtl", "diamond_join.db"),
    ("weekly.dmtl", "weekly.db"),
    ("mixed_shift.dmtl", "mixed_shift.db"),
    ("reach_join.dmtl", "reach_join.db"),
    ("ray_gate.dmtl", "ray_gate.db"),
]


class TestShippedFixtures:
    @pytest.mark.parametrize("program,database", FIXTURE_PAIRS)
    def test_check_is_clean(self, program, database, capsys):
        code, out = run(
            capsys,
            "check",
            "--program", str(FIXTURES / program),
            "--database", str(FIXTURES / database),
        )
        assert code == EXIT_OK
        assert "no differences" in out

    @pytest.mark.parametrize("program,database", FIXTURE_PAIRS)
    def test_query_answers_as_the_whole_model(self, program, database, capsys):
        """``query`` reasons over a slice and answers as ``reason`` over the
        whole input does, on every atom, bounded and unbounded."""
        files = ["--program", str(FIXTURES / program), "--database", str(FIXTURES / database)]
        db = parse_database((FIXTURES / database).read_text())
        whole = reason(
            ground(to_normal_form(parse_program((FIXTURES / program).read_text())), db), db
        )
        far = whole.horizon + whole.period
        windows = [
            Interval.point(0), Interval(1, 3), Interval(far, far + 1, True),
            Interval.up_to(far), Interval.ray_from(far), Interval.ray_from(0),
        ]
        for atom in whole.atoms():
            for window in windows:
                fact = Fact(atom, window)
                code, _ = run(capsys, "query", *files, "--query", str(fact))
                assert code == (EXIT_OK if whole.entails(fact) else EXIT_FALSE), str(fact)


class TestExitCodes:
    def test_parse_error_exits_2(self, tmp_path, capsys):
        program = tmp_path / "broken.dmtl"
        program.write_text("A -> -> B .\n")
        database = tmp_path / "d.db"
        database.write_text("A@[0,1].\n")
        assert main(
            ["reason", "--program", str(program), "--database", str(database)]
        ) == EXIT_INPUT

    def test_missing_file_exits_2(self, tmp_path):
        assert main(
            ["classify", "--program", str(tmp_path / "absent.dmtl")]
        ) == EXIT_INPUT

    def test_deeply_nested_literal_exits_2(self, tmp_path, capsys):
        program = tmp_path / "deep.dmtl"
        program.write_text("diamondminus[1,2] " * 1200 + "A -> B .\n")
        assert main(["classify", "--program", str(program)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_non_fp_program_rejected_by_reason(self, tmp_path, capsys):
        program = tmp_path / "fwd.dmtl"
        program.write_text("diamondplus[1,2] A -> B .\n")
        database = tmp_path / "d.db"
        database.write_text("A@[0,1].\n")
        assert main(
            ["reason", "--program", str(program), "--database", str(database)]
        ) == EXIT_INPUT

    def test_window_cap_exits_3(self):
        # reach_join needs two chunks; the worked example needs one
        assert main(
            ["reason", "--program", str(FIXTURES / "reach_join.dmtl"),
             "--database", str(FIXTURES / "reach_join.db"), "--window-cap", "1"]
        ) == EXIT_CAP

    def test_cycle_cap_exits_3(self, tmp_path):
        # classify enumerates the cycles; reason finds its period without them
        names = [f"N{i}" for i in range(6)]
        text = "\n".join(f"{a} -> {b} ." for a in names for b in names if a != b)
        program = tmp_path / "dense.dmtl"
        program.write_text(text + "\n")
        database = tmp_path / "d.db"
        database.write_text("N0@[0,1].\n")
        argv = ["--program", str(program), "--database", str(database)]
        assert main(["classify", *argv, "--cycle-cap", "5"]) == EXIT_CAP
        assert main(["reason", *argv]) == EXIT_OK

    def test_cycle_cap_bounds_the_total_over_all_sccs(self, tmp_path, capsys):
        # A <-> B and C <-> D, each node with a diamondminus self-loop: 3
        # cycles per SCC, 6 in all
        program = tmp_path / "two_sccs.dmtl"
        program.write_text("".join(
            f"{a} -> {b} .\n{b} -> {a} .\n"
            f"diamondminus[1,1] {a} -> {a} .\ndiamondminus[1,1] {b} -> {b} .\n"
            for a, b in (("A", "B"), ("C", "D"))
        ))
        argv = ["classify", "--program", str(program), "--format", "json", "--cycle-cap"]
        assert main([*argv, "4"]) == EXIT_CAP
        assert "more than 4 simple cycles" in capsys.readouterr().err
        code, out = run(capsys, *argv, "6")
        assert code == EXIT_OK
        assert len(json.loads(out)["cycles"]) == 6

    @pytest.mark.parametrize(
        "command, cap",
        [
            ("classify", "--window-cap"),
            ("oracle", "--window-cap"),
            ("oracle", "--cycle-cap"),
            ("reason", "--cycle-cap"),
            ("query", "--cycle-cap"),
            ("check", "--cycle-cap"),
        ],
    )
    def test_caps_a_command_does_not_read_are_rejected(self, paths, capsys, command, cap):
        program, database = paths
        argv = [command, "--program", program, "--database", database, cap, "5"]
        if command == "oracle":
            argv += ["--horizon", "10"]
        if command == "query":
            argv += ["--query", "A@[0,0]"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_INPUT
        assert f"unrecognized arguments: {cap} 5" in capsys.readouterr().err

    def test_zero_denominator_in_database_exits_2(self, tmp_path, capsys):
        program = tmp_path / "p.dmtl"
        program.write_text("A -> B .\n")
        database = tmp_path / "d.db"
        database.write_text("A@[0,1/0].\n")
        assert main(
            ["reason", "--program", str(program), "--database", str(database)]
        ) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: 1:6: zero denominator") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["check", "oracle"])
    def test_zero_denominator_horizon_exits_2(self, paths, capsys, command):
        program, database = paths
        assert main(
            [command, "--program", program, "--database", database, "--horizon", "1/0"]
        ) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err == "error: invalid horizon '1/0'\n"

    @pytest.mark.parametrize(
        "command, program, database, query, place",
        [
            # the inline integers of an interval, either end
            ("reason", "A -> B .\n", "A@[{long},{long}].\n", None, "1:4"),
            ("reason", "A -> B .\n", "B@[0,1].\nA@[0,{long}].\n", None, "2:6"),
            # a program's operator range, read by reason and by classify
            ("reason", "diamondminus[{long},{long}] A -> B .\n", "A@[0,1].\n", None, "1:14"),
            ("classify", "diamondminus[{long},{long}] A -> B .\n", None, None, "1:14"),
            # a query
            ("query", "A -> B .\n", "A@[0,1].\n", "A@[{long},{long}]", "1:4"),
            # parse_number: negative, with a unit, a fraction and a decimal
            ("reason", "A -> B .\n", "A@[-{long},0].\n", None, "1:5"),
            ("reason", "A -> B .\n", "A@[0,{long}h].\n", None, "1:6"),
            ("reason", "A -> B .\n", "A@[1/{long},1].\n", None, "1:4"),
            ("reason", "A -> B .\n", "A@[0,1.{long}].\n", None, "1:6"),
        ],
    )
    def test_over_long_input_number_exits_2(
        self, tmp_path, capsys, command, program, database, query, place
    ):
        """A number longer than Python's limit for integer string conversion
        is an input error at its own line and column, not a traceback."""
        limit = sys.get_int_max_str_digits()
        if not limit:
            pytest.skip("no limit on integer string conversion")
        long = "1" * (limit + 700)
        argv = [command, "--program", str(tmp_path / "p.dmtl")]
        (tmp_path / "p.dmtl").write_text(program.format(long=long))
        if database is not None:
            (tmp_path / "d.db").write_text(database.format(long=long))
            argv += ["--database", str(tmp_path / "d.db")]
        if query is not None:
            argv += ["--query", query.format(long=long)]
        assert main(argv) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err == (
            f"error: {place}: number of more than {limit} digits, "
            "Python's limit for integer string conversion\n"
        )

    @pytest.mark.parametrize(
        "command, fmt", [("reason", "human"), ("reason", "json"), ("check", "human")]
    )
    def test_answer_past_the_digit_limit_exits_3(self, tmp_path, capsys, command, fmt):
        """An answer holding a number that Python will not print under its
        limit for integer string conversion is a cap (exit 3), not a
        traceback: ``B`` holds one point past a database number of the
        limit's length."""
        limit = sys.get_int_max_str_digits()
        if not limit:
            pytest.skip("no limit on integer string conversion")
        nines = "9" * limit
        (tmp_path / "p.dmtl").write_text("diamondminus[1,1] A -> B .\n")
        (tmp_path / "d.db").write_text(f"A@[{nines},{nines}].\n")
        argv = [command, "--program", str(tmp_path / "p.dmtl"),
                "--database", str(tmp_path / "d.db"), "--format", fmt]
        assert main(argv) == EXIT_CAP
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {command}: the answer has a number of more than {limit} digits, "
            "Python's limit for integer string conversion\n"
        )

    def test_internal_value_error_is_not_an_input_error(self, paths, monkeypatch, capsys):
        """A bug is neither an input error (2) nor a verdict (1): it exits
        4 and prints its traceback."""
        from chronolog import reasoner

        def broken(*args, **kwargs):
            raise ValueError("internal")

        monkeypatch.setattr(reasoner, "reason", broken)
        program, database = paths
        assert main(["reason", "--program", program, "--database", database]) == EXIT_INTERNAL
        err = capsys.readouterr().err
        assert err.startswith("Traceback")
        assert err.endswith("ValueError: internal\n")


class TestProcess:
    def test_a_reused_parser_prints_what_fresh_ones_print(self, paths, capsys):
        program, database = paths
        calls = [
            ["classify", "--program", program, "--format", "json"],
            ["reason", "--program", program, "--database", database, "--window-cap", "0"],
            ["reason", "--program", program, "--database", database],
            ["check", "--program", program, "--database", database, "--format", "json"],
            ["classify", "--program", program, "--database", database],
        ]

        def outcome(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        assert build_parser() is build_parser()
        reused = [outcome(argv) for argv in calls]
        fresh = []
        for argv in calls:
            build_parser.cache_clear()
            fresh.append(outcome(argv))
        assert reused == fresh
        assert [code for code, _, _ in reused] == [EXIT_OK, EXIT_INPUT, EXIT_OK, EXIT_OK, EXIT_OK]

    @pytest.mark.parametrize("command", ["classify", "reason"])
    def test_deep_nesting_answers(self, tmp_path, command):
        """Each nesting level costs a bounded number of stack frames, so a
        450-deep literal stays within the default recursion limit."""
        program = tmp_path / "deep.dmtl"
        program.write_text("diamondminus[1,1] " * 450 + "C -> C .\n")
        database = tmp_path / "deep.db"
        database.write_text("C@[0,0].\n")
        src = Path(chronolog.__file__).parents[1]
        done = subprocess.run(
            [sys.executable, "-m", "chronolog.cli", command,
             "--program", str(program), "--database", str(database)],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr

    @pytest.mark.parametrize("argv", [["reason"], ["query", "--query", "A@[0,0]"]])
    def test_out_of_memory_is_a_cap_not_a_verdict(self, tmp_path, argv):
        """Past the Frobenius number 998 999 the facts reach every integer,
        so the state search outgrows a 400 MB address space: the child
        exits 3 with one error line, not 1 (``query``'s "false") with a
        traceback. The limit is set in the child only."""
        resource = pytest.importorskip("resource")
        if not hasattr(resource, "RLIMIT_AS"):
            pytest.skip("RLIMIT_AS is not supported here")
        program = tmp_path / "frobenius.dmtl"
        program.write_text(
            "diamondminus[1000,1000] A -> A .\ndiamondminus[1001,1001] A -> A .\n"
        )
        database = tmp_path / "frobenius.db"
        database.write_text("A@[0,0].\n")
        code = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))\n"
            "from chronolog.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        src = Path(chronolog.__file__).parents[1]
        done = subprocess.run(
            [sys.executable, "-c", code, *argv,
             "--program", str(program), "--database", str(database)],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == EXIT_CAP, done.stderr
        assert "Traceback" not in done.stderr
        assert done.stderr == f"error: {argv[0]}: out of memory\n"

    def test_reasoning_commands_do_not_import_the_analysis(self):
        """``reason``, ``query``, ``check`` and ``oracle`` never read the
        program analysis, so a process that runs only them leaves
        ``chronolog.analysis`` unimported; the package still exports its
        names, loading it on first use."""
        code = (
            "import sys\n"
            "from chronolog.cli import main\n"
            "files = ['--program', sys.argv[1], '--database', sys.argv[2]]\n"
            "codes = [main(['reason', *files]), main(['query', *files, '--query', 'Monday@[7,8]']),\n"
            "         main(['check', *files]), main(['oracle', *files, '--horizon', '20'])]\n"
            "print(codes, 'chronolog.analysis' in sys.modules)\n"
            "from chronolog import classify_rules\n"
            "print(classify_rules.__module__)\n"
        )
        src = Path(chronolog.__file__).parents[1]
        done = subprocess.run(
            [sys.executable, "-c", code, str(FIXTURES / "weekly.dmtl"), str(FIXTURES / "weekly.db")],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-2:] == ["[0, 0, 0, 0] False", "chronolog.analysis"]

    def test_cli_imports_without_dataclasses(self):
        """Every command pays for importing the CLI first; the value types
        are plain classes, so neither ``dataclasses`` nor the ``inspect`` it
        pulls in is loaded."""
        code = (
            "import sys\n"
            "import chronolog.cli\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
        )
        src = Path(chronolog.__file__).parents[1]
        done = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"

    def test_cli_imports_without_typing(self):
        """The CLI's aliases are written with ``|`` and its annotations are
        strings, so importing it adds no ``typing`` to what the standard
        modules it uses load (``-S`` keeps ``site``, which may import
        ``typing`` itself, out; what those modules load varies by version)."""
        code = (
            "import sys\n"
            "import argparse, bisect, collections.abc, enum, fractions, functools\n"
            "import heapq, itertools, json, math, re\n"
            "before = 'typing' in sys.modules\n"
            "import chronolog.cli\n"
            "print(before, 'typing' in sys.modules)\n"
        )
        src = Path(chronolog.__file__).parents[1]
        done = subprocess.run(
            [sys.executable, "-S", "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        before, after = done.stdout.split()
        assert after == before

    def test_commands_do_not_import_networkx(self):
        program, database = FIXTURES / "weekly.dmtl", FIXTURES / "weekly.db"
        code = (
            "import sys\n"
            "from chronolog.cli import main\n"
            f"assert main(['classify', '--program', {str(program)!r}]) == 0\n"
            f"assert main(['check', '--program', {str(program)!r},"
            f" '--database', {str(database)!r}]) == 0\n"
            "assert 'networkx' not in sys.modules, 'networkx was imported'\n"
        )
        src = Path(chronolog.__file__).parents[1]
        done = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr


class TestDispatch:
    """``main`` hands argv to the named command's parser, and runs the
    top-level parser only on an argv that names no command. Either way a
    run prints and exits as the top-level parser alone makes it."""

    WEEKLY_FILES = ["--database", str(FIXTURES / "weekly.db")]

    @staticmethod
    def outcome(capsys, run, argv):
        try:
            code = run(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @staticmethod
    def top_level(argv):
        args = build_parser().parse_args(argv)
        return args.func(args)

    @pytest.mark.parametrize(
        "argv, code, stream, text",
        [
            ([], EXIT_INPUT, 2, "chronolog: error: the following arguments are required: command\n"),
            (["--help"], EXIT_OK, 1, "usage: chronolog [-h] {classify,reason,query,oracle,check} ...\n"),
            (["bogus"], EXIT_INPUT, 2, "chronolog: error: argument command: invalid choice: 'bogus'"),
            (["reason", "--help"], EXIT_OK, 1, "usage: chronolog reason [-h] --program PROGRAM"),
            (["reason", "--prog", str(FIXTURES / "weekly.dmtl"), *WEEKLY_FILES], EXIT_OK, 1, "type: periodic\n"),
            (["reason", "--program", str(FIXTURES / "weekly.dmtl"), *WEEKLY_FILES, "--cycle-cap", "5"],
             EXIT_INPUT, 2, "chronolog: error: unrecognized arguments: --cycle-cap 5\n"),
            (["reason", "--format", "json"], EXIT_INPUT, 2,
             "chronolog reason: error: the following arguments are required: --program, --database\n"),
        ],
    )
    def test_as_the_top_level_parser(self, capsys, argv, code, stream, text):
        got = self.outcome(capsys, main, argv)
        assert got == self.outcome(capsys, self.top_level, argv)
        assert got[0] == code
        assert text in got[stream] and not got[3 - stream]
        if code == EXIT_INPUT:  # an argparse error: the usage first, then the message
            assert got[2].startswith("usage: chronolog ")

    def test_a_named_command_skips_the_top_level_parser(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the top-level parser ran")

        argv = ["query", "--program", str(FIXTURES / "weekly.dmtl"), *self.WEEKLY_FILES,
                "--query", "Monday@[7,8]"]
        expected = self.outcome(capsys, main, argv)
        monkeypatch.setattr(build_parser(), "parse_args", refuse)
        monkeypatch.setattr(build_parser(), "parse_known_args", refuse)
        assert self.outcome(capsys, main, argv) == expected == (EXIT_OK, "true\n", "")
        with pytest.raises(AssertionError, match="the top-level parser ran"):
            main(["bogus"])


class TestFuzz:
    def test_mutated_fixtures_get_an_answer(self, tmp_path, capsys):
        """Every input gets an answer: mutated fixture programs, databases
        and queries exit 0, 1, 2 or 3, never with a traceback."""
        import random

        rng = random.Random(21)
        pairs = []
        for database in sorted(FIXTURES.glob("*.db")):
            program = FIXTURES / f"{database.stem}.dmtl"
            if not program.exists():  # box_loop_long.db and box_loop_short.db
                program = FIXTURES / f"{database.stem.rsplit('_', 1)[0]}.dmtl"
            pairs.append((program.read_text(), database.read_text()))
        program, database = tmp_path / "fuzz.dmtl", tmp_path / "fuzz.db"
        files = ("--program", str(program), "--database", str(database))
        commands = [
            ["classify", *files, "--cycle-cap", "50"],
            ["reason", *files, "--window-cap", "8"],
            ["check", *files, "--window-cap", "8", "--horizon", "40"],
        ]
        codes = []
        for i in range(300):
            program_text, database_text = rng.choice(pairs)
            query = database_text.split(".\n")[0].splitlines()[-1]
            mutated = rng.randrange(3)  # 0: the program, 1: the database, 2: both
            if mutated != 1:
                program_text = _mutate(rng, program_text)
            if mutated != 0:
                database_text = _mutate(rng, database_text)
            program.write_text(program_text)
            database.write_text(database_text)
            argv = commands[i % 4] if i % 4 < 3 else [
                "query", *files, "--window-cap", "8", f"--query={_mutate(rng, query)}"
            ]
            code = main(argv)
            err = capsys.readouterr().err
            assert code in (EXIT_OK, EXIT_FALSE, EXIT_INPUT, EXIT_CAP), (argv, err)
            assert "Traceback" not in err, (program_text, database_text, argv, err)
            codes.append(code)
        # the mutations leave some inputs valid and break others
        assert codes.count(EXIT_OK) > 30 and codes.count(EXIT_INPUT) > 30
