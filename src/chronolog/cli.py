"""Command-line front end.

Subcommands: ``classify``, ``reason``, ``query``, ``oracle``, ``check``.
Exit codes: 0 success, 1 negative verdict (query false / check found
differences), 2 input error, 3 resource cap exceeded, out of memory or
an answer with a number longer than Python's limit for integer string
conversion, 4 internal error (a bug: the traceback is printed).

``main`` reads argv once. When its first word names a command, the
command's own parser (``COMMANDS``, filled as ``build_parser`` builds
each one) reads the rest, and the top-level parser only reports what the
command's parser leaves over, as it would have. Only an argv that names
no command (help, a missing command or an unknown one) goes through the
top-level parser. Either way the arguments, the output and every usage
and error text are those of the top-level parser alone.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections.abc import Callable
from fractions import Fraction

from . import reasoner, syntax
from .errors import CapExceeded, InputError
from .intervals import parse_rational
from .reasoner import Model

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from exc


def _load_program(args) -> syntax.Program:
    return syntax.parse_program(_read(args.program))


def _load_database(args) -> Model:
    return syntax.parse_database(_read(args.database))


def _prepare(args) -> tuple[syntax.Program, Model]:
    """Parse, normalize, and ground the program against the database."""
    program = syntax.to_normal_form(_load_program(args))
    database = _load_database(args)
    return syntax.ground(program, database), database


def _horizon(text: str) -> int | Fraction:
    try:
        return parse_rational(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"invalid horizon {text!r}") from exc


def _emit(args, human: Callable[[], str], structured: Callable[[], dict]) -> None:
    """Print the answer in the format asked for, building only that form."""
    if args.format == "json":
        print(json.dumps(structured(), indent=2, sort_keys=True))
    else:
        print(human())


def cmd_classify(args) -> int:
    # imported here: no other command reads the program analysis
    from . import analysis

    program = syntax.to_normal_form(_load_program(args))
    database = _load_database(args) if args.database else None
    report = analysis.classify_rules(program, database, cycle_cap=args.cycle_cap)
    fragments = {name: getattr(report, name) for name in analysis.FragmentFlags._fields}

    def human() -> str:
        lines = ["fragments:"] + [f"  {name}: {value}" for name, value in fragments.items()]
        lines.append(f"  harmless_program: {report.harmless_program}")
        if report.pattern_len is not None:
            lines.append(f"  pattern_length: {report.pattern_len}")
        if report.warning:
            lines.append(f"warning: {report.warning}")
        if database is None:
            lines.append(
                "note: without --database, case (iv) marks assume every cycle is unseeded"
            )
        lines.append("nodes:")
        for node in report.nodes:
            case = report.finite_nodes.get(node)
            status = f"finite ({case})" if case else "not finite"
            lines.append(f"  {node}: {status}")
        lines.append("rules:")
        for rule in program.rules:
            lines.append(f"  {rule.id}: {report.rule_classes[rule.id].value}  {rule}")
        return "\n".join(lines)

    def structured() -> dict:
        return {
            "fragments": fragments,
            "harmless_program": report.harmless_program,
            "pattern_length": (
                str(report.pattern_len) if report.pattern_len is not None else None
            ),
            "warning": report.warning,
            "finite_nodes": {n: report.finite_nodes.get(n) for n in report.nodes},
            "rule_classes": {r.id: report.rule_classes[r.id].value for r in program.rules},
            "cycles": [
                {"nodes": list(c.nodes), "shift_sum": str(c.shift_sum), "weight": str(c.weight)}
                for c in report.cycles
            ],
        }

    _emit(args, human, structured)
    return EXIT_OK


def cmd_reason(args) -> int:
    program, database = _prepare(args)
    pm = reasoner.reason(program, database, window_cap=args.window_cap)

    def human() -> str:
        lines = [
            f"type: {pm.representation_type()}",
            f"period: {pm.period}",
            f"horizon: {pm.horizon}",
            "facts:",
        ]
        for atom, ivs in pm.facts.items():
            lines.append(f"  {atom}@{ivs}")
        lines.append("patterns:")
        for pat in pm.patterns:
            lines.append(f"  {pat}")
        return "\n".join(lines)

    _emit(args, human, pm.to_dict)
    return EXIT_OK


def cmd_query(args) -> int:
    """Reason over the backward slice of the queried atom, then entail.

    The verdict is the one ``reason`` on the whole input gives: every rule
    that can derive an atom of the slice is in it and reads only atoms of
    the slice, so the slice's least model equals the whole least model on
    the queried atom (``reasoner.backward_slice``). The whole input is
    checked before it is cut, so an input error is never sliced away;
    ``--window-cap`` counts only the chunks of the groups the query reads.
    """
    program, database = _prepare(args)
    fact = syntax.parse_fact(args.query)
    program, database = reasoner.backward_slice(program, database, fact.atom)
    pm = reasoner.reason(program, database, window_cap=args.window_cap)
    verdict = pm.entails(fact)
    _emit(
        args,
        lambda: "true" if verdict else "false",
        lambda: {"query": str(fact), "entailed": verdict},
    )
    return EXIT_OK if verdict else EXIT_FALSE


def cmd_oracle(args) -> int:
    horizon = _horizon(args.horizon)
    program, database = _prepare(args)
    model = reasoner.naive_fixpoint_bounded(program, database, horizon)
    _emit(
        args,
        lambda: "\n".join(f"{atom}@{ivs}" for atom, ivs in model.items()) or "(empty)",
        lambda: {"facts": model.rows()},
    )
    return EXIT_OK


def cmd_check(args) -> int:
    horizon = None if args.horizon is None else _horizon(args.horizon)
    program, database = _prepare(args)
    pm = reasoner.reason(program, database, window_cap=args.window_cap)
    if horizon is None:
        horizon = reasoner.check_horizon(pm, database)
    # the oracle first: its step cap bounds the work, and the unroll has
    # no cap of its own
    oracle = reasoner.naive_fixpoint_bounded(program, database, horizon)
    unrolled = pm.unroll(horizon)

    differences: list[str] = []
    for atom in sorted(set(unrolled.atoms()) | set(oracle.atoms()), key=str):
        left, right = unrolled.get(atom), oracle.get(atom)
        if left != right:
            differences.append(f"{atom}: reason={left} oracle={right}")
    _emit(
        args,
        lambda: (
            f"checked through {horizon}: no differences"
            if not differences
            else "\n".join(["differences:"] + [f"  {d}" for d in differences])
        ),
        lambda: {"horizon": str(horizon), "differences": differences},
    )
    return EXIT_OK if not differences else EXIT_FALSE


# each command's parser by name, filled by build_parser
COMMANDS: dict[str, argparse.ArgumentParser] = {}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves
    it unchanged, and building it costs far more than parsing. Each
    command's parser goes into ``COMMANDS`` as it is added."""
    parser = argparse.ArgumentParser(
        prog="chronolog",
        description="DatalogMTL reasoning over finite model representations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def positive_int(text: str) -> int:
        value = int(text)
        if value <= 0:
            raise argparse.ArgumentTypeError("cap must be positive")
        return value

    def common(p, database_required: bool):
        p.add_argument("--program", required=True, help="program file")
        p.add_argument(
            "--database",
            required=database_required,
            default=None,
            help="database file of facts",
        )
        p.add_argument("--format", choices=("human", "json"), default="human")

    def reasoning(p):
        common(p, database_required=True)
        p.add_argument(
            "--window-cap", type=positive_int, default=reasoner.DEFAULT_WINDOW_CAP,
            help="most chunks a group derives before its state repeats",
        )
        # not an option: reason enumerates no cycles, and the benchmark's
        # layer tracer reads the default
        p.set_defaults(cycle_cap=reasoner.DEFAULT_CYCLE_CAP)

    def command(name: str, summary: str) -> argparse.ArgumentParser:
        COMMANDS[name] = sub.add_parser(name, help=summary)
        return COMMANDS[name]

    p = command("classify", "fragment flags, finite nodes, rule classes")
    common(p, database_required=False)
    p.add_argument(
        "--cycle-cap", type=positive_int, default=reasoner.DEFAULT_CYCLE_CAP,
        help="most simple cycles classify enumerates",
    )
    p.set_defaults(func=cmd_classify)

    p = command("reason", "compute the periodic representation")
    reasoning(p)
    p.set_defaults(func=cmd_reason)

    p = command("query", "fact entailment against the representation")
    reasoning(p)
    p.add_argument("--query", required=True, help="fact, e.g. 'A(c)@[1,2]'")
    p.set_defaults(func=cmd_query)

    p = command("oracle", "bounded naive fixpoint (ground truth)")
    common(p, database_required=True)
    p.add_argument("--horizon", required=True, help="clip derivations to (-inf, horizon]")
    p.set_defaults(func=cmd_oracle)

    p = command("check", "diff unrolled reason output against the oracle")
    reasoning(p)
    p.add_argument(
        "--horizon", default=None,
        help="defaults to max(last database endpoint, representation horizon) + 3 periods",
    )
    p.set_defaults(func=cmd_check)

    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, read by the named command's
    parser alone when ``argv`` names one."""
    parser = build_parser()
    command = COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RecursionError:
        print("error: input is nested too deeply to process", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError:
        print(f"error: {args.command}: out of memory", file=sys.stderr)
        return EXIT_CAP
    except Exception as exc:
        # the parser reports an input number past Python's limit for
        # integer string conversion (exit 2), so only an answer's number,
        # printed, can reach it here
        if isinstance(exc, ValueError) and "integer string conversion" in str(exc):
            print(
                f"error: {args.command}: the answer has a number of more than "
                f"{sys.get_int_max_str_digits()} digits, Python's limit for "
                "integer string conversion",
                file=sys.stderr,
            )
            return EXIT_CAP
        import traceback

        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
