"""Same answers: chronolog at a base revision against the working tree.

    python tools/same_answers.py --base REV [--count N]

Exports ``src/`` of ``REV`` with ``git archive`` into a temporary
directory (removed afterwards; no network is needed) and draws the inputs
once, from the working tree:

* ``N`` programs (default 1500) of each generator in
  ``tests/generators.py``, seed 7, each with a few drawn entailment
  queries. The rows of a program are ``PeriodicModel.to_dict()``,
  ``check_horizon``, the oracle's rows through that horizon, the verdict
  of each query and the oracle's rows through the same horizon on the
  program as written (grounded, without the normal form, so with its
  nested literals and operator joins), or, from the first step that
  raises, the exception's type and text.
* ``cli.main`` on the fixture pairs in ``tests/fixtures``: ``classify``
  with and without the database, ``reason``, ``check``, ``oracle
  --horizon 40`` and drawn queries, in human and JSON format. The rows
  of a run are its stdout, its stderr and its exit code.

Each side answers in its own process with ``PYTHONHASHSEED=0``
(``--answer SRC INPUTS``, one JSON line per input). The script prints the
inputs and rows compared and the first difference, and exits 1 on any
difference. The comparison is exact: a change of representation that
keeps the model also counts as a difference.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from collections.abc import Callable, Iterable
from itertools import zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
GENERATORS = (
    "_random_fp_program",
    "_random_linear_diamond",
    "_random_nested_program",
    "_random_nested_program(rich)",
    "_random_ray_program",
    "_random_acyclic_program",
    "_random_nonground_program",
    "_random_nonground_program(rich)",
)
SEED = 7

# an input: (name, "program", [program text, database text, queries])
# or (name, "cli", argv)
Input = tuple


def _queries(rng: random.Random, atoms: list[str]) -> list[str]:
    """Three queries per atom: a point, a closed interval, and a ray or an
    interval far out."""
    out = []
    for atom in atoms:
        a = rng.randint(0, 40)
        b = a + rng.randint(0, 9)
        far = rng.choice((f"[{a},inf)", f"({10**6 + a},{10**6 + b + 1}]"))
        out += [f"{atom}@[{a},{a}]", f"{atom}@[{a},{b}]", f"{atom}@{far}"]
    return out


def _atoms(text: str, db_text: str) -> list[str]:
    """The ground atoms of a program and its database, as ``ground``
    makes them, without the normal form's ``_aux`` atoms; none for an
    input the working tree rejects."""
    from chronolog import syntax
    from chronolog.errors import ChronologError

    try:
        database = syntax.parse_database(db_text)
        program = syntax.ground(syntax.to_normal_form(syntax.parse_program(text)), database)
    except ChronologError:
        return []
    atoms = {str(atom) for atom, _ in database.items()}
    for rule in program.rules:
        atoms.update(str(atom) for atom in (rule.head, *rule.body_atoms))
    return sorted(a for a in atoms if not a.startswith(syntax.AUX_PREFIX))


def _fixture_pairs() -> list[tuple[Path, Path]]:
    """Each fixture database with its program (``box_loop_long.db`` and
    ``box_loop_short.db`` share ``box_loop.dmtl``)."""
    pairs = []
    for database in sorted(FIXTURES.glob("*.db")):
        program = database.with_suffix(".dmtl")
        if not program.exists():
            program = FIXTURES / (database.stem.rsplit("_", 1)[0] + ".dmtl")
        pairs.append((program, database))
    return pairs


def draw_inputs(count: int) -> list[Input]:
    """``count`` programs of each generator and the fixture runs, drawn
    with the working tree's generators and the ``chronolog`` that is
    imported."""
    spec = importlib.util.spec_from_file_location("generators", ROOT / "tests" / "generators.py")
    generators = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generators)
    inputs: list[Input] = []
    for name in GENERATORS:
        rich = name.endswith("(rich)")
        generate = getattr(generators, name.removesuffix("(rich)"))
        rng, queries = random.Random(SEED), random.Random(SEED)
        for k in range(count):
            text, db_text = generate(rng, rich=True) if rich else generate(rng)
            drawn = _queries(queries, _atoms(text, db_text))
            inputs.append((f"{name}#{k}", "program", [text, db_text, drawn]))
    rng = random.Random(SEED)
    runs: list[list[str]] = []
    for program, database in _fixture_pairs():
        files = ["--program", str(program), "--database", str(database)]
        runs += [
            ["classify", "--program", str(program)],
            ["classify", *files],
            ["reason", *files],
            ["check", *files],
            ["oracle", *files, "--horizon", "40"],
        ]
        atoms = _atoms(program.read_text(), database.read_text())
        runs += [["query", *files, "--query", q] for q in _queries(rng, atoms)]
    # two fixture pairs share a program, and a query may be drawn twice
    for run in dict.fromkeys(map(tuple, runs)):
        for fmt in ("human", "json"):
            argv = [*run, "--format", fmt]
            inputs.append((" ".join(argv).replace(f"{FIXTURES}/", ""), "cli", argv))
    return inputs


def answer(item: Input) -> list[str]:
    """The rows of one input, with the ``chronolog`` that is imported."""
    _, kind, payload = item
    if kind == "cli":
        from chronolog import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(payload)
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code
        return [out.getvalue(), err.getvalue(), str(code)]

    from chronolog import reasoner, syntax

    text, db_text, queries = payload
    rows: list[str] = []
    try:
        database = syntax.parse_database(db_text)
        program = syntax.ground(syntax.to_normal_form(syntax.parse_program(text)), database)
        pm = reasoner.reason(program, database)
        rows.append(json.dumps(pm.to_dict(), sort_keys=True))
        horizon = reasoner.check_horizon(pm, database)
        rows.append(str(horizon))
        oracle = reasoner.naive_fixpoint_bounded(program, database, horizon)
        rows += [json.dumps(row, sort_keys=True) for row in oracle.rows()]
        rows += [f"{q} {pm.entails(syntax.parse_fact(q))}" for q in queries]
        # the program as written: nested literals and operator joins
        original = syntax.ground(syntax.parse_program(text), database)
        oracle = reasoner.naive_fixpoint_bounded(original, database, horizon)
        rows += [json.dumps(row, sort_keys=True) for row in oracle.rows()]
    except Exception as exc:  # the exception is the answer, compared like any row
        rows.append(f"{type(exc).__name__}: {exc}")
    return rows


def compare(
    inputs: Iterable[Input],
    base: Callable[[Input], list[str]],
    change: Callable[[Input], list[str]],
) -> tuple[int, int, int, str | None]:
    """Answer every input with both sides and compare row by row. Returns
    the inputs and the rows compared, the inputs that differ, and the
    first difference (None when there is none)."""
    seen = rows = differ = 0
    first = None
    for item in inputs:
        seen += 1
        for i, (old, new) in enumerate(zip_longest(base(item), change(item))):
            if old != new:
                differ += 1
                if first is None:
                    first = f"{item[0]}: row {i}: base {old!r}, change {new!r}"
                break
            rows += 1
    return seen, rows, differ, first


def _side(src: Path, inputs: Path, out: Path) -> subprocess.Popen:
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    with out.open("w") as handle:
        return subprocess.Popen(
            [sys.executable, __file__, "--answer", str(src), str(inputs)],
            env=env,
            stdout=handle,
        )


def _load(path: Path) -> dict[str, list[str]]:
    with path.open() as handle:
        return dict(json.loads(line) for line in handle)


def run(base: str, count: int) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    inputs = draw_inputs(count)
    tmp = Path(tempfile.mkdtemp(prefix="same_answers_"))
    try:
        tree = subprocess.run(
            ["git", "-C", str(ROOT), "archive", base, "src"],
            check=True,
            stdout=subprocess.PIPE,
        ).stdout
        subprocess.run(["tar", "-x", "-C", str(tmp)], input=tree, check=True)
        (tmp / "inputs.json").write_text(json.dumps(inputs))
        sides = {
            "base": _side(tmp / "src", tmp / "inputs.json", tmp / "base.jsonl"),
            "change": _side(ROOT / "src", tmp / "inputs.json", tmp / "change.jsonl"),
        }
        failed = {name: code for name, p in sides.items() if (code := p.wait())}
        if failed:
            print(f"a side exited non-zero: {failed}", file=sys.stderr)
            return 1
        old, new = _load(tmp / "base.jsonl"), _load(tmp / "change.jsonl")
    finally:
        shutil.rmtree(tmp)
    seen, rows, differ, first = compare(
        inputs, lambda item: old[item[0]], lambda item: new[item[0]]
    )
    programs = sum(kind == "program" for _, kind, _ in inputs)
    print(
        f"{base} against the working tree: {seen} inputs ({programs} programs, "
        f"{seen - programs} CLI runs), {rows} rows compared, {differ} differ"
    )
    if first is not None:
        print(f"first difference: {first}")
    return 1 if differ else 0


def _answer_all(src: Path, inputs: Path) -> None:
    """Answer every input with the ``chronolog`` under ``src``, one JSON
    line ``[name, rows]`` per input on stdout."""
    sys.path.insert(0, str(src))
    import chronolog

    if not Path(chronolog.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"imported {chronolog.__file__}, not the one under {src}")
    with inputs.open() as handle:
        items = json.load(handle)
    for item in items:
        print(json.dumps([item[0], answer(item)]))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="the revision to compare the working tree with")
    parser.add_argument("--count", type=int, default=1500, help="programs per generator")
    parser.add_argument(
        "--answer", nargs=2, metavar=("SRC", "INPUTS"),
        help="answer the inputs in INPUTS with the chronolog under SRC (one side)",
    )
    args = parser.parse_args(argv)
    if args.answer:
        _answer_all(*map(Path, args.answer))
        return 0
    if args.base is None:
        parser.error("--base is required")
    return run(args.base, args.count)


if __name__ == "__main__":
    sys.exit(main())
