"""Seeded inputs for the benchmark's four workloads.

Everything here is made from the workload seed alone, and the program
under test only ever sees the generated files. Each builder returns the
files to write, one untimed warm-up op and the ops of one round; what an
op's independent check needs travels with it in ``Op.expect``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import networkx as nx


@dataclass(frozen=True)
class Op:
    """One timed operation: ``chronolog`` commands run back to back.

    Every workload runs one command per op except ``frontend``, whose op
    takes one program through ``classify`` and then ``reason``. File
    arguments name keys of ``Workload.files``.
    """

    commands: tuple[tuple[str, ...], ...]
    expect: object


@dataclass(frozen=True)
class Workload:
    name: str
    files: dict[str, str]
    warmup: tuple[Op, ...]  # untimed: one small op of each kind in ``ops``
    ops: tuple[Op, ...]


def _json(*argv: str) -> tuple[str, ...]:
    return argv + ("--format", "json")


# ---------------------------------------------------------------------------
# Literals of the small programs: an atom name, or (op, a, b, inner)
# ---------------------------------------------------------------------------

def render_literal(lit) -> str:
    if isinstance(lit, str):
        return lit
    op, a, b, inner = lit
    return f"{op}[{a},{b}] {render_literal(inner)}"


def render_program(rules) -> str:
    return "".join(
        f"{', '.join(render_literal(l) for l in body)} -> {head} .\n"
        for body, head in rules
    )


def render_facts(facts) -> str:
    return "".join(f"{atom}@[{lo},{hi}].\n" for atom, lo, hi in facts)


# ---------------------------------------------------------------------------
# chain: k SCC groups, P0 fed by point facts
# ---------------------------------------------------------------------------

def chain(seed: int, quick: bool = False, groups: int = 21) -> Workload:
    """``diamondminus[5,5] Pi -> Pi`` per group, ``diamondminus[1,1] Pi -> Pi+1``
    between groups, and point facts on ``P0``; so ``Pi`` holds exactly at
    ``j + i + 5m`` for every fact time ``j`` and ``m >= 0``."""
    rng = random.Random(seed)
    files: dict[str, str] = {}

    def op(name: str, k: int, n_facts: int, span: int) -> Op:
        rules = [f"diamondminus[5,5] P{i} -> P{i} ." for i in range(k)]
        rules += [f"diamondminus[1,1] P{i} -> P{i + 1} ." for i in range(k - 1)]
        points = sorted(rng.sample(range(span), n_facts))
        files[f"{name}.dmtl"] = "\n".join(rules) + "\n"
        files[f"{name}.db"] = "".join(f"P0@[{j},{j}].\n" for j in points)
        argv = _json("reason", "--program", f"{name}.dmtl", "--database", f"{name}.db")
        return Op((argv,), ("chain", k, tuple(points)))

    warmup = op("chain-warmup", 4, 10, 20)
    ops = (op("chain", *((4, 10, 20) if quick else (groups, 100, 200))),)
    return Workload("chain", files, (warmup,), ops)


# ---------------------------------------------------------------------------
# far_query: a weekly calendar queried far beyond its horizon
# ---------------------------------------------------------------------------

DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
WEEK_PREDICATES = {"Workday": (0, 5), "Weekend": (5, 7)}  # [lo, hi) days of week

WEEKLY_PROGRAM = (
    "diamondminus[7,7] Mon -> Mon .\n"
    + "".join(f"diamondminus[1,1] {a} -> {b} .\n" for a, b in zip(DAYS, DAYS[1:]))
    + "".join(f"{d} -> Workday .\n" for d in DAYS[:5])
    + "".join(f"{d} -> Weekend .\n" for d in DAYS[5:])
)
WEEKLY_DATABASE = "Mon@[0,1).\n"  # day 0 is a Monday; days are half-open


def far_query(seed: int, quick: bool = False, base: int = 14000) -> Workload:
    """Point and interval queries drawn from a band ``[base, base + 70)``
    far beyond the representation's horizon. Half the queries ask about
    ``Workday`` and half about ``Weekend``, so about half are entailed."""
    base, per_round = (700, 4) if quick else (base, 16)
    rng = random.Random(seed)
    files = {"week.dmtl": WEEKLY_PROGRAM, "week.db": WEEKLY_DATABASE}

    def op() -> Op:
        pred = rng.choice(("Workday", "Weekend"))
        start = base + Fraction(rng.randrange(140), 2)
        length = Fraction(rng.choice((0, 0, 1, 2, 3)), 2)
        query = f"{pred}@[{_decimal(start)},{_decimal(start + length)}]"
        argv = _json("query", "--program", "week.dmtl", "--database", "week.db",
                     "--query", query)
        return Op((argv,), ("week", pred, start, start + length))

    return Workload("far_query", files, (op(),), tuple(op() for _ in range(per_round)))


def _decimal(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{float(x):.1f}"


# ---------------------------------------------------------------------------
# corpus_check: small random forward-propagating programs, plus one
# verbatim program whose lcm period is 31977
# ---------------------------------------------------------------------------

# Program 38 of the nested-program generator in the test suite (seed 99).
# Its cycle shift sums are 17, 9, 19 and 11, so the pattern length is
# 31977, although its model is constant from t = 88.
CASE_38_RULES = (
    ([("diamondminus", 4, 8, "N1")], "N0"),
    ([("boxminus", 5, 6, "N1")], "N0"),
    ([("diamondminus", 6, 6, "N0")], "N2"),
    ([("diamondminus", 5, 5, "N0"), ("boxminus", 4, 7, "N2")], "N1"),
)
CASE_38_FACTS = (("N1", 3, 12),)

CORPUS_PREDICATES = ("N0", "N1", "N2")
PERIOD_CAP = 24  # largest lcm period a random corpus program may have


def _random_literal(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.35:
        return rng.choice(CORPUS_PREDICATES)
    a = rng.randint(0, 6)
    b = rng.randint(a, 8)
    op = rng.choice(("diamondminus", "diamondminus", "boxminus"))
    return (op, a, b, _random_literal(rng, depth - 1))


def _random_program(rng: random.Random, nested: bool):
    rules = []
    for _ in range(rng.randint(1, 4)):
        head = rng.choice(CORPUS_PREDICATES)
        if nested:
            body = [_random_literal(rng, rng.randint(1, 2))
                    for _ in range(rng.randint(1, 2))]
        elif rng.random() < 0.4:
            body = rng.sample(CORPUS_PREDICATES, rng.randint(1, 2))
        else:
            body = [_random_literal(rng, 1)]
        rules.append((body, head))
    facts = []
    for _ in range(rng.randint(1, 3)):
        lo = rng.randint(0, 10)
        facts.append((rng.choice(CORPUS_PREDICATES), lo, rng.randint(lo, 12)))
    return tuple(rules), tuple(facts)


def normal_form_edges(rules) -> list[tuple[str, str, int, int]]:
    """Dependency edges ``(source, target, shift, reach)`` of the temporal
    normal form of ``rules``.

    Mirrors the documented normal form: every nested literal, and every
    temporal literal sharing a body with other literals, is defined by a
    fresh predicate (one per distinct literal). A diamondminus edge
    shifts by its range's lower end and reaches its upper end; a
    boxminus edge shifts and reaches by its upper end.
    """
    edges: list[tuple[str, str, int, int]] = []
    fresh: dict[str, str] = {}

    def temporal_edge(lit, target: str) -> None:
        op, a, b, inner = lit
        edges.append((atomize(inner), target, a if op == "diamondminus" else b, b))

    def atomize(lit) -> str:
        if isinstance(lit, str):
            return lit
        key = render_literal(lit)
        if key not in fresh:
            fresh[key] = f"_fresh{len(fresh)}"
            temporal_edge(lit, fresh[key])
        return fresh[key]

    for body, head in rules:
        if len(body) == 1 and not isinstance(body[0], str):
            temporal_edge(body[0], head)
        else:
            edges.extend((atomize(lit), head, 0, 0) for lit in body)
    return edges


def lcm_period(edges) -> int:
    """lcm of the positive shift sums of all elementary cycles (1 if none)."""
    graph = nx.DiGraph()
    for idx, (source, target, _, _) in enumerate(edges):
        graph.add_edge(("p", source), ("e", idx))
        graph.add_edge(("e", idx), ("p", target))
    period = 1
    for cycle in nx.simple_cycles(graph):
        total = sum(edges[node[1]][2] for node in cycle if node[0] == "e")
        if total > 0:
            period = math.lcm(period, total)
    return period


def reach_beyond_period(edges, period: int) -> bool:
    """Does an edge inside a strongly connected group reach further than
    ``period``? Only a stretching diamondminus can: any other edge
    reaches as far as it shifts, and an in-group edge shifts by at most
    the shift sum of a cycle through it, which is 0 or divides ``period``."""
    graph = nx.DiGraph((s, t) for s, t, _, _ in edges)
    group = {}
    for i, members in enumerate(nx.strongly_connected_components(graph)):
        for node in members:
            group[node] = i
    return any(group[s] == group[t] and reach > period for s, t, _, reach in edges)


def corpus_program(rng: random.Random, nested: bool):
    """Draw programs until one has a period of at most ``PERIOD_CAP`` and
    no in-group edge that reaches further than that period (see README:
    ``reason`` assumes there is none, and is unsound on some of them)."""
    while True:
        rules, facts = _random_program(rng, nested)
        edges = normal_form_edges(rules)
        period = lcm_period(edges)
        if period <= PERIOD_CAP and not reach_beyond_period(edges, period):
            return rules, facts


def _check_op(files: dict[str, str], name: str, rules, facts) -> Op:
    files[f"{name}.dmtl"] = render_program(rules)
    files[f"{name}.db"] = render_facts(facts)
    argv = _json("check", "--program", f"{name}.dmtl", "--database", f"{name}.db")
    return Op((argv,), ("corpus", name, rules, facts))


def corpus_check(seed: int, quick: bool = False) -> Workload:
    """``check`` on a seeded corpus of small programs, half flat and half
    with nested bodies."""
    rng = random.Random(seed)
    files: dict[str, str] = {}
    warmup = _check_op(files, "corpus-warmup", *corpus_program(rng, nested=True))
    ops = tuple(
        _check_op(files, f"corpus-p{i}", *corpus_program(rng, nested=i % 2 == 1))
        for i in range(6 if quick else 300)
    )
    return Workload("corpus_check", files, (warmup,), ops)


def case_38() -> Workload:
    """``check`` on ``CASE_38``; the corpus's warm-up covers it."""
    files: dict[str, str] = {}
    op = _check_op(files, "case38", CASE_38_RULES, CASE_38_FACTS)
    return Workload("case38", files, (), (op,))


# ---------------------------------------------------------------------------
# frontend: a deep nested literal on a cycle plus a join over n constants
# ---------------------------------------------------------------------------

def frontend(seed: int, quick: bool = False) -> Workload:
    """A nested literal of depth d on the cycle ``C`` (shift sum d) and the
    join ``P(X), Q(X,Y) -> R(Y)`` over n constants, which grounds to n*n
    rules. ``C`` holds exactly at ``c + d*m`` for its fact times ``c``;
    ``R(y)`` is the union over x of ``P(x)`` intersected with ``Q(x,y)``."""
    rng = random.Random(seed)
    files: dict[str, str] = {}

    def interval():
        lo = rng.randint(0, 40)
        return lo, lo + rng.randint(0, 12)

    def op(name: str, depth: int, n: int) -> Op:
        nested = "C"
        for _ in range(depth):
            nested = f"diamondminus[1,1] {nested}"
        c_points = sorted(rng.sample(range(depth), 3))
        p_facts = [(f"c{i}",) + interval() for i in range(n)]
        q_facts = [(f"c{rng.randrange(n)}", f"c{rng.randrange(n)}") + interval()
                   for _ in range(n)]
        files[f"{name}.dmtl"] = f"{nested} -> C .\nP(X), Q(X,Y) -> R(Y) .\n"
        files[f"{name}.db"] = (
            "".join(f"C@[{c},{c}].\n" for c in c_points)
            + "".join(f"P({x})@[{lo},{hi}].\n" for x, lo, hi in p_facts)
            + "".join(f"Q({x},{y})@[{lo},{hi}].\n" for x, y, lo, hi in q_facts)
        )
        files_args = ("--program", f"{name}.dmtl", "--database", f"{name}.db")
        commands = (_json("classify", *files_args), _json("reason", *files_args))
        return Op(commands, ("frontend", depth, tuple(c_points), tuple(p_facts),
                             tuple(q_facts)))

    warmup = op("frontend-warmup", 5, 6)
    ops = (op("frontend", *((5, 6) if quick else (100, 100))),)
    return Workload("frontend", files, (warmup,), ops)


# ---------------------------------------------------------------------------
# The benchmark's workloads: two of the families above each
# ---------------------------------------------------------------------------

def _merge(name: str, small: Workload, *large: Workload) -> Workload:
    """One round of all families: the ``large`` families' few ops spread
    evenly among ``small``'s many, so that the short ops sample the
    whole round."""
    parts = (small,) + large
    files = {name: text for part in parts for name, text in part.files.items()}
    assert len(files) == sum(len(part.files) for part in parts)
    big = [op for part in large for op in part.ops]
    cuts = [len(small.ops) * i // (len(big) + 1) for i in range(len(big) + 2)]
    ops = list(small.ops[cuts[0]:cuts[1]])
    for i, op in enumerate(big, start=1):
        ops += [op, *small.ops[cuts[i]:cuts[i + 1]]]
    warmup = tuple(op for part in parts for op in part.warmup)
    return Workload(name, files, warmup, tuple(ops))


def chain_query(seed: int, quick: bool = False) -> Workload:
    """``chain`` (derivation) and ``far_query`` (entailment): the reasoner
    and the interval algebra, written and read."""
    return _merge("chain_query", far_query(seed, quick), chain(seed, quick))


def corpus_frontend(seed: int, quick: bool = False) -> Workload:
    """``corpus_check`` (with ``CASE_38``, which quick mode leaves out, as
    its ~15 s ``check`` alone is no quick input) and ``frontend``: period,
    unroll and oracle, the fixed cost per program, and the front end."""
    large = (frontend(seed, quick),) if quick else (case_38(), frontend(seed, quick))
    return _merge("corpus_frontend", corpus_check(seed, quick), *large)


BUILDERS = {"chain_query": chain_query, "corpus_frontend": corpus_frontend}
