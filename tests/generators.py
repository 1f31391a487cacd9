"""Random program generators shared by the test modules.

Each takes a ``random.Random`` and returns ``(program text, database
text)``; the same seed gives the same draws. ``_mutate`` breaks a text
at random places, for the fuzz tests and ``tools/same_answers.py``.
"""

import random


def _random_fp_program(rng: random.Random) -> tuple[str, str]:
    preds = [f"P{i}" for i in range(rng.randint(1, 5))]
    lines = []
    for _ in range(rng.randint(1, 6)):
        head = rng.choice(preds)
        kind = rng.choice(["horn", "horn", "diamond", "diamond", "box"])
        if kind == "horn":
            body = rng.sample(preds, k=min(len(preds), rng.randint(1, 2)))
            lines.append(f"{', '.join(body)} -> {head} .")
        else:
            a = rng.randint(0, 12)
            b = rng.randint(a, 12)
            op = "diamondminus" if kind == "diamond" else "boxminus"
            lines.append(f"{op}[{a},{b}] {rng.choice(preds)} -> {head} .")
    facts = []
    for _ in range(rng.randint(1, 4)):
        lo = rng.randint(0, 12)
        hi = rng.randint(lo, 12)
        facts.append(f"{rng.choice(preds)}@[{lo},{hi}].")
    return "\n".join(lines), "\n".join(facts)


def _random_linear_diamond(rng: random.Random) -> tuple[str, str]:
    n = rng.randint(2, 4)
    preds = [f"Q{i}" for i in range(n)]
    lines = []
    cycle = rng.sample(preds, k=rng.randint(1, n))
    for i, pred in enumerate(cycle):
        nxt = cycle[(i + 1) % len(cycle)]
        a = rng.randint(0, 6)
        b = rng.randint(a + 1, 8)  # t1 < t2 keeps every cycle weight positive
        lines.append(f"diamondminus[{a},{b}] {pred} -> {nxt} .")
    edbs = [f"E{i}" for i in range(rng.randint(1, 2))]
    for e in edbs:
        target = rng.choice(preds)
        if rng.random() < 0.5:
            a = rng.randint(0, 6)
            b = rng.randint(a + 1, 8)
            lines.append(f"diamondminus[{a},{b}] {e} -> {target} .")
        else:
            lines.append(f"{e} -> {target} .")
    if rng.random() < 0.5:
        lines.append(f"{rng.choice(cycle)}, {rng.choice(edbs)} -> Out .")
    facts = []
    for pred in edbs + rng.sample(cycle, k=rng.randint(0, len(cycle))):
        lo = rng.randint(0, 10)
        hi = rng.randint(lo, 12)
        facts.append(f"{pred}@[{lo},{hi}].")
    return "\n".join(lines), "\n".join(facts) or f"{edbs[0]}@[0,1]."


def _random_nested_program(rng, rich=False):
    """Rules over ``N0``-``N2`` whose body literals nest diamondminus and
    boxminus up to depth 2, with closed integer ranges. ``rich`` nests up
    to depth 3 and also draws ranges with open ends and ``[a,inf)``; the
    operators stay past ones, so ``reason`` takes the normal form."""
    preds = ["N0", "N1", "N2"]

    def rho():
        a = rng.randint(0, 6)
        kind = rng.random() if rich else 0.0
        if kind < 0.5:
            return f"[{a},{rng.randint(a, 8)}]"
        if kind < 0.7:
            return f"[{a},inf)"
        return f"{rng.choice('[(')}{a},{rng.randint(a + 1, 8)}{rng.choice('])')}"

    def literal(depth):
        if depth == 0 or rng.random() < 0.35:
            return rng.choice(preds)
        rho_text = rho()  # before the operator, so the default draws keep their order
        op = rng.choice(["diamondminus", "diamondminus", "boxminus"])
        return f"{op}{rho_text} {literal(depth - 1)}"

    lines = []
    for _ in range(rng.randint(1, 4)):
        head = rng.choice(preds)
        body = ", ".join(
            literal(rng.randint(1, 3 if rich else 2)) for _ in range(rng.randint(1, 2))
        )
        lines.append(f"{body} -> {head} .")
    facts = []
    for _ in range(rng.randint(1, 3)):
        lo = rng.randint(0, 10)
        hi = rng.randint(lo, 12)
        facts.append(f"{rng.choice(preds)}@[{lo},{hi}].")
    return "\n".join(lines), "\n".join(facts)


def _random_ray_program(rng):
    """A program whose ranges may be unbounded above (``[a,inf)``) or
    fractional, with nested body literals, cycles of fixed shift, and a
    database that may hold rays ``@[c,inf)``."""
    preds = [f"R{i}" for i in range(rng.randint(1, 5))]
    ray_share = rng.choice((0.1, 0.2, 0.35))

    def rho():
        den = rng.choice((1, 1, 1, 2, 3))
        a = rng.randint(0, 10)
        if rng.random() < ray_share:
            return f"[{a}/{den},inf)"
        b = a if rng.random() < 0.5 else rng.randint(a, 12)
        return f"[{a}/{den},{b}/{den}]"

    def literal(depth):
        if depth == 0 or rng.random() < 0.25:
            return rng.choice(preds)
        op = rng.choice(["diamondminus", "diamondminus", "boxminus"])
        return f"{op}{rho()} {literal(depth - 1)}"

    lines = []
    for _ in range(rng.randint(1, 6)):
        body = ", ".join(literal(rng.randint(0, 2)) for _ in range(rng.randint(1, 2)))
        lines.append(f"{body} -> {rng.choice(preds)} .")
    for _ in range(rng.choice((0, 1, 2, 2))):
        k = rng.randint(2, 7)
        lines.append(f"diamondminus[{k},{k}] {rng.choice(preds)} -> {rng.choice(preds)} .")
    rng.shuffle(lines)
    facts = []
    for _ in range(rng.randint(1, 4)):
        lo = rng.randint(0, 14)
        hi = "inf)" if rng.random() < 0.25 else f"{rng.randint(lo, 16)}]"
        facts.append(f"{rng.choice(preds)}@[{lo},{hi}.")
    return "\n".join(lines), "\n".join(facts)


def _random_acyclic_program(rng):
    """One to three cycles ``C*`` (shift sums whole or fractional) and one
    to four atoms ``A*`` that no cycle passes through, each read off the
    cycles and the ``A*`` before it through ``diamondminus[a,inf)``,
    ``boxminus[a,inf)``, bounded diamonds and boxes, or a Horn join; the
    database holds points and intervals of the cycles, and facts and rays
    of the ``A*``."""
    lines, facts = [], []
    readable = [f"C{i}" for i in range(rng.randint(1, 3))]
    for cycle in readable:
        for _ in range(rng.choice((1, 1, 2))):
            k = rng.choice(("1", "2", "3", "5", "1/2", "3/2"))
            lines.append(f"diamondminus[{k},{k}] {cycle} -> {cycle} .")
        for _ in range(rng.randint(1, 2)):
            lo = rng.randint(0, 14)
            facts.append(f"{cycle}@[{lo},{lo + rng.choice((0, 0, 1))}].")
    for j in range(rng.randint(1, 4)):
        head = f"A{j}"
        for _ in range(rng.choice((1, 1, 2))):
            source = rng.choice(readable)
            a = rng.randint(0, 6)
            kind = rng.choice(("dinf", "binf", "diamond", "box", "join"))
            if kind == "dinf":
                body = f"diamondminus[{a},inf) {source}"
            elif kind == "binf":
                body = f"boxminus[{a},inf) {source}"
            elif kind == "join":
                body = f"{source}, {rng.choice(readable)}"
            else:
                op = "diamondminus" if kind == "diamond" else "boxminus"
                body = f"{op}[{a},{rng.randint(a, a + 6)}] {source}"
            lines.append(f"{body} -> {head} .")
        if rng.random() < 0.4:
            lo = rng.randint(0, 20)
            hi = "inf)" if rng.random() < 0.4 else f"{rng.randint(lo, 24)}]"
            facts.append(f"{head}@[{lo},{hi}.")
        readable.append(head)
    rng.shuffle(lines)
    return "\n".join(lines), "\n".join(facts)


def _random_nonground_program(rng, rich=False):
    """Horn joins and diamondminus/boxminus rules over unary and binary
    predicates, with a database over 2-4 constants that seeds only some
    predicates. ``rich`` also draws ``since``/``until`` rules, whose right
    operand may be ``top``, and ``top -> P(c)`` rules. Every operator
    range is closed with integer ends."""
    arity = {f"P{i}": rng.randint(1, 2) for i in range(rng.randint(2, 5))}
    preds = sorted(arity)
    consts = [f"c{i}" for i in range(rng.randint(2, 4))]

    def atom(pred, pool):
        terms = [rng.choice(pool) for _ in range(arity[pred])]
        return f"{pred}({','.join(terms)})", {t for t in terms if t[0].isupper()}

    lines = []
    for _ in range(rng.randint(1, 5)):
        head = rng.choice(preds)
        kind = rng.random() if rich else 1.0
        if kind < 0.15:
            text, _ = atom(head, consts)
            lines.append(f"top -> {text} .")
            continue
        if kind < 0.5:
            lo = rng.randint(0, 3)
            op = rng.choice(["since", "until"])
            left, bound = atom(rng.choice(preds), ["X", "Y", rng.choice(consts)])
            right, names = ("top", set()) if rng.random() < 0.25 else atom(
                rng.choice(preds), ["Y", "Z", rng.choice(consts)]
            )
            bound |= names
            body = f"{left} {op}[{lo},{rng.randint(lo, 4)}] {right}"
        elif rng.random() < 0.5:
            body, bound = [], set()
            for pred in rng.sample(preds, k=rng.randint(1, min(3, len(preds)))):
                text, names = atom(pred, ["X", "Y", "Z", rng.choice(consts)])
                body.append(text)
                bound |= names
            body = ", ".join(body)
        else:
            lo = rng.randint(0, 6)
            op = rng.choice(["diamondminus", "boxminus"])
            inner, bound = atom(rng.choice(preds), ["X", "Y", rng.choice(consts)])
            body = f"{op}[{lo},{rng.randint(lo, 6)}] {inner}"
        text, _ = atom(head, sorted(bound) + [rng.choice(consts)])
        lines.append(f"{body} -> {text} .")
    facts = []
    seeded = rng.sample(preds, k=rng.randint(1, len(preds) - 1))
    for _ in range(rng.randint(1, 5)):
        text, _ = atom(rng.choice(seeded), consts)
        lo = rng.randint(0, 8)
        facts.append(f"{text}@[{lo},{rng.randint(lo, 8)}].")
    return "\n".join(lines), "\n".join(facts)


_FUZZ_PIECES = (
    "diamondminus", "boxminus", "diamondplus", "boxplus", "since", "until",
    "top", "bottom", "inf", "-inf", "->", "@", "[", "]", "(", ")", ",", ".",
    "%", "'", "/", "-", "0", "1", "7", "d", "X", "c", " ", "\n",
)


def _mutate(rng, text: str) -> str:
    """``text`` with one to three characters or keywords inserted,
    replaced or deleted at random places."""
    for _ in range(rng.randint(1, 3)):
        k = rng.randrange(len(text) + 1)
        piece = rng.choice(_FUZZ_PIECES)
        edit = rng.randrange(3)
        if edit == 0:
            text = text[:k] + piece + text[k:]
        elif edit == 1:
            text = text[:k] + piece + text[k + len(piece):]
        else:
            text = text[:k] + text[k + rng.randint(1, 3):]
    return text
