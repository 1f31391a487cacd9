"""Parsing, printing, normal form, and grounding."""

from fractions import Fraction as F
from itertools import product

import pytest

from chronolog.errors import ParseError
from chronolog.intervals import NEG_INF, POS_INF, Interval, parse_interval
from chronolog.reasoner import Model, check_horizon, naive_fixpoint_bounded, reason
from chronolog.syntax import (
    Atom,
    BoxMinus,
    Constant,
    DiamondMinus,
    Fact,
    Program,
    Rule,
    Since,
    Top,
    Until,
    Variable,
    _substitute,
    _tokenize,
    body_atoms,
    ground,
    head_atoms,
    is_forward_propagating,
    literal_variables,
    parse_database,
    parse_fact,
    parse_program,
    program_text,
    rule_form,
    to_normal_form,
)


def rho(text):
    return parse_interval(text)


class TestParseProgram:
    def test_box_self_loop(self):
        p = parse_program("boxminus[3,7] A -> A .")
        (rule,) = p.rules
        assert rule.body == (BoxMinus(rho("[3,7]"), Atom("A")),)
        assert rule.head == Atom("A")

    def test_horn_join_rule(self):
        p = parse_program("A(X),B(X) -> C(X) .")
        (rule,) = p.rules
        x = Variable("X")
        assert rule.body == (Atom("A", (x,)), Atom("B", (x,)))
        assert rule.head == Atom("C", (x,))

    def test_day_unit_durations(self):
        p = parse_program("diamondminus[7d,7d] Monday -> Monday .")
        (rule,) = p.rules
        assert rule.body[0].rho == Interval.closed(7, 7)

    def test_sub_day_units_are_day_fractions(self):
        p = parse_program("diamondminus[12h,36h] A -> B .")
        assert p.rules[0].body[0].rho == Interval.closed(F(1, 2), F(3, 2))

    def test_mixing_units_with_bare_numbers_rejected(self):
        with pytest.raises(ParseError):
            parse_program("diamondminus[1,2] A -> B .\ndiamondminus[7d,7d] B -> C .")

    def test_comments_and_whitespace(self):
        p = parse_program("% intro\nA -> B . % trailing\n\n% done\n")
        assert len(p.rules) == 1

    def test_tokens_carry_kind_unit_and_position(self):
        tokens = _tokenize("% note\n  diamondminus[12h,2] A -> B .")
        first, _, number, _, plain = tokens[:5]
        assert (first.kind, first.text, first.line, first.col) == ("IDENT", "diamondminus", 2, 3)
        assert (number.kind, number.text, number.unit) == ("NUMBER", "12", "h")
        assert (number.line, number.col) == (2, 16)
        assert (plain.kind, plain.text, plain.unit) == ("NUMBER", "2", None)
        assert [t.kind for t in tokens[5:]] == ["PUNCT", "IDENT", "ARROW", "IDENT", "PUNCT", "EOF"]

    def test_parse_error_position_after_a_comment(self):
        with pytest.raises(ParseError, match="^2:6:"):
            parse_program("% A -> B .\nA -> ; .")

    def test_quoted_constants(self):
        p = parse_program("Route('New York') -> Covered .")
        assert p.rules[0].body[0].terms == (Constant("New York"),)

    def test_since_binary_operator(self):
        p = parse_program("A since[1,2] B -> C .")
        assert isinstance(p.rules[0].body[0], Since)

    def test_head_diamond_rejected(self):
        with pytest.raises(ParseError):
            parse_program("A -> diamondminus[1,2] B .")

    def test_head_bottom_rejected(self):
        with pytest.raises(ParseError):
            parse_program("A -> bottom .")

    def test_negative_operator_range_rejected(self):
        with pytest.raises(ParseError):
            parse_program("diamondminus[-1,2] A -> B .")

    def test_unrestricted_head_variable_rejected(self):
        with pytest.raises(ParseError):
            parse_program("A(X) -> B(X,Y) .")

    def test_reserved_aux_prefix_rejected(self):
        with pytest.raises(ParseError):
            parse_program("_aux0 -> B .")

    def test_error_carries_location(self):
        with pytest.raises(ParseError) as err:
            parse_program("A -> B .\nC -> -> D .")
        assert err.value.line == 2

    def test_bodiless_ground_rule_becomes_axiom(self):
        p = parse_program("-> A(c) .")
        assert not p.rules
        (axiom,) = p.axioms
        assert axiom.atom == Atom("A", (Constant("c"),))
        assert (axiom.interval.lo, axiom.interval.hi) == (NEG_INF, POS_INF)


class TestParseDatabase:
    def test_facts(self):
        db = parse_database("A(c)@[1,2].\nB@(0,5].\n")
        assert db.get(Atom("A", (Constant("c"),))).covers_interval(rho("[1,2]"))
        assert db.get(Atom("B")).pieces == (rho("(0,5]"),)

    def test_same_atom_coalesces(self):
        db = parse_database("A@[0,7].\nA@[7,10].")
        assert db.get(Atom("A")).pieces == (rho("[0,10]"),)

    def test_non_ground_fact_rejected(self):
        with pytest.raises(ParseError):
            parse_database("A(X)@[1,2].")

    def test_ray_fact(self):
        db = parse_database("A@[3,inf).")
        assert db.get(Atom("A")).pieces == (rho("[3,inf)"),)

    def test_parse_single_fact(self):
        fact = parse_fact("A(c)@[100,101]")
        assert fact == Fact(Atom("A", (Constant("c"),)), rho("[100,101]"))


class TestRoundTrip:
    CORPUS = [
        "diamondminus[3,4] A -> B .\nboxminus[3,4] B -> A .",
        "A(X),B(X) -> C(X) .",
        "Edge(X,Y) -> Reach(X,Y) .",
        "diamondminus[1/2,3/2] P -> Q .",
        "A since[1,2] B -> C .\nA until(0,5] B -> C .",
        "diamondminus[0,inf) A -> B .",
        "boxplus[1,2] A -> B .\ndiamondplus[3,4] B -> C .",
        "-> Seed(c) .",
    ]

    @pytest.mark.parametrize("text", CORPUS)
    def test_parse_print_parse(self, text):
        once = parse_program(text)
        again = parse_program(program_text(once))
        assert once == again

    def test_nested_operand_parenthesized(self):
        p = parse_program("(A since[1,2] B) since[3,4] C -> D .")
        assert parse_program(program_text(p)) == p


class TestNormalForm:
    def test_nested_diamond_split(self):
        p = parse_program("diamondminus[1,2] diamondminus[3,4] A -> B .")
        n = to_normal_form(p)
        assert [str(r) for r in n.rules] == [
            "diamondminus[3,4] A -> _aux0 .",
            "diamondminus[1,2] _aux0 -> B .",
        ]

    def test_single_temporal_body_unchanged(self):
        p = parse_program("diamondminus[3,4] A -> B .")
        assert to_normal_form(p) is p

    def test_temporal_literal_in_conjunction_extracted(self):
        p = parse_program("diamondminus[3,5] C, D -> A .")
        n = to_normal_form(p)
        assert [str(r) for r in n.rules] == [
            "diamondminus[3,5] C -> _aux0 .",
            "_aux0, D -> A .",
        ]

    def test_idempotent(self):
        p = parse_program(
            "diamondminus[1,2] boxminus[3,4] A, E -> B .\nB -> boxminus[1,1] C ."
        )
        n = to_normal_form(p)
        assert to_normal_form(n).same_rules(n)
        assert n.is_normal_form

    def test_all_rules_match_a_form(self):
        p = parse_program(
            "diamondminus[1,2] (A since[0,1] B) -> C .\nD, boxminus[2,3] E -> C ."
        )
        n = to_normal_form(p)
        assert all(rule_form(r) is not None for r in n.rules)

    def test_top_body_literal_dropped(self):
        p = parse_program("top, A -> B .")
        n = to_normal_form(p)
        assert [str(r) for r in n.rules] == ["A -> B ."]

    def test_top_headed_rule_dropped(self):
        p = parse_program("A -> top .")
        assert to_normal_form(p).rules == ()

    def test_bottom_body_rule_dropped(self):
        p = parse_program("bottom -> B .\nA -> B .")
        n = to_normal_form(p)
        assert [str(r) for r in n.rules] == ["A -> B ."]

    def test_since_over_top_becomes_diamond(self):
        p = parse_program("top since[1,2] A -> B .")
        n = to_normal_form(p)
        assert isinstance(n.rules[0].body[0], DiamondMinus)

    def test_shared_subliteral_reuses_aux(self):
        p = parse_program(
            "diamondminus[1,2] boxminus[3,4] A -> B .\n"
            "diamondminus[5,6] boxminus[3,4] A -> C ."
        )
        n = to_normal_form(p)
        aux_defs = [r for r in n.rules if r.head.predicate.startswith("_aux")]
        assert len(aux_defs) == 1

    def test_work_is_linear_in_nesting_depth(self):
        """Count-only: the Python calls ``to_normal_form`` makes on
        ``diamondminus[1,1]``^d ``C -> C`` grow linearly in d; looking up
        each nested sub-literal by a hash that walks it grew as d^2."""
        import sys

        work = {}
        for depth in (100, 400):
            nested = "C"
            for _ in range(depth):
                nested = f"diamondminus[1,1] {nested}"
            program = parse_program(f"{nested} -> C .")
            calls = 0

            def count(frame, event, arg):
                nonlocal calls
                calls += event == "call"

            sys.setprofile(count)
            try:
                normal = to_normal_form(program)
            finally:
                sys.setprofile(None)
            assert len(normal.rules) == depth
            work[depth] = calls
        assert work[400] <= 4.5 * work[100]

    def _window_model(self, program, db_text, horizon=100):
        return naive_fixpoint_bounded(program, parse_database(db_text), horizon)

    @pytest.mark.parametrize(
        "text,db",
        [
            ("diamondminus[1,2] diamondminus[3,4] A -> B .", "A@[0,1]."),
            ("diamondminus[3,5] C, D -> A .", "C@[0,2].\nD@[4,9]."),
            ("boxminus[1,2] boxminus[0,1] A -> B .", "A@[0,10]."),
            ("B -> boxminus[1,2] A .", "B@[5,6]."),
            ("C -> boxminus[1,2] boxminus[0,1] A .", "C@[5,6]."),
            ("diamondminus[0,1] A, boxminus[0,2] A -> B .", "A@[0,4]."),
        ],
    )
    def test_semantics_preserved_on_original_predicates(self, text, db):
        """Bounded-window models of the original and normalized program
        agree on every predicate of the original program."""
        original = parse_program(text)
        normalized = to_normal_form(original)
        before = self._window_model(original, db)
        after = self._window_model(normalized, db)
        for pred in original.predicates():
            for atom in set(before.atoms()) | set(after.atoms()):
                if atom.predicate == pred:
                    assert before.get(atom) == after.get(atom), atom


class TestGround:
    def test_single_constant(self):
        p = parse_program("A(X) -> B(X) .")
        g = ground(p, parse_database("A(c)@[0,1]."))
        assert [str(r) for r in g.rules] == ["A(c) -> B(c) ."]

    def test_propositional_program_unchanged(self):
        p = parse_program("diamondminus[3,4] A -> B .\nboxminus[3,4] B -> A .")
        g = ground(p, parse_database("A@[0,1]."))
        assert g.same_rules(p)

    def test_two_variables_two_constants(self):
        p = parse_program("A(X),B(Y) -> C(X) .")
        g = ground(p, parse_database("A(c)@[0,1].\nB(d)@[0,1].\nA(d)@[0,1].\nB(c)@[0,1]."))
        assert len(g.rules) == 4
        heads = {str(r.head) for r in g.rules}
        assert heads == {"C(c)", "C(d)"}
        # only the binding whose body atoms can hold is instantiated
        g = ground(p, parse_database("A(c)@[0,1].\nB(d)@[0,1]."))
        assert [str(r) for r in g.rules] == ["A(c), B(d) -> C(c) ."]

    def test_constants_from_program_count(self):
        # `c` occurs only in the program; a propositional fact seeds A(c)
        p = parse_program("A(X) -> B(X) .\nGo -> A(c) .")
        g = ground(p, parse_database("Go@[0,1]."))
        assert "A(c) -> B(c) ." in [str(r) for r in g.rules]

    def test_join_instances_grow_linearly(self):
        n = 50
        p = parse_program("P(X), Q(X,Y) -> R(Y) .")
        db = parse_database(
            "".join(f"P(c{i})@[0,1].\nQ(c{i},c{(7 * i) % n})@[0,1].\n" for i in range(n))
        )
        g = ground(p, db)
        assert len(g.rules) == n
        assert "P(c1), Q(c1,c7) -> R(c7) ." in [str(r) for r in g.rules]

    def test_unbound_variables_range_over_all_constants(self):
        # a head-only variable (possible only outside the parser) and one
        # bound only by a since left operand, which needs no point to hold
        head_only = Rule((Atom("Go"),), Atom("C", (Variable("X"),)), "r1")
        since = parse_program("A(X) since[0,1] Go -> D(X) .").rules[0]
        p = Program((head_only, since))
        g = ground(p, parse_database("Go@[0,1].\nK(a)@[0,1].\nK(b)@[0,1]."))
        assert [str(r) for r in g.rules] == [
            "Go -> C(a) .",
            "Go -> C(b) .",
            "A(a) since[0,1] Go -> D(a) .",
            "A(b) since[0,1] Go -> D(b) .",
        ]

    def test_instance_enabled_through_a_derived_atom_is_kept(self):
        p = parse_program("A(X) -> B(X) .\nB(X), C(X,Y) -> D(Y) .")
        g = ground(p, parse_database("A(a)@[0,1].\nC(a,b)@[0,1].\nC(z,w)@[0,1]."))
        assert [str(r) for r in g.rules] == ["A(a) -> B(a) .", "B(a), C(a,b) -> D(b) ."]

    def test_axiom_seeds_the_abstract_model(self):
        p = parse_program("-> A(c) .\nA(X) -> B(X) .")
        g = ground(p, Model())
        assert [str(r) for r in g.rules] == ["A(c) -> B(c) ."]

    def test_grounding_is_valid_for_its_own_database_only(self):
        p = parse_program("A(X) -> B(X) .")
        seen = parse_database("A(a)@[0,1].\nC(b)@[0,1].")
        other = parse_database("A(b)@[0,1].")
        g = ground(p, seen)
        assert [str(r) for r in g.rules] == ["A(a) -> B(a) ."]
        fact = parse_fact("B(b)@[0,1]")
        assert not reason(g, other).entails(fact)
        assert reason(ground(p, other), other).entails(fact)

    def test_program_without_variables_is_returned_as_is(self):
        p = parse_program("diamondminus[1,2] A -> B .")
        assert ground(p, parse_database("A@[0,1].")) is p

    def test_differential_against_exhaustive_grounding(self):
        """On random non-ground programs (joins and temporal rules, 2-4
        constants) the kept instances are a subsequence of the exhaustive
        grounding, and the oracle and ``reason`` give the same models."""
        import random

        rng = random.Random(11)
        dropped = 0
        for _ in range(200):
            text, db_text = _random_nonground_program(rng)
            program, db = parse_program(text), parse_database(db_text)
            relevant, exhaustive = ground(program, db), _exhaustive_ground(program, db)
            rules = iter(exhaustive.rules)
            assert all(rule in rules for rule in relevant.rules), text
            dropped += len(exhaustive.rules) - len(relevant.rules)
            pm, pm_all = reason(relevant, db), reason(exhaustive, db)
            horizon = max(check_horizon(pm, db), check_horizon(pm_all, db))
            assert pm.unroll(horizon) == pm_all.unroll(horizon), (text, db_text)
            assert naive_fixpoint_bounded(relevant, db, horizon) == naive_fixpoint_bounded(
                exhaustive, db, horizon
            ), (text, db_text)
        assert dropped > 2000

    def test_differential_with_since_until_and_top(self):
        """Random programs that also have ``since``/``until`` bodies (whose
        left operand may alone bind a head variable, and whose right one
        may be ``top``) and ``top -> P(c)`` rules, which have no required
        atom: the kept instances are a subsequence of the exhaustive
        grounding, and both have the same least model at every point k/2
        of [0, 24] (``_grid_model``)."""
        import random

        rng = random.Random(5)
        dropped = left_only = top_seeds = 0
        for _ in range(150):
            text, db_text = _random_nonground_program(rng, rich=True)
            program, db = parse_program(text), parse_database(db_text)
            relevant, exhaustive = ground(program, db), _exhaustive_ground(program, db)
            rules = iter(exhaustive.rules)
            assert all(rule in rules for rule in relevant.rules), text
            dropped += len(exhaustive.rules) - len(relevant.rules)
            assert _grid_model(relevant, db) == _grid_model(exhaustive, db), (text, db_text)
            read = {atom for rule in relevant.rules for atom in body_atoms(rule)}
            for rule in program.rules:
                lit = rule.body[0]
                if isinstance(lit, (Since, Until)):
                    left_only += bool(
                        literal_variables(lit.left) - literal_variables(lit.right)
                    )
                elif isinstance(lit, Top):
                    top_seeds += rule.head in read and db.get(rule.head).is_empty
        assert dropped > 1000 and left_only > 20 and top_seeds > 10

    def test_ground_flag(self):
        p = parse_program("A(X) -> B(X) .")
        assert not p.is_ground
        assert ground(p, parse_database("A(c)@[0,1].")).is_ground


def _exhaustive_ground(program, database):
    """Every rule instantiated with every binding of its variables over the
    constants of the program and the database, in lexicographic order."""
    names = sorted(
        program.constants() | {t.name for a in database.atoms() for t in a.terms}
    )
    out = []
    for rule in program.rules:
        variables = sorted(
            {
                t.name
                for a in body_atoms(rule) + head_atoms(rule)
                for t in a.terms
                if isinstance(t, Variable)
            }
        )
        if not variables:
            out.append(rule)
            continue
        for combo in product(names, repeat=len(variables)):
            binding = dict(zip(variables, combo))
            out.append(
                Rule(
                    tuple(_substitute(b, binding) for b in rule.body),
                    _substitute(rule.head, binding),
                    f"{rule.id}[{','.join(combo)}]",
                )
            )
    return Program(tuple(out), program.axioms)


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


def _grid_model(program, database, last=24):
    """The least model of a ground program at the points k/2 for
    0 <= k <= 2 * last, every literal being false outside them: a map
    from each atom that holds somewhere to the set of its k.

    The program's operator ranges must be closed with integer ends and
    the database's endpoints integers. Then every truth set is a union of
    intervals with integer ends, constant on each open unit interval, so
    the point k/2 with k odd stands for the whole of its unit interval
    and the grid gives each literal's truth exactly (cut at 0 and
    ``last``). Unlike both reasoners it evaluates ``since`` and ``until``:
    at t, A since[a,b] B holds when B holds at some s with t - s in
    [a,b] and A holds on the open interval (s, t)."""
    points = range(2 * last + 1)
    facts = [(f.atom, f.interval) for f in program.axioms]
    facts += [(atom, piece) for atom, ivs in database.items() for piece in ivs]
    truth = {}
    for atom, piece in facts:
        truth.setdefault(atom, set()).update(k for k in points if piece.contains(F(k, 2)))

    def between(lhs, j, k):
        # lhs holds on the open interval between the points j < k
        return (
            all(i in lhs for i in range(j + 1, k))
            and (j % 2 == 0 or j in lhs)
            and (k % 2 == 0 or k in lhs)
        )

    def holds(lit):
        if isinstance(lit, Atom):
            return truth.get(lit, set())
        if isinstance(lit, Top):
            return set(points)
        steps = range(2 * lit.rho.lo, 2 * lit.rho.hi + 1)
        if isinstance(lit, DiamondMinus):
            inner = holds(lit.inner)
            return {k for k in points if any(k - d in inner for d in steps)}
        if isinstance(lit, BoxMinus):
            inner = holds(lit.inner)
            return {k for k in points if all(k - d in inner for d in steps)}
        left, right = holds(lit.left), holds(lit.right)
        if isinstance(lit, Since):
            return {
                k for k in points
                if any(k - d in right and (d == 0 or between(left, k - d, k)) for d in steps)
            }
        return {
            k for k in points
            if any(k + d in right and (d == 0 or between(left, k, k + d)) for d in steps)
        }

    changed = True
    while changed:
        changed = False
        for rule in program.rules:
            body = set(points)
            for lit in rule.body:
                body &= holds(lit)
            known = truth.setdefault(rule.head, set())
            if not body <= known:
                known |= body
                changed = True
    return {atom: ks for atom, ks in truth.items() if ks}


def test_grid_model_evaluates_since_and_until():
    p = parse_program("A since[1,2] B -> C .\nA until[0,1] B -> D .")
    m = _grid_model(p, parse_database("B@[3,3].\nA@[3,5].\nB@[8,8]."), last=10)
    assert m[Atom("C")] == {8, 9, 10}  # [4,5]: B at 3, A on (3,t)
    assert m[Atom("D")] == {6, 16}  # 3 and 8: only s = t, no A after


def test_forward_propagating_flag():
    assert is_forward_propagating(parse_program("diamondminus[1,2] A -> B ."))
    assert not is_forward_propagating(parse_program("diamondplus[1,2] A -> B ."))
