"""Parsing, printing, normal form, and grounding."""

import random
import re
import sys
from fractions import Fraction as F
from itertools import product

import pytest

from chronolog.analysis import Cycle, DepGraph, Edge, FragmentFlags, FragmentReport
from chronolog.errors import ParseError
from chronolog.intervals import NEG_INF, POS_INF, Interval, parse_interval
from chronolog.reasoner import (
    Model,
    Pattern,
    PeriodicModel,
    RuleGroup,
    check_horizon,
    naive_fixpoint_bounded,
    reason,
)
from chronolog.syntax import (
    KEYWORDS,
    Atom,
    Bottom,
    BoxMinus,
    BoxPlus,
    Constant,
    DiamondMinus,
    DiamondPlus,
    Fact,
    Program,
    Rule,
    Since,
    Top,
    Until,
    Variable,
    _Parser,
    _Value,
    _error_at,
    _offset,
    _substitute,
    _tokenize,
    ground,
    head_atoms,
    is_forward_propagating,
    literal_atoms,
    literal_variables,
    parse_database,
    parse_fact,
    parse_program,
    program_text,
    rule_form,
    to_normal_form,
)

from generators import (
    _random_fp_program,
    _random_nested_program,
    _random_nonground_program,
    _random_ray_program,
)
from grid import _grid_model


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

    def test_query_checks_units_as_a_database_does(self):
        assert parse_fact("Monday@[1d,2d]").interval == Interval.closed(1, 2)
        with pytest.raises(ParseError, match="query mixes unit-suffixed and bare durations"):
            parse_fact("Monday@[1d,2]")

    def test_comments_and_whitespace(self):
        p = parse_program("% intro\nA -> B . % trailing\n\n% done\n")
        assert len(p.rules) == 1

    def test_tokens_carry_kind_unit_and_position(self):
        text = "% note\n  diamondminus[12h,2] A -> B ."
        texts, units = _tokenize(text)

        def kind(token):  # read off the text, as _tokenize documents
            if not token:
                return "EOF"
            if token == "->":
                return "ARROW"
            if token[0].isdecimal():
                return "NUMBER"
            if token.isidentifier():
                return "IDENT"
            return "QUOTED" if token[0] == "'" else "PUNCT"

        def position(index):
            at = _error_at(text, _offset(text, index), "")
            return at.line, at.column

        assert (kind(texts[0]), texts[0], units[0], position(0)) == (
            "IDENT", "diamondminus", "", (2, 3)
        )
        assert (kind(texts[2]), texts[2], units[2]) == ("NUMBER", "12", "h")
        assert position(2) == (2, 16)
        assert (kind(texts[4]), texts[4], units[4]) == ("NUMBER", "2", "")
        assert (_offset(text, 0), _offset(text, 2)) == (9, 22)
        assert [kind(t) for t in texts[5:]] == ["PUNCT", "IDENT", "ARROW", "IDENT", "PUNCT", "EOF"]
        assert _offset(text, len(texts) - 1) == len(text)

    def test_end_of_input_is_placed_past_trailing_whitespace_and_comments(self):
        for text in ("A -> B", "A -> B \n  ", "A -> B % no dot\n% still none"):
            with pytest.raises(ParseError) as err:
                parse_program(text)
            assert str(err.value).endswith("expected '.', found 'end of input'")
            at = _error_at(text, len(text), "")
            assert (err.value.line, err.value.column) == (at.line, at.column)

    def test_quoted_keyword_is_a_constant(self):
        assert parse_program("P('inf') -> Q .").rules[0].body[0].terms == (Constant("inf"),)
        with pytest.raises(ParseError, match="^1:3: 'inf' is a reserved word$"):
            parse_program("P(inf) -> Q .")

    def test_parse_error_position_after_a_comment(self):
        with pytest.raises(ParseError, match="^2:6:"):
            parse_program("% A -> B .\nA -> ; .")

    def test_quoted_constants(self):
        p = parse_program("Route('New York') -> Covered .")
        assert p.rules[0].body[0].terms == (Constant("New York"),)

    def test_since_binary_operator(self):
        p = parse_program("A since[1,2] B -> C .")
        assert isinstance(p.rules[0].body[0], Since)

    @pytest.mark.parametrize(
        "keyword", ["diamondminus", "diamondplus", "since", "until", "bottom"]
    )
    def test_head_diamond_rejected(self, keyword):
        with pytest.raises(ParseError, match=f"'{keyword}' is not allowed in a rule head"):
            parse_program(f"A -> {keyword}[1,2] B .")

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
        with pytest.raises(ParseError, match="^1:5: database facts must be ground$"):
            parse_database("A(X)@[1,2].")
        with pytest.raises(ParseError, match="^1:5: a query must be ground$"):
            parse_fact("A(X)@[1,2]")

    def test_ray_fact(self):
        db = parse_database("A@[3,inf).")
        assert db.get(Atom("A")).pieces == (rho("[3,inf)"),)

    def test_parse_single_fact(self):
        fact = parse_fact("A(c)@[100,101]")
        assert fact == Fact(Atom("A", (Constant("c"),)), rho("[100,101]"))

    @pytest.mark.parametrize(
        "text, where",
        [("A@[1,2] . B@[3,4]", "1:11: unexpected 'B'"), ("A@[1,2].\n.", "2:1: unexpected '.'")],
    )
    def test_query_rejects_what_follows_its_fact(self, text, where):
        with pytest.raises(ParseError, match=f"^{re.escape(where)} after the query$"):
            parse_fact(text)


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
        "A -> boxplus[1,2] boxminus[0,1] B .",
        "diamondminus[1,2] (A since[0,1] B) -> C .",
        "boxminus[1,2] (A until[0,1] B), C -> D .",
    ]

    @pytest.mark.parametrize("text", CORPUS)
    def test_parse_print_parse(self, text):
        once = parse_program(text)
        again = parse_program(program_text(once))
        assert once == again

    def test_nested_operand_parenthesized(self):
        p = parse_program("(A since[1,2] B) since[3,4] C -> D .")
        assert parse_program(program_text(p)) == p

    @pytest.mark.parametrize("keyword", sorted(KEYWORDS))
    def test_constant_spelled_like_a_keyword(self, keyword):
        once = parse_program(f"A('{keyword}') -> B .")
        assert parse_program(program_text(once)) == once

    def test_deep_unary_chains_compare_without_recursion(self):
        # built in Python: the parser stops near depth 490
        def chain(depth, inner, innermost=DiamondMinus, last="[1,1]"):
            lit = innermost(rho(last), inner)
            for _ in range(depth - 1):
                lit = DiamondMinus(rho("[1,1]"), lit)
            return lit

        c = Atom("P", (Constant("c"),))
        a, b = chain(2000, c), chain(2000, Atom("P", (Constant("c"),)))
        assert a is not b and a == b and not a != b
        # a variable hashes as the constant of its name, so the stored
        # hashes agree at every level and only the innermost atoms differ
        v = chain(2000, Atom("P", (Variable("c"),)))
        assert hash(v) == hash(a)
        assert a != v and not a == v and v != a
        boxed = chain(2000, c, innermost=BoxMinus)
        assert a != boxed and not a == boxed
        # hash(-1) == hash(-2), so here only the innermost ranges differ
        low, lower = chain(2000, c, last="[-1,-1]"), chain(2000, c, last="[-2,-2]")
        assert hash(low) == hash(lower) and low != lower and not low == lower

    def test_deep_unary_chain_prints_without_recursion(self):
        lit = Atom("C")
        for _ in range(5000):
            lit = BoxPlus(rho("[0,1]"), lit)
        assert str(lit) == "boxplus[0,1] " * 5000 + "C"

    def test_deep_parsed_chain_prints_its_source(self):
        text = "diamondminus[1,1] " * 450 + "C -> C ."
        assert str(parse_program(text)) == text + "\n"


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
        again = to_normal_form(n)
        assert [(r.body, r.head) for r in again.rules] == [(r.body, r.head) for r in n.rules]
        assert again.axioms == n.axioms
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
        assert [(r.body, r.head) for r in g.rules] == [(r.body, r.head) for r in p.rules]
        assert g.axioms == p.axioms

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
            read = {atom for rule in relevant.rules for atom in rule.body_atoms}
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


def _frontend_program(depth: int, n: int, seed: int) -> tuple[Program, Model]:
    """The normal form of ``diamondminus[1,1]``^depth ``C -> C`` and
    ``P(X), Q(X,Y) -> R(Y)``, with point facts of C and facts of P and Q
    over n constants."""
    rng = random.Random(seed)
    nested = "C"
    for _ in range(depth):
        nested = f"diamondminus[1,1] {nested}"
    program = to_normal_form(parse_program(f"{nested} -> C .\nP(X), Q(X,Y) -> R(Y) ."))
    db = parse_database(
        "".join(f"C@[{c},{c}].\n" for c in sorted(rng.sample(range(depth), 3)))
        + "".join(f"P(c{i})@[0,1].\n" for i in range(n))
        + "".join(f"Q(c{rng.randrange(n)},c{rng.randrange(n)})@[0,1].\n" for _ in range(n))
    )
    return program, db


def _lines_run_in(function, *args) -> int:
    """How many lines of ``function``'s own body run in one call (the
    line events of its frame, not of the frames it calls)."""
    code, lines = function.__code__, 0

    def local(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        function(*args)
    finally:
        sys.settrace(previous)
    return lines


class TestGroundCost:
    def test_rounds_visit_only_the_plans_their_delta_feeds(self):
        """Count guard: a nested literal of depth d normalizes into d aux
        rules that pass the abstract delta on one hop per round, so a loop
        that visits every plan in every round runs d rounds of d plans.
        The lines ``ground`` runs itself grow at most 2.2 times from d =
        100 to 200 (3.79 times when every round visits every plan)."""
        counts = [_lines_run_in(ground, *_frontend_program(d, 100, d)) for d in (100, 200)]
        assert counts[1] <= 2.2 * counts[0], counts


def _atoms_of(rules, facts=()) -> list[Atom]:
    atoms = [a for rule in rules for lit in (*rule.body, rule.head) for a in literal_atoms(lit)]
    return atoms + [fact.atom for fact in facts]


def _distinct_objects(atoms) -> int:
    """The number of distinct atoms, after checking that equal atoms are
    one object."""
    first: dict[Atom, Atom] = {}
    for atom in atoms:
        assert first.setdefault(atom, atom) is atom, atom
    return len(first)


class TestOneObjectPerAtom:
    """Equal atoms of one parse, or of one ``ground`` call, are one object,
    so dict and set lookups between them stop at identity; equality and
    hashes stay structural (``TestValueTypes``)."""

    def test_parse_program(self):
        program = parse_program(
            "P(a), diamondminus[1,2] Q(a,X) -> R(X) .\n"
            "R(X), P('a') since[0,1] Q(a,X) -> P(a) .\n"
            "boxminus[1,1] R(b) -> S .\n"
            "S, R(b) -> boxplus[0,1] R(b) .\n"
            "-> P(a) ."
        )
        atoms = _atoms_of(program.rules, program.axioms)
        assert len(atoms) == 13
        assert _distinct_objects(atoms) == 5

    def test_parse_database(self):
        text = "A(a)@[0,1].\nB@[2,3].\nA('a')@[4,5].\nB@[6,6].\nA(b)@[0,0]."
        facts = _Parser(text).parse_database_facts()
        assert _distinct_objects(f.atom for f in facts) == 3

    def test_each_parse_has_its_own_atoms(self):
        # the objects are shared within a parse, not through module state
        first, second = parse_program("A -> B ."), parse_program("A -> B .")
        assert first == second
        assert first.rules[0].head is not second.rules[0].head

    def test_ground(self):
        program = parse_program(
            "A(X) -> B(X) .\nB(X), C(X,Y) -> D(Y) .\nB(a) -> D(a) .\n"
            "diamondminus[1,1] D(X) -> A(X) ."
        )
        kept = program.rules[2]
        db = parse_database("A(a)@[0,1].\nA(b)@[0,1].\nC(a,b)@[0,1].\nC(b,a)@[0,1].")
        g = ground(program, db)
        assert len(g.rules) == 7
        atoms = _atoms_of(g.rules)
        assert _distinct_objects(atoms) == 8
        # the rule kept as it is shares its atoms with the instances
        assert kept in g.rules
        assert any(a is kept.head for rule in g.rules if rule is not kept for a in _atoms_of([rule]))


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
                for a in (*rule.body_atoms, *head_atoms(rule))
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
                    tuple(_substitute(b, binding, {}) for b in rule.body),
                    _substitute(rule.head, binding, {}),
                    f"{rule.id}[{','.join(combo)}]",
                )
            )
    return Program(tuple(out), program.axioms)


def test_forward_propagating_flag():
    assert is_forward_propagating(parse_program("diamondminus[1,2] A -> B ."))
    assert not is_forward_propagating(parse_program("diamondplus[1,2] A -> B ."))


class TestStoredAnalysis:
    """An atom's hash, and a rule's normal-form shape and body atoms, are
    computed once, at construction, and equal a computation from scratch."""

    def test_atom_hash_is_the_hash_of_its_fields(self):
        for atom in (
            Atom("A"),
            Atom("P", (Constant("c"),)),
            Atom("Q", (Variable("X"), Constant("b"))),
        ):
            assert hash(atom) == hash((atom.predicate, atom.terms))

    def test_atoms_are_equal_by_predicate_and_terms_only(self):
        a = Atom("P", (Constant("c"), Constant("d")))
        b = parse_program("P(c,d) -> Q .").rules[0].body_atoms[0]
        assert a == b and a is not b and hash(a) == hash(b)
        assert a != Atom("P", (Constant("d"), Constant("c")))
        assert a != Atom("Q", a.terms) and a != Atom("P", (Constant("c"), Variable("d")))
        assert a != ("P", a.terms) and ("P", a.terms) != a

    def test_rules_store_their_shape_and_body_atoms(self):
        import random

        generators = (
            _random_fp_program,
            _random_nested_program,
            _random_ray_program,
            _random_nonground_program,
        )
        for generate in generators:
            rng = random.Random(7)
            for _ in range(300):
                text, db_text = generate(rng)
                program = parse_program(text)
                normal = to_normal_form(program)
                grounded = ground(normal, parse_database(db_text))
                for rule in (*program.rules, *normal.rules, *grounded.rules):
                    assert rule.form is rule_form(rule)
                    atoms = tuple(a for lit in rule.body for a in literal_atoms(lit))
                    assert rule.body_atoms == atoms
                    for atom in (*atoms, *head_atoms(rule)):
                        assert hash(atom) == hash((atom.predicate, atom.terms))


class TestValueTypes:
    """Every value type hashes as the tuple of its compared fields, which
    keeps set and dict orders fixed, and equals only a value of its own
    class with equal fields."""

    C, X = Constant("c"), Variable("X")
    A, B = Atom("A"), Atom("B", (Constant("c"),))
    EDGE = Edge("A", "B", "r1", True, Interval.closed(-4, -3), 3)
    RULE = Rule((DiamondMinus(Interval.closed(3, 4), A),), B, "r1")

    @pytest.mark.parametrize(
        "value, fields",
        [
            (C, ("c",)),
            (X, ("X",)),
            (Top(), ()),
            (Bottom(), ()),
            (Fact(A, Interval.closed(0, 1)), (A, Interval.closed(0, 1))),
            (RULE, (RULE.body, B, "r1")),
            (Program((RULE,), (Fact(A, Interval.point(0)),)),
             ((RULE,), (Fact(A, Interval.point(0)),))),
            (Pattern(A, Interval.closed(0, 1), 2, F(7)), (A, Interval.closed(0, 1), 2, F(7))),
            (EDGE, ("A", "B", "r1", True, Interval.closed(-4, -3), 3)),
            (Cycle((EDGE,)), ((EDGE,),)),
            (DepGraph(("A", "B"), (EDGE,)), (("A", "B"), (EDGE,))),
            (RuleGroup(frozenset({B}), (RULE,), F(3, 2)), (frozenset({B}), (RULE,), F(3, 2))),
            (FragmentFlags(True, False, True, True), (True, False, True, True)),
            (FragmentReport(True, False, True, True, (), (), False, None, (), ()),
             (True, False, True, True, (), (), False, None, (), (), None)),
        ],
        ids=lambda v: None if isinstance(v, tuple) else type(v).__name__,
    )
    def test_hash_is_the_hash_of_the_fields(self, value, fields):
        assert hash(value) == hash(fields)

    @pytest.mark.parametrize(
        "op", [BoxMinus, BoxPlus, DiamondMinus, DiamondPlus, Since, Until]
    )
    def test_operator_hash_is_the_hash_of_keyword_range_and_operands(self, op):
        r = Interval.closed(1, 2)
        lit = op(r, self.A) if op.keyword not in ("since", "until") else op(self.A, r, self.B)
        assert hash(lit) == hash((op.keyword, r, *lit.operands))
        assert lit == lit.rebuild(*lit.operands) and hash(lit) == hash(lit.rebuild(*lit.operands))

    def test_no_value_equals_one_of_another_class(self):
        r = Interval.closed(1, 2)
        pairs = [
            (Since(self.A, r, self.B), Until(self.A, r, self.B)),
            (BoxMinus(r, self.A), DiamondMinus(r, self.A)),
            (self.C, Variable("c")),
            (Top(), Bottom()),
            (self.C, ("c",)),
            (Top(), ()),
            (Fact(self.A, r), (self.A, r)),
            (self.RULE, (self.RULE.body, self.B, "r1")),
            (self.EDGE, ("A", "B", "r1", True, Interval.closed(-4, -3), 3)),
            (Cycle((self.EDGE,)), ((self.EDGE,),)),
            (Pattern(self.A, r, 0, 7), (self.A, r, 0, 7)),
            (FragmentFlags(True, True, True, True), (True, True, True, True)),
        ]
        for a, b in pairs:
            assert a != b and b != a and not a == b, (a, b)
        # equal hashes do not make equal values
        assert hash(self.C) == hash(Variable("c")) and self.C != Variable("c")

    def test_values_built_apart_are_equal(self):
        r = Interval.closed(1, 2)
        assert Since(Atom("A"), r, Atom("B")) == Since(self.A, Interval.closed(1, 2), Atom("B"))
        assert Since(self.A, r, self.B) != Since(self.B, r, self.A)
        assert BoxMinus(r, self.A) != BoxMinus(Interval.closed(1, 3), self.A)
        assert Top() == Top() and Bottom() == Bottom()
        assert Rule(self.RULE.body, self.B) == Rule(self.RULE.body, self.B, "")
        assert Rule(self.RULE.body, self.B) != self.RULE  # the id counts
        assert Program((self.RULE,)) == Program((self.RULE,), ())
        assert Pattern(self.A, r, 0, 7) == Pattern(Atom("A"), r, 0, F(7))
        assert Pattern(self.A, r, 0, 7) != Pattern(self.A, r, 1, 7)

    def test_value_types_take_equality_hash_and_repr_from_one_base(self):
        """Every ``_Value`` class reads its fields off its ``__init__`` and
        writes no ``__eq__``, ``__hash__`` or ``__repr__`` of its own; only
        ``PeriodicModel``, whose facts are a mutable ``Model``, is
        unhashable."""
        classes, stack = [], [_Value]
        while stack:
            for cls in stack.pop().__subclasses__():
                classes.append(cls)
                stack.append(cls)
        assert {cls.__name__ for cls in classes} == {
            "Fact", "Rule", "Program", "Edge", "Cycle", "DepGraph", "FragmentFlags",
            "FragmentReport", "RuleGroup", "Pattern", "PeriodicModel",
        }
        for cls in classes:
            own = {"__eq__", "__hash__", "__repr__"} & vars(cls).keys()
            assert own == ({"__hash__"} if cls is PeriodicModel else set()), cls
        assert PeriodicModel.__hash__ is None
        assert Pattern._fields == ("atom", "offset", "start_index", "period")
        assert FragmentReport._fields[:4] == FragmentFlags._fields

    def test_periodic_model_equality_ignores_the_pattern_index(self):
        monday = Pattern(Atom("Mon"), Interval.closed(0, 1), 0, 7)
        pm = PeriodicModel(Model(), (monday,), 7, 0)
        other = PeriodicModel(Model(), (monday,), 7, 0)
        other._by_atom = {}
        assert pm == other and pm._by_atom != other._by_atom
        assert pm != PeriodicModel(Model(), (monday,), 7, 1)
        assert pm != PeriodicModel(Model(), (), 7, 0)

    def test_repr_shows_the_constructor_arguments(self):
        assert repr(self.B) == "Atom(predicate='B', terms=(Constant(name='c'),))"
        assert repr(Top()) == "Top()"
        assert repr(DiamondMinus(Interval.closed(3, 4), self.A)) == (
            "DiamondMinus(rho=Interval([3,4]), inner=Atom(predicate='A', terms=()))"
        )
        assert repr(Pattern(self.A, Interval.point(0), 1, 7)) == (
            "Pattern(atom=Atom(predicate='A', terms=()), offset=Interval([0,0]),"
            " start_index=1, period=7)"
        )
        assert repr(Fact(self.A, Interval.point(0))) == (
            "Fact(atom=Atom(predicate='A', terms=()), interval=Interval([0,0]))"
        )
        assert repr(FragmentFlags(True, False, True, True)) == (
            "FragmentFlags(bounded=True, union_free=False, temporal_linear=True,"
            " forward_propagating=True)"
        )
