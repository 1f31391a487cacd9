"""Rule application, the bounded oracle, and the windowed procedure."""

import math
from fractions import Fraction as F

import pytest

from chronolog.analysis import dependency_graph, pattern_length, simple_cycles
from chronolog.errors import (
    InputError,
    NotForwardPropagating,
    StepCapExceeded,
    WindowCapExceeded,
)
from chronolog.intervals import NEG_INF, POS_INF, Interval, IntervalSet, to_time, parse_interval
from chronolog.reasoner import (
    Model,
    Pattern,
    PeriodicModel,
    check_horizon,
    freeze,
    group_and_sort,
    max_time_point,
    min_time_point,
    naive_fixpoint_bounded,
    occurrences,
    reason,
)
from chronolog.syntax import (
    Atom,
    Fact,
    ground,
    parse_database,
    parse_fact,
    parse_program,
    to_normal_form,
)

from test_acceptance import UNCOMPACTED_WORKED_EXAMPLE, oracle_span

WORKED_EXAMPLE = "diamondminus[3,4] A -> B .\nboxminus[3,4] B -> A ."
BOX_SELF_LOOP = "boxminus[3,7] A -> A ."
NONLINEAR_DIAMOND = (
    "A, B -> C .\ndiamondminus[3,5] C -> A .\ndiamondminus[5,6] C -> B ."
)


def iv(text):
    return parse_interval(text)


def model_of(text):
    return parse_database(text)


class TestModel:
    def test_add_reports_merged_piece(self):
        m = Model()
        assert m.add(Atom("A"), iv("[0,7]")) == iv("[0,7]")
        assert m.add(Atom("A"), iv("[7,10]")) == iv("[0,10]")
        assert m.add(Atom("A"), iv("[2,3]")) is None

    def test_atoms_sorted(self):
        m = model_of("B@[0,1].\nA(c)@[0,1].\nA(b)@[0,1].")
        assert [str(a) for a in m.atoms()] == ["A(b)", "A(c)", "B"]

    def test_time_extremes_ignore_infinities(self):
        m = model_of("A@[0,inf).\nB@[-3,5].")
        assert max_time_point(m) == 5
        assert min_time_point(m) == -3
        assert max_time_point(Model()) == 0


def derive(text, db_text, head):
    """What a non-recursive program derives for ``head``: the oracle's
    answer, which ``reason`` must give as well."""
    program, db = parse_program(text), model_of(db_text)
    derived = naive_fixpoint_bounded(program, db).get(Atom(head))
    assert reason(program, db).facts.get(Atom(head)) == derived
    return derived


class TestRuleStep:
    def test_diamond(self):
        assert derive("diamondminus[3,4] A -> B .", "A@[0,1].", "B") == IntervalSet.of(
            iv("[3,5]")
        )

    def test_box(self):
        assert derive("boxminus[4,5] B -> A .", "B@[5,9].", "A") == IntervalSet.of(
            iv("[10,13]")
        )

    def test_horn_join(self):
        assert derive("A, B -> C .", "A@[0,3].\nB@[2,4].", "C") == IntervalSet.of(
            iv("[2,3]")
        )

    def test_subsumed_facts_filtered(self):
        assert derive("A -> B .", "A@[0,3].\nB@[0,5].", "B") == IntervalSet.of(
            iv("[0,5]")
        )

    def test_box_applies_to_coalesced_pieces(self):
        # [0,2] and [3,4] stay separate, so a window of width 2 fits neither
        derived = derive("boxminus[0,2] A -> B .", "A@[0,2].\nA@[3,4].", "B")
        assert derived == IntervalSet.of(iv("[2,2]"))


class TestOracle:
    def test_worked_example_inclusive_horizon(self):
        p = parse_program(WORKED_EXAMPLE)
        m = naive_fixpoint_bounded(p, model_of("A@[0,1]."), 14)
        assert m.get(Atom("A")) == IntervalSet.of(iv("[0,1]"), iv("[7,8]"), iv("[14,14]"))
        assert m.get(Atom("B")) == IntervalSet.of(iv("[3,5]"), iv("[10,12]"))

    def test_box_self_loop_short_seed_terminates(self):
        p = parse_program(BOX_SELF_LOOP)
        m = naive_fixpoint_bounded(p, model_of("A@[0,1]."), 100)
        assert m.get(Atom("A")) == IntervalSet.of(iv("[0,1]"))

    def test_box_self_loop_long_seed_fills_horizon(self):
        p = parse_program(BOX_SELF_LOOP)
        m = naive_fixpoint_bounded(p, model_of("A@[0,7]."), 20)
        assert m.get(Atom("A")) == IntervalSet.of(iv("[0,20]"))

    def test_unbounded_horizon_for_terminating_program(self):
        p = parse_program("diamondminus[1,2] X -> Y .\nY -> Z .")
        m = naive_fixpoint_bounded(p, model_of("X@[0,1]."))
        assert m.get(Atom("Y")) == IntervalSet.of(iv("[1,3]"))
        assert m.get(Atom("Z")) == IntervalSet.of(iv("[1,3]"))
        # a forward operator in the body is evaluated too
        p = parse_program("diamondplus[1,2] A -> B .")
        m = naive_fixpoint_bounded(p, model_of("A@[5,6]."))
        assert m.get(Atom("B")) == IntervalSet.of(iv("[3,5]"))

    def test_ground_unary_program(self):
        p = ground(parse_program("A(X) -> B(X) ."), model_of("A(c)@[0,2]."))
        m = naive_fixpoint_bounded(p, model_of("A(c)@[0,2]."), 10)
        assert str(m) == "A(c)@{[0,2]}; B(c)@{[0,2]}"

    def test_always_true_axiom_feeds_rules(self):
        p = to_normal_form(parse_program("-> Tick .\nTick, A -> B ."))
        m = naive_fixpoint_bounded(p, model_of("A@[1,2]."), 10)
        assert m.get(Atom("B")) == IntervalSet.of(iv("[1,2]"))

    @pytest.mark.parametrize(
        "text",
        [
            "diamondminus[1,1] A -> A .",  # the change worklist
            "diamondminus[1,1] diamondminus[0,0] A -> A .",  # rounds: not normal form
        ],
    )
    def test_step_cap_stops_a_runaway_derivation(self, text):
        with pytest.raises(StepCapExceeded):
            naive_fixpoint_bounded(parse_program(text), model_of("A@[0,0]."), step_cap=50)


class TestGroupAndSort:
    def test_single_group(self):
        p = parse_program(WORKED_EXAMPLE)
        groups = group_and_sort(p)
        assert len(groups) == 1
        assert groups[0].predicates == frozenset({"A", "B"})
        assert len(groups[0].rules) == 2

    def test_chain_in_dependency_order(self):
        p = parse_program("A -> B .\nB -> C .")
        groups = group_and_sort(p)
        assert [sorted(g.predicates) for g in groups] == [["B"], ["C"]]

    def test_mutually_reachable_triple(self):
        groups = group_and_sort(parse_program(NONLINEAR_DIAMOND))
        assert len(groups) == 1
        assert groups[0].predicates == frozenset({"A", "B", "C"})

    def test_dependencies_before_dependents(self):
        p = parse_program(
            "diamondminus[1,1] S -> S .\nS -> T .\ndiamondminus[2,2] T -> T ."
        )
        groups = group_and_sort(p)
        order = [sorted(g.predicates) for g in groups]
        assert order.index(["S"]) < order.index(["T"])

    def test_rules_in_program_order_and_exactly_the_inner_edges(self):
        p = parse_program(
            "B -> A .\n"
            "diamondminus[1,1] A -> B .\n"
            "C -> A .\n"
            "A -> D .\n"
            "boxminus[2,2] B -> A .\n"
        )
        groups = group_and_sort(p)
        assert [sorted(g.predicates) for g in groups] == [["A", "B"], ["D"]]
        cycle, tail = groups
        assert [r.id for r in cycle.rules] == ["r1", "r2", "r3", "r5"]
        assert [r.id for r in tail.rules] == ["r4"]
        edges = dependency_graph(p).edges
        for group in groups:
            assert group.edges == tuple(
                e for e in edges
                if e.source in group.predicates and e.target in group.predicates
            )
        assert [(e.source, e.target, e.rule_id) for e in cycle.edges] == [
            ("B", "A", "r1"), ("A", "B", "r2"), ("B", "A", "r5"),
        ]
        assert tail.edges == ()


class TestFreeze:
    def test_documented_window(self):
        m = model_of("A@[7,8].\nB@[10,12].")
        rays, patterns = freeze(m, m.atoms(), F(7), F(7))
        assert rays == []
        assert patterns == [
            Pattern(Atom("A"), iv("[0,1]"), 1, F(7)),
            Pattern(Atom("B"), iv("[3,5]"), 1, F(7)),
        ]

    def test_first_window_is_identity_clip(self):
        m = model_of("A@[0,1].\nA@[8,9].")
        _, patterns = freeze(m, m.atoms(), F(0), F(7))
        assert patterns == [Pattern(Atom("A"), iv("[0,1]"), 0, F(7))]

    def test_clip_keeps_fact_endpoint_flags(self):
        # [5,9] restricted to [7,14) is [7,9]; the 9 endpoint stays closed
        _, patterns = freeze(model_of("A@[5,9]."), [Atom("A")], F(7), F(7))
        assert [p.offset for p in patterns] == [iv("[0,2]")]

    def test_window_boundary_is_half_open(self):
        # [5,13) ends inside [7,14): a pattern open at its right end
        _, patterns = freeze(model_of("A@[5,13)."), [Atom("A")], F(7), F(7))
        assert [p.offset for p in patterns] == [iv("[0,6)")]

    def test_full_window_becomes_ray(self):
        # [5,14] covers the half-open window [7,14), so it tiles the line
        rays, patterns = freeze(model_of("A@[5,14]."), [Atom("A")], F(7), F(7))
        assert rays == [Fact(Atom("A"), iv("[7,inf)"))]
        assert patterns == []

    def test_only_the_given_atoms(self):
        m = model_of("A@[0,1].\nB@[2,3].")
        _, patterns = freeze(m, [Atom("A")], F(0), F(7))
        assert [p.atom for p in patterns] == [Atom("A")]


class TestOccurrences:
    def test_unrolls_into_window(self):
        pat = Pattern(Atom("A"), iv("[0,1]"), 1, F(7))
        assert list(occurrences(pat, iv("[14,21)"))) == [iv("[14,15]")]

    def test_respects_start_index(self):
        pat = Pattern(Atom("A"), iv("[0,1]"), 2, F(7))
        assert list(occurrences(pat, iv("[7,14)"))) == []

    def test_clips_straddling_occurrences(self):
        pat = Pattern(Atom("A"), iv("[5,8]"), 0, F(7))
        assert list(occurrences(pat, iv("[7,14)"))) == [iv("[7,8]"), iv("[12,14)")]


class TestReason:
    def test_worked_example(self):
        pm = reason(parse_program(WORKED_EXAMPLE), model_of("A@[0,1]."))
        assert pm.period == 7
        assert str(pm.facts) == "(empty)"
        assert pm.patterns == (
            Pattern(Atom("A"), iv("[0,1]"), 0, F(7)),
            Pattern(Atom("B"), iv("[3,5]"), 0, F(7)),
        )
        assert pm.horizon == 0
        assert pm.representation_type() == "periodic"
        assert pm.unroll(70) == UNCOMPACTED_WORKED_EXAMPLE.unroll(70)

    def test_finite_outcome(self):
        pm = reason(parse_program(BOX_SELF_LOOP), model_of("A@[0,1]."))
        assert str(pm.facts) == "A@{[0,1]}"
        assert pm.patterns == ()
        assert pm.representation_type() == "finite"

    def test_constant_outcome_exact_ray(self):
        pm = reason(parse_program(BOX_SELF_LOOP), model_of("A@[0,7]."))
        assert str(pm.facts) == "A@{[0,inf)}"
        assert pm.patterns == ()
        assert pm.representation_type() == "constant"

    def test_empty_database(self):
        pm = reason(parse_program(WORKED_EXAMPLE), Model())
        assert pm.facts.is_empty and pm.patterns == ()

    def test_rejects_forward_rules(self):
        with pytest.raises(NotForwardPropagating):
            reason(parse_program("diamondplus[1,2] A -> B ."), model_of("A@[0,1]."))

    def test_rejects_nonground(self):
        with pytest.raises(InputError):
            reason(parse_program("A(X) -> B(X) ."), model_of("A(c)@[0,1]."))

    def test_rejects_database_unbounded_below(self):
        with pytest.raises(InputError):
            reason(parse_program(WORKED_EXAMPLE), model_of("A@(-inf,1]."))

    def test_infinite_shift_edge_splits_the_group(self):
        # boxminus[3,inf) never fires: without its edge A's self-loop is
        # the only cycle, so the group's step is 2, not the gcd with B's
        program = parse_program(
            "boxminus[3,inf) A -> B .\nB -> A .\ndiamondminus[2,2] A -> A ."
        )
        database = model_of("A@[0,0].\nB@[1,1].")
        pm = reason(program, database)
        assert pm.period == 2
        horizon = check_horizon(pm, database)
        assert pm.unroll(horizon) == naive_fixpoint_bounded(program, database, horizon)

    def test_window_cap_is_a_diagnostic_error(self):
        with pytest.raises(WindowCapExceeded):
            reason(
                parse_program(WORKED_EXAMPLE), model_of("A@[0,1]."), window_cap=1
            )

    def test_database_ray_passes_through(self):
        pm = reason(parse_program("diamondminus[1,2] A -> B ."), model_of("A@[5,inf)."))
        assert pm.facts.get(Atom("B")) == IntervalSet.of(iv("[6,inf)"))

    def test_monotone_growth_across_iterations(self):
        snapshots = []
        reason(
            parse_program(WORKED_EXAMPLE),
            model_of("A@[0,1]."),
            on_iteration=lambda group, n, facts: snapshots.append(facts),
        )
        assert len(snapshots) >= 2
        for before, after in zip(snapshots, snapshots[1:]):
            for atom in before.atoms():
                assert after.get(atom).covers_set(before.get(atom))

    def test_period_is_below_the_lcm_of_cycle_shift_sums(self):
        # cycles of shift 4 and 6: pattern length 12, but from t = 4 on P
        # holds at every even point
        program = parse_program("diamondminus[4,4] P -> P .\ndiamondminus[6,6] P -> P .")
        pm = reason(program, model_of("P@[0,0]."))
        assert pattern_length(program) == 12
        assert pm.period == 2
        assert pm.patterns == (Pattern(Atom("P"), iv("[0,0]"), 2, F(2)),)

    def test_period_keeps_the_rhythm_of_the_cycles(self):
        # P holds at every integer from 0 on, which repeats every 1; the
        # period stays a multiple of the cycle's shift sum 5
        db = model_of("".join(f"P@[{t},{t}].\n" for t in range(5)))
        pm = reason(parse_program("diamondminus[5,5] P -> P ."), db)
        assert pm.period == 5
        assert [p.offset for p in pm.patterns] == [iv(f"[{t},{t}]") for t in range(5)]

    def test_multi_group_uses_patterns_of_previous_group(self):
        program = parse_program(
            "diamondminus[7,7] S -> S .\nS -> T .\ndiamondminus[2,3] T -> T ."
        )
        db = model_of("S@[0,1].")
        pm = reason(program, db)
        horizon = oracle_span(program, db, pm)
        oracle = naive_fixpoint_bounded(program, db, horizon)
        assert pm.unroll(horizon) == oracle

    def test_pattern_occurrences_lie_in_oracle_model(self):
        program = parse_program(WORKED_EXAMPLE)
        db = model_of("A@[0,1].")
        pm = reason(program, db)
        deep = pm.horizon + 10 * pm.period
        oracle = naive_fixpoint_bounded(program, db, deep)
        for pat in pm.patterns:
            for x in range(pat.start_index, pat.start_index + 8):
                occ = pat.occurrence(x)
                if occ.hi <= deep:
                    assert oracle.get(pat.atom).covers_interval(occ), (pat, x)


ORACLE_EQUIVALENCE_CASES = [
    (WORKED_EXAMPLE, "A@[0,1]."),
    (WORKED_EXAMPLE, "A@[0,1].\nA@[100,103].\nB@[6,6]."),
    (BOX_SELF_LOOP, "A@[0,1]."),
    (BOX_SELF_LOOP, "A@[0,7]."),
    (NONLINEAR_DIAMOND, "A@[0,3].\nB@[2,4]."),
    ("diamondminus[5,6] A -> B .\nboxminus[4,5] B -> A .", "A@[0,3]."),
    ("A -> B .\nboxminus[1,2] A -> B .\nboxminus[10,12] B -> A .", "A@[2,5]."),
    ("diamondminus[7,7] Monday -> Monday .", "Monday@[0,1]."),
    # fact spanning multiple pattern lengths
    ("diamondminus[2,2] P -> P .", "P@[0,11]."),
    # punctual database fact and fractional shifts
    ("diamondminus[1/2,1/2] T -> T .", "T@[0,0]."),
    ("diamondminus[1/2,1] A -> B .\ndiamondminus[1/4,1] B -> A .", "A@[0,1/8]."),
    # box lookback longer than the period of its group
    (
        "diamondminus[2,2] S -> S .\nboxminus[0,5] S -> W .",
        "S@[0,3].",
    ),
    # two groups joined by a horn rule
    (
        "diamondminus[3,3] X -> X .\ndiamondminus[4,4] Y -> Y .\nX, Y -> Z .",
        "X@[0,1].\nY@[0,2].",
    ),
    # negative-time seeds, including one window-boundary-aligned
    (WORKED_EXAMPLE, "A@[-20,-19]."),
    (WORKED_EXAMPLE, "A@[-7,-6].\nA@[0,1]."),
    ("diamondminus[3/4,3/4] T -> T .", "T@[-3/4,-1/2]."),
    # an unbounded range carries E@[0,0] into windows some 40 periods
    # later, beyond any finite lookback
    ("diamondminus[2,inf) E -> T .", "E@[0,0].\nE@[40,40]."),
    # an in-group diamondminus reaching further (7) than its cycle shifts
    # (3): the group is still ending after two slabs of width 3 match
    (
        "diamondminus[3,6] N1 -> N2 .\nN0, diamondminus[3,7] N0 -> N0 .",
        "N0@[6,11].",
    ),
]


def _gcd(values) -> F:
    """gcd of rationals: gcd(a/b, c/d) = gcd(ad, cb) / bd."""
    out = F(0)
    for v in map(F, values):
        out = F(
            math.gcd(out.numerator * v.denominator, v.numerator * out.denominator),
            out.denominator * v.denominator,
        )
    return out


class TestShiftGcd:
    def test_agrees_with_the_shift_sums_of_the_cycles(self):
        """``_shift_gcd`` enumerates no cycle, yet gives the gcd of the
        positive finite shift sums of the group's simple cycles (0 when
        there is none), with fractional ranges and with ``inf`` edges
        that split a group into several parts."""
        import random

        from chronolog.reasoner import _shift_gcd

        rng = random.Random(5692)
        groups = positive = 0
        for _ in range(400):
            preds = [f"P{i}" for i in range(rng.randint(1, 4))]
            lines = []
            for _ in range(rng.randint(1, 7)):
                op = rng.choice(["diamondminus", "boxminus", None])
                if op is None:
                    body = ", ".join(rng.sample(preds, k=rng.randint(1, len(preds))))
                else:
                    a = F(rng.randint(0, 8), rng.choice((1, 2, 3)))
                    b = rng.choice([a, a + rng.randint(0, 4), "inf"])
                    close = ")" if b == "inf" else "]"
                    body = f"{op}[{a},{b}{close} {rng.choice(preds)}"
                lines.append(f"{body} -> {rng.choice(preds)} .")
            program = parse_program("\n".join(lines))
            cycles = simple_cycles(dependency_graph(program))
            for group in group_and_sort(program):
                sums = [
                    s for c in cycles[group.predicates] if 0 < (s := c.shift_sum) < POS_INF
                ]
                assert _shift_gcd(group) == _gcd(sums), lines
                groups += 1
                positive += bool(sums)
        assert groups > 400 and positive > 100


class TestOracleEquivalence:
    @pytest.mark.parametrize("text,db_text", ORACLE_EQUIVALENCE_CASES)
    def test_unrolled_reason_equals_oracle(self, text, db_text):
        program = to_normal_form(parse_program(text))
        db = parse_database(db_text)
        pm = reason(program, db)
        horizon = oracle_span(program, db, pm)
        assert pm.unroll(horizon) == naive_fixpoint_bounded(program, db, horizon)


def test_in_group_stretching_diamond_matches_oracle():
    # the stretching diamondminus[3,7] keeps A@[9,18] growing for longer
    # than the pattern length; the slab is 7 wide, so A ends before it repeats
    program = parse_program("diamondminus[3,7] N0 -> A .\nN0, A -> N0 .")
    db = model_of("N0@[6,11].")
    pm = reason(program, db)
    assert pm.facts.get(Atom("A")) == IntervalSet.of(iv("[9,18]"))
    horizon = oracle_span(program, db, pm)
    assert pm.unroll(horizon) == naive_fixpoint_bounded(program, db, horizon)


# Its cycles' shift sums have the lcm 78540, yet its model is constant
# from t = 9 on.
LCM_78540_PROGRAM = (
    "diamondminus[7,9] P2 -> P0 .\nP1, P3, P0 -> P2 .\nP3, P0, P1 -> P2 .\n"
    "boxminus(4,10] P0 -> P3 .\ndiamondminus[12,12] P2 -> P1 .\n"
    "diamondminus[4,8] P0 -> P0 .\ndiamondminus[2,6] P1 -> P3 .\n"
    "P2, P1, P3 -> P0 .\nP1, P0, P3 -> P0 ."
)
LCM_78540_DATABASE = "P0@[22,34].\nP1@[7,34].\nP2@[6,30].\nP1@[29,inf)."


def test_period_far_below_the_lcm_of_cycle_shift_sums():
    program = parse_program(LCM_78540_PROGRAM)
    db = model_of(LCM_78540_DATABASE)
    assert pattern_length(program) == 78540
    chunks = []
    pm = reason(program, db, on_iteration=lambda group, n, facts: chunks.append(n))
    assert len(chunks) < 200
    assert 78540 % pm.period == 0
    horizon = check_horizon(pm, db)
    assert pm.unroll(horizon) == naive_fixpoint_bounded(program, db, horizon)


class TestEntails:
    @pytest.fixture()
    def periodic(self):
        return reason(parse_program(WORKED_EXAMPLE), model_of("A@[0,1]."))

    def test_derived_fact(self, periodic):
        assert periodic.entails(parse_fact("B@[10,12]"))

    def test_underivable_fact(self, periodic):
        assert not periodic.entails(parse_fact("A@[5,6]"))

    def test_far_future_occurrence(self, periodic):
        assert periodic.entails(parse_fact("A@[700,701]"))
        assert not periodic.entails(parse_fact("A@[701,702]"))

    def test_ray_covers_unbounded_queries(self):
        pm = reason(parse_program(BOX_SELF_LOOP), model_of("A@[0,7]."))
        assert pm.entails(parse_fact("A@[100,200]"))
        assert pm.entails(parse_fact("A@[5,inf)"))

    def test_gappy_patterns_fail_unbounded_queries(self, periodic):
        assert not periodic.entails(parse_fact("A@[0,inf)"))

    def test_tiling_patterns_cover_unbounded_queries(self):
        program = parse_program(
            "diamondminus[2,2] P -> P .\ndiamondminus[0,1] P -> Q ."
        )
        pm = reason(program, model_of("P@[0,1]."))
        assert pm.entails(parse_fact("Q@[0,inf)"))
        assert pm.entails(parse_fact("P@[0,1]"))
        assert not pm.entails(parse_fact("P@[0,inf)"))

    def test_open_query_at_pattern_edge(self, periodic):
        assert periodic.entails(parse_fact("B@(10,12)"))
        assert not periodic.entails(parse_fact("B@[10,12.5]"))

    def test_far_point_query_looks_at_one_occurrence(self):
        monday = Pattern(Atom("Mon"), iv("[0,1)"), 0, F(7))
        pm = PeriodicModel(Model(), (monday,), F(7), F(0))
        t = 7 * (10**7 // 7 + 1)  # the first Monday after 10^7
        query = Interval.point(t)
        assert len(pm.coverage(Atom("Mon"), query)) == 1
        assert len(list(occurrences(monday, query))) <= 2
        assert pm.entails(Fact(Atom("Mon"), query))
        assert not pm.entails(Fact(Atom("Mon"), Interval.point(t + 1)))


def _brute_entails(pm, fact):
    """Entailment read off the unrolled model, occurrence by occurrence."""
    query = fact.interval
    if query.hi != POS_INF:
        hi = query.hi
    else:
        # past every stored endpoint and pattern start the model repeats,
        # so a query ray holds iff it holds for two periods beyond them
        ends = [pm.horizon, query.lo, *pm.facts.finite_endpoints()]
        ends += [p.first_occurrence().hi for p in pm.patterns]
        hi = max(ends) + 2 * pm.period
        query = query.intersect(Interval(NEG_INF, hi))
    return pm.unroll(hi + pm.period).get(fact.atom).covers_interval(query)


class TestEntailsDifferential:
    @pytest.mark.parametrize("generator", ["forward", "nested"])
    def test_entails_equals_unrolled_model(self, generator):
        import random

        from test_acceptance import _random_fp_program

        make = {"forward": _random_fp_program, "nested": _random_nested_program}[generator]
        rng = random.Random(31)
        for _ in range(60):
            text, db_text = make(rng)
            program = to_normal_form(parse_program(text))
            pm = reason(program, parse_database(db_text))
            for _ in range(8):
                atom = Atom(rng.choice(program.predicates()))
                lo = to_time(F(rng.randint(-4, 240), rng.choice((1, 2))))
                hi = rng.choice((lo, lo + rng.randint(1, 9), POS_INF))
                fact = Fact(atom, Interval(lo, hi))
                assert pm.entails(fact) == _brute_entails(pm, fact), (text, db_text, str(fact))


class TestPeriodFromRepeatedState:
    """``reason`` against the oracle on both random program generators, with
    the paper's pattern length as a bound that every period divides, and
    a horizon from which one period earlier the model does not repeat."""

    @pytest.mark.parametrize("generator", ["forward", "nested"])
    def test_random_programs(self, generator, monkeypatch):
        import math
        import random

        from chronolog import analysis
        from test_acceptance import _random_fp_program

        def refuse(*args, **kwargs):
            raise AssertionError("reason must not enumerate cycles")

        make = {"forward": _random_fp_program, "nested": _random_nested_program}[generator]
        rng = random.Random(4)
        compacted = 0
        for _ in range(150):
            text, db_text = make(rng)
            program = to_normal_form(parse_program(text))
            db = parse_database(db_text)
            with monkeypatch.context() as patched:
                patched.setattr(analysis, "pattern_length", refuse)
                patched.setattr(analysis, "simple_cycles", refuse)
                pm = reason(program, db)
            plength = pattern_length(program)
            assert plength % pm.period == 0, (text, db_text)
            assert all(plength % pat.period == 0 for pat in pm.patterns), (text, db_text)
            horizon = oracle_span(program, db, pm, plength_cap=200)
            assert pm.unroll(horizon) == naive_fixpoint_bounded(program, db, horizon), (
                text,
                db_text,
            )
            # one period before the horizon the model no longer repeats,
            # unless the search for the horizon stopped at its floor
            h, q = pm.horizon, pm.period
            if h - q < min_time_point(db) // q * q:
                continue
            compacted += 1
            unrolled = pm.unroll(h + q)
            before = unrolled.restrict(Interval(h - q, h, False, True))
            after = unrolled.restrict(Interval(h, h + q, False, True))
            shifted = Model({atom: ivs.shift(-q) for atom, ivs in after.items()})
            assert before != shifted, (text, db_text)
        assert compacted >= 30


def _inexact_endpoints(model) -> list:
    """The endpoints of a model that are not an int, a Fraction or an
    infinity (a finite float or nan would be one)."""
    return [
        e for _, ivs in model.items() for p in ivs for e in (p.lo, p.hi)
        if type(e) not in (int, F) and e not in (NEG_INF, POS_INF)
    ]


def _inexact_parts(pm) -> list:
    pieces = Model({pat.atom: IntervalSet.of(pat.offset) for pat in pm.patterns})
    numbers = [pm.period, pm.horizon, *(pat.period for pat in pm.patterns)]
    return (
        _inexact_endpoints(pm.facts) + _inexact_endpoints(pieces)
        + [n for n in numbers if type(n) not in (int, F)]
    )


class TestExactNumbers:
    """Endpoints are ints, Fractions or the two infinities: never a float
    from ``/``, nor a rounded huge int."""

    @pytest.mark.parametrize("generator", ["forward", "nested"])
    def test_outputs_hold_only_exact_numbers(self, generator):
        import random

        from test_acceptance import _random_fp_program

        make = {"forward": _random_fp_program, "nested": _random_nested_program}[generator]
        rng = random.Random(12)
        for _ in range(60):
            text, db_text = make(rng)
            program = to_normal_form(parse_program(text))
            db = parse_database(db_text)
            pm = reason(program, db)
            horizon = check_horizon(pm, db)
            assert not _inexact_parts(pm), (text, db_text)
            assert not _inexact_endpoints(pm.unroll(horizon)), (text, db_text)
            assert not _inexact_endpoints(naive_fixpoint_bounded(program, db, horizon))

    @pytest.mark.parametrize("generator", ["forward", "nested"])
    def test_far_endpoints_and_thirds_match_oracle(self, generator):
        import random
        import re

        from test_acceptance import _random_fp_program

        make = {"forward": _random_fp_program, "nested": _random_nested_program}[generator]
        rng = random.Random(60)
        for trial in range(40):
            text, db_text = make(rng)
            if trial % 2:  # operator ranges with denominator 3
                text = re.sub(r"\[(\d+),(\d+)\]", r"[\1/3,\2/3]", text)
            base = 2**60 + trial
            db_text = re.sub(
                r"\[(\d+),(\d+)\]",
                lambda m: f"[{base + int(m[1])},{base + int(m[2])}]",
                db_text,
            )
            program = to_normal_form(parse_program(text))
            db = parse_database(db_text)
            pm = reason(program, db)
            horizon = check_horizon(pm, db)
            assert pm.unroll(horizon) == naive_fixpoint_bounded(program, db, horizon), (
                text, db_text,
            )
            assert not _inexact_parts(pm), (text, db_text)

    def test_ints_past_the_float_range_meet_infinities(self):
        # 10**400 + inf overflows in float arithmetic
        big = 10**400
        program = parse_program(
            "diamondminus[1,inf) A -> B .\nboxminus[0,inf) B -> C .\n"
            "diamondminus[2,3] A -> D .\ndiamondminus[1,1] D -> D ."
        )
        db = parse_database(f"A@[{big},{big + 1}].\nC@[{big},inf).")
        pm = reason(program, db)
        horizon = check_horizon(pm, db)
        assert pm.unroll(horizon) == naive_fixpoint_bounded(program, db, horizon)
        assert pm.entails(Fact(Atom("B"), Interval.ray_from(big + 1)))
        assert pm.entails(Fact(Atom("D"), Interval.ray_from(big + 2)))
        assert not pm.entails(Fact(Atom("D"), Interval.ray_from(big + 1)))

    def test_weekly_query_just_past_ten_to_the_eighteenth(self):
        from pathlib import Path

        fixtures = Path(__file__).parent / "fixtures"
        program = parse_program((fixtures / "weekly.dmtl").read_text())
        pm = reason(program, parse_database((fixtures / "weekly.db").read_text()))
        # 10**18 = 7 * 142857142857142857 + 1: Monday@[10**18 - 1, 10**18];
        # a float quotient of these ints is off by more than one period
        assert pm.entails(parse_fact("Monday@[999999999999999999.5,1000000000000000000]"))
        assert not pm.entails(
            parse_fact("Monday@[1000000000000000000.5,1000000000000000000.5]")
        )
        assert pm.entails(parse_fact("Monday@[999999999999999999,1000000000000000000]"))
        assert pm.entails(parse_fact("Monday@[1000000000000000006,1000000000000000006]"))
        assert not pm.entails(parse_fact("Monday@[1000000000000000000,1000000000000000001]"))


def _random_nested_program(rng):
    preds = ["N0", "N1", "N2"]

    def literal(depth):
        if depth == 0 or rng.random() < 0.35:
            return rng.choice(preds)
        a = rng.randint(0, 6)
        b = rng.randint(a, 8)
        op = rng.choice(["diamondminus", "diamondminus", "boxminus"])
        return f"{op}[{a},{b}] {literal(depth - 1)}"

    lines = []
    for _ in range(rng.randint(1, 4)):
        head = rng.choice(preds)
        body = ", ".join(literal(rng.randint(1, 2)) for _ in range(rng.randint(1, 2)))
        lines.append(f"{body} -> {head} .")
    facts = []
    for _ in range(rng.randint(1, 3)):
        lo = rng.randint(0, 10)
        hi = rng.randint(lo, 12)
        facts.append(f"{rng.choice(preds)}@[{lo},{hi}].")
    return "\n".join(lines), "\n".join(facts)


class TestMinimalHorizon:
    """Each group settles on its own inputs, and its periodic part starts
    at the least multiple of its period from which its facts repeat."""

    def test_unrelated_fact_moves_nothing(self):
        program = parse_program(WORKED_EXAMPLE)
        derived = {}  # pieces of A after each chunk

        def run(db_text):
            sizes = derived.setdefault(db_text, [])

            def count(group, n, facts):
                sizes.append(len(facts.get(Atom("A"))))

            return reason(program, model_of(db_text), on_iteration=count)

        alone = run("A@[0,1].")
        pm = run("A@[0,1].\nZ@[10000,10000].")
        assert (pm.horizon, pm.period) == (alone.horizon, alone.period) == (0, 7)
        # the group does not derive out to the unrelated fact either
        assert derived["A@[0,1].\nZ@[10000,10000]."] == derived["A@[0,1]."]
        assert pm.patterns == alone.patterns
        assert str(pm.facts) == "Z@{[10000,10000]}"

    def test_chain_cost_does_not_grow_with_the_first_group(self, monkeypatch):
        """Count-only: the window widths the groups after ``P0`` derive do
        not depend on how far out ``P0``'s last database point lies."""
        from chronolog import reasoner

        derive = reasoner._derive_group
        widths: dict[str, F] = {}

        def counting(group, facts, patterns, window):
            name = ",".join(sorted(group.predicates))
            widths[name] = widths.get(name, 0) + window.hi - window.lo
            derive(group, facts, patterns, window)

        monkeypatch.setattr(reasoner, "_derive_group", counting)
        k = 20
        rules = [f"diamondminus[5,5] P{i} -> P{i} ." for i in range(k)]
        rules += [f"diamondminus[1,1] P{i} -> P{i + 1} ." for i in range(k - 1)]
        program = parse_program("\n".join(rules))
        later = []
        for span in (500, 5000):
            widths.clear()
            points = [0, 1, 2, 3, 4, span - 7, span - 3, span - 1]
            reason(program, model_of("".join(f"P0@[{t},{t}].\n" for t in points)))
            assert len(widths) == k
            later.append(sum(w for name, w in widths.items() if name != "P0"))
        assert later[0] == later[1] < 1000

    def test_group_loop_does_not_sort_the_whole_database(self, monkeypatch):
        """Count-only: with many database atoms that no rule reads, the
        atoms ``reason`` orders by ``_atom_key`` grow with the database
        once, not once per group."""
        from chronolog import reasoner

        key = reasoner._atom_key
        calls = 0

        def counting(atom):
            nonlocal calls
            calls += 1
            return key(atom)

        monkeypatch.setattr(reasoner, "_atom_key", counting)
        k, n = 40, 2000
        program = parse_program(
            "\n".join(f"diamondminus[1,1] P{i} -> P{i + 1} ." for i in range(k))
        )
        database = model_of("P0@[0,0].\n" + "".join(f"Z(c{j})@[0,1].\n" for j in range(n)))
        calls = 0
        pm = reason(program, database)
        assert pm.horizon == k + 1
        assert calls < 3 * n


class TestFullPipeline:
    def test_nested_programs_through_normal_form_match_direct_oracle(self):
        """Normalize-then-reason agrees with the oracle evaluating the
        original nested bodies directly (auxiliary predicates dropped)."""
        import random

        rng = random.Random(99)
        for _ in range(60):
            text, db_text = _random_nested_program(rng)
            original = parse_program(text)
            db = parse_database(db_text)
            normal = to_normal_form(original)
            pm = reason(normal, db)
            horizon = oracle_span(normal, db, pm)
            left = Model(
                {
                    atom: ivs
                    for atom, ivs in pm.unroll(horizon).items()
                    if not atom.predicate.startswith("_aux")
                }
            )
            assert left == naive_fixpoint_bounded(original, db, horizon), (
                text,
                db_text,
            )


class TestRepresentationInvariant:
    @pytest.mark.parametrize("text,db_text", ORACLE_EQUIVALENCE_CASES)
    def test_unrolling_beyond_horizon_reproduces_model(self, text, db_text):
        """Unrolling patterns into any window beyond the horizon and
        coalescing with the stored facts reproduces the oracle exactly."""
        program = to_normal_form(parse_program(text))
        db = parse_database(db_text)
        pm = reason(program, db)
        for extra in (1, 2, 5):
            horizon = pm.horizon + extra * pm.period + F(1, 3)
            assert pm.unroll(horizon) == naive_fixpoint_bounded(program, db, horizon)
