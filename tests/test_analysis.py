"""Dependency graphs, cycle enumeration, classification, pattern length."""

import random
import re
from fractions import Fraction as F
from pathlib import Path

import networkx as nx
import pytest

from chronolog import analysis
from chronolog.analysis import (
    DEFAULT_CYCLE_CAP,
    DepGraph,
    RuleClass,
    _edge_cycles,
    classify_rules,
    dependency_graph,
    fragment_checks,
    max_applications,
    pattern_length,
    simple_cycles,
)
from chronolog.errors import CycleCapExceeded
from chronolog.intervals import Interval, POS_INF, parse_interval
from chronolog.reasoner import check_horizon, naive_fixpoint_bounded, reason
from chronolog.syntax import (
    Atom,
    Program,
    ground,
    is_forward_propagating,
    parse_database,
    parse_program,
    to_normal_form,
)
from generators import (
    _random_fp_program,
    _random_linear_diamond,
    _random_nested_program,
    _random_nonground_program,
)


FIXTURES = Path(__file__).parent / "fixtures"

WORKED_EXAMPLE = "diamondminus[3,4] A -> B .\nboxminus[3,4] B -> A ."

NONLINEAR_DIAMOND = (
    "A, B -> C .\n"
    "diamondminus[3,5] C -> A .\n"
    "diamondminus[5,6] C -> B ."
)

FIGURE_PROGRAM = """
diamondminus[1,2] X -> Y .
diamondminus[3,5] Y -> A .
A -> B .
B -> C .
C -> A .
C -> D .
diamondminus[1,2] D -> D .
D, E -> E .
diamondminus[1,2] E -> E .
"""


class TestDependencyGraph:
    def test_worked_example_two_special_edges(self):
        g = dependency_graph(parse_program(WORKED_EXAMPLE))
        assert g.nodes == ("A", "B")
        assert len(g.edges) == 2
        assert all(e.special for e in g.edges)
        shifts = {(e.source, e.target): e.shift_label for e in g.edges}
        assert shifts[("A", "B")] == 3  # diamond labels its left end
        assert shifts[("B", "A")] == 4  # box labels its right end

    def test_empty_program(self):
        g = dependency_graph(Program(()))
        assert g.nodes == () and g.edges == ()

    def test_nonlinear_diamond_edges(self):
        g = dependency_graph(parse_program(NONLINEAR_DIAMOND))
        by_pair = {(e.source, e.target): e for e in g.edges}
        assert set(by_pair) == {("A", "C"), ("B", "C"), ("C", "A"), ("C", "B")}
        assert by_pair[("A", "C")].shift_label == 0
        assert by_pair[("B", "C")].shift_label == 0
        assert by_pair[("C", "A")].shift_label == 3
        assert by_pair[("C", "B")].shift_label == 5

    def test_unbounded_box_shift_is_infinite(self):
        g = dependency_graph(parse_program("boxminus[3,inf) A -> B ."))
        assert g.edges[0].shift_label == POS_INF

    def test_duplicate_body_predicate_single_edge(self):
        g = dependency_graph(parse_program("A(c), A(d) -> B ."))
        assert len(g.edges) == 1

    def test_shift_label_is_an_interval_label_endpoint(self):
        for text in (WORKED_EXAMPLE, NONLINEAR_DIAMOND, FIGURE_PROGRAM):
            for e in dependency_graph(parse_program(text)).edges:
                assert e.shift_label in (e.interval_label.lo, e.interval_label.hi)


class TestComponents:
    def test_dependency_order_before_names(self):
        # B feeds A, so B's component comes first though A sorts first
        g = DepGraph(
            ("A", "B", "C"),
            (analysis.Edge("B", "A", "r1", False, Interval.closed(0, 0), 0),),
        )
        assert g.components == (frozenset({"B"}), frozenset({"A"}), frozenset({"C"}))

    def test_ties_go_to_the_smaller_sorted_member_list(self):
        g = dependency_graph(parse_program(
            "D -> C .\nC -> D .\nB -> A .\nA -> B .\nE -> A .\nE -> C ."
        ))
        assert g.components == (
            frozenset({"E"}), frozenset({"A", "B"}), frozenset({"C", "D"}),
        )

    def test_computed_once(self, monkeypatch):
        g = dependency_graph(parse_program(FIGURE_PROGRAM))
        calls = 0
        sccs = analysis._sccs

        def counted(succ):
            # _edge_cycles starts from g.components and runs _sccs only on
            # what is left of a component once its start node is removed
            nonlocal calls
            calls += set(succ) == set(g.nodes)
            return sccs(succ)

        monkeypatch.setattr(analysis, "_sccs", counted)
        first = g.components
        assert g.components is first
        assert g.scc_of is g.scc_of
        assert g.scc_of == {n: i for i, c in enumerate(first) for n in c}
        simple_cycles(g)
        fragment_checks(parse_program(FIGURE_PROGRAM), g)
        assert calls == 1


class TestSimpleCycles:
    def test_worked_example_single_cycle(self):
        g = dependency_graph(parse_program(WORKED_EXAMPLE))
        per_scc = simple_cycles(g)
        cycles = per_scc[frozenset({"A", "B"})]
        assert len(cycles) == 1
        (cycle,) = cycles
        assert cycle.shift_sum == 7
        # Minkowski sum of the labels [3,4] + [3,4]
        assert cycle.weight == parse_interval("[6,8]")

    def test_self_loop(self):
        g = dependency_graph(parse_program("diamondminus[1,2] D -> D ."))
        cycles = simple_cycles(g)[frozenset({"D"})]
        assert len(cycles) == 1
        assert cycles[0].shift_sum == 1

    def test_acyclic(self):
        g = dependency_graph(parse_program("A -> B .\nB -> C ."))
        assert all(not cycles for cycles in simple_cycles(g).values())

    def test_parallel_self_loops_are_distinct_cycles(self):
        g = dependency_graph(
            parse_program("diamondminus[1,2] E -> E .\nE -> E .")
        )
        cycles = simple_cycles(g)[frozenset({"E"})]
        assert sorted(str(c.shift_sum) for c in cycles) == ["0", "1"]

    def test_cycle_cap(self):
        # complete digraph on 6 nodes has > 400 elementary cycles
        names = ["N0", "N1", "N2", "N3", "N4", "N5"]
        rules = [
            f"{a} -> {b} ." for a in names for b in names if a != b
        ]
        g = dependency_graph(parse_program("\n".join(rules)))
        with pytest.raises(CycleCapExceeded):
            simple_cycles(g, cycle_cap=10)


def _nx_components(graph):
    """Reference for ``DepGraph.components``: networkx's condensation in
    lexicographic topological order of the sorted member lists."""
    g = nx.DiGraph()
    g.add_nodes_from(graph.nodes)
    g.add_edges_from((e.source, e.target) for e in graph.edges)
    cond = nx.condensation(g)
    members = {c: tuple(sorted(cond.nodes[c]["members"])) for c in cond}
    order = nx.lexicographical_topological_sort(cond, key=members.__getitem__)
    return tuple(frozenset(members[c]) for c in order)


def _nx_edge_cycles(graph, cap):
    """Reference for ``_edge_cycles``: networkx's circuits of the graph
    with every edge subdivided through a midpoint node."""
    g = nx.DiGraph()
    for node in graph.nodes:
        g.add_node(("p", node))
    for idx, e in enumerate(graph.edges):
        g.add_edge(("p", e.source), ("e", idx))
        g.add_edge(("e", idx), ("p", e.target))
    cycles = []
    for cyc in nx.simple_cycles(g):
        idxs = [n[1] for n in cyc if n[0] == "e"]
        first = idxs.index(min(idxs))
        idxs = idxs[first:] + idxs[:first]
        cycles.append(analysis.Cycle(tuple(graph.edges[i] for i in idxs)))
        if len(cycles) > cap:
            raise CycleCapExceeded(f"more than {cap} simple cycles")
    cycles.sort(key=lambda c: tuple(e.rule_id for e in c.edges))
    return cycles


def _random_dependency_graph(rng):
    """A dependency graph as ``dependency_graph`` builds them: per rule,
    one edge from each distinct body predicate to the head, so two rules
    give parallel edges and a head in its own body a self-loop."""
    names = rng.sample(["A", "AB", "B", "B1", "B10", "C", "D", "E"], rng.randint(1, 7))
    edges = []
    for j in range(rng.randint(0, 10)):
        head = rng.choice(names)
        for source in dict.fromkeys(rng.choices(names, k=rng.randint(1, 3))):
            shift = rng.randint(0, 3)
            edges.append(analysis.Edge(
                source, head, f"r{j + 1}", shift > 0, Interval.closed(shift, shift), shift
            ))
    return DepGraph(tuple(names), tuple(edges))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except CycleCapExceeded as exc:
        return str(exc)


class TestAgainstNetworkx:
    def test_random_multigraphs(self):
        rng = random.Random(10)
        capped = 0
        for _ in range(1000):
            graph = _random_dependency_graph(rng)
            assert graph.components == _nx_components(graph), graph
            for cap in (5, 50, DEFAULT_CYCLE_CAP):
                ours = _outcome(_edge_cycles, graph, cap)
                assert ours == _outcome(_nx_edge_cycles, graph, cap), (graph, cap)
                capped += isinstance(ours, str)
        assert capped >= 100

    def test_long_ring_and_chain_stay_iterative(self):
        names = tuple(f"P{i}" for i in range(5000))
        edges = tuple(
            analysis.Edge(a, b, f"r{i}", False, Interval.closed(0, 0), 0)
            for i, (a, b) in enumerate(zip(names, names[1:] + names[:1]))
        )
        ring = DepGraph(names, edges)
        assert ring.components == (frozenset(names),)
        (cycle,) = _edge_cycles(ring, DEFAULT_CYCLE_CAP)
        assert cycle.edges == edges
        chain = DepGraph(names, edges[:-1])
        assert chain.components == tuple(frozenset({name}) for name in names)
        assert _edge_cycles(chain, DEFAULT_CYCLE_CAP) == []


class TestClassification:
    def test_figure_marking_cases(self):
        """Each node is marked by the expected case: source (i), fed by
        finite edges (ii), temporal-acyclic component (iii),
        intersection-guarded cycle (iv); the unguarded temporal self-loop
        stays unmarked."""
        report = classify_rules(parse_program(FIGURE_PROGRAM))
        assert report.finite_nodes == {
            "X": "i",
            "Y": "ii",
            "A": "iii",
            "B": "iii",
            "C": "iii",
            "E": "iv",
        }
        assert "D" not in report.finite_nodes

    def test_box_self_loop_with_seeded_cycle_is_dangerous(self):
        program = parse_program("boxminus[3,7] A -> A .")
        report = classify_rules(program, parse_database("A@[0,1]."))
        assert report.rule_classes["r1"] is RuleClass.DANGEROUS
        assert not report.harmless_program

    def test_box_self_loop_without_database_is_guarded(self):
        report = classify_rules(parse_program("boxminus[3,7] A -> A ."))
        assert report.finite_nodes == {"A": "iv"}

    def test_edb_edge_is_harmless(self):
        report = classify_rules(parse_program("A -> B ."))
        assert report.rule_classes["r1"] is RuleClass.HARMLESS
        assert report.harmless_program

    def test_harmful_horn_cycle(self):
        # Horn recursion with no finite body atom is harmful, not dangerous
        program = parse_program(
            "diamondminus[1,2] S -> S .\nS -> P .\nP -> S ."
        )
        report = classify_rules(program, parse_database("S@[0,1]."))
        assert report.rule_classes["r2"] is RuleClass.HARMFUL
        assert report.rule_classes["r1"] is RuleClass.DANGEROUS

    def test_unbounded_program_warns_and_marks_nothing(self):
        report = classify_rules(parse_program("diamondminus[0,inf) A -> B ."))
        assert report.warning is not None
        assert report.finite_nodes == {}

    def test_marking_is_rule_order_independent(self):
        lines = [l for l in FIGURE_PROGRAM.strip().splitlines()]
        rng = random.Random(7)
        baseline = classify_rules(parse_program(FIGURE_PROGRAM)).finite_nodes
        for _ in range(5):
            rng.shuffle(lines)
            report = classify_rules(parse_program("\n".join(lines)))
            assert report.finite_nodes == baseline


def _per_node_marking(program, graph, all_cycles, seedable, unbounded):
    """Reference finite marking: every unmarked node tests each case on
    its own, rebuilding the reduced graph and enumerating its SCC's
    cycles afresh for case (iii). A node with an unbounded database fact
    is never marked."""
    body_preds = {r.id: {a.predicate for a in r.body_atoms} for r in program.rules}
    head_rules = {n: [r for r in program.rules if r.head.predicate == n] for n in graph.nodes}
    finite: dict[str, str] = {}

    def case_iii(node, finite_edges):
        keep = [
            e for i, e in enumerate(graph.edges)
            if i not in finite_edges and e.source not in finite and e.target not in finite
        ]
        g = nx.DiGraph()
        g.add_nodes_from(n for n in graph.nodes if n not in finite)
        g.add_edges_from((e.source, e.target) for e in keep)
        scc = next(c for c in nx.strongly_connected_components(g) if node in c)
        if any(e.target in scc and e.source not in scc for e in keep):
            return False
        inner = DepGraph(
            tuple(sorted(scc)),
            tuple(e for e in keep if e.source in scc and e.target in scc),
        )
        return all(c.temporal_acyclic for c in _edge_cycles(inner, DEFAULT_CYCLE_CAP))

    def case_iv(node):
        cycles = [c for c in all_cycles if node in c.nodes]
        return bool(cycles) and all(
            not (set(c.nodes) & seedable)
            and all(body_preds[r.id] & set(c.nodes) for m in c.nodes for r in head_rules[m])
            for c in cycles
        )

    while True:
        finite_edges = {
            i for i, e in enumerate(graph.edges)
            if any(p in finite for p in body_preds[e.rule_id])
        }
        marks = {}
        for node in graph.nodes:
            if node in finite or node in unbounded:
                continue
            incoming = [i for i, e in enumerate(graph.edges) if e.target == node]
            if not incoming:
                marks[node] = "i"
            elif all(i in finite_edges for i in incoming):
                marks[node] = "ii"
            elif case_iii(node, finite_edges):
                marks[node] = "iii"
            elif case_iv(node):
                marks[node] = "iv"
        if not marks:
            return finite
        finite.update(marks)


class TestFiniteMarking:
    def test_matches_per_node_marking_on_random_programs(self, monkeypatch):
        rng = random.Random(5)
        compared = case_iii = 0
        for make in (_random_fp_program, _random_nested_program):
            for _ in range(160):
                text, db_text = make(rng)
                program = to_normal_form(parse_program(text))
                rays = re.sub(r",[^,\]]+\]\.", ",inf).", db_text, count=1)
                for database in (None, parse_database(db_text), parse_database(rays)):
                    report = classify_rules(program, database)
                    with monkeypatch.context() as patched:
                        patched.setattr(analysis, "_finite_marking", _per_node_marking)
                        reference = classify_rules(program, database)
                    assert report.finite_nodes == reference.finite_nodes, (text, database)
                    assert report.rule_classes == reference.rule_classes, (text, database)
                    assert report.harmless_program == reference.harmless_program
                    compared += 1
                    case_iii += "iii" in report.finite_nodes.values()
        assert compared == 960
        assert case_iii >= 50

    def test_database_ray_is_not_finite(self):
        # Link(a,b)@[0,inf) feeds Reach and Open forever: reason gives
        # them period-6 patterns that never stop
        program = to_normal_form(parse_program((FIXTURES / "reach_join.dmtl").read_text()))
        database = parse_database((FIXTURES / "reach_join.db").read_text())
        report = classify_rules(program, database)
        assert report.finite_nodes == {}
        assert not report.harmless_program
        pm = reason(ground(program, database), database)
        assert {p.atom.predicate for p in pm.patterns} == {"Open", "Reach"}
        # a bounded database fact on a source predicate is still case (i)
        bounded = parse_database("Link(a,b)@[0,5].\nOpen(a)@[0,0].")
        assert classify_rules(program, bounded).finite_nodes["Link"] == "i"

    def test_marking_enumerates_no_cycles_and_one_scc_pass_per_round(self, monkeypatch):
        # P and Q are marked in the first round, R in the second, and the
        # third marks nothing; the 301-node cycle through C stays unmarked
        # (C is fed), so every round tests it for case (iii)
        text = "diamondminus[1,1] " * 300 + "C -> C .\nP(X), Q(X,Y) -> R(Y) .\n"
        program = to_normal_form(parse_program(text))
        database = parse_database("C@[0,0].\nP(a)@[0,1].\nQ(a,b)@[0,1].\n")
        active: list[str] = []
        edge_cycle_callers: list[tuple[str, ...]] = []
        marking_sccs = 0

        def tracked(name, fn):
            def wrapper(*args, **kwargs):
                active.append(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    active.pop()
            return wrapper

        def edge_cycles(*args, **kwargs):
            edge_cycle_callers.append(tuple(active))
            return _edge_cycles(*args, **kwargs)

        sccs = analysis._sccs

        def counted_sccs(succ):
            nonlocal marking_sccs
            marking_sccs += "_finite_marking" in active
            return sccs(succ)

        monkeypatch.setattr(analysis, "_edge_cycles", edge_cycles)
        monkeypatch.setattr(analysis, "simple_cycles", tracked("simple_cycles", simple_cycles))
        monkeypatch.setattr(
            analysis, "_finite_marking", tracked("_finite_marking", analysis._finite_marking)
        )
        monkeypatch.setattr(analysis, "_sccs", counted_sccs)
        report = classify_rules(program, database)

        assert report.finite_nodes == {"P": "i", "Q": "i", "R": "ii"}
        # one enumeration of the whole graph, not one per SCC
        assert edge_cycle_callers == [("simple_cycles",)]
        assert 0 < marking_sccs <= 3


class TestFragmentChecks:
    def test_union_violating_box_program(self):
        flags = fragment_checks(
            parse_program(
                "A -> B .\nboxminus[1,2] A -> B .\nboxminus[10,12] B -> A ."
            )
        )
        assert not flags.union_free
        assert flags.temporal_linear

    def test_alternating_diamond_box_program(self):
        flags = fragment_checks(
            parse_program("diamondminus[5,6] A -> B .\nboxminus[4,5] B -> A .")
        )
        assert flags.union_free
        assert flags.temporal_linear
        assert flags.forward_propagating

    def test_forward_operator_breaks_fp(self):
        flags = fragment_checks(parse_program("diamondplus[1,2] A -> B ."))
        assert not flags.forward_propagating

    def test_join_inside_temporal_cycle_breaks_linearity(self):
        flags = fragment_checks(parse_program(NONLINEAR_DIAMOND))
        assert not flags.temporal_linear

    def test_union_free_atom_level_for_ground(self):
        ground_p = parse_program("A(c) -> B(c) .\nA(d) -> B(d) .")
        assert fragment_checks(ground_p).union_free
        nonground = parse_program("A(X) -> B(X) .\nC(X) -> B(X) .")
        assert not fragment_checks(nonground).union_free

    def test_boundedness(self):
        assert fragment_checks(parse_program("A -> B .")).bounded
        assert not fragment_checks(parse_program("diamondminus[0,inf) A -> B .")).bounded
        # a rule firing everywhere normalizes to an always-true fact
        from chronolog.syntax import to_normal_form

        assert not fragment_checks(to_normal_form(parse_program("top -> B ."))).bounded
        # a vacuous `top` conjunct normalizes away and stays bounded
        assert fragment_checks(to_normal_form(parse_program("top, A -> B ."))).bounded
        assert fragment_checks(parse_program("A until[1,2] B -> C .")).bounded
        assert not fragment_checks(parse_program("A since[1,inf) B -> C .")).bounded
        assert not fragment_checks(parse_program("boxplus[0,inf) A -> B .")).bounded


class TestPatternLength:
    def test_worked_example(self):
        assert pattern_length(parse_program(WORKED_EXAMPLE)) == 7

    def test_not_a_period_of_a_program_with_constants(self):
        # the ground cycle Reach(a) -> Open(a) -> Reach(b) -> Open(b) ->
        # Reach(a) has shift sum 6; every predicate cycle has 3
        program = to_normal_form(parse_program((FIXTURES / "reach_join.dmtl").read_text()))
        database = parse_database((FIXTURES / "reach_join.db").read_text())
        grounded = ground(program, database)
        assert pattern_length(program) == pattern_length(grounded) == 3
        pm = reason(grounded, database)
        assert pm.period == 6
        horizon = check_horizon(pm, database)
        assert pm.unroll(horizon) == naive_fixpoint_bounded(grounded, database, horizon)

    def test_horn_only(self):
        assert pattern_length(parse_program("A -> B .\nB -> A .")) == 1

    def test_two_cycle_lcm(self):
        assert pattern_length(parse_program(NONLINEAR_DIAMOND)) == 15

    def test_two_cycle_length_is_a_valid_period(self):
        """The derived model repeats with the computed length even when a
        shorter true period exists: content of [T, T+L) shifted by L
        matches [T+L, T+2L)."""
        program = parse_program(NONLINEAR_DIAMOND)
        db = parse_database("A@[0,3].\nB@[2,4].")
        length = pattern_length(program)
        assert length == 15
        T = 20
        horizon = T + 2 * length
        model = naive_fixpoint_bounded(program, db, horizon)
        first = Interval(T, T + length, False, True)
        second = Interval(T + length, T + 2 * length, False, True)
        for atom in model.atoms():
            lhs = model.get(atom).clip(first).shift(length)
            assert lhs == model.get(atom).clip(second), atom

    def test_infinite_shift_cycles_skipped(self):
        program = parse_program(
            "boxminus[3,inf) A -> A .\ndiamondminus[2,4] A -> A ."
        )
        assert pattern_length(program) == 2

    def test_unbounded_fraction_periods(self):
        program = parse_program(
            "diamondminus[1/2,1] A -> B .\ndiamondminus[1/4,1] B -> A ."
        )
        assert pattern_length(program) == F(3, 4)

    def test_fraction_length_ignores_sccs_without_cycles(self):
        # C has no cycle and imposes nothing: the length stays 3/4, the
        # model's period, rather than lcm(3/4, 1) = 3
        program = parse_program(
            "diamondminus[1/2,1] A -> B .\ndiamondminus[1/4,1] B -> A .\nA -> C ."
        )
        assert pattern_length(program) == classify_rules(program).pattern_len == F(3, 4)
        database = parse_database("A@[0,0].")
        assert reason(program, database).period == F(3, 4)

    def test_classify_agrees_with_the_deduplicated_graph(self):
        """``classify_rules`` takes the length from every cycle of the
        program's graph, ``pattern_length`` from a graph with one edge per
        label: the two agree on random forward-propagating programs."""
        rng = random.Random(11)
        makers = (
            _random_fp_program,
            _random_nested_program,
            _random_linear_diamond,
            lambda rng: _random_nonground_program(rng, rich=True),
        )
        for make in makers:
            compared = 0
            for _ in range(300):
                text, db_text = make(rng)
                program = to_normal_form(parse_program(text))
                if not is_forward_propagating(program):
                    continue
                for p in (program, ground(program, parse_database(db_text))):
                    assert classify_rules(p).pattern_len == pattern_length(p), text
                compared += 1
            assert compared >= 100, make

    def test_divisible_by_every_scc_length(self):
        program = parse_program(
            "diamondminus[3,4] A -> A .\n"
            "diamondminus[5,6] B -> B .\n"
            "A -> B ."
        )
        total = pattern_length(program)
        assert total == 15
        for sub in ("diamondminus[3,4] A -> A .", "diamondminus[5,6] B -> B ."):
            assert total % pattern_length(parse_program(sub)) == 0


class TestMaxApplications:
    def test_documented_values(self):
        assert max_applications(3, 4) == 4
        assert max_applications(0, 5) == 1
        assert max_applications(5, 6) == 6

    def test_fractional(self):
        assert max_applications(F(3, 2), F(2)) == 4

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            max_applications(4, 4)
        with pytest.raises(ValueError):
            max_applications(5, 3)

    def test_bound_holds_against_reason(self):
        """``diamondminus[t1,t2] A -> A`` from ``A@[0,0]``: the k-th
        application holds on ``[k*t1, k*t2]``, which meets the next one
        from ``k = ceil(t1/(t2-t1))`` on, so ``A``'s last fact is the ray
        ``[k*t1, inf)``, reached within ``max_applications`` steps."""
        pairs = [
            (t1, t1 + d)
            for t1 in (0, 1, 2, 3, 5, F(3, 2), F(7, 3))
            for d in (1, 2, 3, 4, F(1, 2), F(1, 4), F(5, 3))
        ]
        for t1, t2 in pairs:
            program = parse_program(f"diamondminus[{t1},{t2}] A -> A .")
            pm = reason(program, parse_database("A@[0,0]."))
            k = -(-t1 // (t2 - t1))
            assert pm.facts.get(Atom("A")).pieces[-1] == Interval(k * t1, POS_INF, False, True)
            assert k <= max_applications(t1, t2), (t1, t2)

    @pytest.mark.parametrize("t1,t2", [(3, 4), (5, 6), (1, 3), (0, 2)])
    def test_bound_matches_oracle_round_count(self, t1, t2):
        """Applying the self-loop rule one step at a time, the derived
        pieces start chaining into a single growing interval within the
        predicted number of applications."""
        bound = max_applications(t1, t2)
        rho = parse_interval(f"[{t1},{t2}]")
        from chronolog.intervals import IntervalSet

        current = IntervalSet.of(parse_interval("[0,1]"))
        reached = current
        merged_round = None
        for step in range(1, bound + 2):
            nxt = current.diamond_minus(rho)
            before = len(reached)
            reached = reached.union(nxt)
            if len(reached) <= before and merged_round is None:
                merged_round = step
                break
            current = nxt
        assert merged_round is not None and merged_round <= bound
