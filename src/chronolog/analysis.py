"""Program analysis: dependency graphs, cycles, rule classification,
fragment detection, and repetition-pattern length.

The dependency graph is predicate-level with one edge per (body
predicate, head predicate, rule) triple. Temporal rules produce
"special" edges carrying an interval label (the operator range, negated
for the forward operators) and a shift label (the amount the operator
moves an interval's left endpoint into the future).
"""

from __future__ import annotations

import heapq
from enum import Enum
from functools import cached_property, reduce
from fractions import Fraction

from .errors import CycleCapExceeded, InputError
from .intervals import POS_INF, Interval, Time, lcm_rationals, plus, to_time
from .reasoner import _ZERO_INTERVAL, DEFAULT_CYCLE_CAP, _edge_labels, _sccs
from .syntax import Atom, Program, Rule, _Value, is_forward_propagating


class Edge(_Value):
    __slots__ = ("source", "target", "rule_id", "special", "interval_label", "shift_label")

    def __init__(
        self,
        source: str,
        target: str,
        rule_id: str,
        special: bool,
        interval_label: Interval,
        shift_label: Time,
    ) -> None:
        self.source = source
        self.target = target
        self.rule_id = rule_id
        self.special = special
        self.interval_label = interval_label
        self.shift_label = shift_label

    def __str__(self) -> str:
        tag = "*" if self.special else ""
        return f"{self.source} -{self.interval_label}{tag}-> {self.target}"


class DepGraph(_Value):
    """Predicate nodes and labelled edges; what is derived from them is
    cached on the instance."""

    def __init__(self, nodes: tuple[str, ...], edges: tuple[Edge, ...]) -> None:
        self.nodes = nodes
        self.edges = edges

    @cached_property
    def components(self) -> tuple[frozenset[str], ...]:
        """The strongly connected components in dependency order: each
        comes after every component with an edge into it, and of two
        components free to go next the one with the smaller sorted member
        list goes first."""
        succ: dict[str, list[str]] = {node: [] for node in self.nodes}
        for e in self.edges:
            succ[e.source].append(e.target)
        members = [tuple(sorted(c)) for c in _sccs(succ)]
        scc_of = {node: i for i, c in enumerate(members) for node in c}
        later: list[list[int]] = [[] for _ in members]
        indegree = [0] * len(members)
        for e in self.edges:
            a, b = scc_of[e.source], scc_of[e.target]
            if a != b:
                later[a].append(b)
                indegree[b] += 1
        # Kahn's sort, always taking the ready component of smallest key
        ready = [(c, i) for i, c in enumerate(members) if not indegree[i]]
        heapq.heapify(ready)
        order: list[frozenset[str]] = []
        while ready:
            c, i = heapq.heappop(ready)
            order.append(frozenset(c))
            for j in later[i]:
                indegree[j] -= 1
                if not indegree[j]:
                    heapq.heappush(ready, (members[j], j))
        return tuple(order)

    @cached_property
    def scc_of(self) -> dict[str, int]:
        """Each node's index in ``components``."""
        return {node: i for i, members in enumerate(self.components) for node in members}


def dependency_graph(program: Program) -> DepGraph:
    """Predicate-level dependency graph of a normal-form program."""
    edges: list[Edge] = []
    for rule in program.rules:
        special, label, shift = _edge_labels(rule)
        head = rule.head.predicate
        seen: set[str] = set()
        for atom in rule.body_atoms:
            if atom.predicate in seen:
                continue
            seen.add(atom.predicate)
            edges.append(Edge(atom.predicate, head, rule.id, special, label, shift))
    return DepGraph(tuple(program.predicates()), tuple(edges))


class Cycle(_Value):
    """An elementary cycle, identified by the edges it traverses."""

    __slots__ = ("edges",)

    def __init__(self, edges: tuple[Edge, ...]) -> None:
        self.edges = edges

    @property
    def nodes(self) -> tuple[str, ...]:
        return tuple(e.source for e in self.edges)

    @property
    def shift_sum(self) -> Time:
        # shift labels are >= 0 or inf, so no sum is inf - inf
        return reduce(plus, (e.shift_label for e in self.edges), 0)

    @property
    def weight(self) -> Interval:
        total = _ZERO_INTERVAL
        for e in self.edges:
            total = total.minkowski(e.interval_label)
        return total

    @property
    def temporal_acyclic(self) -> bool:
        return self.weight == _ZERO_INTERVAL

    def __str__(self) -> str:
        return " -> ".join(self.nodes + (self.nodes[0],))


def _edge_cycles(graph: DepGraph, cap: int) -> list[Cycle]:
    """Enumerate elementary cycles at the edge level, by Johnson's
    algorithm over each node's out-edges: in each strongly connected
    component, the cycles through one node, found by a search whose dead
    ends stay blocked until a cycle frees them; then the same for the
    components left once that node is gone (the first components are
    ``graph.components``). Iterative, like ``_sccs``.

    Parallel edges matter here (two self-loops with different shifts are
    two cycles), so a cycle is the list of the edges on its path, and a
    self-loop is a one-edge cycle. Each cycle starts at its smallest edge
    index, and the cycles are sorted by their rule ids.
    """
    out: dict[str, list[tuple[int, str]]] = {node: [] for node in graph.nodes}
    for idx, e in enumerate(graph.edges):
        out[e.source].append((idx, e.target))
    cycles: list[Cycle] = []
    pending = [sorted(c) for c in graph.components]
    while pending:
        component = pending.pop()
        start, inside = component[0], set(component)
        sub = {v: [(i, w) for i, w in out[v] if w in inside] for v in component}
        path: list[int] = []  # the edges from start to the node searched
        closed, blocked = [False], {start}
        blocked_by: dict[str, set[str]] = {v: set() for v in component}
        stack = [(start, iter(sub[start]))]
        while stack:
            v, children = stack[-1]
            for i, w in children:
                if w == start:
                    idxs = path + [i]
                    k = idxs.index(min(idxs))
                    cycles.append(Cycle(tuple(graph.edges[j] for j in idxs[k:] + idxs[:k])))
                    if len(cycles) > cap:
                        raise CycleCapExceeded(f"more than {cap} simple cycles")
                    closed[-1] = True
                elif w not in blocked:
                    path.append(i)
                    closed.append(False)
                    blocked.add(w)
                    stack.append((w, iter(sub[w])))
                    break
            else:
                stack.pop()
                del path[-1:]  # the start's frame has no edge on the path
                if closed.pop():
                    if closed:
                        closed[-1] = True
                    release = [v]
                    while release:
                        u = release.pop()
                        if u in blocked:
                            blocked.remove(u)
                            release.extend(blocked_by[u])
                            blocked_by[u].clear()
                else:
                    for _, w in sub[v]:
                        blocked_by[w].add(v)
        pending.extend(_sccs({v: [w for _, w in sub[v] if w != start] for v in component[1:]}))
    cycles.sort(key=lambda c: tuple(e.rule_id for e in c.edges))
    return cycles


def simple_cycles(
    graph: DepGraph, cycle_cap: int = DEFAULT_CYCLE_CAP
) -> dict[frozenset[str], list[Cycle]]:
    """All elementary cycles, at most ``cycle_cap`` in total, grouped by
    the SCC they live in, the SCCs in dependency order."""
    per_scc: list[list[Cycle]] = [[] for _ in graph.components]
    for cycle in _edge_cycles(graph, cycle_cap):
        per_scc[graph.scc_of[cycle.edges[0].source]].append(cycle)
    return dict(zip(graph.components, per_scc))


def _shift_lcm(cycles: list[Cycle]) -> int | Fraction:
    """The lcm of the cycles' positive finite shift sums, 1 when none."""
    sums = [s for c in cycles if 0 < (s := c.shift_sum) < POS_INF]
    return lcm_rationals(sums) if sums else 1


def pattern_length(program: Program, cycle_cap: int = DEFAULT_CYCLE_CAP) -> int | Fraction:
    """Length of the repetition pattern of a forward-propagating program:
    the lcm of the positive finite shift sums of its simple cycles (1
    when there are none).

    The result is computed on predicates, so grounding does not change
    it, and for a program with constants it need not be a period of the
    model: a cycle of ground atoms through several constants can be
    longer than every predicate cycle. On ``tests/fixtures/reach_join``
    (``Reach(a) -> Open(a) -> Reach(b) -> Open(b) -> Reach(a)``) the
    length is 3 and the model's period is 6.

    Edges that differ only in their rule (the ground instances of one
    rule, say) are enumerated once: a cycle's shift sum depends only on
    the labels of its edges, so the set of shift sums is unchanged, while
    the number of cycles no longer grows as (#instances)^(cycle length).
    """
    if not program.is_normal_form:
        raise InputError("pattern length requires a normal-form program")
    if not is_forward_propagating(program):
        raise InputError("pattern length is defined for forward-propagating programs")
    graph = dependency_graph(program)
    by_label: dict[tuple, Edge] = {}
    for e in graph.edges:
        by_label.setdefault(
            (e.source, e.target, e.special, e.interval_label, e.shift_label), e
        )
    distinct = DepGraph(graph.nodes, tuple(by_label.values()))
    return _shift_lcm(_edge_cycles(distinct, cycle_cap))


def max_applications(t1: int | Fraction, t2: int | Fraction) -> int:
    """Upper bound on self-loop applications before a diamond cycle settles.

    For a rule shifting by the range [t1, t2], the derived interval grows
    by t2 - t1 per application, so after floor(t1/(t2-t1) + 1) rounds the
    new interval overlaps the previous one.
    """
    t1, t2 = to_time(t1), to_time(t2)
    if not 0 <= t1 < t2 < POS_INF:
        raise ValueError("required: 0 <= t1 < t2 < inf")
    return t1 // (t2 - t1) + 1


# ---------------------------------------------------------------------------
# Fragment detection
# ---------------------------------------------------------------------------

class RuleClass(Enum):
    HARMLESS = "harmless"
    HARMFUL = "harmful"
    DANGEROUS = "dangerous"


class FragmentFlags(_Value):
    """Syntactic fragment membership; ``_fields`` lists the flags in order."""

    def __init__(
        self, bounded: bool, union_free: bool, temporal_linear: bool, forward_propagating: bool
    ) -> None:
        self.bounded = bounded
        self.union_free = union_free
        self.temporal_linear = temporal_linear
        self.forward_propagating = forward_propagating


def fragment_checks(program: Program, graph: DepGraph | None = None) -> FragmentFlags:
    """Syntactic fragment membership of a normal-form program.

    ``graph`` is the program's dependency graph, built here when not given.
    """
    if not program.is_normal_form:
        raise InputError("fragment checks require a normal-form program")
    # a normal-form rule has no `top` and no operator but its body's one
    # temporal literal
    bounded = not program.axioms and all(
        r.form is Atom or r.body[0].rho.is_bounded for r in program.rules
    )

    ground = program.is_ground
    heads = [rule.head if ground else rule.head.predicate for rule in program.rules]
    union_free = len(heads) == len(set(heads))

    if graph is None:
        graph = dependency_graph(program)
    scc_of = graph.scc_of
    scc_special = {
        scc_of[e.source]
        for e in graph.edges
        if e.special and scc_of[e.source] == scc_of[e.target]
    }

    temporal_linear = True
    for rule in program.rules:
        head = rule.head.predicate
        recursive = {
            a.predicate
            for a in rule.body_atoms
            if scc_of[a.predicate] == scc_of[head] and scc_of[head] in scc_special
        }
        if len(recursive) > 1:
            temporal_linear = False

    return FragmentFlags(
        bounded, union_free, temporal_linear, is_forward_propagating(program)
    )


class FragmentReport(FragmentFlags):
    def __init__(
        self,
        bounded: bool,
        union_free: bool,
        temporal_linear: bool,
        forward_propagating: bool,
        rule_classes: dict[str, RuleClass],
        finite_nodes: dict[str, str],  # node -> marking case "i".."iv"
        harmless_program: bool,
        pattern_len: int | Fraction | None,
        cycles: list[Cycle],
        nodes: tuple[str, ...],  # the dependency graph's nodes
        warning: str | None = None,
    ) -> None:
        super().__init__(bounded, union_free, temporal_linear, forward_propagating)
        self.rule_classes = rule_classes
        self.finite_nodes = finite_nodes
        self.harmless_program = harmless_program
        self.pattern_len = pattern_len
        self.cycles = cycles
        self.nodes = nodes
        self.warning = warning


def _finite_marking(
    program: Program,
    graph: DepGraph,
    all_cycles: list[Cycle],
    seedable: frozenset[str],
    unbounded: frozenset[str],
) -> dict[str, str]:
    """Fixpoint of the four finite-node cases.

    Rounds are synchronous: every unmarked node is tested against the
    state at the start of the round, so the outcome and the case
    attribution are independent of node order. An edge counts as finite
    when its rule has some body atom whose node is already finite.
    ``seedable`` holds the predicates with database facts, ``unbounded``
    those with an unbounded one (a ray): such a predicate holds at
    infinitely many points, so no case marks it.

    Case specifics:
      i    no incoming edge.
      ii   every incoming edge finite.
      iii  after deleting finite nodes and edges, the node's SCC receives
           no surviving outside edge and all its cycles are temporal-acyclic.
      iv   the node lies on at least one cycle, and every cycle through it
           has no database-fed node and only incoming rules that intersect
           the cycle (some body predicate on the cycle).

    Each round builds the reduced graph (finite nodes and finite edges
    deleted) once and gives each of its SCCs one verdict for case (iii),
    without enumerating cycles: a cycle of the reduced graph is exactly a
    cycle of ``all_cycles`` whose edges all survive (the reduced graph's
    edges are a subset of the original's), and such a cycle lies inside
    one reduced SCC. So an SCC fails when a surviving edge enters it or
    when it holds a surviving cycle that is not temporal-acyclic. Case
    (iv) reads no round state, so its verdict is taken once, per cycle.
    The cost of a round is linear in the size of the graph and of the
    cycles that are not temporal-acyclic.
    """
    body_preds = {
        r.id: {a.predicate for a in r.body_atoms} for r in program.rules
    }
    incoming: dict[str, list[Edge]] = {n: [] for n in graph.nodes}
    for e in graph.edges:
        incoming[e.target].append(e)
    head_rules: dict[str, list[Rule]] = {n: [] for n in graph.nodes}
    for r in program.rules:
        head_rules[r.head.predicate].append(r)

    on_cycle: set[str] = set()
    unguarded: set[str] = set()
    for cyc in all_cycles:
        members = set(cyc.nodes)
        on_cycle |= members
        if members & seedable or any(
            not (body_preds[rule.id] & members)
            for member in members
            for rule in head_rules[member]
        ):
            unguarded |= members
    guarded = on_cycle - unguarded
    temporal_cycles = [c for c in all_cycles if not c.temporal_acyclic]

    finite: dict[str, str] = {}
    while True:
        finite_rules = {
            rid for rid, preds in body_preds.items() if not preds.isdisjoint(finite)
        }

        def survives(edge: Edge) -> bool:
            # an edge out of a finite node belongs to a finite rule
            return edge.rule_id not in finite_rules and edge.target not in finite

        kept = tuple(e for e in graph.edges if survives(e))
        reduced = DepGraph(tuple(n for n in graph.nodes if n not in finite), kept)
        scc_of = reduced.scc_of
        failed = {scc_of[e.target] for e in kept if scc_of[e.source] != scc_of[e.target]}
        failed.update(
            scc_of[c.edges[0].source]
            for c in temporal_cycles
            if all(survives(e) for e in c.edges)
        )

        marks: dict[str, str] = {}
        for node in graph.nodes:
            if node in finite or node in unbounded:
                continue
            if not incoming[node]:
                marks[node] = "i"
            elif all(e.rule_id in finite_rules for e in incoming[node]):
                marks[node] = "ii"
            elif scc_of[node] not in failed:
                marks[node] = "iii"
            elif node in guarded:
                marks[node] = "iv"
        if not marks:
            return finite
        finite.update(marks)


def classify_rules(
    program: Program,
    database=None,
    cycle_cap: int = DEFAULT_CYCLE_CAP,
) -> FragmentReport:
    """Classify every rule as harmless, harmful, or dangerous.

    ``database`` (a Model), when given, marks its predicates as
    database-fed: cycles through fed nodes lose the empty-cycle
    assumption behind case (iv), and a predicate with an unbounded fact
    is not finite. Without it every cycle is assumed unseeded. Unbounded
    programs skip the marking fixpoint entirely and report a warning.
    """
    if not program.is_normal_form:
        raise InputError("classification requires a normal-form program")
    graph = dependency_graph(program)
    flags = fragment_checks(program, graph)
    all_cycles = [c for cycles in simple_cycles(graph, cycle_cap).values() for c in cycles]

    warning = None
    if flags.bounded:
        items = database.items() if database is not None else []
        seedable = frozenset(atom.predicate for atom, _ in items)
        unbounded = frozenset(
            atom.predicate for atom, ivs in items
            if not all(piece.is_bounded for piece in ivs)
        )
        finite = _finite_marking(program, graph, all_cycles, seedable, unbounded)
    else:
        finite = {}
        warning = "program is unbounded; no node was marked finite"

    classes: dict[str, RuleClass] = {}
    for rule in program.rules:
        if any(a.predicate in finite for a in rule.body_atoms):
            classes[rule.id] = RuleClass.HARMLESS
        elif rule.form is Atom:
            classes[rule.id] = RuleClass.HARMFUL
        else:
            classes[rule.id] = RuleClass.DANGEROUS

    return FragmentReport(
        **vars(flags),
        rule_classes=classes,
        finite_nodes=finite,
        harmless_program=all(c is RuleClass.HARMLESS for c in classes.values()),
        pattern_len=_shift_lcm(all_cycles) if flags.forward_propagating else None,
        cycles=all_cycles,
        nodes=graph.nodes,
        warning=warning,
    )
