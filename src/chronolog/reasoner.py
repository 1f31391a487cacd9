"""Materialization: a bounded fixpoint oracle, the periodic reasoning
procedure, and entailment.

Two independent evaluation routes are kept apart on purpose:

* ``naive_fixpoint_bounded`` is the ground truth -- a straight fixpoint
  of the immediate consequence operator, clipped to a window, driven by
  a change worklist (or full literal re-evaluation for programs that are
  not in normal form).
* ``reason`` derives per SCC group, forward in chunks, and stops once
  the group's state (its facts on a slab as wide as its rules look back,
  past every aperiodic input) repeats; the repeat gives the group's
  period, and one period of its facts becomes repetition patterns (or
  rays for facts that fill the whole period).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .analysis import DEFAULT_CYCLE_CAP, Edge, _sccs, dependency_graph
from .errors import InputError, NotForwardPropagating, StepCapExceeded, WindowCapExceeded
from .intervals import (
    Interval,
    IntervalSet,
    NEG_INF,
    POS_INF,
    Time,
    box_minus_apply,
    diamond_minus_apply,
    lcm_rationals,
    plus,
)
from .syntax import (
    Atom,
    Bottom,
    BoxMinus,
    BoxPlus,
    DiamondMinus,
    DiamondPlus,
    Fact,
    Literal,
    Program,
    Rule,
    Top,
    body_atoms,
    is_forward_propagating,
    rule_form,
)

DEFAULT_WINDOW_CAP = 10_000
DEFAULT_STEP_CAP = 1_000_000

_FULL_LINE = Interval(NEG_INF, POS_INF, True, True)


def _atom_key(atom: Atom):
    return (atom.predicate, tuple(t.name for t in atom.terms))


class Model:
    """Map from ground atom to canonical IntervalSet.

    Atoms whose set would be empty are absent. Mutable within a
    reasoning session; all exposed IntervalSets are immutable.
    """

    __slots__ = ("_data",)

    def __init__(self, data: dict[Atom, IntervalSet] | None = None):
        self._data: dict[Atom, IntervalSet] = {}
        if data:
            for atom, ivs in data.items():
                if not ivs.is_empty:
                    self._data[atom] = ivs

    @classmethod
    def from_facts(cls, facts: Iterable[Fact]) -> Model:
        model = cls()
        for f in facts:
            model.add(f.atom, f.interval)
        return model

    def copy(self) -> Model:
        return Model(dict(self._data))

    def get(self, atom: Atom) -> IntervalSet:
        return self._data.get(atom, IntervalSet.empty())

    def add(self, atom: Atom, interval: Interval) -> Interval | None:
        """Insert a fact; returns the merged covering piece, or None if
        the fact was already subsumed."""
        current = self._data.get(atom, IntervalSet.empty())
        updated, piece = current.insert_with_piece(interval)
        if piece is not None:
            self._data[atom] = updated
        return piece

    def add_set(self, atom: Atom, ivs: IntervalSet) -> bool:
        current = self.get(atom)
        updated = current.union(ivs)
        if updated == current:
            return False
        self._data[atom] = updated
        return True

    def put(self, atom: Atom, ivs: IntervalSet) -> None:
        """Replace the atom's set (dropping the atom when it is empty)."""
        if ivs.is_empty:
            self._data.pop(atom, None)
        else:
            self._data[atom] = ivs

    def atoms(self) -> list[Atom]:
        return sorted(self._data, key=_atom_key)

    def items(self) -> list[tuple[Atom, IntervalSet]]:
        return [(a, self._data[a]) for a in self.atoms()]

    @property
    def is_empty(self) -> bool:
        return not self._data

    def restrict(self, window: Interval) -> Model:
        out = Model()
        for atom, ivs in self._data.items():
            clipped = ivs.clip(window)
            if not clipped.is_empty:
                out._data[atom] = clipped
        return out

    def finite_endpoints(self) -> list[int | Fraction]:
        out = []
        for ivs in self._data.values():
            for piece in ivs:
                if piece.lo != NEG_INF:
                    out.append(piece.lo)
                if piece.hi != POS_INF:
                    out.append(piece.hi)
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Model):
            return NotImplemented
        return self._data == other._data

    def __len__(self) -> int:
        return len(self._data)

    def __str__(self) -> str:
        return "; ".join(f"{a}@{ivs}" for a, ivs in self.items()) or "(empty)"


def max_time_point(db: Model) -> int | Fraction:
    """Largest finite endpoint in the database (0 when there is none)."""
    return max(db.finite_endpoints(), default=0)


def min_time_point(db: Model) -> int | Fraction:
    return min(db.finite_endpoints(), default=0)


def check_horizon(pm: PeriodicModel, database: Model) -> int | Fraction:
    """Where ``check`` compares ``reason`` with the oracle by default: three
    periods past both the database's last endpoint and the horizon, so the
    periodic part is compared over three full periods."""
    return max(max_time_point(database), pm.horizon) + 3 * pm.period


# ---------------------------------------------------------------------------
# Bounded fixpoint oracle
# ---------------------------------------------------------------------------

def _reflect(ivs: IntervalSet) -> IntervalSet:
    return IntervalSet.from_iterable(p.negate() for p in ivs)


def _eval_literal(lit: Literal, model: Model) -> IntervalSet:
    """Truth set of a (possibly nested) unary temporal literal.

    The forward operators are evaluated by reflecting the timeline, so
    the oracle can validate rewrites that introduce them; since/until
    remain out of scope.
    """
    if isinstance(lit, Atom):
        return model.get(lit)
    if isinstance(lit, Top):
        return IntervalSet.of(_FULL_LINE)
    if isinstance(lit, Bottom):
        return IntervalSet.empty()
    if isinstance(lit, DiamondMinus):
        return _eval_literal(lit.inner, model).diamond_minus(lit.rho)
    if isinstance(lit, BoxMinus):
        return _eval_literal(lit.inner, model).box_minus(lit.rho)
    if isinstance(lit, DiamondPlus):
        return _reflect(_reflect(_eval_literal(lit.inner, model)).diamond_minus(lit.rho))
    if isinstance(lit, BoxPlus):
        return _reflect(_reflect(_eval_literal(lit.inner, model)).box_minus(lit.rho))
    raise InputError(f"the oracle cannot evaluate literal {lit}")


def _head_facts(head: Literal, truth: IntervalSet) -> list[tuple[Atom, Interval]]:
    """Facts forced by satisfying ``head`` on every point of ``truth``."""
    if isinstance(head, Atom):
        return [(head, piece) for piece in truth]
    if isinstance(head, BoxMinus):
        # body true on J forces the inner literal on J - rho
        shifted = IntervalSet.from_iterable(
            p.minkowski(head.rho.negate()) for p in truth
        )
        return _head_facts(head.inner, shifted)
    if isinstance(head, BoxPlus):
        shifted = IntervalSet.from_iterable(p.minkowski(head.rho) for p in truth)
        return _head_facts(head.inner, shifted)
    raise InputError(f"the oracle cannot apply head {head}")


def _oracle_rounds(
    program: Program, model: Model, window: Interval | None, step_cap: int
) -> Model:
    steps = 0
    changed = True
    while changed:
        changed = False
        steps += 1
        if steps > step_cap:
            raise StepCapExceeded(f"oracle exceeded {step_cap} rounds")
        for rule in program.rules:
            truth = _eval_literal(rule.body[0], model)
            for lit in rule.body[1:]:
                if truth.is_empty:
                    break
                truth = truth.intersect(_eval_literal(lit, model))
            if truth.is_empty:
                continue
            for atom, piece in _head_facts(rule.head, truth):
                if window is not None:
                    clipped = piece.intersect(window)
                    if clipped is None:
                        continue
                    piece = clipped
                if model.add(atom, piece) is not None:
                    changed = True
    return model


def _oracle_worklist(
    program: Program, model: Model, window: Interval | None, step_cap: int
) -> Model:
    by_body: dict[str, list[Rule]] = {}
    for rule in program.rules:
        for atom in body_atoms(rule):
            by_body.setdefault(atom.predicate, []).append(rule)

    queue: deque[tuple[Atom, Interval]] = deque()
    for atom, ivs in model.items():
        for piece in ivs:
            queue.append((atom, piece))

    steps = 0
    while queue:
        steps += 1
        if steps > step_cap:
            raise StepCapExceeded(f"oracle exceeded {step_cap} steps")
        atom, delta = queue.popleft()
        for rule in by_body.get(atom.predicate, ()):
            form = rule_form(rule)
            if form == 1:
                if atom not in rule.body:
                    continue
                derived = IntervalSet.of(delta)
                for other in rule.body:
                    if other == atom or derived.is_empty:
                        continue
                    derived = derived.intersect(model.get(other))
                pieces = list(derived)
            else:
                lit = rule.body[0]
                if lit.inner != atom:
                    continue
                if form == 6:
                    pieces = [diamond_minus_apply(delta, lit.rho)]
                else:
                    hit = box_minus_apply(delta, lit.rho)
                    pieces = [hit] if hit is not None else []
            for piece in pieces:
                if window is not None:
                    clipped = piece.intersect(window)
                    if clipped is None:
                        continue
                    piece = clipped
                merged = model.add(rule.head, piece)
                if merged is not None:
                    queue.append((rule.head, merged))
    return model


def naive_fixpoint_bounded(
    program: Program,
    database: Model,
    horizon: int | Fraction | None = None,
    *,
    step_cap: int = DEFAULT_STEP_CAP,
) -> Model:
    """Least fixpoint with every derived interval clipped to the window
    ``(-inf, horizon]``.

    With no horizon the fixpoint must be naturally finite (harmless
    programs); the step cap turns runaway derivations into a diagnostic
    error. Evaluates diamondminus/boxminus/diamondplus/boxplus bodies,
    nested too, and box heads; only since/until are rejected.
    """
    window = None if horizon is None else Interval.up_to(horizon)
    model = Model.from_facts(program.axioms)
    for atom, ivs in database.items():
        model.add_set(atom, ivs)
    if window is not None:
        model = model.restrict(window)
    if program.is_normal_form and program.is_ground and is_forward_propagating(program):
        return _oracle_worklist(program, model, window, step_cap)
    return _oracle_rounds(program, model, window, step_cap)


# ---------------------------------------------------------------------------
# Rule groups
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RuleGroup:
    """One SCC group's rules (in program order) and the dependency graph's
    edges inside the group, and what ``reason`` and ``_derive_group`` read
    off them, built once: each rule's form, the rules indexed by each atom
    their bodies read (in group order), and how far back the rules look.

    ``padding`` is how far before a window ``_derive_group`` reads body
    facts: the largest upper end of the ``boxminus``/``diamondminus``
    ranges, infinite for a range unbounded above. ``lookback`` is the L
    of ``reason``'s state: the same, except that a ``diamondminus[a,inf)``
    counts ``a`` (its body points further back only matter through its
    ray) and a ``boxminus[a,inf)`` counts nothing (it never fires on
    facts bounded below)."""

    predicates: frozenset[str]
    rules: tuple[Rule, ...]
    edges: tuple[Edge, ...]
    forms: tuple[int | None, ...] = field(init=False, repr=False, compare=False)
    by_body: dict[Atom, tuple[int, ...]] = field(init=False, repr=False, compare=False)
    padding: Time = field(init=False, repr=False, compare=False)
    lookback: int | Fraction = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        forms = tuple(rule_form(rule) for rule in self.rules)
        by_body: dict[Atom, list[int]] = {}
        padding = lookback = 0
        for i, (rule, form) in enumerate(zip(self.rules, forms)):
            for atom in dict.fromkeys(body_atoms(rule)):
                by_body.setdefault(atom, []).append(i)
            if form not in (4, 6):
                continue
            rho = rule.body[0].rho
            padding = max(padding, rho.hi)
            if rho.hi != POS_INF:
                lookback = max(lookback, rho.hi)
            elif form == 6:
                lookback = max(lookback, rho.lo)
        object.__setattr__(self, "forms", forms)
        object.__setattr__(self, "by_body", {a: tuple(ids) for a, ids in by_body.items()})
        object.__setattr__(self, "padding", padding)
        object.__setattr__(self, "lookback", lookback)


def group_and_sort(program: Program) -> list[RuleGroup]:
    """Rules grouped by the SCC of their head predicate, in the dependency
    order of ``DepGraph.components``.

    Groups whose SCC has no rules (database-only predicates) are omitted.
    """
    graph = dependency_graph(program)
    scc_of = graph.scc_of
    rules: list[list[Rule]] = [[] for _ in graph.components]
    edges: list[list[Edge]] = [[] for _ in graph.components]
    for rule in program.rules:
        rules[scc_of[rule.head.predicate]].append(rule)
    for e in graph.edges:
        if scc_of[e.source] == scc_of[e.target]:
            edges[scc_of[e.target]].append(e)
    return [
        RuleGroup(members, tuple(group_rules), tuple(group_edges))
        for members, group_rules, group_edges in zip(graph.components, rules, edges)
        if group_rules
    ]


# ---------------------------------------------------------------------------
# Periodic representation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Pattern:
    """The fact ``atom @ (offset + x * period)`` for every x >= start_index."""

    atom: Atom
    offset: Interval
    start_index: int
    period: int | Fraction

    def occurrence(self, x: int) -> Interval:
        return self.offset.shift(self.period * x)

    def first_occurrence(self) -> Interval:
        return self.occurrence(self.start_index)

    def indices(self, window: Interval) -> range:
        """Indices of the occurrences that may meet a window bounded above.

        Worked out from the endpoints, so the cost does not depend on how
        far the window lies from the start index. The first and the last
        index may still miss the window at an open endpoint.
        """
        if window.hi == POS_INF:
            raise ValueError("pattern occurrences need a window bounded above")
        first = self.start_index
        if window.lo != NEG_INF and self.offset.hi != POS_INF:
            first = max(first, -((self.offset.hi - window.lo) // self.period))
        last = (window.hi - self.offset.lo) // self.period
        return range(first, last + 1)

    def sort_key(self):
        return (_atom_key(self.atom), self.offset.sort_key())

    def __str__(self) -> str:
        return (
            f"{self.atom}@{self.offset}+{self.period}x for x>={self.start_index}"
        )


def occurrences(pattern: Pattern, window: Interval) -> Iterator[Interval]:
    """The occurrences of ``pattern`` that meet a window bounded above,
    clipped to the window."""
    for x in pattern.indices(window):
        hit = pattern.occurrence(x).intersect(window)
        if hit is not None:
            yield hit


def _coverage(
    facts: Model, by_atom: Mapping[Atom, Sequence[Pattern]], atom: Atom, window: Interval
) -> IntervalSet:
    """Exact point set of ``atom`` within a window bounded above: its facts
    and the occurrences of its patterns (``by_atom`` indexes them by
    atom), clipped to the window."""
    clipped = facts.get(atom).clip(window)
    hits = [hit for pat in by_atom.get(atom, ()) for hit in occurrences(pat, window)]
    if not hits:
        return clipped
    return IntervalSet.from_iterable([*clipped, *hits])


@dataclass(frozen=True)
class PeriodicModel:
    """Finite representation of a possibly infinite model.

    ``facts`` holds the aperiodic prefix plus rays; ``patterns`` repeat
    forever with ``period``. Behavior is patterned from ``horizon`` on.
    The patterns are indexed by atom once, for ``_coverage``.
    """

    facts: Model
    patterns: tuple[Pattern, ...]
    period: int | Fraction
    horizon: int | Fraction
    _by_atom: dict[Atom, tuple[Pattern, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        by_atom: dict[Atom, list[Pattern]] = {}
        for pat in self.patterns:
            by_atom.setdefault(pat.atom, []).append(pat)
        object.__setattr__(
            self, "_by_atom", {atom: tuple(pats) for atom, pats in by_atom.items()}
        )

    def representation_type(self) -> str:
        if not self.patterns:
            bounded = all(
                piece.is_bounded for _, ivs in self.facts.items() for piece in ivs
            )
            return "finite" if bounded else "constant"
        return "periodic"

    def atoms(self) -> list[Atom]:
        return sorted({*self.facts.atoms(), *self._by_atom}, key=_atom_key)

    def unroll(self, hi: int | Fraction) -> Model:
        """Materialize the represented model over ``(-inf, hi]``."""
        window = Interval.up_to(hi)
        out = self.facts.restrict(window)
        for atom in self._by_atom:
            out.put(atom, self.coverage(atom, window))
        return out

    def coverage(self, atom: Atom, window: Interval) -> IntervalSet:
        """Exact point set of ``atom`` within a bounded-above window."""
        return _coverage(self.facts, self._by_atom, atom, window)

    def entails(self, fact: Fact) -> bool:
        """Does every model of the program and database satisfy ``fact``?

        Only the query's own span is unrolled (one period past the last
        anchor for an unbounded query), so the cost does not depend on
        how far out the query lies.
        """
        query = fact.interval
        if query.hi != POS_INF:
            return self.coverage(fact.atom, query).covers_interval(query)
        # Unbounded query: beyond every aperiodic endpoint and pattern start
        # the represented content repeats with the period, so covering one
        # full period window there covers the entire tail.
        anchors = [self.horizon, 0, *self.facts.finite_endpoints()]
        if query.lo != NEG_INF:
            anchors.append(query.lo)
        anchors += [pat.first_occurrence().hi for pat in self.patterns]
        w = max(anchors)
        window = Interval(min(query.lo, w), w + self.period)
        cover = self.coverage(fact.atom, window)
        head = query.intersect(window)
        if head is not None and not cover.covers_interval(head):
            return False
        tail = Interval(w, w + self.period, False, True)
        return cover.covers_interval(tail)

    def to_dict(self) -> dict:
        """Deterministic structured form; rationals rendered as strings."""
        return {
            "type": self.representation_type(),
            "period": str(self.period),
            "horizon": str(self.horizon),
            "facts": [
                {"atom": str(atom), "intervals": [str(p) for p in ivs]}
                for atom, ivs in self.facts.items()
            ],
            "patterns": [
                {
                    "atom": str(p.atom),
                    "offset": str(p.offset),
                    "period": str(p.period),
                    "start_index": p.start_index,
                }
                for p in self.patterns
            ],
        }


# ---------------------------------------------------------------------------
# Reasoning procedure
# ---------------------------------------------------------------------------

def _derive_group(
    group: RuleGroup,
    facts: Model,
    patterns: dict[Atom, list[Pattern]],
    window: Interval,
) -> None:
    """Exhaustively apply the group's rules with heads clipped to the window.

    Semi-naive: each round visits, in group order, only the rules with a
    body atom among the pieces that changed in the previous round (the
    group's ``by_body`` index), and only those pieces compose with the
    rest, so the work per window is proportional to the facts it derives,
    not to the square of the model size or to the group's rule count.

    Only the atoms the group's rule bodies read are looked at: their facts
    and the occurrences of their earlier groups' patterns (``_coverage``)
    seed the first round, clipped to the padded window ``[window.lo -
    padding, window.hi)``, where the group's ``padding`` is the largest
    upper end of its operator ranges. For a range bounded above the clip
    is exact: a head point ``t`` in the window depends only on body
    points in ``[t - rho.hi, t]``, which lie in the padded window, and a
    clipped body piece still reaches every such ``t``. A range unbounded
    above (``diamondminus[a,inf)`` or ``boxminus[a,inf)``) lets a fact
    from the distant past reach the window (``diamondminus`` makes it a
    ray), so then the padded window reaches back to ``-inf``. An atom
    with patterns belongs to an earlier group and holds still for the
    whole call, so joins read its seed; they read every other atom's
    facts as they grow.
    """
    padded = Interval(
        plus(window.lo, -group.padding), window.hi, window.lo_open, window.hi_open
    )
    seeds = {atom: _coverage(facts, patterns, atom, padded) for atom in group.by_body}
    frozen = {atom: seed for atom, seed in seeds.items() if atom in patterns}
    frontier = {atom: seed for atom, seed in seeds.items() if not seed.is_empty}
    while frontier:
        fresh: dict[Atom, list[Interval]] = {}
        touched = sorted({i for atom in frontier for i in group.by_body.get(atom, ())})
        for i in touched:
            rule, form = group.rules[i], group.forms[i]
            derived = IntervalSet.empty()
            if form == 1:
                for k, atom in enumerate(rule.body):
                    delta = frontier.get(atom)
                    if delta is None:
                        continue
                    part = delta
                    for j, other in enumerate(rule.body):
                        if part.is_empty:
                            break
                        if j != k:
                            part = part.intersect(
                                frozen[other] if other in frozen else facts.get(other)
                            )
                    derived = derived.union(part)
            else:
                lit = rule.body[0]
                delta = frontier.get(lit.inner)
                if delta is None:
                    continue
                derived = (
                    delta.diamond_minus(lit.rho)
                    if form == 6
                    else delta.box_minus(lit.rho)
                )
            for piece in derived:
                clipped = piece.intersect(window)
                if clipped is None:
                    continue
                merged = facts.add(rule.head, clipped)
                if merged is not None:
                    fresh.setdefault(rule.head, []).append(merged)
        frontier = {
            atom: IntervalSet.from_iterable(pieces) for atom, pieces in fresh.items()
        }


def _shift_gcd(group: RuleGroup) -> int | Fraction:
    """gcd of the shift sums of the group's dependency cycles; 0 if none is
    positive.

    No cycle is enumerated. In each strongly connected part, a search
    from one predicate gives every predicate a potential ``pot`` (the
    shift sum of its search path); each edge ``u -> v`` with shift ``w``
    has the slack ``pot[u] + w - pot[v]``. A cycle's shift sum is the sum
    of its edges' slacks, and a slack is the difference of two closed
    walks' shift sums, so the gcd of the slacks is the gcd of the cycles'
    shift sums. ``boxminus[a,inf)`` never fires, so its edges (shift
    ``inf``) are dropped and the group may fall apart into several parts.
    """
    succ: dict[str, list[tuple[str, int | Fraction]]] = {}
    for e in group.edges:
        if e.shift_label != POS_INF:
            succ.setdefault(e.source, []).append((e.target, e.shift_label))
            succ.setdefault(e.target, [])
    # gcd(a/b, c/d) = gcd(a, c) / lcm(b, d) in lowest terms
    num, den = 0, 1
    for part in _sccs({u: [v for v, _ in out] for u, out in succ.items()}):
        members = set(part)
        pot = {part[0]: 0}
        stack = [part[0]]
        while stack:
            u = stack.pop()
            for v, w in succ[u]:
                if v in members and v not in pot:
                    pot[v] = pot[u] + w
                    stack.append(v)
        for u in part:
            for v, w in succ[u]:
                if v in members:
                    slack = abs(pot[u] + w - pot[v])
                    num = math.gcd(num, slack.numerator)
                    den = math.lcm(den, slack.denominator)
    return num if den == 1 else Fraction(num, den)


def _first_point(atom: Atom, facts: Model, patterns: dict[Atom, list[Pattern]]):
    """Left end of the earliest piece of ``atom`` (None when it never holds)."""
    ends = [pat.first_occurrence().lo for pat in patterns.get(atom, ())]
    pieces = facts.get(atom).pieces
    if pieces:
        ends.append(pieces[0].lo)
    return min(ends, default=None)


def _slab(
    facts: Model, atoms: Iterable[Atom], lo: int | Fraction, hi: int | Fraction
) -> tuple:
    """The facts of ``atoms`` on ``[lo, hi)`` shifted back by ``lo``: for
    each atom that holds there, in the order of ``atoms``, the atom and
    its pieces as ``(lo, hi, lo_open, hi_open)`` tuples, which hash and
    compare without building intervals."""
    window = Interval(lo, hi, False, True)
    return tuple([
        (atom, tuple([(p.lo - lo, p.hi - lo, p.lo_open, p.hi_open) for p in pieces]))
        for atom in atoms
        if (pieces := facts.get(atom).clip(window).pieces)
    ])


def freeze(
    facts: Model, atoms: Iterable[Atom], start: int | Fraction, period: int | Fraction
) -> tuple[list[Fact], list[Pattern]]:
    """The content of ``atoms`` on ``[start, start + period)`` as rays and
    repetition patterns, for a model that repeats with ``period`` from
    ``start`` on (``start`` a multiple of ``period``).

    A piece filling the whole window tiles the timeline seamlessly and
    becomes the ray ``[start, inf)``; any other piece becomes a Pattern
    with its offset shifted back to the origin and start index
    ``start // period``.
    """
    whole = (0, period, False, True)
    index = start // period
    rays: list[Fact] = []
    patterns: list[Pattern] = []
    for atom, pieces in _slab(facts, atoms, start, start + period):
        for piece in pieces:
            if piece == whole:
                rays.append(Fact(atom, Interval(start, POS_INF, False, True)))
            else:
                patterns.append(Pattern(atom, Interval(*piece), index, period))
    return rays, patterns


def reason(
    program: Program,
    database: Model,
    *,
    window_cap: int = DEFAULT_WINDOW_CAP,
    cycle_cap: int = DEFAULT_CYCLE_CAP,
    on_iteration: Callable[[str, int, Model], None] | None = None,
) -> PeriodicModel:
    """Compute a finite periodic representation of the minimum model.

    The program must be a ground, normal-form, forward-propagating
    program; database intervals must be bounded below (rays ``[c, inf)``
    are fine). ``cycle_cap`` is accepted for compatibility and not used:
    no cycle is enumerated here. ``window_cap`` bounds the number of
    chunks a group derives before its state repeats; ``on_iteration`` is
    called with the group, the chunk's number and a copy of the facts
    after every derived chunk.

    SCC groups are handled in dependency order. Each group derives forward
    in chunks and finds its period from a repeated state. The state, the
    compaction test and the frozen period all read the group's facts on a
    half-open window shifted to the origin, through one helper
    (``_slab``); earlier groups are read through ``_coverage``, over each
    chunk and its lookback (see ``_derive_group``):

    * **State.** Let L be the group's lookback (``RuleGroup.lookback``). For a
      forward-propagating group, the model on ``[t, inf)`` is fixed by
      the group's own facts on the slab ``[t - L, t)``, by its inputs
      (database facts and earlier groups) on ``[t - L, inf)``, and by
      whether each ``diamondminus[a,inf)`` rule's body has held before
      ``t - a`` (then its head is a ray covering ``[t, inf)``; otherwise
      every body point it can still use lies in ``[t - L, inf)``). Every
      other head point ``t' >= t`` reads body points in ``[t' - L, t']``.
    * **Positions.** The group settles at the last finite database
      endpoint of its own predicates and of the database-only predicates
      its rules read, or at the horizon of a group it reads if that lies
      later. These are all its aperiodic inputs: an earlier group's
      database facts belong to that group's model, which is periodic
      from its horizon on, and no other fact reaches this group. Once
      ``t - L`` lies strictly past the settle point, the inputs on
      ``[t - L, inf)`` are rays and patterns, so they look the same from
      any two positions a multiple of ``r`` apart, where ``r`` is the lcm
      of the periods of the groups read. Slabs are compared at positions
      a ``step`` apart: the lcm of ``r`` and ``c``, the gcd of the
      group's cycle shift sums (``_shift_gcd``), or 1 when neither
      exists. ``c`` keeps a group's period a multiple of its own cycles'
      rhythm: ``diamondminus[5,5] P -> P`` keeps period 5 even when its
      facts fill every residue and the points alone repeat every 1.
    * **Period.** At the first position ``t + q`` whose normalized state
      equals that of an earlier position ``t``, the future repeats: the
      model on ``[t - L, inf)`` equals itself shifted by ``q``, so it
      repeats from the first multiple ``h`` of ``q`` at or after
      ``t - L``.
    * **Minimality.** The inputs look the same from every position, so
      the state's key holds only the slab (shifted by ``L - t``) and the
      ray flags, and from the first position on, the state at the next
      position is a function of the state at this one. The first repeat
      therefore closes the cycle of that sequence: ``q`` is the smallest
      multiple of ``step`` that is a period of the state from some point
      on. For a propositional program the paper's pattern length ``P``
      is a period of the model, and ``step`` divides ``P`` (``r`` by
      induction over the groups, ``c`` because it divides every cycle's
      shift sum), so ``P`` is such a period of the state too. The gcd of
      two such periods is one as well (step up by one, down by the
      other), and ``gcd(q, P)`` is a multiple of ``step``, so
      ``q = gcd(q, P)``: ``q`` divides ``P``. With constants ``P`` is
      computed on predicates and need not be a period of the model (see
      ``analysis.pattern_length``), and ``q`` need not divide it.
    * **Compaction.** ``h`` then moves back to the least multiple ``b``
      of ``q`` from which the group's facts repeat: those on ``[b, h)``
      and those on ``[b + q, h + q)`` make the same slab. If they do,
      every point ``s >= b`` holds what ``s + q`` holds, by this test
      below ``h`` and by the repeat from ``h`` on. The test is monotone
      in ``b`` (a later ``b`` compares a part of the same range), so
      ``b`` is found by galloping back ``q, 2q, 4q, ...`` and then
      bisecting, each test comparing only the range not yet compared;
      when nothing compacts this is one comparison. The search stops at
      ``floor(start / q) * q``, where ``start`` is the database's first
      point: no fact lies before it, so a group that holds nothing would
      otherwise walk back forever. The group's facts are clipped before
      ``b`` and ``[b, b + q)`` becomes rays and patterns (``freeze``);
      ``b`` is the group's horizon, so a later group reading it settles
      early. Only the representation changes, not the model.

    The model's period is the lcm of the groups' periods, and its horizon
    the largest ``b``.
    """
    if not program.is_normal_form:
        raise InputError("reason requires a normal-form program")
    if not program.is_ground:
        raise InputError("reason requires a ground program (see ground())")
    if not is_forward_propagating(program):
        raise NotForwardPropagating(
            "reason supports only Horn, boxminus, and diamondminus rules"
        )
    if program.axioms:
        raise InputError("reason does not support facts over (-inf, inf)")
    for atom, ivs in database.items():
        for piece in ivs:
            if piece.lo == NEG_INF:
                raise InputError(
                    f"database fact {atom}@{piece} is unbounded below"
                )
    if database.is_empty:
        return PeriodicModel(Model(), (), 1, 0)

    start = min_time_point(database)
    last_end: dict[str, int | Fraction] = {}  # per predicate, of its database facts
    db_atoms: dict[str, list[Atom]] = {}  # per predicate
    for atom, ivs in database.items():
        db_atoms.setdefault(atom.predicate, []).append(atom)
        last = ivs.pieces[-1]
        end = last.hi if last.hi != POS_INF else last.lo
        last_end[atom.predicate] = max(end, last_end.get(atom.predicate, end))
    facts = database.copy()
    patterns: dict[Atom, list[Pattern]] = {}
    periods: dict[str, int | Fraction] = {}
    horizons: dict[str, int | Fraction] = {}

    for group in group_and_sort(program):
        name = ",".join(sorted(group.predicates))
        reads = {a.predicate for a in group.by_body}
        read = sorted(reads & periods.keys())
        lookback = group.lookback
        cycle_step = _shift_gcd(group)
        step = lcm_rationals(
            [periods[p] for p in read] + ([cycle_step] if cycle_step else []) or [1]
        )
        db_inputs = (reads | group.predicates) - periods.keys()
        settle = max(
            [start]
            + [last_end[p] for p in db_inputs if p in last_end]
            + [horizons[p] for p in read]
        )
        position = ((settle + lookback) // step + 1) * step
        atoms = sorted(
            {r.head for r in group.rules}
            | {a for p in group.predicates for a in db_atoms.get(p, ())},
            key=_atom_key,
        )
        rays_from = [
            (r.body[0].inner, r.body[0].rho.lo)
            for r, form in zip(group.rules, group.forms)
            if form == 6 and r.body[0].rho.hi == POS_INF
        ]

        def state(t: int | Fraction) -> tuple:
            locks = tuple(
                (first := _first_point(atom, facts, patterns)) is not None
                and first < t - a
                for atom, a in rays_from
            )
            return locks + _slab(facts, atoms, t - lookback, t) if lookback else locks

        chunks = 0

        def derive(lo: int | Fraction, hi: int | Fraction) -> None:
            nonlocal chunks
            chunks += 1
            window = Interval(lo, hi, False, True)
            _derive_group(group, facts, patterns, window)
            if on_iteration is not None:
                on_iteration(name, chunks, facts.copy())

        seen: dict[tuple, int | Fraction] = {}
        repeat: int | Fraction | None = None
        derived, end, width = start, position, max(lookback, step)
        while repeat is None:
            if chunks >= window_cap:
                raise WindowCapExceeded(
                    f"no repetition within {window_cap} chunks (group "
                    f"{sorted(group.predicates)})"
                )
            derive(derived, end)
            derived = end
            while position <= derived:
                key = state(position)
                if key in seen:
                    repeat = seen[key]
                    break
                seen[key] = position
                position += step
            end, width = derived + width, 2 * width

        period = position - repeat
        begin = -((lookback - repeat) // period) * period
        if derived < begin + period:
            derive(derived, begin + period)

        def repeats(lo: int | Fraction, hi: int | Fraction) -> bool:
            return _slab(facts, atoms, lo, hi) == _slab(facts, atoms, lo + period, hi + period)

        lowest, bad, jump = start // period * period, None, period
        while begin > lowest:
            b = max(begin - jump, lowest)
            if not repeats(b, begin):
                bad = b
                break
            begin, jump = b, 2 * jump
        while bad is not None and begin - bad > period:
            mid = begin - (begin - bad) // period // 2 * period
            if repeats(mid, begin):
                begin = mid
            else:
                bad = mid
        group_rays, group_patterns = freeze(facts, atoms, begin, period)
        cutoff = Interval(NEG_INF, begin, True, True)
        for atom in atoms:
            facts.put(atom, facts.get(atom).clip(cutoff))
        for ray in group_rays:
            facts.add(ray.atom, ray.interval)
        for pat in group_patterns:
            patterns.setdefault(pat.atom, []).append(pat)
        for pred in group.predicates:
            periods[pred] = period
            horizons[pred] = begin

    every_pattern = (pat for pats in patterns.values() for pat in pats)
    return PeriodicModel(
        facts,
        tuple(sorted(every_pattern, key=Pattern.sort_key)),
        lcm_rationals(set(periods.values()) or [1]),
        max(horizons.values(), default=0),
    )
