"""Materialization: rule application, a bounded fixpoint oracle, the
windowed periodic reasoning procedure, and entailment.

Two independent evaluation routes are kept apart on purpose:

* ``naive_fixpoint_bounded`` is the ground truth -- a straight fixpoint
  of the immediate consequence operator, clipped to a window, driven by
  a change worklist (or full literal re-evaluation for programs that are
  not in normal form).
* ``reason`` is the windowed procedure: derive per SCC group over a
  sliding window of pattern lengths, normalize each window back to the
  origin, and stop as soon as two consecutive windows carry the same
  normalized facts, emitting repetition patterns (or rays for facts that
  fill a whole window).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator

import networkx as nx

from .analysis import dependency_graph, pattern_length
from .errors import InputError, NotForwardPropagating, StepCapExceeded, WindowCapExceeded
from .intervals import (
    Interval,
    IntervalSet,
    NEG_INF,
    POS_INF,
    TimePoint,
    box_minus_apply,
    diamond_minus_apply,
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
    FP_FORMS,
    body_atoms,
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

    def atoms(self) -> list[Atom]:
        return sorted(self._data, key=_atom_key)

    def items(self) -> list[tuple[Atom, IntervalSet]]:
        return [(a, self._data[a]) for a in self.atoms()]

    def facts(self) -> Iterator[Fact]:
        for atom, ivs in self.items():
            for piece in ivs:
                yield Fact(atom, piece)

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

    def shift(self, d: Fraction) -> Model:
        return Model({a: ivs.shift(d) for a, ivs in self._data.items()})

    def union(self, other: Model) -> Model:
        out = self.copy()
        for atom, ivs in other._data.items():
            out.add_set(atom, ivs)
        return out

    def finite_endpoints(self) -> list[Fraction]:
        out = []
        for ivs in self._data.values():
            for piece in ivs:
                if piece.lo.is_finite:
                    out.append(piece.lo.value)
                if piece.hi.is_finite:
                    out.append(piece.hi.value)
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Model):
            return NotImplemented
        return self._data == other._data

    def __len__(self) -> int:
        return len(self._data)

    def __str__(self) -> str:
        return "; ".join(f"{a}@{ivs}" for a, ivs in self.items()) or "(empty)"


def max_time_point(db: Model) -> Fraction:
    """Largest finite endpoint in the database (0 when there is none)."""
    points = db.finite_endpoints()
    return max(points) if points else Fraction(0)


def min_time_point(db: Model) -> Fraction:
    points = db.finite_endpoints()
    return min(points) if points else Fraction(0)


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
    horizon: Fraction | int | None = None,
    *,
    window: Interval | None = None,
    step_cap: int = DEFAULT_STEP_CAP,
) -> Model:
    """Least fixpoint with every derived interval clipped to a window.

    ``horizon`` is shorthand for the window ``(-inf, horizon]``. With no
    window at all the fixpoint must be naturally finite (harmless
    programs); the step cap turns runaway derivations into a diagnostic
    error. Supports nested diamondminus/boxminus bodies and box heads;
    forward operators and since/until are rejected.
    """
    if horizon is not None:
        if window is not None:
            raise ValueError("pass either horizon or window, not both")
        window = Interval(NEG_INF, TimePoint.of(Fraction(horizon)), True, False)
    model = Model.from_facts(program.axioms)
    for atom, ivs in database.items():
        model.add_set(atom, ivs)
    if window is not None:
        model = model.restrict(window)
    if program.is_normal_form and program.is_ground and all(
        rule_form(r) in FP_FORMS for r in program.rules
    ):
        return _oracle_worklist(program, model, window, step_cap)
    return _oracle_rounds(program, model, window, step_cap)


# ---------------------------------------------------------------------------
# Rule groups
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RuleGroup:
    predicates: frozenset[str]
    rules: tuple[Rule, ...]


def group_and_sort(program: Program) -> list[RuleGroup]:
    """Rules grouped by the SCC of their head predicate, dependencies first.

    Groups whose SCC has no rules (database-only predicates) are omitted.
    The order is a deterministic topological order of the condensation.
    """
    graph = dependency_graph(program)
    g = nx.DiGraph()
    g.add_nodes_from(graph.nodes)
    g.add_edges_from((e.source, e.target) for e in graph.edges)
    cond = nx.condensation(g)
    order = nx.lexicographical_topological_sort(
        cond, key=lambda n: tuple(sorted(cond.nodes[n]["members"]))
    )
    groups: list[RuleGroup] = []
    for comp in order:
        members = frozenset(cond.nodes[comp]["members"])
        rules = tuple(r for r in program.rules if r.head.predicate in members)
        if rules:
            groups.append(RuleGroup(members, rules))
    return groups


# ---------------------------------------------------------------------------
# Periodic representation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Pattern:
    """The fact ``atom @ (offset + x * period)`` for every x >= start_index."""

    atom: Atom
    offset: Interval
    start_index: int
    period: Fraction

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
        if not window.hi.is_finite:
            raise ValueError("pattern occurrences need a window bounded above")
        first = self.start_index
        if window.lo.is_finite and self.offset.hi.is_finite:
            reach = window.lo.value - self.offset.hi.value
            first = max(first, math.ceil(reach / self.period))
        last = math.floor((window.hi.value - self.offset.lo.value) / self.period)
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


@dataclass(frozen=True)
class PeriodicModel:
    """Finite representation of a possibly infinite model.

    ``facts`` holds the aperiodic prefix plus rays; ``patterns`` repeat
    forever with ``period``. Behavior is patterned from ``horizon`` on.
    """

    facts: Model
    patterns: tuple[Pattern, ...]
    period: Fraction
    horizon: Fraction

    def representation_type(self) -> str:
        if not self.patterns:
            bounded = all(
                piece.is_bounded for _, ivs in self.facts.items() for piece in ivs
            )
            return "finite" if bounded else "constant"
        return "periodic"

    def atoms(self) -> list[Atom]:
        out = {a: None for a in self.facts.atoms()}
        for p in self.patterns:
            out.setdefault(p.atom, None)
        return sorted(out, key=_atom_key)

    def unroll(self, hi: Fraction | int) -> Model:
        """Materialize the represented model over ``(-inf, hi]``."""
        window = Interval(NEG_INF, TimePoint.of(Fraction(hi)), True, False)
        out = self.facts.restrict(window)
        unrolled: dict[Atom, list[Interval]] = {}
        for pat in self.patterns:
            unrolled.setdefault(pat.atom, []).extend(occurrences(pat, window))
        for atom, pieces in unrolled.items():
            out.add_set(atom, IntervalSet.from_iterable(pieces))
        return out

    def coverage(self, atom: Atom, window: Interval) -> IntervalSet:
        """Exact point set of ``atom`` within a bounded-above window."""
        pieces = list(self.facts.get(atom).clip(window))
        for pat in self.patterns:
            if pat.atom == atom:
                pieces.extend(occurrences(pat, window))
        return IntervalSet.from_iterable(pieces)

    def entails(self, fact: Fact) -> bool:
        """Does every model of the program and database satisfy ``fact``?

        Only the query's own span is unrolled (one period past the last
        anchor for an unbounded query), so the cost does not depend on
        how far out the query lies.
        """
        query = fact.interval
        if query.hi.is_finite:
            return self.coverage(fact.atom, query).covers_interval(query)
        # Unbounded query: beyond every aperiodic endpoint and pattern start
        # the represented content repeats with the period, so covering one
        # full period window there covers the entire tail.
        anchors = [self.horizon, Fraction(0)]
        if query.lo.is_finite:
            anchors.append(query.lo.value)
        for piece in (p for _, ivs in self.facts.items() for p in ivs):
            if piece.hi.is_finite:
                anchors.append(piece.hi.value)
            if piece.lo.is_finite:
                anchors.append(piece.lo.value)
        for pat in self.patterns:
            anchors.append(
                pat.offset.hi.value + pat.period * pat.start_index
            )
        w = max(anchors)
        window = Interval(
            min(query.lo, TimePoint.of(w)), TimePoint.of(w + self.period)
        )
        cover = self.coverage(fact.atom, window)
        head = query.intersect(window)
        if head is not None and not cover.covers_interval(head):
            return False
        tail = Interval(TimePoint.of(w), TimePoint.of(w + self.period), False, True)
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
# Windowed reasoning procedure
# ---------------------------------------------------------------------------

def normalize(model: Model, plength: Fraction, n: int, predicates: frozenset[str] | None = None) -> Model:
    """Facts clipped to the window ``[(n-1)*plength, n*plength)`` and
    shifted back to the origin."""
    if plength <= 0 or n < 1:
        raise ValueError("normalize requires plength > 0 and n >= 1")
    window = Interval(
        TimePoint.of(plength * (n - 1)), TimePoint.of(plength * n), False, True
    )
    if predicates is not None:
        model = Model(
            {a: s for a, s in model._data.items() if a.predicate in predicates}
        )
    return model.restrict(window).shift(-plength * (n - 1))


def extend(patterns: Iterable[Pattern], window: Interval) -> Model:
    """Unroll pattern occurrences that intersect a bounded window."""
    if not (window.lo.is_finite and window.hi.is_finite):
        raise ValueError("extend requires a bounded window")
    out = Model()
    for pat in patterns:
        for x in pat.indices(window):
            occ = pat.occurrence(x)
            if occ.intersect(window) is not None:
                out.add(pat.atom, occ)
    return out


def simplify(
    norm: Model, plength: Fraction, n: int
) -> tuple[list[Fact], list[Pattern]]:
    """Convert matched normalized facts into rays and repetition patterns.

    A normalized fact spanning the whole window ``[0, plength)`` tiles
    the timeline seamlessly from occurrence to occurrence and becomes the
    ray ``[(n-1)*plength, inf)``; anything else becomes a Pattern with
    start index ``n - 1``.
    """
    full = Interval(
        TimePoint.of(Fraction(0)), TimePoint.of(plength), False, True
    )
    rays: list[Fact] = []
    patterns: list[Pattern] = []
    for atom, ivs in norm.items():
        for piece in ivs:
            if piece == full:
                start = TimePoint.of(plength * (n - 1))
                rays.append(Fact(atom, Interval(start, POS_INF, False, True)))
            else:
                patterns.append(Pattern(atom, piece, n - 1, plength))
    return rays, patterns


def _derive_group(
    group: RuleGroup,
    facts: Model,
    patterns: dict[Atom, list[Pattern]],
    window: Interval,
) -> None:
    """Exhaustively apply the group's rules with heads clipped to the window.

    Semi-naive: each round only reconsiders pieces that changed in the
    previous round, so the work per window is proportional to the facts
    it derives, not to the square of the model size.

    Only the atoms the group's rule bodies read are looked at: their facts
    and the occurrences of their earlier groups' patterns seed the first
    round, clipped to the padded window ``[window.lo - lookback,
    window.hi)``, where the lookback is the largest upper end of the
    group's operator ranges. For a range bounded above the clip is exact:
    a head point ``t`` in the window depends only on body points in
    ``[t - rho.hi, t]``, which lie in the padded window, and a clipped
    body piece still reaches every such ``t``. A range unbounded above
    (``diamondminus[a,inf)`` or ``boxminus[a,inf)``) lets a fact from the
    distant past reach the window (``diamondminus`` makes it a ray), so
    then the padded window reaches back to ``-inf``.
    """
    reads = {atom for rule in group.rules for atom in body_atoms(rule)}
    lookback = TimePoint.of(0)
    for rule in group.rules:
        if rule_form(rule) in (4, 6):
            lookback = max(lookback, rule.body[0].rho.hi)
    padded = Interval(window.lo - lookback, window.hi, window.lo_open, window.hi_open)

    unrolled = {
        atom: [piece for pat in patterns.get(atom, ()) for piece in occurrences(pat, padded)]
        for atom in reads
    }

    def visible(atom: Atom) -> IntervalSet:
        clipped = facts.get(atom).clip(padded)
        if not unrolled[atom]:
            return clipped
        return IntervalSet.from_iterable([*clipped, *unrolled[atom]])

    view: dict[Atom, IntervalSet] = {}

    def full(atom: Atom) -> IntervalSet:
        if not unrolled[atom]:
            return facts.get(atom)  # joins bisect it; clipping would cost more
        cached = view.get(atom)
        if cached is None:
            cached = view[atom] = visible(atom)
        return cached

    frontier = {atom: seed for atom in reads if not (seed := visible(atom)).is_empty}
    while frontier:
        fresh: dict[Atom, list[Interval]] = {}
        view.clear()
        for rule in group.rules:
            form = rule_form(rule)
            derived = IntervalSet.empty()
            if form == 1:
                for i, atom in enumerate(rule.body):
                    delta = frontier.get(atom)
                    if delta is None:
                        continue
                    part = delta
                    for j, other in enumerate(rule.body):
                        if part.is_empty:
                            break
                        if j != i:
                            part = part.intersect(full(other))
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


def _group_settle(
    group: RuleGroup, input_settle: Fraction
) -> Fraction:
    """Time point after which no new first-arrival can reach the group.

    Inputs (database facts and previous groups) are aperiodic only up to
    ``input_settle``; a rule fed from outside the group forwards such a
    disturbance at most its range's reach further. Matching two windows
    before this point could freeze a group that is still waiting for its
    first facts. In-group propagation gets no allowance, on the premise
    that every in-group edge lies on a cycle and so shifts by at most the
    pattern length. A stretching in-group ``diamondminus[a,b]`` with ``a <
    b`` breaks that premise: it moves a piece's left end by ``a`` but its
    right end by ``b``, which may exceed the pattern length. Such a group
    can then be frozen while its facts are still ending (``reason`` gives
    a ray where the model stops), a known defect that needs a window
    argument beyond this settle point.
    """
    reach = Fraction(0)
    for rule in group.rules:
        form = rule_form(rule)
        if form == 1:
            continue
        lit = rule.body[0]
        if lit.inner.predicate in group.predicates:
            continue
        rho = lit.rho
        if rho.hi.is_finite:
            reach = max(reach, rho.hi.value)
        elif form == 6:
            # unbounded diamond turns its input into a ray at rho.lo reach
            reach = max(reach, rho.lo.value)
    return input_settle + reach


def reason(
    program: Program,
    database: Model,
    *,
    window_cap: int = DEFAULT_WINDOW_CAP,
    cycle_cap: int = 100_000,
    on_iteration: Callable[[str, int, Model], None] | None = None,
) -> PeriodicModel:
    """Compute a finite periodic representation of the minimum model.

    The program must be a ground, normal-form, forward-propagating
    program; database intervals must be bounded below (rays ``[c, inf)``
    are fine). Proceeds SCC group by SCC group in dependency order,
    sliding a window of one pattern length until two consecutive
    normalized windows match, then freezes that group's behavior as
    patterns and rays.
    """
    if not program.is_normal_form:
        raise InputError("reason requires a normal-form program")
    if not program.is_ground:
        raise InputError("reason requires a ground program (see ground())")
    if not all(rule_form(r) in FP_FORMS for r in program.rules):
        raise NotForwardPropagating(
            "reason supports only Horn, boxminus, and diamondminus rules"
        )
    if program.axioms:
        raise InputError("reason does not support facts over (-inf, inf)")
    for atom, ivs in database.items():
        for piece in ivs:
            if not piece.lo.is_finite:
                raise InputError(
                    f"database fact {atom}@{piece} is unbounded below"
                )

    plength = pattern_length(program, cycle_cap)
    if database.is_empty:
        return PeriodicModel(Model(), (), plength, Fraction(0))

    n = max(1, math.ceil(max_time_point(database) / plength))
    n_min = math.floor(min_time_point(database) / plength)

    facts = database.copy()
    patterns: dict[Atom, list[Pattern]] = {}
    horizons: dict[str, Fraction] = {}
    rays: list[Fact] = []

    input_settle = max_time_point(database)
    for group in group_and_sort(program):
        settle = _group_settle(group, input_settle)
        prev_norm: Model | None = None
        n_prev = n_min
        iterations = 0
        while True:
            iterations += 1
            if iterations > window_cap:
                raise WindowCapExceeded(
                    f"no repetition within {window_cap} windows (group "
                    f"{sorted(group.predicates)})"
                )
            window = Interval(
                TimePoint.of(plength * n_prev),
                TimePoint.of(plength * (n + 1)),
                False,
                True,
            )
            _derive_group(group, facts, patterns, window)
            norm = normalize(facts, plength, n, group.predicates)
            if on_iteration is not None:
                on_iteration(",".join(sorted(group.predicates)), n, facts.copy())
            # Matching is only sound once the compared window lies strictly
            # beyond every aperiodic input (database content ends at the
            # settle point inclusive, so strictly).
            if (
                prev_norm is not None
                and norm == prev_norm
                and plength * (n - 1) > settle
            ):
                group_rays, group_patterns = simplify(norm, plength, n)
                rays.extend(group_rays)
                for pat in group_patterns:
                    patterns.setdefault(pat.atom, []).append(pat)
                for ray in group_rays:
                    facts.add(ray.atom, ray.interval)  # later groups read it
                horizon = plength * (n - 1)
                for pred in group.predicates:
                    horizons[pred] = horizon
                input_settle = max(input_settle, horizon)
                break
            prev_norm = norm
            n_prev = n
            n += 1

    out = Model()
    for atom, ivs in facts.items():
        horizon = horizons.get(atom.predicate)
        if horizon is None:
            out.add_set(atom, ivs)
        else:
            cutoff = Interval(NEG_INF, TimePoint.of(horizon), True, True)
            out.add_set(atom, ivs.clip(cutoff))
    for ray in rays:
        out.add(ray.atom, ray.interval)

    final_horizon = max(horizons.values(), default=Fraction(0))
    every_pattern = (pat for pats in patterns.values() for pat in pats)
    return PeriodicModel(
        out, tuple(sorted(every_pattern, key=Pattern.sort_key)), plength, final_horizon
    )
