"""Materialization: a bounded fixpoint oracle, the periodic reasoning
procedure, and entailment.

Two independent evaluation routes are kept apart on purpose:

* ``naive_fixpoint_bounded`` is the ground truth -- a straight fixpoint
  of the immediate consequence operator on a ground program, clipped to
  a window, in one semi-naive loop: each round re-evaluates only the
  rules that read an atom whose pieces changed in the round before.
* ``reason`` derives per SCC group, forward in chunks, and stops once
  the group's state repeats, past every aperiodic input: the facts of
  the group atoms its rules read, on a slab as wide as those rules look
  back at them, and which of those atoms hold for good. The repeat gives
  the group's period (at once for a group whose rules read none of its
  atoms: its state is empty), and one period of its facts becomes
  repetition patterns (or rays for facts that fill the whole period).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from fractions import Fraction
from itertools import chain

from .analysis import DEFAULT_CYCLE_CAP, _edge_labels, _sccs
from .errors import InputError, NotForwardPropagating, StepCapExceeded, WindowCapExceeded
from .intervals import (
    Interval,
    IntervalSet,
    NEG_INF,
    POS_INF,
    Time,
    _clip,
    _hi_of,
    _lo_of,
    lcm_rationals,
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
    _Unary,
    _Value,
    is_forward_propagating,
)

DEFAULT_WINDOW_CAP = 10_000
DEFAULT_STEP_CAP = 1_000_000

_FULL_LINE = Interval(NEG_INF, POS_INF, True, True)
_NOTHING = IntervalSet.empty()

# The most pieces one block of an atom's facts holds in ``Model``.
_BLOCK = 256


def _atom_key(atom: Atom):
    return (atom.predicate, tuple(t.name for t in atom.terms))


def _first_lo(block: list[Interval]) -> Time:
    return block[0].lo


def _last_hi(block: list[Interval]) -> Time:
    return block[-1].hi


class Model:
    """Map from ground atom to canonical IntervalSet, grown one piece at a
    time by a reasoning session.

    Each atom's pieces are kept in sorted blocks (lists) of at most
    ``_BLOCK`` pieces, the layout of ``sortedcontainers.SortedList`` (G.
    Jenks, *SortedContainers*). So ``add`` bisects to one block and splices
    there: past the last piece, as a forward derivation adds, it appends in
    O(1), and anywhere else, as the oracle adds running toward ``-inf``, it
    moves at most one block's pieces; a block that outgrows ``_BLOCK``
    splits in two. Building a model piece by piece is therefore linear in
    its pieces, not quadratic.

    The blocks are the only copy of the facts: ``get`` builds the atom's
    immutable ``IntervalSet`` from them on each call, and keeps nothing.
    The readers on the reasoning path read the blocks instead, at a cost
    that follows what they ask for, not the atom's whole set: ``clip`` and
    ``meet`` read the blocks that meet a window or a set's pieces,
    ``covers`` and ``last`` one block. Blocks are never shared between two
    models. Atoms whose set would be empty are absent, and two models are
    equal when they hold the same sets, however their blocks split them.
    """

    __slots__ = ("_blocks",)

    def __init__(self, data: Mapping[Atom, IntervalSet] | None = None):
        self._blocks: dict[Atom, list[list[Interval]]] = {}
        if data:
            for atom, ivs in data.items():
                self.put(atom, ivs)

    @classmethod
    def from_facts(cls, facts: Iterable[Fact]) -> Model:
        model = cls()
        for f in facts:
            model.add(f.atom, f.interval)
        return model

    def copy(self) -> Model:
        out = Model()
        out._blocks = {
            atom: [block[:] for block in blocks] for atom, blocks in self._blocks.items()
        }
        return out

    def get(self, atom: Atom) -> IntervalSet:
        blocks = self._blocks.get(atom)
        return IntervalSet(tuple(chain.from_iterable(blocks))) if blocks else _NOTHING

    def add(self, atom: Atom, interval: Interval) -> Interval | None:
        """Insert a fact; returns the piece of the atom's set that now
        covers it (the fact merged with every piece it overlaps or
        touches), or None if the fact was already covered."""
        blocks = self._blocks.get(atom)
        if blocks is None:
            self._blocks[atom] = [[interval]]
            return interval
        lo = interval.lo
        block = blocks[-1]
        last = block[-1]
        if lo > last.hi or (lo == last.hi and last.hi_open and interval.lo_open):
            # past the last piece and apart from it
            if len(block) < _BLOCK:
                block.append(interval)
            else:
                blocks.append([interval])
            return interval
        # the first piece that can meet the fact: the first ending at or
        # after its lower end, unless it ends there open and the fact starts
        # open (the next one then; it exists, or the fact would lie apart
        # past the last piece)
        b = bisect_left(blocks, lo, key=_last_hi) if len(blocks) > 1 else 0
        block = blocks[b]
        k = bisect_left(block, lo, key=_hi_of)
        piece = block[k]
        if piece.hi == lo and piece.hi_open and interval.lo_open:
            k += 1
            if k == len(block):
                b, k = b + 1, 0
                block = blocks[b]
            piece = block[k]
        if piece.contains_interval(interval):
            return None
        # merge every piece from there on that overlaps or touches the fact;
        # block ``c`` index ``j`` is the first piece left as it is
        merged, c, j, run = interval, b, k, block
        while True:
            piece = run[j]
            if piece.lo > merged.hi or (
                piece.lo == merged.hi and merged.hi_open and piece.lo_open
            ):
                break
            merged = merged.hull(piece)
            j += 1
            if j == len(run):
                if c + 1 == len(blocks):
                    break
                c, j, run = c + 1, 0, blocks[c + 1]
        if c == b:
            block[k:j] = [merged]
            if len(block) > _BLOCK:
                blocks.insert(b + 1, block[_BLOCK // 2:])
                del block[_BLOCK // 2:]
        else:
            block[k:] = [merged]
            del run[:j]
            del blocks[b + 1:c if run else c + 1]
        return merged

    def put(self, atom: Atom, ivs: IntervalSet) -> None:
        """Replace the atom's set (dropping the atom when it is empty)."""
        pieces = ivs.pieces
        if pieces:
            self._blocks[atom] = [
                list(pieces[i:i + _BLOCK]) for i in range(0, len(pieces), _BLOCK)
            ]
        else:
            self._blocks.pop(atom, None)

    def clip(self, atom: Atom, window: Interval) -> IntervalSet:
        """``get(atom).clip(window)``, read off the blocks that meet the
        window: those with a piece that ends at or after ``window.lo`` and
        one that starts at or before ``window.hi``."""
        blocks = self._blocks.get(atom)
        if blocks is None:
            return _NOTHING
        if len(blocks) > 1:
            blocks = blocks[
                bisect_left(blocks, window.lo, key=_last_hi):
                bisect_right(blocks, window.hi, key=_first_lo)
            ]
        pieces = blocks[0] if len(blocks) == 1 else list(chain.from_iterable(blocks))
        return IntervalSet(_clip(pieces, window))

    def meet(self, atom: Atom, ivs: IntervalSet) -> IntervalSet:
        """``ivs.intersect(get(atom))``: the atom clipped to each piece of
        ``ivs`` in turn. The pieces are separated, so their clips are too,
        and the result is canonical without a merge."""
        return IntervalSet(tuple(chain.from_iterable(self.clip(atom, p).pieces for p in ivs)))

    def last(self, atom: Atom) -> Interval | None:
        """The atom's last piece, or None for an absent atom."""
        blocks = self._blocks.get(atom)
        return blocks[-1][-1] if blocks else None

    def covers(self, atom: Atom, interval: Interval) -> bool:
        """``get(atom).covers_interval(interval)``, read off one block: only
        the last piece that starts at or before ``interval.lo`` can cover
        it."""
        blocks = self._blocks.get(atom)
        if blocks is None:
            return False
        b = bisect_right(blocks, interval.lo, key=_first_lo) - 1 if len(blocks) > 1 else 0
        block = blocks[b] if b >= 0 else ()
        k = bisect_right(block, interval.lo, key=_lo_of) - 1
        return k >= 0 and block[k].contains_interval(interval)

    def atoms(self) -> list[Atom]:
        return sorted(self._blocks, key=_atom_key)

    def items(self) -> list[tuple[Atom, IntervalSet]]:
        return [(a, self.get(a)) for a in self.atoms()]

    def rows(self) -> list[dict]:
        """Deterministic structured form: one row per atom, in atom order,
        with its pieces rendered as strings."""
        return [
            {"atom": str(atom), "intervals": [str(p) for p in ivs]}
            for atom, ivs in self.items()
        ]

    @property
    def is_empty(self) -> bool:
        return not self._blocks

    def restrict(self, window: Interval) -> Model:
        out = Model()
        for atom in self._blocks:
            out.put(atom, self.clip(atom, window))
        return out

    def finite_endpoints(self) -> list[int | Fraction]:
        out = []
        for blocks in self._blocks.values():
            for block in blocks:
                for piece in block:
                    if piece.lo != NEG_INF:
                        out.append(piece.lo)
                    if piece.hi != POS_INF:
                        out.append(piece.hi)
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Model):
            return NotImplemented
        return self._blocks.keys() == other._blocks.keys() and all(
            self.get(atom) == other.get(atom) for atom in self._blocks
        )

    def __len__(self) -> int:
        return len(self._blocks)

    def __str__(self) -> str:
        return "; ".join(f"{a}@{ivs}" for a, ivs in self.items()) or "(empty)"


def max_time_point(db: Model) -> int | Fraction:
    """Largest finite endpoint in the database (0 when there is none)."""
    return max(db.finite_endpoints(), default=0)


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


def _eval_literal(lit: Literal, get: Callable[[Atom], IntervalSet]) -> IntervalSet:
    """Truth set of a (possibly nested) unary temporal literal, reading
    each atom's set through ``get``: the model's, or for a linear literal
    the atom's changed pieces.

    The forward operators are evaluated by reflecting the timeline, so
    the oracle can validate rewrites that introduce them; since/until
    remain out of scope.
    """
    if isinstance(lit, Atom):
        return get(lit)
    if isinstance(lit, Top):
        return IntervalSet.of(_FULL_LINE)
    if isinstance(lit, Bottom):
        return IntervalSet.empty()
    if isinstance(lit, DiamondMinus):
        return _eval_literal(lit.inner, get).diamond_minus(lit.rho)
    if isinstance(lit, BoxMinus):
        return _eval_literal(lit.inner, get).box_minus(lit.rho)
    if isinstance(lit, DiamondPlus):
        return _reflect(_reflect(_eval_literal(lit.inner, get)).diamond_minus(lit.rho))
    if isinstance(lit, BoxPlus):
        return _reflect(_reflect(_eval_literal(lit.inner, get)).box_minus(lit.rho))
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


def _linear_atom(lit: Literal) -> Atom | None:
    """The atom a body literal reads through at most one unary operator."""
    if isinstance(lit, _Unary):
        lit = lit.inner
    return lit if isinstance(lit, Atom) else None


def naive_fixpoint_bounded(
    program: Program,
    database: Model,
    horizon: int | Fraction | None = None,
    *,
    step_cap: int = DEFAULT_STEP_CAP,
) -> Model:
    """Least fixpoint of a ground program with every derived interval
    clipped to the window ``(-inf, horizon]``.

    One semi-naive loop: the first round evaluates every rule on the whole
    model; each later round evaluates only the rules that read an atom
    whose pieces changed in the round before. A linear rule (each body
    literal reads one atom through at most one unary operator) joins the
    atom's changed pieces with the rest of the model. This is exact: a
    changed piece is a whole piece of the model when it is added, so a box
    sees it entire, a diamond distributes over pieces, and a piece that
    grows later is changed again. Any other rule (a nested literal, top,
    bottom) is evaluated whole.

    With no horizon the fixpoint must be naturally finite (harmless
    programs); the step cap, which counts the model's pieces at the start
    and each piece changed since, turns runaway derivations into a
    diagnostic error. Evaluates diamondminus/boxminus/diamondplus/boxplus
    bodies, nested too, and box heads; only since/until are rejected.
    """
    if not program.is_ground:
        raise InputError("the oracle requires a ground program (see ground())")
    window = None if horizon is None else Interval.up_to(horizon)
    model = database.copy()
    for fact in program.axioms:
        model.add(fact.atom, fact.interval)
    if window is not None:
        model = model.restrict(window)

    # for each atom, the linear rules reading it (with the literal's
    # position) and the rules evaluated whole that read it
    linear: dict[Atom, list[tuple[Rule, int]]] = {}
    whole: dict[Atom, list[Rule]] = {}
    for rule in program.rules:
        read = [_linear_atom(lit) for lit in rule.body]
        if None in read:
            for atom in rule.body_atoms:
                whole.setdefault(atom, []).append(rule)
        else:
            for position, atom in enumerate(read):
                linear.setdefault(atom, []).append((rule, position))

    # a job evaluates its rule's literal at ``position`` through ``get``
    # (the model, or one atom's changed pieces) and the rest on the model
    steps = sum(len(ivs) for _, ivs in model.items())
    jobs: list[tuple[Rule, int, Callable[[Atom], IntervalSet]]] = [
        (rule, 0, model.get) for rule in program.rules
    ]
    while jobs:
        if steps > step_cap:
            raise StepCapExceeded(f"oracle exceeded {step_cap} steps")
        changed: dict[Atom, list[Interval]] = {}
        for rule, position, get in jobs:
            truth = _eval_literal(rule.body[position], get)
            for other, lit in enumerate(rule.body):
                if truth.is_empty:
                    break
                if other != position:
                    truth = (
                        model.meet(lit, truth)
                        if isinstance(lit, Atom)
                        else truth.intersect(_eval_literal(lit, model.get))
                    )
            for atom, piece in _head_facts(rule.head, truth):
                if window is not None:
                    piece = piece.intersect(window)
                    if piece is None:
                        continue
                merged = model.add(atom, piece)
                if merged is not None:
                    changed.setdefault(atom, []).append(merged)
        jobs = []
        again: dict[Rule, None] = {}
        for atom, pieces in changed.items():
            steps += len(pieces)
            get = {atom: IntervalSet.from_iterable(pieces)}.__getitem__
            jobs.extend((rule, position, get) for rule, position in linear.get(atom, ()))
            again.update(dict.fromkeys(whole.get(atom, ())))
        jobs.extend((rule, 0, model.get) for rule in again)
    return model


# ---------------------------------------------------------------------------
# Rule groups
# ---------------------------------------------------------------------------

class RuleGroup(_Value):
    """One SCC of ground atoms, its rules (in program order), the cycle
    step of its predicates' SCC (the ``c`` of ``reason``'s Positions,
    worked out by ``group_and_sort``), and what ``reason`` and
    ``_derive_group`` read off the rules, built once: the rules indexed by
    each atom their bodies read (in group order), and how far back they
    look.

    A rule's reach is the upper end of its ``boxminus``/``diamondminus``
    range, except that a ``diamondminus[a,inf)`` reaches ``a`` (a body
    point further back has already made its head a ray, stored whole) and
    a ``boxminus[a,inf)`` nothing (it never fires on facts bounded below).
    ``lookback``, the largest reach of the group's rules, is how far
    before a window ``_derive_group`` reads body facts and the L of
    ``reason``'s Positions; ``span``, the largest reach of those whose
    body reads a group atom, is the S of ``reason``'s State."""

    __slots__ = ("atoms", "rules", "cycle_step", "by_body", "lookback", "span")

    def __init__(
        self, atoms: frozenset[Atom], rules: tuple[Rule, ...], cycle_step: int | Fraction
    ) -> None:
        self.atoms = atoms
        self.rules = rules
        self.cycle_step = cycle_step
        by_body: dict[Atom, list[int]] = {}
        lookback = span = 0
        for i, rule in enumerate(rules):
            for atom in dict.fromkeys(rule.body_atoms):
                by_body.setdefault(atom, []).append(i)
            if rule.form not in (BoxMinus, DiamondMinus):
                continue
            rho = rule.body[0].rho
            if rho.hi != POS_INF:
                reach = rho.hi
            elif rule.form is DiamondMinus:
                reach = rho.lo
            else:
                continue
            lookback = max(lookback, reach)
            if rule.body[0].inner in atoms:
                span = max(span, reach)
        self.by_body = {a: tuple(ids) for a, ids in by_body.items()}
        self.lookback = lookback
        self.span = span


def _reads(program: Program) -> dict[Atom, list[Atom]]:
    """The ground atom graph: each rule head and its rules' body atoms."""
    reads: dict[Atom, list[Atom]] = {}
    for rule in program.rules:
        reads.setdefault(rule.head, []).extend(rule.body_atoms)
    return reads


def group_and_sort(program: Program) -> list[RuleGroup]:
    """Rules grouped by the SCC of their head in the ground atom graph
    (``_reads``), in dependency order: on head -> body edges ``_sccs``
    gives each SCC after every SCC it reads. SCCs without rules are
    omitted.

    Each group's cycle step is worked out here, once per predicate SCC,
    and the groups of one predicate SCC share it: ``_shift_gcd`` over the
    ``(body predicate, head predicate, shift)`` of the rules inside that
    SCC, the shift from ``analysis._edge_labels``. The predicate SCCs are
    those of the predicate image of ``_reads``, the same graph with its
    edges reversed. A rule not in normal form is rejected, as
    ``analysis.dependency_graph`` rejects it."""
    image: dict[str, dict[str, None]] = {}
    for rule in program.rules:
        if rule.form is None:
            raise InputError(f"rule {rule.id} is not in temporal normal form")
        image.setdefault(rule.head.predicate, {}).update(
            dict.fromkeys(a.predicate for a in rule.body_atoms)
        )
    scc_of = {p: i for i, members in enumerate(_sccs(image)) for p in members}
    inner: dict[int, list[tuple[str, str, Time]]] = {}
    for rule in program.rules:
        head = rule.head.predicate
        for atom in rule.body_atoms:
            if scc_of[atom.predicate] == scc_of[head]:
                edge = (atom.predicate, head, _edge_labels(rule)[2])
                inner.setdefault(scc_of[head], []).append(edge)
    steps = {scc: _shift_gcd(edges) for scc, edges in inner.items()}
    components = _sccs(_reads(program))
    group_of = {atom: i for i, members in enumerate(components) for atom in members}
    rules: list[list[Rule]] = [[] for _ in components]
    for rule in program.rules:
        rules[group_of[rule.head]].append(rule)
    return [
        RuleGroup(frozenset(atoms), tuple(group_rules), steps.get(scc_of[atoms[0].predicate], 0))
        for atoms, group_rules in zip(components, rules)
        if group_rules
    ]


def _shift_gcd(edges: Iterable[tuple[str, str, Time]]) -> int | Fraction:
    """gcd of the shift sums of the cycles of the graph with the edges
    ``(source, target, shift)``; 0 if none is positive.

    No cycle is enumerated. In each strongly connected part, a search
    from one predicate gives every predicate a potential ``pot`` (the
    shift sum of its search path); each edge ``u -> v`` with shift ``w``
    has the slack ``pot[u] + w - pot[v]``. A cycle's shift sum is the sum
    of its edges' slacks, and a slack is the difference of two closed
    walks' shift sums, so the gcd of the slacks is the gcd of the cycles'
    shift sums. ``boxminus[a,inf)`` never fires, so its edges (shift
    ``inf``) are dropped and the graph may fall apart into several parts.
    """
    succ: dict[str, list[tuple[str, int | Fraction]]] = {}
    for source, target, shift in edges:
        if shift != POS_INF:
            succ.setdefault(source, []).append((target, shift))
            succ.setdefault(target, [])
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


# ---------------------------------------------------------------------------
# Periodic representation
# ---------------------------------------------------------------------------

class Pattern(_Value):
    """The fact ``atom @ (offset + x * period)`` for every x >= start_index."""

    __slots__ = ("atom", "offset", "start_index", "period")

    def __init__(
        self, atom: Atom, offset: Interval, start_index: int, period: int | Fraction
    ) -> None:
        self.atom = atom
        self.offset = offset
        self.start_index = start_index
        self.period = period

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
    clipped = facts.clip(atom, window)
    hits = [hit for pat in by_atom.get(atom, ()) for hit in occurrences(pat, window)]
    if not hits:
        return clipped
    return IntervalSet.from_iterable([*clipped, *hits])


def _settled(last: Interval | None, patterns: Iterable[Pattern]) -> int | Fraction:
    """Where an atom turns periodic: the largest of its last finite fact
    endpoint (read off ``last``, its last piece from ``Model.last``: a
    ray's lower end) and the end of each of its patterns' first
    occurrences; ``-inf`` for an atom that holds nothing.

    From there on the atom holds only rays and pattern occurrences, so
    its content repeats with every common multiple of its patterns'
    periods."""
    ends = [pat.first_occurrence().hi for pat in patterns]
    if last is not None:
        ends.append(last.hi if last.hi != POS_INF else last.lo)
    return max(ends, default=NEG_INF)


class PeriodicModel(_Value):
    """Finite representation of a possibly infinite model.

    ``facts`` holds the aperiodic prefix plus rays; ``patterns`` repeat
    forever with ``period``. Behavior is patterned from ``horizon`` on.
    The patterns are indexed by atom once, for ``_coverage``; the index
    takes no part in equality.
    """

    __slots__ = ("facts", "patterns", "period", "horizon", "_by_atom")

    def __init__(
        self,
        facts: Model,
        patterns: tuple[Pattern, ...],
        period: int | Fraction,
        horizon: int | Fraction,
    ) -> None:
        self.facts = facts
        self.patterns = patterns
        self.period = period
        self.horizon = horizon
        by_atom: dict[Atom, list[Pattern]] = {}
        for pat in patterns:
            by_atom.setdefault(pat.atom, []).append(pat)
        self._by_atom = {atom: tuple(pats) for atom, pats in by_atom.items()}

    # unhashable: its facts are a mutable Model
    __hash__ = None

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

        Only the query's own atom is read, and at most one period of it
        past where it settles, so the cost depends neither on how far out
        the query lies nor on how long it is. From ``w``, the later of the
        query's lower end, 0 and the point where the atom settles
        (``_settled``), the atom's content repeats with ``q``, the lcm of
        its own patterns' periods (1 if it has none). So it holds on a
        query that reaches past ``w + q`` (one unbounded above, say) iff
        it holds on the query up to ``w + q``: a later point holds what a
        point of ``(w, w + q]`` a multiple of ``q`` earlier holds. A
        shorter query is read whole, and one that ends by ``max(lo, 0) +
        q``, a point query say, without working out ``w``.
        """
        query = fact.interval
        pats = self._by_atom.get(fact.atom, ())
        q = lcm_rationals([pat.period for pat in pats] or [1])
        if query.hi > max(query.lo, 0) + q:
            w = max(query.lo, _settled(self.facts.last(fact.atom), pats), 0)
            if query.hi > w + q:
                query = Interval(query.lo, w + q, query.lo_open, False)
        return self.coverage(fact.atom, query).covers_interval(query)

    def to_dict(self) -> dict:
        """Deterministic structured form; rationals rendered as strings."""
        return {
            "type": self.representation_type(),
            "period": str(self.period),
            "horizon": str(self.horizon),
            "facts": self.facts.rows(),
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
    """Exhaustively apply the group's rules with heads clipped to the window
    (a ray only at the window's lower end).

    Semi-naive: each round visits, in group order, only the rules with a
    body atom among the pieces that changed in the previous round (the
    group's ``by_body`` index), and only those pieces compose with the
    rest, so the work per window is proportional to the facts it derives,
    not to the square of the model size or to the group's rule count. A
    round carries into the next only the pieces of atoms the rules read:
    a group whose rules read none of its atoms derives in one round.

    Only the atoms the group's rule bodies read are looked at: their facts
    and the occurrences of their earlier groups' patterns (``_coverage``)
    seed the first round, clipped to ``[window.lo - lookback, window.hi)``
    (``RuleGroup.lookback``). A derived piece is clipped to the window,
    except that a piece unbounded above is cut only at ``window.lo``, so
    a ray is stored whole. The seed is exact: a head point ``t`` in the
    window depends, through a range bounded above, only on body points in
    ``[t - rho.hi, t]``, which lie in the seeded span, and a clipped body
    piece still reaches every such ``t``. A ``diamondminus[a,inf)`` body
    point before ``window.lo`` lies in an earlier window (no fact precedes
    the first), where it made its head a ray, and a ``boxminus[a,inf)``
    never fires on facts bounded below.

    A Horn join reads each other body atom only where the delta meets it.
    An atom with patterns belongs to an earlier group and holds still for
    the whole call, so joins intersect its seed. Every other atom's facts
    are read as they grow, through ``Model.meet``: only the blocks that
    meet the delta's pieces, so a join costs what its delta and its answer
    hold, not the atom's whole set.
    """
    seeded = Interval(
        window.lo - group.lookback, window.hi, window.lo_open, window.hi_open
    )
    ray = Interval(window.lo, POS_INF, window.lo_open, True)
    seeds = {atom: _coverage(facts, patterns, atom, seeded) for atom in group.by_body}
    frozen = {atom: seed for atom, seed in seeds.items() if atom in patterns}
    frontier = {atom: seed for atom, seed in seeds.items() if not seed.is_empty}
    while frontier:
        fresh: dict[Atom, list[Interval]] = {}
        touched = sorted({i for atom in frontier for i in group.by_body[atom]})
        for i in touched:
            rule = group.rules[i]
            form = rule.form
            derived = IntervalSet.empty()
            if form is Atom:
                for k, atom in enumerate(rule.body):
                    delta = frontier.get(atom)
                    if delta is None:
                        continue
                    part = delta
                    for j, other in enumerate(rule.body):
                        if part.is_empty:
                            break
                        if j != k:
                            part = (
                                part.intersect(frozen[other])
                                if other in frozen
                                else facts.meet(other, part)
                            )
                    derived = derived.union(part)
            else:
                lit = rule.body[0]
                delta = frontier.get(lit.inner)
                if delta is None:
                    continue
                derived = (
                    delta.diamond_minus(lit.rho)
                    if form is DiamondMinus
                    else delta.box_minus(lit.rho)
                )
            for piece in derived:
                clipped = piece.intersect(ray if piece.hi == POS_INF else window)
                if clipped is None:
                    continue
                merged = facts.add(rule.head, clipped)
                if merged is not None:
                    fresh.setdefault(rule.head, []).append(merged)
        frontier = {
            atom: IntervalSet.from_iterable(pieces)
            for atom, pieces in fresh.items()
            if atom in group.by_body
        }


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
        if (pieces := facts.clip(atom, window).pieces)
    ])


def _last_difference(a: Interval | None, b: Interval | None) -> tuple[Time, bool]:
    """The last point where two canonical sets differ, given the highest
    pieces ``a`` and ``b`` where they differ (``None`` for a set with no
    piece left), and whether they differ at that point itself. Above the
    pair the sets agree, and canonical pieces are separated, so no other
    piece reaches the pair's ends: the greater hi end decides (a closed end
    beats an open one), and with equal hi ends the greater lo end."""
    if a is None or b is None or (a.hi, a.hi_open) != (b.hi, b.hi_open):
        top = max((p for p in (a, b) if p is not None), key=lambda p: (p.hi, not p.hi_open))
        return top.hi, not top.hi_open
    low = max(a, b, key=lambda p: (p.lo, p.lo_open))
    return low.lo, low.lo_open


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


def _check_input(program: Program, database: Model) -> None:
    """Reject an input ``reason`` does not support: a program that is not
    in normal form, not ground, not forward-propagating or that has facts
    over ``(-inf, inf)``, or a database fact unbounded below."""
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


def backward_slice(program: Program, database: Model, atom: Atom) -> tuple[Program, Model]:
    """The part of a ``reason`` input that the facts of ``atom`` depend on.

    The whole input is checked first, as ``reason`` checks it, so an input
    ``reason`` rejects is rejected here too, wherever the fault lies. Then
    the ground atom graph (``_reads``) is walked back from ``atom``: each
    rule whose head lies in the closure is kept and adds its body atoms.
    The kept rules are a subsequence of ``program.rules``, in program
    order and with their ids; the database keeps the closure's atoms.

    This is exact. Every rule that can derive a closure atom is kept, and
    it reads only closure atoms, so the least model of the slice equals
    the least model of the whole input on the closure, and so on
    ``atom``. ``reason`` may represent it differently (another first
    point, period or horizon), but not the facts of ``atom``.
    """
    _check_input(program, database)
    reads = _reads(program)
    closure, stack = {atom}, [atom]
    while stack:
        for body in reads.get(stack.pop(), ()):
            if body not in closure:
                closure.add(body)
                stack.append(body)
    rules = tuple(rule for rule in program.rules if rule.head in closure)
    return Program(rules), Model({a: database.get(a) for a in closure})


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
    called with the group's atoms (joined by commas), the chunk's number
    and a copy of the facts after every derived chunk.

    The groups, SCCs of ground atoms, go in dependency order. Each derives
    forward in chunks and finds its period from a repeated state. The
    state and the frozen period both read the group's facts on a
    half-open window shifted to the origin, through one helper
    (``_slab``); the compaction reads each atom's pieces (``Model.clip``);
    earlier groups are read through ``_coverage``, over each chunk and its
    lookback (see ``_derive_group``):

    * **State.** Let L be the group's lookback (``RuleGroup.lookback``)
      and ``S <= L`` its span (``RuleGroup.span``), the largest reach of
      its rules that read a group atom; a group atom they read is *read*. For
      a forward-propagating group, the model on ``[t, inf)`` is fixed by
      the read atoms' facts on the slab ``[t - S, t)``, by its inputs
      (database facts and earlier groups) on ``[t - L, inf)``, and by one
      flag per read atom: do its facts already cover ``[t, inf)``?
      ``_derive_group`` stores a derived ray whole, so once a
      ``diamondminus[a,inf)`` rule's body has held before ``t - a``, its
      head's facts cover ``[t, inf)``. An atom without the flag can
      therefore still gain only from body points in ``[t - S, inf)`` (a
      read atom) or ``[t - L, inf)`` (an input), and an atom with it gains
      nothing more; every other head point ``t' >= t`` reads no further
      back than ``t' - S`` or ``t' - L`` either. A flag can only turn on as
      ``t`` grows, and as the chunks derived reach further. An unread
      atom is a group of its own (in a larger SCC a group rule reads every
      atom), with S = 0, and needs no flag: its rules read only inputs,
      its database facts end or its rays start by the settle point, and a
      ``diamondminus[a,inf)`` input that ever holds already holds by the
      settle point, because ``_settled`` ends at or after its first
      point. So at every position ``t`` hashed (``t - L`` past the settle
      point) such a body holds on all of ``[t - L + a, inf)``, which holds
      ``[t, inf)``, and the atom's facts from ``t`` on are fixed by the
      inputs on ``[t - L, inf)`` alone: its state is empty.
    * **Positions.** The group settles at the database's first point or,
      if later, where an atom it owns or reads settles (``_settled``):
      the atom's last finite fact endpoint, or the end of one of its
      patterns' first occurrences. Its own atoms and the database-only
      atoms it reads hold only database facts here, and an earlier
      group's atoms hold that group's model; no other fact reaches this
      group, and a fact of an atom it neither owns nor reads does not
      delay it. Past where it settles an atom holds only rays and
      pattern occurrences, so once ``t - L`` lies strictly past the
      settle point, the inputs on ``[t - L, inf)`` look the same from
      any two positions a multiple of ``r`` apart, where ``r`` is the lcm
      of the periods of the atoms read. Positions are placed by L, not
      S, because the inputs are read back L. Slabs are compared at
      positions a ``step`` apart: the lcm of ``r`` and ``c``, or 1 when
      neither exists. ``c`` is the group's ``cycle_step``: the gcd of the
      cycle shift sums of the predicate SCC of its atoms, which
      ``group_and_sort`` works out once per such SCC (``_shift_gcd``) and
      gives every group of it. It keeps a period a multiple of that
      rhythm: ``diamondminus[5,5] P -> P`` keeps period 5 even when its
      facts fill every residue.
    * **Chunks.** The first hashed position ``p`` is the first multiple
      of ``step`` with ``p - L`` past the settle point; ``p + step`` is
      the first position whose state can equal an earlier one's. The
      first chunk runs from ``start`` through ``p + step``, so a group
      whose state repeats at once, as an empty state does, derives one
      chunk. The next chunk is ``max(L, step)`` wide and each later one
      twice as wide as the one before; after each chunk the state is read
      at every position up to its end. So the flags at ``t`` are read
      after deriving past ``t``, and the State argument still holds. The
      facts derived so far hold in the model and are final before the
      chunks' end, so a flag that is on says the atom holds on all of
      ``[t, inf)``; and a ``diamondminus[a,inf)`` body point before
      ``t - a`` that makes it hold there makes a ray that starts before
      ``t``, in a chunk already derived, so the flag is on. The model
      from ``t`` on is the least one given the slab, the inputs and the
      flagged atoms holding on ``[t, inf)``, and flagging an atom that
      holds there anyway changes nothing.
    * **Period.** At the first position ``t + q`` whose normalized state
      equals that of an earlier position ``t``, the future repeats: the
      model on ``[t, inf)`` equals itself shifted by ``q``. For a group
      with the empty state this is ``q = step`` and ``t`` the first
      position hashed.
    * **Minimality.** The inputs look the same from every position, so
      the state's key holds only the read atoms' slab (shifted by
      ``S - t``) and their ray flags. Let ``q*`` be the least multiple of
      ``step`` with which the group's model repeats from some point on;
      every such period is a multiple of ``q*`` (the gcd of two is one as
      well: step up by one, down by the other). The first repeat, of
      ``t`` at ``t + q``, makes ``q`` such a period, and then the model
      repeats with ``q*`` on all of ``[t - S, inf)``: a point there holds
      what it holds a multiple of ``q`` later, far enough on for ``q*``
      to apply (the slabs on ``[t - S, t)`` and ``[t + q - S, t + q)``
      are in the key, so the model on ``[t - S, inf)`` repeats with
      ``q``). So the slabs at ``t`` and ``t + q*`` agree, and so do the
      flags, which can only turn on (positions are read in order, none
      with fewer chunks derived than the one before) and agree at ``t``
      and ``t + q``. As no position before ``t + q`` repeats an earlier
      one, ``q = q*``, and ``q`` divides every period that ``step``
      divides. One is the pattern length ``P`` of the program read over
      its ground atoms (the lcm of its atom cycles' shift sums, a period
      of the model; ``r`` divides it by induction, ``c`` as atom cycles
      map onto predicate cycles), not ``analysis.pattern_length``, taken
      on predicates (``reach_join``: 3 and 6). Another is the period of
      the group's predicate SCC taken as one group, which is a multiple
      of that group's step.
    * **Compaction.** The group's facts then repeat from the least
      multiple ``b`` of ``q`` such that every point ``s >= b`` holds what
      ``s + q`` holds. From ``t`` on the repeat says so, so ``b`` is read
      off the facts below ``t``, down to ``lowest = floor(start / q) *
      q``, where ``start`` is the database's first point: no fact lies
      before it, and ``t`` lies past it. For each group atom, its pieces
      on ``[lowest, t)`` and, shifted back by ``q``, those on ``[lowest +
      q, t + q)`` are walked from the top while they agree; both lie in
      the chunks derived, which reach ``t + q``. The first pair that
      differs, or the one piece left when a list runs out, holds the last
      point where the atom differs from itself ``q`` later
      (``_last_difference``): canonical pieces are separated, so no piece
      below the pair reaches above its ends. The atom then repeats from
      the least multiple of ``q`` past that point, or at it when the two
      sides agree there; ``b`` is the largest over the group's atoms, and
      ``lowest`` when none differs. The walk stops at the first pair that
      differs, so when nothing compacts it compares one pair per atom.
      ``b`` lies before ``t + q``; the group derives on to ``b + q`` if
      the chunks stop short, its facts are clipped before ``b``, and
      ``[b, b + q)`` becomes rays and patterns (``freeze``). ``b`` is the
      group's horizon: its rays start and its other facts end by ``b``,
      and its patterns' first occurrences end by ``b + q``, so a later
      group reading it settles early. Only the representation changes,
      not the model, and the compaction finds the same least ``b`` from
      any point from which the facts repeat with ``q``.

    The model's period is the lcm of the groups' periods, and its horizon
    the largest ``b``.
    """
    _check_input(program, database)
    if database.is_empty:
        return PeriodicModel(Model(), (), 1, 0)

    start = min(database.finite_endpoints(), default=0)
    facts = database.copy()
    patterns: dict[Atom, list[Pattern]] = {}
    periods: dict[Atom, int | Fraction] = {}
    settled: dict[Atom, int | Fraction] = {}  # each atom's settle point, once worked out
    horizons: list[int | Fraction] = []

    for group in group_and_sort(program):
        atoms = sorted(group.atoms, key=_atom_key)
        read = [atom for atom in atoms if atom in group.by_body]
        lookback, span = group.lookback, group.span
        step = lcm_rationals(
            [periods[a] for a in group.by_body if a in periods]
            + ([group.cycle_step] if group.cycle_step else [])
            or [1]
        )
        settle = start
        for a in chain(atoms, group.by_body):
            if (s := settled.get(a)) is None:
                # no group has frozen the atom yet: it holds database facts only
                s = settled[a] = _settled(facts.last(a), ())
            settle = max(settle, s)
        position = ((settle + lookback) // step + 1) * step

        def state(t: int | Fraction) -> tuple:
            ray = Interval(t, POS_INF, False, True)
            rays = tuple([facts.covers(atom, ray) for atom in read])
            return rays + _slab(facts, read, t - span, t) if span else rays

        chunks = 0

        def derive(lo: int | Fraction, hi: int | Fraction) -> None:
            nonlocal chunks
            chunks += 1
            window = Interval(lo, hi, False, True)
            _derive_group(group, facts, patterns, window)
            if on_iteration is not None:
                on_iteration(",".join(map(str, atoms)), chunks, facts.copy())

        seen: dict[tuple, int | Fraction] = {}
        period: int | Fraction | None = None
        derived, end, width = start, position + step, max(lookback, step)
        while period is None:
            if chunks >= window_cap:
                raise WindowCapExceeded(
                    f"no repetition within {window_cap} chunks (group {list(map(str, atoms))})"
                )
            derive(derived, end)
            derived = end
            while period is None and position <= derived:
                key = state(position)
                if key in seen:
                    repeat = seen[key]
                    period = position - repeat
                else:
                    seen[key] = position
                    position += step
            end, width = derived + width, 2 * width

        lowest = start // period * period
        below = Interval(lowest, repeat, False, True)
        above = Interval(lowest + period, position, False, True)
        begin = lowest
        for atom in atoms:
            a, b = facts.clip(atom, below).pieces, facts.clip(atom, above).pieces
            i, j = len(a), len(b)
            while i and j and a[i - 1].shift(period) == b[j - 1]:
                i, j = i - 1, j - 1
            if i or j:
                point, differs = _last_difference(
                    a[i - 1] if i else None, b[j - 1].shift(-period) if j else None
                )
                past = (point // period + 1) * period if differs else -(-point // period) * period
                begin = max(begin, past)
        if derived < begin + period:
            derive(derived, begin + period)
        group_rays, group_patterns = freeze(facts, atoms, begin, period)
        cutoff = Interval(NEG_INF, begin, True, True)
        for atom in atoms:
            facts.put(atom, facts.clip(atom, cutoff))
        for ray in group_rays:
            facts.add(ray.atom, ray.interval)
        for pat in group_patterns:
            patterns.setdefault(pat.atom, []).append(pat)
        periods.update(dict.fromkeys(atoms, period))
        for atom in atoms:
            settled[atom] = _settled(facts.last(atom), patterns.get(atom, ()))
        horizons.append(begin)

    every_pattern = (pat for pats in patterns.values() for pat in pats)
    return PeriodicModel(
        facts,
        tuple(sorted(every_pattern, key=Pattern.sort_key)),
        lcm_rationals(set(periods.values()) or [1]),
        max(horizons, default=0),
    )
