"""Materialization: a bounded fixpoint oracle, the periodic reasoning
procedure, and entailment.

Two independent evaluation routes are kept apart on purpose:

* ``naive_fixpoint_bounded`` is the ground truth -- a straight fixpoint
  of the immediate consequence operator on a ground program, clipped to
  a window, in one semi-naive loop: each round re-evaluates only the
  literals that read an atom whose pieces changed in the round before,
  each only where that change reaches (``_changed``), and reads every
  other body literal through one reader, ``_read``, only where the
  rule's truth so far lies.
* ``reason`` derives per SCC group, forward in chunks, and stops once
  the group's state repeats, past every aperiodic input: the facts of
  the group atoms its rules read, on a slab as wide as those rules look
  back at them, and which of those atoms hold for good. The repeat gives
  the group's period (at once for a group whose rules read none of its
  atoms: its state is empty, and none is read), and one period of its
  facts becomes repetition patterns (or rays for facts that fill the
  whole period). The groups and their cycle steps are planned once per
  call (``group_and_sort``, on numbered atoms), and what a group pays
  besides deriving is kept to a small constant: a chain or a grounded
  program has many small groups.

Neither route spells out what an operator means: each unary operator's
class states its own truth (``truth``), the operand points that truth on
a region reads (``reads``) and the points an operand region can change
(``affects``), and both routes call them.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from fractions import Fraction
from itertools import chain, zip_longest

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
    plus,
)
from .syntax import (
    Atom,
    Bottom,
    BoxMinus,
    BoxPlus,
    DiamondMinus,
    Fact,
    Literal,
    Program,
    Rule,
    Since,
    Top,
    _Unary,
    _Value,
    is_forward_propagating,
    literal_atoms,
)

DEFAULT_WINDOW_CAP = 10_000
DEFAULT_STEP_CAP = 1_000_000
# the most simple cycles ``analysis`` enumerates; ``reason`` enumerates none
DEFAULT_CYCLE_CAP = 100_000

_ALWAYS = IntervalSet.of(Interval(NEG_INF, POS_INF, True, True))
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
    ``covers`` and ``last`` one block, ``descending`` the blocks its
    caller walks down through, and ``cut`` the blocks it cuts. Blocks are
    never shared between two models. Atoms whose set would be empty are
    absent, and two models are equal when they hold the same sets, however
    their blocks split them.
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

    def descending(self, atom: Atom, window: Interval) -> Iterator[Interval]:
        """The pieces of ``clip(atom, window)`` from the top down, read off
        the blocks as the walk goes: one that stops after a few pieces
        reads one or two blocks, not the atom's whole set."""
        blocks = self._blocks.get(atom, ())
        lo, hi = window.lo, window.hi
        for b in range(bisect_right(blocks, hi, key=_first_lo) - 1, -1, -1):
            block = blocks[b]
            for k in range(bisect_right(block, hi, key=_lo_of) - 1, -1, -1):
                piece = block[k]
                if piece.hi < lo:
                    return
                if piece.lo <= lo or piece.hi >= hi:  # it may stick out
                    piece = piece.intersect(window)
                    if piece is None:
                        continue
                yield piece

    def cut(self, atom: Atom, at: Time) -> None:
        """Drop the atom's facts from ``at`` on: ``put(atom, clip(atom,
        (-inf, at)))``, but only the blocks that reach ``at`` are read, and
        none when no piece does."""
        blocks = self._blocks.get(atom)
        if blocks is None:
            return
        b = bisect_left(blocks, at, key=_last_hi)
        if b == len(blocks):
            return
        block = blocks[b]
        k = bisect_left(block, at, key=_hi_of)
        piece = block[k].intersect(Interval(NEG_INF, at, True, True))
        del blocks[b + 1:], block[k:]
        if piece is not None:
            block.append(piece)
        if not block:
            del blocks[b]
            if not blocks:
                del self._blocks[atom]

    def first(self, atom: Atom) -> Interval | None:
        """The atom's first piece, or None for an absent atom."""
        blocks = self._blocks.get(atom)
        return blocks[0][0] if blocks else None

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
    """Largest finite endpoint in the database (0 when there is none),
    read off each atom's last piece: its upper end, or a ray's lower end
    (none for ``(-inf, inf)``)."""
    ends = (
        last.hi if last.hi != POS_INF else last.lo for last in map(db.last, db.atoms())
    )
    return max((end for end in ends if end != NEG_INF), default=0)


def check_horizon(pm: PeriodicModel, database: Model) -> int | Fraction:
    """Where ``check`` compares ``reason`` with the oracle by default: three
    periods past both the database's last endpoint and the horizon, so the
    periodic part is compared over three full periods."""
    return max(max_time_point(database), pm.horizon) + 3 * pm.period


# ---------------------------------------------------------------------------
# Bounded fixpoint oracle
# ---------------------------------------------------------------------------

def _read(lit: Literal, model: Model, region: IntervalSet | None = None) -> IntervalSet:
    """Truth set of a (possibly nested) unary temporal literal on
    ``model``, or with a ``region`` that set clipped to it: the oracle's
    one literal reader.

    An atom is read whole, or only where the region lies (``Model.meet``).
    An operator maps its operand's truth through its own (``truth``), and
    on a region reads the operand only on the points its truth there
    depends on (``reads``), so a read costs what the region meets, not
    the atom's whole set, and still equals the whole read clipped.
    ``since``/``until`` remain out of scope.
    """
    if isinstance(lit, Atom):
        return model.get(lit) if region is None else model.meet(lit, region)
    if isinstance(lit, _Unary):
        inner = _read(lit.inner, model, None if region is None else lit.reads(region))
        truth = lit.truth(inner)
    elif isinstance(lit, Top):
        truth = _ALWAYS
    elif isinstance(lit, Bottom):
        return _NOTHING
    else:
        raise InputError(f"the oracle cannot evaluate literal {lit}")
    return truth if region is None else truth.intersect(region)


def _head_facts(head: Literal, truth: IntervalSet) -> list[tuple[Atom, Interval]]:
    """Facts forced by satisfying ``head`` on every point of ``truth``: a
    box head forces its operand on every point it reads."""
    if isinstance(head, Atom):
        return [(head, piece) for piece in truth]
    if isinstance(head, (BoxMinus, BoxPlus)):
        return _head_facts(head.inner, head.reads(truth))
    raise InputError(f"the oracle cannot apply head {head}")


def _changed(lit: Literal, source: Model, model: Model) -> IntervalSet:
    """Truth set of a job's literal wherever its source can have made it
    new: all of it when the source is the model.

    An atom, or an operator over an atom, is read off the source, one
    atom's changed pieces: a changed piece is a whole piece of the model
    when it is added, so a box sees it entire and a diamond distributes
    over pieces. An operator over an operator is read off the model, once,
    on the points the changed pieces reach through each operator of the
    chain (``affects``); those Minkowski sums commute, so they are applied
    walking down the chain, one step per operator.
    """
    if source is model or not isinstance(lit, _Unary) or not isinstance(lit.inner, _Unary):
        return _read(lit, source)
    ((_, region),) = source.items()
    op: Literal = lit
    while isinstance(op, _Unary):
        region = op.affects(region)
        op = op.inner
    return _read(lit, model, region)


def naive_fixpoint_bounded(
    program: Program,
    database: Model,
    horizon: int | Fraction | None = None,
    *,
    step_cap: int = DEFAULT_STEP_CAP,
) -> Model:
    """Least fixpoint of a ground program with every derived interval
    clipped to the window ``(-inf, horizon]``.

    One semi-naive loop of jobs of one kind: a rule, a body position and
    a source. A job reads the literal at its position with ``_changed``,
    where its source can have made it new, and every other literal off
    the model only where the truth so far lies (``_read`` with that truth
    as the region); the head then forces its facts on what is left
    (``_head_facts``). The first round runs every rule with the model as
    the source; each later round runs each literal that reads an atom
    whose pieces changed in the round before, with that atom's changed
    pieces as the source, a one-atom ``Model``. This is exact: the truth
    of a literal can change only where ``_changed`` reads it, and a piece
    that grows later is changed again.

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

    # for each atom, the rules that read it, with the literal's position
    readers: dict[Atom, list[tuple[Rule, int]]] = {}
    for rule in program.rules:
        for position, lit in enumerate(rule.body):
            for atom in literal_atoms(lit):
                readers.setdefault(atom, []).append((rule, position))

    # a job reads its rule's literal at ``position`` where its source (the
    # model, or one atom's changed pieces) can have made it new, and every
    # other literal off the model, where the truth so far lies
    steps = sum(len(ivs) for _, ivs in model.items())
    jobs: list[tuple[Rule, int, Model]] = [(rule, 0, model) for rule in program.rules]
    while jobs:
        if steps > step_cap:
            raise StepCapExceeded(f"oracle exceeded {step_cap} steps")
        changed: dict[Atom, list[Interval]] = {}
        for rule, position, source in jobs:
            truth = _changed(rule.body[position], source, model)
            for other, lit in enumerate(rule.body):
                if truth.is_empty:
                    break
                if other != position:
                    truth = _read(lit, model, truth)
            for atom, piece in _head_facts(rule.head, truth):
                if window is not None:
                    piece = piece.intersect(window)
                    if piece is None:
                        continue
                merged = model.add(atom, piece)
                if merged is not None:
                    changed.setdefault(atom, []).append(merged)
        jobs = []
        for atom, pieces in changed.items():
            steps += len(pieces)
            source = Model({atom: IntervalSet.from_iterable(pieces)})
            jobs.extend((rule, position, source) for rule, position in readers.get(atom, ()))
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
    body reads a group atom, is the S of ``reason``'s State. A group of
    one rule, the common case of a chain or a grounded program, indexes
    its body atoms without a merge."""

    __slots__ = ("atoms", "rules", "cycle_step", "by_body", "lookback", "span")

    def __init__(
        self, atoms: frozenset[Atom], rules: tuple[Rule, ...], cycle_step: int | Fraction
    ) -> None:
        self.atoms = atoms
        self.rules = rules
        self.cycle_step = cycle_step
        if len(rules) == 1:
            self.by_body = dict.fromkeys(rules[0].body_atoms, (0,))
        else:
            by_body: dict[Atom, list[int]] = {}
            for i, rule in enumerate(rules):
                for atom in rule.body_atoms:
                    ids = by_body.setdefault(atom, [])
                    if not ids or ids[-1] != i:
                        ids.append(i)
            self.by_body = {a: tuple(ids) for a, ids in by_body.items()}
        lookback = span = 0
        for rule in rules:
            if rule.form is not BoxMinus and rule.form is not DiamondMinus:
                continue
            rho = rule.body[0].rho
            if rho.hi != POS_INF:
                reach = rho.hi
            elif rule.form is DiamondMinus:
                reach = rho.lo
            else:
                continue
            if reach > lookback:
                lookback = reach
            if reach > span and rule.body[0].inner in atoms:
                span = reach
        self.lookback = lookback
        self.span = span


def _reads(program: Program) -> dict[Atom, list[Atom]]:
    """The ground atom graph: each rule head and its rules' body atoms."""
    reads: dict[Atom, list[Atom]] = {}
    for rule in program.rules:
        reads.setdefault(rule.head, []).extend(rule.body_atoms)
    return reads


def _sccs(succ: dict) -> list[list]:
    """The strongly connected components of the graph with successor
    lists ``succ`` (a node that is no key has none), by Tarjan's
    algorithm, each after every component it has an edge into. Iterative:
    a dependency chain may be far deeper than the recursion limit."""
    index: dict = {}
    low: dict = {}
    stack: list = []
    on_stack: set = set()
    found: list[list] = []
    for root in succ:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, children = work[-1]
            for w in children:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ.get(w, ()))))
                    break
                if w in on_stack and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work and low[v] < low[u := work[-1][0]]:
                    low[u] = low[v]
                if low[v] == index[v]:
                    component = []
                    while True:
                        w = stack.pop()
                        on_stack.remove(w)
                        component.append(w)
                        if w == v:
                            break
                    found.append(component)
    return found


_ZERO_INTERVAL = Interval(0, 0)


def _edge_labels(rule: Rule) -> tuple[bool, Interval, Time]:
    """(special, interval label, shift label) shared by the edges of a
    rule in the predicate dependency graph (``analysis.dependency_graph``):
    whether its body is temporal, the range it reads (negated for a
    future operator) and how far it moves a fact's lower end forward."""
    form = rule.form
    if form is None:
        raise InputError(f"rule {rule.id} is not in temporal normal form")
    if form is Atom:
        return False, _ZERO_INTERVAL, 0
    lit = rule.body[0]
    if form is DiamondMinus:
        return True, lit.rho, lit.rho.lo
    if form is BoxMinus:
        return True, lit.rho, lit.rho.hi
    if form is Since:
        return True, lit.rho, 0
    # the forward operators: diamondplus, boxplus, until
    return True, lit.rho.negate(), 0


def group_and_sort(program: Program) -> list[RuleGroup]:
    """Rules grouped by the SCC of their head in the ground atom graph
    (``_reads``), in dependency order: on head -> body edges ``_sccs``
    gives each SCC after every SCC it reads. SCCs without rules are
    omitted.

    The atoms are numbered once, in the order the rules name them, and
    ``_sccs`` runs on the numbers, which hash in C: an ``Atom`` hashes
    through a Python call, and Tarjan's algorithm looks each node up
    several times. The graph, and so the groups and their order, are the
    ones ``_reads`` gives.

    Each group's cycle step is worked out here, once per predicate SCC,
    and the groups of one predicate SCC share it: ``_shift_gcd`` over the
    ``(body predicate, head predicate, shift)`` of the rules inside that
    SCC, each rule's shift read once (``_edge_labels``). The predicate
    SCCs are those of the predicate image of the atom graph, the same
    graph with its edges reversed. A rule not in normal form is rejected,
    as ``analysis.dependency_graph`` rejects it."""
    image: dict[str, dict[str, None]] = {}
    number: dict[Atom, int] = {}
    reads: dict[int, list[int]] = {}
    heads: list[int] = []
    for rule in program.rules:
        if rule.form is None:
            raise InputError(f"rule {rule.id} is not in temporal normal form")
        head = number.setdefault(rule.head, len(number))
        heads.append(head)
        body = reads.setdefault(head, [])
        preds = image.setdefault(rule.head.predicate, {})
        for atom in rule.body_atoms:
            body.append(number.setdefault(atom, len(number)))
            preds[atom.predicate] = None
    scc_of = {p: i for i, members in enumerate(_sccs(image)) for p in members}
    inner: dict[int, list[tuple[str, str, Time]]] = {}
    for rule in program.rules:
        head = rule.head.predicate
        scc, shift = scc_of[head], None
        for atom in rule.body_atoms:
            if scc_of[atom.predicate] == scc:
                if shift is None:
                    shift = _edge_labels(rule)[2]
                inner.setdefault(scc, []).append((atom.predicate, head, shift))
    steps = {scc: _shift_gcd(edges) for scc, edges in inner.items()}
    atoms = list(number)
    components = _sccs(reads)
    group_of = [0] * len(atoms)
    for i, members in enumerate(components):
        for n in members:
            group_of[n] = i
    rules: list[list[Rule]] = [[] for _ in components]
    for rule, head in zip(program.rules, heads):
        rules[group_of[head]].append(rule)
    return [
        RuleGroup(
            frozenset([atoms[n] for n in members]),
            tuple(group_rules),
            steps.get(scc_of[atoms[members[0]].predicate], 0),
        )
        for members, group_rules in zip(components, rules)
        if group_rules
    ]


def _shift_gcd(edges: Iterable[tuple[str, str, Time]]) -> int | Fraction:
    """gcd of the shift sums of the cycles of the graph with the edges
    ``(source, target, shift)``, those of one strongly connected graph;
    0 if none is positive.

    No cycle is enumerated. In each strongly connected part, a search
    from one predicate gives every predicate a potential ``pot`` (the
    shift sum of its search path); each edge ``u -> v`` with shift ``w``
    has the slack ``pot[u] + w - pot[v]``. A cycle's shift sum is the sum
    of its edges' slacks, and a slack is the difference of two closed
    walks' shift sums, so the gcd of the slacks is the gcd of the cycles'
    shift sums. ``boxminus[a,inf)`` never fires, so its edges (shift
    ``inf``) are dropped, and only then may the graph fall apart into
    several parts, which ``_sccs`` finds.
    """
    succ: dict[str, list[tuple[str, int | Fraction]]] = {}
    dropped = False
    for source, target, shift in edges:
        if shift == POS_INF:
            dropped = True
        else:
            succ.setdefault(source, []).append((target, shift))
            succ.setdefault(target, [])
    parts = _sccs({u: [v for v, _ in out] for u, out in succ.items()}) if dropped else [[*succ]]
    # gcd(a/b, c/d) = gcd(a, c) / lcm(b, d) in lowest terms
    num, den = 0, 1
    for part in parts:
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
    clipped to the window.

    Each occurrence is built once from the offset's ends; only one that
    reaches an end of the window (the first or the last, when the offset
    is no longer than the period) is intersected with it."""
    offset, period = pattern.offset, pattern.period
    lo, hi, lo_open, hi_open = offset.lo, offset.hi, offset.lo_open, offset.hi_open
    for x in pattern.indices(window):
        d = period * x
        try:
            hit = Interval(lo + d, hi + d, lo_open, hi_open)
        except OverflowError:  # an unbounded offset: see ``intervals.plus``
            hit = Interval(plus(lo, d), plus(hi, d), lo_open, hi_open)
        if not (window.lo < hit.lo and hit.hi < window.hi):  # it may stick out
            hit = hit.intersect(window)
            if hit is None:
                continue
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

    A first occurrence's end is read off the pattern's offset, without
    building the occurrence. From there on the atom holds only rays and
    pattern occurrences, so its content repeats with every common
    multiple of its patterns' periods."""
    settle = NEG_INF
    for pat in patterns:
        if (end := plus(pat.offset.hi, pat.period * pat.start_index)) > settle:
            settle = end
    if last is not None and (end := last.hi if last.hi != POS_INF else last.lo) > settle:
        settle = end
    return settle


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
    (a ray only at the window's lower end). A Horn rule joins its delta
    with the other body atoms; an operator rule derives its operator's
    truth on its delta (``lit.truth(delta)``).

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
    by_body = group.by_body
    frozen: dict[Atom, IntervalSet] = {}
    frontier: dict[Atom, IntervalSet] = {}
    for atom in by_body:
        seed = _coverage(facts, patterns, atom, seeded)
        if atom in patterns:
            frozen[atom] = seed
        if seed.pieces:
            frontier[atom] = seed
    while frontier:
        fresh: dict[Atom, list[Interval]] = {}
        if len(frontier) == 1:  # its rules' ids, in group order
            touched = by_body[next(iter(frontier))]
        else:
            touched = sorted({i for atom in frontier for i in by_body[atom]})
        for i in touched:
            rule = group.rules[i]
            derived = _NOTHING
            if rule.form is Atom:
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
                derived = lit.truth(delta)
            for piece in derived:
                clipped = piece.intersect(
                    window if piece.hi != POS_INF
                    else Interval(window.lo, POS_INF, window.lo_open, True)
                )
                if clipped is None:
                    continue
                merged = facts.add(rule.head, clipped)
                if merged is not None:
                    fresh.setdefault(rule.head, []).append(merged)
        frontier = {
            atom: IntervalSet.from_iterable(pieces)
            for atom, pieces in fresh.items()
            if atom in by_body
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
    if a is not None and b is not None and a.hi == b.hi and a.hi_open == b.hi_open:
        low = a if a.lo > b.lo or a.lo == b.lo and a.lo_open >= b.lo_open else b
        return low.lo, low.lo_open
    # the hi ends differ: at equal values, one is closed
    top = a if b is None or a is not None and (a.hi > b.hi or a.hi == b.hi and b.hi_open) else b
    return top.hi, not top.hi_open


def freeze(
    facts: Model, atoms: Iterable[Atom], start: int | Fraction, period: int | Fraction
) -> tuple[list[Fact], list[Pattern]]:
    """The content of ``atoms`` on ``[start, start + period)`` as rays and
    repetition patterns, for a model that repeats with ``period`` from
    ``start`` on (``start`` a multiple of ``period``).

    Each atom's pieces there are read with ``Model.clip``. A piece filling
    the whole window tiles the timeline seamlessly and becomes the ray
    ``[start, inf)``; any other piece becomes a Pattern with its offset
    shifted back to the origin and start index ``start // period``.
    """
    end = start + period
    window = Interval(start, end, False, True)
    index = start // period
    rays: list[Fact] = []
    patterns: list[Pattern] = []
    for atom in atoms:
        for piece in facts.clip(atom, window):
            if piece.lo == start and piece.hi == end and not piece.lo_open:
                # a clipped piece ends at ``end`` open
                rays.append(Fact(atom, Interval(start, POS_INF, False, True)))
            else:
                patterns.append(Pattern(atom, piece.shift(-start), index, period))
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
    for atom in database.atoms():
        # only an atom's first piece can be unbounded below
        if (first := database.first(atom)).lo == NEG_INF:
            raise InputError(f"database fact {atom}@{first} is unbounded below")


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
    state reads the group's facts on a half-open window shifted to the
    origin (``_slab``); the compaction reads each atom's pieces from the
    top (``Model.descending``) and compares their ends, and the frozen
    period reads them off ``Model.clip``; earlier groups are read through
    ``_coverage``, over each chunk and its lookback (see
    ``_derive_group``). What a group pays besides deriving is a constant:
    a group whose state is empty reads no state, and a group of one atom
    sorts no atoms.

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
      model on ``[t, inf)`` equals itself shifted by ``q``. A group whose
      rules read none of its atoms has the empty state, which equals
      itself at every position: it takes ``q = step`` and ``t`` its first
      position at once, after its first chunk, and no state is read.
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
      differs (their ends compared, shifted by ``q``, with no interval
      built), or the one piece left when a list runs out, holds the last
      point where the atom differs from itself ``q`` later
      (``_last_difference``): canonical pieces are separated, so no piece
      below the pair reaches above its ends. The atom then repeats from
      the least multiple of ``q`` past that point, or at it when the two
      sides agree there; ``b`` is the largest over the group's atoms, and
      ``lowest`` when none differs. The walk stops at the first pair that
      differs, so when nothing compacts it compares one pair per atom.
      ``b`` lies before ``t + q``; the group derives on to ``b + q`` if
      the chunks stop short, its facts are cut at ``b`` (``Model.cut``,
      which reads only the blocks that reach ``b``), and
      ``[b, b + q)`` becomes rays and patterns (``freeze``, which reads
      each atom's pieces there with ``Model.clip``). ``b`` is the
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

    # every atom's first piece is bounded below, so its lower end is the
    # atom's least endpoint
    start = min(database.first(atom).lo for atom in database.atoms())
    facts = database.copy()
    patterns: dict[Atom, list[Pattern]] = {}
    periods: dict[Atom, int | Fraction] = {}
    settled: dict[Atom, int | Fraction] = {}  # each atom's settle point, once worked out
    horizons: list[int | Fraction] = []

    for group in group_and_sort(program):
        atoms = [*group.atoms] if len(group.atoms) == 1 else sorted(group.atoms, key=_atom_key)
        by_body = group.by_body
        read = [atom for atom in atoms if atom in by_body]
        lookback, span = group.lookback, group.span
        rates = [periods[a] for a in by_body if a in periods]
        if group.cycle_step:
            rates.append(group.cycle_step)
        step = lcm_rationals(rates) if rates else 1
        settle = start
        for a in (*atoms, *by_body):
            if (s := settled.get(a)) is None:
                # no group has frozen the atom yet: it holds database facts only
                s = settled[a] = _settled(facts.last(a), ())
            if s > settle:
                settle = s
        position = ((settle + lookback) // step + 1) * step
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
            if not read:  # the empty state repeats at the first position
                repeat, period, position = position, step, position + step
            while period is None and position <= derived:
                ray = Interval(position, POS_INF, False, True)
                key = tuple([facts.covers(atom, ray) for atom in read])
                if span:
                    key += _slab(facts, read, position - span, position)
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
            pairs = zip_longest(facts.descending(atom, below), facts.descending(atom, above))
            for x, y in pairs:
                if (
                    x is None or y is None
                    or x.lo + period != y.lo or x.hi + period != y.hi
                    or x.lo_open != y.lo_open or x.hi_open != y.hi_open
                ):
                    point, differs = _last_difference(x, y and y.shift(-period))
                    past = (point // period + 1) * period if differs else -(-point // period) * period
                    begin = max(begin, past)
                    break
        if derived < begin + period:
            derive(derived, begin + period)
        group_rays, group_patterns = freeze(facts, atoms, begin, period)
        for atom in atoms:
            facts.cut(atom, begin)
        for ray in group_rays:
            facts.add(ray.atom, ray.interval)
        for pat in group_patterns:
            patterns.setdefault(pat.atom, []).append(pat)
        for atom in atoms:
            periods[atom] = period
            settled[atom] = _settled(facts.last(atom), patterns.get(atom, ()))
        horizons.append(begin)

    every_pattern = (pat for pats in patterns.values() for pat in pats)
    return PeriodicModel(
        facts,
        tuple(sorted(every_pattern, key=Pattern.sort_key)),
        lcm_rationals(set(periods.values()) or [1]),
        max(horizons, default=0),
    )
