"""An interval-free reference: the least model of a ground program on a
half-integer grid.

It reads the program's syntax tree and places database facts on the grid
with ``Interval.contains``; it shares no other code with chronolog, in
particular none of the interval algebra or ``Model`` that ``reason`` and
the oracle share, so it can hold both of them to account.
"""

from fractions import Fraction as F

from chronolog.intervals import POS_INF
from chronolog.syntax import (
    Atom,
    BoxMinus,
    BoxPlus,
    DiamondMinus,
    DiamondPlus,
    Since,
    Top,
    _Binary,
    _Unary,
)


def grid_exact(program) -> bool:
    """Whether ``_grid_model`` reads every operator range of ``program``
    exactly: each is closed with integer ends, or ``[a, inf)`` with an
    integer ``a``."""

    def exact(lit) -> bool:
        if isinstance(lit, _Unary):
            return exact_range(lit.rho) and exact(lit.inner)
        if isinstance(lit, _Binary):
            return exact_range(lit.rho) and exact(lit.left) and exact(lit.right)
        return True

    def exact_range(rho) -> bool:
        return (
            not rho.lo_open
            and type(rho.lo) is int
            and (rho.hi == POS_INF or not rho.hi_open and type(rho.hi) is int)
        )

    return all(exact(lit) for rule in program.rules for lit in rule.body)


def _grid_model(program, database, last=24):
    """The least model of a ground program at the points k/2 for
    0 <= k <= 2 * last, every literal being false outside them: a map
    from each atom that holds somewhere to the set of its k.

    The program's operator ranges must be closed with integer ends, or
    ``[a, inf)`` with an integer ``a`` (``grid_exact``), and the
    database's endpoints integers, rays ``[c, inf)`` among them. Then
    every truth set is a union of intervals with integer ends, constant
    on each open unit interval, so the point k/2 with k odd stands for
    the whole of its unit interval and the grid gives each literal's
    truth exactly (cut at 0 and ``last``); a forward operator reads no
    point past ``last``. An ``[a, inf)`` range reads back to a point
    before 0, where nothing holds for a program of past operators whose
    rules read no ``top`` and whose database starts at 0 or later, so
    there ``boxminus[a,inf)`` never holds and ``diamondminus[a,inf)``
    reads back to 0. Unlike both reasoners it evaluates ``since`` and
    ``until``:
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
        # an unbounded range reads back past 0: last + 1 reaches -1 from last
        hi = last + 1 if lit.rho.hi == POS_INF else lit.rho.hi
        steps = range(2 * lit.rho.lo, 2 * hi + 1)
        if isinstance(lit, DiamondMinus):
            inner = holds(lit.inner)
            return {k for k in points if any(k - d in inner for d in steps)}
        if isinstance(lit, BoxMinus):
            inner = holds(lit.inner)
            return {k for k in points if all(k - d in inner for d in steps)}
        if isinstance(lit, DiamondPlus):
            inner = holds(lit.inner)
            return {k for k in points if any(k + d in inner for d in steps)}
        if isinstance(lit, BoxPlus):
            inner = holds(lit.inner)
            return {k for k in points if all(k + d in inner for d in steps)}
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
