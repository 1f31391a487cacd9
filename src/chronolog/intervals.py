"""Exact rational time points, open/closed intervals, and interval sets.

A time point is a plain Python number: an ``int`` for an integral value,
a ``fractions.Fraction`` for any other rational, and ``-math.inf`` or
``math.inf`` (``NEG_INF``, ``POS_INF``) for the two infinities. So a
program with integer endpoints runs on machine-int compares and adds,
and a fractional one stays exact. Only the boundary constructors
(``to_time``, ``Interval.closed``/``point``/``ray_from``/``up_to``,
``parse_interval``, ``parse_rational``) convert their input; the rest
keeps arithmetic exact by construction:

* sums and differences of ints and Fractions are exact, and a finite
  number plus an infinity is that infinity. Float arithmetic converts
  the finite side, which overflows for an int past the float range, so
  a sum that can meet an infinity goes through ``plus``;
* ``/`` is never applied to time points (``int / int`` is a float):
  floor and ceiling division (``a // b``, ``-(-a // b)``) are exact for
  ints and Fractions alike;
* ``inf - inf`` is ``nan``, which no ``Interval`` accepts as an endpoint;
* an infinity is recognized by comparison (``x == POS_INF``), never by
  ``math.isfinite`` or ``float()``, which overflow on large ints.

Interval sets are kept canonical (sorted, pairwise disjoint,
non-adjacent), which makes structural equality coincide with point-set
equality. An ``IntervalSet`` is built whole (``from_iterable`` and the set
operators), never grown in place: the sets that grow one piece at a time,
the facts of a reasoning session, live in ``reasoner.Model``, which
splices each piece into sorted blocks and builds an ``IntervalSet`` from
them when one is asked for.

``Interval`` and ``IntervalSet``, like every value type of chronolog
(the terms, literals, facts and rules of ``syntax``, the edges and
cycles of ``analysis``, the patterns of ``reasoner``), are values,
immutable by contract: no code assigns to one after construction, and
nothing guards against it at run time. So values are shared, never
copied: an operation whose result equals one of its operands may return
that operand itself (``Interval.intersect`` and ``hull`` do, and the set
operations pass pieces through), and callers compare results with
``==``, never with ``is``. Each is a plain ``__slots__``
class with a hand-written ``__init__``, not a frozen dataclass. It
equals only a value of its own class with equal fields and hashes as the
tuple of its fields (an operator's keyword first). ``Interval``,
``IntervalSet``, the terms, ``Atom`` and the operators, on the hot
paths, write these methods out (some store the hash); the rest take them
from ``syntax._Value``, which reads the fields off the arguments of the
class's ``__init__``. A frozen dataclass sets each field through
``object.__setattr__``, which made an ``Interval`` about three times as
slow to build (a ``__setattr__`` guard would cost about half of what was
saved), and decorating the classes, with the modules ``dataclasses``
imports, made up much of the start-up every command pays (``import
chronolog.cli``).
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from operator import attrgetter

RationalLike = int | Fraction | float | str
Time = int | Fraction | float  # a float only for -inf and inf

NEG_INF = -math.inf
POS_INF = math.inf


def to_time(x: RationalLike) -> Time:
    """The endpoint for an int, Fraction, float or string: an ``int`` when
    the value is integral, a ``Fraction`` otherwise, and ``NEG_INF`` or
    ``POS_INF`` for ``-inf`` and ``inf``. A finite float becomes its exact
    Fraction; ``nan`` raises ``ValueError``."""
    if type(x) is int:
        return x
    if isinstance(x, str):
        s = x.strip()
        if s in ("inf", "+inf"):
            return POS_INF
        if s == "-inf":
            return NEG_INF
        x = Fraction(s)
    elif isinstance(x, float) and (x == POS_INF or x == NEG_INF):
        return x
    else:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def plus(a: Time, b: Time) -> Time:
    """``a + b`` for two time points of which one may be infinite.

    A finite number plus an infinity is that infinity, also for an int
    too large to convert to a float (where ``a + b`` raises
    ``OverflowError``). ``inf + -inf`` stays ``nan``, which no interval
    accepts.
    """
    try:
        return a + b
    except OverflowError:  # only floats are infinite, and one side is finite
        return a if type(a) is float else b


class Interval:
    """A non-empty interval over the extended rational line.

    Endpoints are taken as given (see ``to_time`` for converting input).
    Infinite endpoints are forced open on construction (there is no point
    at infinity to include). Construction of an empty interval, or of one
    with an undefined endpoint (``nan``, say from ``inf - inf``), raises
    ``ValueError``; operations that may produce the empty set return
    ``None`` instead.

    An interval is a value: equal to another ``Interval`` with the same
    four fields (never to a plain tuple), hashed as
    ``hash((lo, hi, lo_open, hi_open))``, and immutable by contract, as
    no code assigns to it after construction. It is a plain slotted class,
    as every operation builds intervals (see the module docstring).
    """

    __slots__ = ("lo", "hi", "lo_open", "hi_open")

    def __init__(
        self, lo: Time, hi: Time, lo_open: bool = False, hi_open: bool = False
    ) -> None:
        if lo < hi:
            if lo == NEG_INF:
                lo_open = True
            if hi == POS_INF:
                hi_open = True
        elif not (lo == hi and not (lo_open or hi_open) and NEG_INF < lo < POS_INF):
            text = _render(lo, hi, lo_open, hi_open)
            if lo != lo or hi != hi:  # only nan differs from itself
                raise ValueError(f"undefined endpoint in {text}")
            raise ValueError(f"empty interval {text}")
        self.lo = lo
        self.hi = hi
        self.lo_open = lo_open
        self.hi_open = hi_open

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Interval:
            return NotImplemented
        return (
            self.lo == other.lo
            and self.hi == other.hi
            and self.lo_open == other.lo_open
            and self.hi_open == other.hi_open
        )

    def __hash__(self) -> int:
        return hash((self.lo, self.hi, self.lo_open, self.hi_open))

    @classmethod
    def closed(cls, lo: RationalLike, hi: RationalLike) -> Interval:
        return cls(to_time(lo), to_time(hi))

    @classmethod
    def point(cls, t: RationalLike) -> Interval:
        tp = to_time(t)
        return cls(tp, tp)

    @classmethod
    def ray_from(cls, lo: RationalLike, lo_open: bool = False) -> Interval:
        return cls(to_time(lo), POS_INF, lo_open, True)

    @classmethod
    def up_to(cls, hi: RationalLike, hi_open: bool = False) -> Interval:
        return cls(NEG_INF, to_time(hi), True, hi_open)

    @property
    def is_bounded(self) -> bool:
        return NEG_INF < self.lo and self.hi < POS_INF

    def length(self) -> Time:
        return plus(self.hi, -self.lo)

    def contains(self, t: Time) -> bool:
        if t < self.lo or (t == self.lo and self.lo_open):
            return False
        if t > self.hi or (t == self.hi and self.hi_open):
            return False
        return True

    def contains_interval(self, other: Interval) -> bool:
        lo_ok = other.lo > self.lo or (
            other.lo == self.lo and (not self.lo_open or other.lo_open)
        )
        hi_ok = other.hi < self.hi or (
            other.hi == self.hi and (not self.hi_open or other.hi_open)
        )
        return lo_ok and hi_ok

    def intersect(self, other: Interval) -> Interval | None:
        # the result takes the later lower end and the earlier upper end;
        # an operand that gives both (either one, at a tie) is the result
        if self.lo > other.lo:
            lo_self, lo_other = True, False
        elif self.lo < other.lo:
            lo_self, lo_other = False, True
        else:  # an open lower end lies later than a closed one
            lo_self, lo_other = self.lo_open >= other.lo_open, other.lo_open >= self.lo_open
        if self.hi < other.hi:
            hi_self, hi_other = True, False
        elif self.hi > other.hi:
            hi_self, hi_other = False, True
        else:
            hi_self, hi_other = self.hi_open >= other.hi_open, other.hi_open >= self.hi_open
        if lo_self and hi_self:
            return self
        if lo_other and hi_other:
            return other
        low, high = (self, other) if lo_self else (other, self)
        lo, hi = low.lo, high.hi
        if lo > hi or (lo == hi and (low.lo_open or high.hi_open)):
            return None
        return Interval(lo, hi, low.lo_open, high.hi_open)

    def shift(self, d: Time) -> Interval:
        try:
            lo, hi = self.lo + d, self.hi + d
        except OverflowError:  # see ``plus``
            lo, hi = plus(self.lo, d), plus(self.hi, d)
        return Interval(lo, hi, self.lo_open, self.hi_open)

    def minkowski(self, other: Interval) -> Interval:
        """Endpoint-wise sum; an endpoint is closed iff both summands are."""
        try:
            lo, hi = self.lo + other.lo, self.hi + other.hi
        except OverflowError:  # see ``plus``
            lo, hi = plus(self.lo, other.lo), plus(self.hi, other.hi)
        return Interval(lo, hi, self.lo_open or other.lo_open, self.hi_open or other.hi_open)

    def negate(self) -> Interval:
        return Interval(-self.hi, -self.lo, self.hi_open, self.lo_open)

    def overlaps_or_touches(self, other: Interval) -> bool:
        """True when the union of the two intervals is a single interval."""
        a, b = (self, other) if (self.lo, self.lo_open) <= (other.lo, other.lo_open) else (other, self)
        if b.lo < a.hi:
            return True
        if b.lo == a.hi:
            return not (a.hi_open and b.lo_open)
        return False

    def hull(self, other: Interval) -> Interval:
        # the result takes the earlier lower end and the later upper end;
        # an operand that gives both (either one, at a tie) is the result
        if self.lo < other.lo:
            lo_self, lo_other = True, False
        elif self.lo > other.lo:
            lo_self, lo_other = False, True
        else:  # a closed lower end lies earlier than an open one
            lo_self, lo_other = self.lo_open <= other.lo_open, other.lo_open <= self.lo_open
        if self.hi > other.hi:
            hi_self, hi_other = True, False
        elif self.hi < other.hi:
            hi_self, hi_other = False, True
        else:
            hi_self, hi_other = self.hi_open <= other.hi_open, other.hi_open <= self.hi_open
        if lo_self and hi_self:
            return self
        if lo_other and hi_other:
            return other
        low, high = (self, other) if lo_self else (other, self)
        return Interval(low.lo, high.hi, low.lo_open, high.hi_open)

    def __str__(self) -> str:
        return _render(self.lo, self.hi, self.lo_open, self.hi_open)

    def __repr__(self) -> str:
        return f"Interval({self})"

    def sort_key(self):
        return (self.lo, self.lo_open, self.hi, self.hi_open)


def _render(lo: Time, hi: Time, lo_open: bool, hi_open: bool) -> str:
    return f"{'(' if lo_open else '['}{lo},{hi}{')' if hi_open else ']'}"


# the bisection and sort keys, read in C: a piece's lower end, its upper
# end, and ``Interval.sort_key``
_lo_of = attrgetter("lo")
_hi_of = attrgetter("hi")
_sort_key = attrgetter("lo", "lo_open", "hi", "hi_open")


def check_operator_range(rho: Interval) -> None:
    """Temporal operator ranges must not reach into the past of the anchor."""
    if rho.lo < 0:
        raise ValueError(f"operator range {rho} has a negative left endpoint")


def _box_minus(i: Interval, rho: Interval) -> Interval | None:
    """All points whose entire lookback window ``t - rho`` lies inside
    ``i``, or None when there is none.

    The points run from ``i.lo + rho.hi`` to ``i.hi + rho.lo``. At the
    lower end the window starts at ``i.lo``, with ``rho.hi``'s flag, so
    that end is attained unless ``i`` is open there and the window closed;
    likewise the upper end with ``i.hi`` and ``rho.lo``. A window
    unbounded below (``rho.hi`` infinite) lies in ``i`` only if ``i`` is
    unbounded below too.
    """
    if rho.hi == POS_INF:
        if NEG_INF < i.lo:
            return None
        lo = NEG_INF
    else:
        lo = plus(i.lo, rho.hi)
    hi = plus(i.hi, rho.lo)
    lo_open = i.lo_open and not rho.hi_open
    hi_open = i.hi_open and not rho.lo_open
    if lo > hi or lo == hi and (lo_open or hi_open):
        return None
    return Interval(lo, hi, lo_open, hi_open)


def _merge(items: Iterable[Interval]) -> tuple[Interval, ...]:
    """Canonical pieces of ``items``, which must come in ``sort_key``
    order: each interval joins the last piece when the two overlap or
    touch (the ``overlaps_or_touches`` and ``hull`` of that order,
    written out), and starts a new piece otherwise."""
    merged: list[Interval] = []
    last = None
    for iv in items:
        if last is None or iv.lo > last.hi or (
            iv.lo == last.hi and last.hi_open and iv.lo_open
        ):
            merged.append(iv)
            last = iv
        elif iv.hi > last.hi:
            last = merged[-1] = Interval(last.lo, iv.hi, last.lo_open, iv.hi_open)
        elif iv.hi == last.hi and last.hi_open and not iv.hi_open:
            last = merged[-1] = Interval(last.lo, last.hi, last.lo_open, False)
    return tuple(merged)


class IntervalSet:
    """A canonical union of intervals: sorted, disjoint, non-adjacent.

    Two IntervalSets denote the same point set iff they are equal. The
    empty set is ``IntervalSet.empty()``.

    Like ``Interval``, a set is a value, hashed as ``hash((pieces,))``
    and immutable by contract, and a plain slotted class.
    """

    __slots__ = ("pieces",)

    def __init__(self, pieces: tuple[Interval, ...] = ()) -> None:
        self.pieces = pieces

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not IntervalSet:
            return NotImplemented
        return self.pieces == other.pieces

    def __hash__(self) -> int:
        return hash((self.pieces,))

    def __repr__(self) -> str:
        return f"IntervalSet(pieces={self.pieces!r})"

    @classmethod
    def empty(cls) -> IntervalSet:
        return _EMPTY

    @classmethod
    def of(cls, *intervals: Interval) -> IntervalSet:
        return cls.from_iterable(intervals)

    @classmethod
    def from_iterable(cls, intervals: Iterable[Interval]) -> IntervalSet:
        return cls(_merge(sorted(intervals, key=_sort_key)))

    @property
    def is_empty(self) -> bool:
        return not self.pieces

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.pieces)

    def __len__(self) -> int:
        return len(self.pieces)

    def __str__(self) -> str:
        return "{" + ", ".join(str(p) for p in self.pieces) + "}"

    def union(self, other: IntervalSet) -> IntervalSet:
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        return IntervalSet.from_iterable(self.pieces + other.pieces)

    def intersect(self, other: IntervalSet) -> IntervalSet:
        a, b = self.pieces, other.pieces
        if not a or not b:
            return _EMPTY
        # iterate the smaller side, bisecting the candidate range in the
        # larger; hits inherit order and separation, no re-sort needed
        if len(a) > len(b):
            a, b = b, a
        out: list[Interval] = []
        for piece in a:
            start = bisect_left(b, piece.lo, key=_hi_of)
            stop = bisect_right(b, piece.hi, key=_lo_of)
            for j in range(start, stop):
                hit = piece.intersect(b[j])
                if hit is not None:
                    out.append(hit)
        return IntervalSet(tuple(out))

    def contains(self, t: Time) -> bool:
        idx = bisect_right(self.pieces, t, key=_lo_of) - 1
        return idx >= 0 and self.pieces[idx].contains(t)

    def covers_interval(self, iv: Interval) -> bool:
        # canonical pieces are separated, so a connected set fits one piece;
        # the only candidate is the rightmost piece starting at or before iv
        # (a piece starting at iv.lo open cannot cover a closed iv.lo, and
        # the piece before it ends short of iv.lo)
        idx = bisect_right(self.pieces, iv.lo, key=_lo_of) - 1
        return idx >= 0 and self.pieces[idx].contains_interval(iv)

    def clip(self, window: Interval) -> IntervalSet:
        return IntervalSet(_clip(self.pieces, window))

    def shift(self, d: Time) -> IntervalSet:
        return IntervalSet(tuple(p.shift(d) for p in self.pieces))

    def reflect(self) -> IntervalSet:
        """``{-t : t in self}``: the negated pieces in reverse order, which
        are canonical as they come."""
        return IntervalSet(tuple([p.negate() for p in reversed(self.pieces)]))

    # Canonical pieces have strictly increasing lower ends, and both
    # operators add the same amount to every finite lower end, so their
    # images come in order and need one merge pass, no sort.

    def diamond_minus(self, rho: Interval) -> IntervalSet:
        """``{t : exists s in self with t - s in rho}``: each piece's
        Minkowski sum with ``rho``."""
        if not self.pieces:
            return _EMPTY
        check_operator_range(rho)
        return IntervalSet(_merge([p.minkowski(rho) for p in self.pieces]))

    def box_minus(self, rho: Interval) -> IntervalSet:
        """``{t : every s with t - s in rho lies in self}``; a window
        ``t - rho`` lies in the set only if it lies in one piece."""
        if not self.pieces:
            return _EMPTY
        check_operator_range(rho)
        hits = [_box_minus(p, rho) for p in self.pieces]
        return IntervalSet(_merge([h for h in hits if h is not None]))


_EMPTY = IntervalSet(())


def _clip(pieces: Sequence[Interval], window: Interval) -> tuple[Interval, ...]:
    """Canonical ``pieces`` (a tuple, or one list block of
    ``reasoner.Model``) clipped to ``window``. Pieces are disjoint and
    sorted, so both their los and his increase: bisection finds those that
    end at or after ``window.lo`` and start at or before ``window.hi``."""
    start = bisect_left(pieces, window.lo, key=_hi_of)
    stop = bisect_right(pieces, window.hi, key=_lo_of)
    if start >= stop:
        return ()
    # the window is convex, so only the two outer candidates can stick out
    first = pieces[start].intersect(window)
    last = pieces[stop - 1].intersect(window) if stop - start > 1 else None
    return (
        ((first,) if first is not None else ())
        + tuple(pieces[start + 1:stop - 1])
        + ((last,) if last is not None else ())
    )


def lcm_rationals(values: Iterable[RationalLike]) -> int | Fraction:
    """Least common multiple of positive rationals, an int when integral.

    For rationals in lowest terms, ``lcm(a/b, c/d) = lcm(a, c) / gcd(b, d)``
    (a prime dividing both ``b`` and ``d`` divides neither ``a`` nor ``c``,
    so the result is in lowest terms again). Raises on an empty input.
    Positive ints, the common case, go straight to ``math.lcm``.
    """
    values = list(values)
    if values and all(v.__class__ is int and v > 0 for v in values):
        return math.lcm(*values)
    values = [to_time(v) for v in values]
    if not values:
        raise ValueError("lcm of an empty set is undefined")
    for v in values:
        if not 0 < v < POS_INF:
            raise ValueError(f"lcm requires positive rationals, got {v}")
    num = math.lcm(*(v.numerator for v in values))
    den = math.gcd(*(v.denominator for v in values))
    return num if den == 1 else Fraction(num, den)


_INTERVAL_RE = re.compile(
    r"^\s*([\[(])\s*([^,\s]+)\s*,\s*([^,\s\])]+)\s*([\])])\s*$"
)


def parse_rational(text: str) -> int | Fraction:
    """Parse an integer, decimal, or p/q fraction (an int when integral)."""
    return to_time(Fraction(text.strip()))


def parse_interval(text: str) -> Interval:
    """Parse the textual interval forms ``[a,b]``, ``(a,b)``, ``[a,b)``, ``(a,b]``.

    Endpoints may be integers, decimals, ``p/q`` fractions, or ``-inf``/``inf``.
    The rendering produced by ``str(interval)`` round-trips bit-exactly.
    """
    m = _INTERVAL_RE.match(text)
    if not m:
        raise ValueError(f"malformed interval {text!r}")
    lb, lo_s, hi_s, rb = m.groups()
    try:
        lo = to_time(lo_s)
        hi = to_time(hi_s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed interval endpoint in {text!r}: {exc}") from exc
    return Interval(lo, hi, lb == "(", rb == ")")
