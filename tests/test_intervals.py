"""Exact interval algebra: construction, coalescing, operator application.

The temporal operator applications are checked against independent
pointwise oracles built only from interval intersection / containment,
evaluated on rational grids around every endpoint.
"""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from chronolog.intervals import (
    Interval,
    IntervalSet,
    NEG_INF,
    POS_INF,
    _merge,
    lcm_rationals,
    parse_interval,
    parse_rational,
    plus,
    to_time,
)


def iv(text: str) -> Interval:
    return parse_interval(text)


def ivs(*texts: str) -> IntervalSet:
    return IntervalSet.from_iterable(iv(t) for t in texts)


# ---------------------------------------------------------------------------
# Pointwise oracles (independent of the endpoint-arithmetic implementations)
# ---------------------------------------------------------------------------

def diamond_holds_at(t: F, i: Interval, rho: Interval) -> bool:
    """exists s in i with t - s in rho  <=>  i intersects t - rho."""
    probe_lo = NEG_INF if rho.hi == POS_INF else t - rho.hi
    probe = Interval(probe_lo, t - rho.lo, rho.hi_open, rho.lo_open)
    return i.intersect(probe) is not None


def box_holds_at(t: F, i: Interval, rho: Interval) -> bool:
    """forall s with t - s in rho: s in i  <=>  t - rho inside i."""
    probe_lo = NEG_INF if rho.hi == POS_INF else t - rho.hi
    probe = Interval(probe_lo, t - rho.lo, rho.hi_open, rho.lo_open)
    return i.contains_interval(probe)


def probe_grid(*intervals: Interval) -> list[F]:
    """Rationals at, just inside, and just outside every endpoint sum."""
    points = set()
    endpoints = []
    for interval in intervals:
        for tp in (interval.lo, interval.hi):
            if NEG_INF < tp < POS_INF:
                endpoints.append(tp)
    sums = {a + b for a in endpoints for b in endpoints} | set(endpoints)
    for s in sums:
        for delta in (F(0), F(1, 3), -F(1, 3), F(1), -F(1)):
            points.add(s + delta)
    return sorted(points)


# ---------------------------------------------------------------------------
# Time points: plain ints, Fractions and the two float infinities
# ---------------------------------------------------------------------------

class TestTimePoint:
    """A time point is an int, a Fraction, NEG_INF or POS_INF."""

    def test_total_order_with_infinities(self):
        assert NEG_INF < -10**9 < F(1, 3) < POS_INF
        assert NEG_INF < -10**400 < 10**400 < POS_INF
        assert sorted([POS_INF, 0, NEG_INF]) == [NEG_INF, 0, POS_INF]
        assert (NEG_INF, POS_INF) == (-math.inf, math.inf)

    def test_exact_arithmetic(self):
        assert to_time(F(1, 3)) + F(1, 6) == F(1, 2)
        assert to_time(F(7)) - 7 == 0
        assert type(to_time(F(7))) is int and type(to_time(F(7, 2))) is F
        assert to_time(0.1) == F(3602879701896397, 36028797018963968)
        assert -(-F(7, 2) // 1) == 4 and F(7, 2) // 1 == 3  # exact ceil, floor

    def test_infinity_absorbs_finite(self):
        assert POS_INF + 5 == POS_INF
        assert NEG_INF - 100 == NEG_INF
        assert NEG_INF + F(1, 3) == NEG_INF
        assert -POS_INF == NEG_INF
        # float arithmetic overflows on an int past the float range
        with pytest.raises(OverflowError):
            POS_INF + 10**400
        assert plus(POS_INF, 10**400) == POS_INF == plus(F(10**400, 3), POS_INF)
        assert plus(-(10**400), NEG_INF) == NEG_INF
        assert Interval.closed(10**400, 10**400 + 1).minkowski(iv("[0,inf)")) == (
            Interval.ray_from(10**400)
        )

    def test_opposite_infinities_error(self):
        # inf - inf is nan, which no interval takes as an endpoint
        with pytest.raises(ValueError):
            Interval.ray_from(0).shift(NEG_INF)
        with pytest.raises(ValueError):
            Interval(POS_INF - POS_INF, 0)
        with pytest.raises(ValueError):
            Interval(0, 0 * POS_INF)
        with pytest.raises(ValueError):
            to_time(math.nan)

    def test_infinity_needs_no_float_conversion(self):
        # math.isfinite(10**400) raises OverflowError; interval code compares
        big = Interval.closed(10**400, 10**400 + 1)
        assert big.is_bounded and big.contains(10**400) and str(big.length()) == "1"
        assert parse_interval(str(big)) == big

    def test_rendering_round_trip(self):
        for text in ("7", "-3", "1/2", "-5/3", "inf", "-inf"):
            assert str(to_time(text)) == text


# ---------------------------------------------------------------------------
# Interval construction and text form
# ---------------------------------------------------------------------------

class TestInterval:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Interval(to_time(3), to_time(2))
        with pytest.raises(ValueError):
            Interval(to_time(1), to_time(1), lo_open=True)

    def test_infinite_endpoints_forced_open(self):
        ray = Interval(to_time(0), POS_INF)
        assert ray.hi_open
        assert str(ray) == "[0,inf)"

    def test_punctual(self):
        assert iv("[2,2]").contains(2)

    @pytest.mark.parametrize(
        "text", ["[0,1]", "(0,1)", "[0,1)", "(0,1]", "[-3/2,7]", "(-inf,4]", "[1,inf)"]
    )
    def test_text_round_trip(self, text):
        assert str(iv(text)) == text

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_interval("[1;2]")
        with pytest.raises(ValueError):
            parse_interval("[2,1]")

    @given(
        lo=st.fractions(min_value=-20, max_value=20),
        width=st.fractions(min_value=0, max_value=20),
        lo_open=st.booleans(),
        hi_open=st.booleans(),
    )
    def test_round_trip_property(self, lo, width, lo_open, hi_open):
        if width == 0 and (lo_open or hi_open):
            return
        interval = Interval(to_time(lo), to_time(lo + width), lo_open, hi_open)
        assert parse_interval(str(interval)) == interval


# ---------------------------------------------------------------------------
# intersect
# ---------------------------------------------------------------------------

class TestIntersect:
    def test_join_of_database_facts(self):
        assert iv("[0,3]").intersect(iv("[2,4]")) == iv("[2,3]")

    def test_idempotent(self):
        assert iv("[0,1]").intersect(iv("[0,1]")) == iv("[0,1]")

    def test_touching_open_closed_endpoints_are_disjoint(self):
        assert iv("[0,2)").intersect(iv("[2,3]")) is None

    def test_flag_selection(self):
        assert iv("(0,5]").intersect(iv("[0,5)")) == iv("(0,5)")

    @given(
        a_lo=st.integers(-5, 5), a_w=st.integers(0, 5),
        b_lo=st.integers(-5, 5), b_w=st.integers(0, 5),
        flags=st.tuples(*[st.booleans()] * 4),
    )
    def test_agrees_with_point_membership(self, a_lo, a_w, b_lo, b_w, flags):
        try:
            a = Interval(to_time(a_lo), to_time(a_lo + a_w), flags[0], flags[1])
            b = Interval(to_time(b_lo), to_time(b_lo + b_w), flags[2], flags[3])
        except ValueError:
            return
        hit = a.intersect(b)
        for t in probe_grid(a, b):
            expected = a.contains(t) and b.contains(t)
            actual = hit is not None and hit.contains(t)
            assert actual == expected, f"{a} ^ {b} at {t}"


def _grid_intervals() -> list[Interval]:
    """Every interval with ends in {-inf, 0, 1, 2, 3, inf} under each
    open/closed combination; an infinite end is forced open, so some come
    twice, as equal but distinct objects."""
    ends = (NEG_INF, 0, 1, 2, 3, POS_INF)
    out = []
    for lo in ends:
        for hi in ends:
            for lo_open in (False, True):
                for hi_open in (False, True):
                    try:
                        out.append(Interval(lo, hi, lo_open, hi_open))
                    except ValueError:
                        pass
    return out


class TestKernelAgainstPoints:
    """``intersect`` and ``hull`` on every pair of grid intervals, held
    pointwise against a reference on the half-integer grid from -1 to 4,
    which tells every such interval from every other. A result equal to
    an operand is that operand, not a copy."""

    GRID = [F(k, 2) for k in range(-2, 9)]

    def test_intersect(self):
        pieces = _grid_intervals()
        kept = 0
        for a in pieces:
            for b in pieces:
                hit = a.intersect(b)
                for t in self.GRID:
                    expected = a.contains(t) and b.contains(t)
                    assert (hit is not None and hit.contains(t)) == expected, (a, b, t)
                if hit is not None and (hit == a or hit == b):
                    assert hit is a or hit is b, (a, b)
                    kept += 1
        assert kept > len(pieces) ** 2 // 4

    def test_hull(self):
        pieces = _grid_intervals()
        kept = 0
        for a in pieces:
            for b in pieces:
                hull = a.hull(b)
                held = [s for s in self.GRID if a.contains(s) or b.contains(s)]
                for t in self.GRID:
                    # t lies between two points of the union
                    expected = held[0] <= t <= held[-1]
                    assert hull.contains(t) == expected, (a, b, t)
                if hull == a or hull == b:
                    assert hull is a or hull is b, (a, b)
                    kept += 1
        assert kept > len(pieces) ** 2 // 4

    def test_from_iterable_orders_as_the_sort_key(self):
        """Seeded lists of grid intervals, with many equal lower ends under
        other flags: ``from_iterable`` merges them in the order of
        ``sorted(key=Interval.sort_key)``."""
        rng = random.Random(5)
        pieces = _grid_intervals()
        for _ in range(500):
            raw = rng.choices(pieces, k=rng.randint(0, 12))
            merged = _merge(sorted(raw, key=Interval.sort_key))
            assert IntervalSet.from_iterable(raw).pieces == merged, raw


# ---------------------------------------------------------------------------
# IntervalSet coalescing
# ---------------------------------------------------------------------------

class TestCoalescing:
    def test_merge_on_shared_endpoint(self):
        assert ivs("[0,7]").union(IntervalSet.of(iv("[7,10]"))) == ivs("[0,10]")

    def test_insert_into_empty(self):
        assert IntervalSet.empty().union(IntervalSet.of(iv("[1,2]"))) == ivs("[1,2]")

    def test_both_open_at_shared_point_stays_split(self):
        out = ivs("[0,1)").union(IntervalSet.of(iv("(1,2]")))
        assert out == ivs("[0,1)", "(1,2]")
        assert len(out) == 2

    def test_adjacent_with_one_closed_merges(self):
        assert ivs("[0,1]").union(IntervalSet.of(iv("(1,2]"))) == ivs("[0,2]")
        assert ivs("[0,1)").union(IntervalSet.of(iv("[1,2]"))) == ivs("[0,2]")

    def test_covered_insert_is_identity(self):
        s = ivs("[0,10]")
        assert s.union(IntervalSet.of(iv("[2,3]"))) == s

    @given(
        st.lists(
            st.tuples(st.integers(-8, 8), st.integers(0, 4), st.booleans(), st.booleans()),
            max_size=8,
        ),
        st.randoms(use_true_random=False),
    )
    def test_order_independent(self, raw, rng):
        intervals = []
        for lo, w, lo_open, hi_open in raw:
            try:
                intervals.append(
                    Interval(to_time(lo), to_time(lo + w), lo_open, hi_open)
                )
            except ValueError:
                continue
        canonical = IntervalSet.from_iterable(intervals)
        shuffled = intervals[:]
        rng.shuffle(shuffled)
        one_by_one = IntervalSet.empty()
        for interval in shuffled:
            one_by_one = one_by_one.union(IntervalSet.of(interval))
        assert one_by_one == canonical

    @given(
        st.lists(st.tuples(st.integers(-8, 8), st.integers(0, 4)), max_size=6)
    )
    def test_union_matches_point_oracle(self, raw):
        intervals = [
            Interval(to_time(lo), to_time(lo + w)) for lo, w in raw
        ]
        s = IntervalSet.from_iterable(intervals)
        for numerator in range(-36, 37):
            t = F(numerator, 4)
            assert s.contains(t) == any(i.contains(t) for i in intervals)

    def test_canonical_invariants(self):
        s = ivs("[5,6]", "[0,1]", "[1,2]", "(8,9)")
        pieces = list(s)
        assert pieces == sorted(pieces, key=Interval.sort_key)
        for left, right in zip(pieces, pieces[1:]):
            assert not left.overlaps_or_touches(right)


# ---------------------------------------------------------------------------
# diamondminus / boxminus application
# ---------------------------------------------------------------------------

class TestDiamondMinus:
    def test_shift_and_stretch(self):
        assert IntervalSet.of(iv("[0,1]")).diamond_minus(iv("[3,4]")) == ivs("[3,5]")

    def test_identity_range(self):
        assert IntervalSet.of(iv("[0,1]")).diamond_minus(iv("[0,0]")) == ivs("[0,1]")

    def test_open_flags_combine(self):
        # derived with the pointwise oracle below
        assert IntervalSet.of(iv("(0,1]")).diamond_minus(iv("[3,4)")) == ivs("(3,5)")

    def test_unbounded_range_gives_ray(self):
        assert IntervalSet.of(iv("[2,3]")).diamond_minus(iv("[1,inf)")) == ivs("[3,inf)")

    def test_rejects_negative_range(self):
        with pytest.raises(ValueError):
            IntervalSet.of(iv("[0,1]")).diamond_minus(iv("[-1,2]"))

    def test_never_shrinks(self):
        cases = [(iv("[0,1]"), iv("[3,4]")), (iv("(2,7)"), iv("[0,2]"))]
        for i, rho in cases:
            (out,) = IntervalSet.of(i).diamond_minus(rho)
            assert out.length() >= i.length()


class TestBoxMinus:
    def test_shrinks_to_inner_window(self):
        assert IntervalSet.of(iv("[3,5]")).box_minus(iv("[3,4]")) == ivs("[7,8]")

    def test_short_fact_yields_nothing(self):
        assert IntervalSet.of(iv("[0,1]")).box_minus(iv("[3,7]")).is_empty

    def test_long_fact_steps_forward(self):
        assert IntervalSet.of(iv("[0,7]")).box_minus(iv("[3,7]")) == ivs("[7,10]")

    def test_open_input_flags_follow_pointwise_contract(self):
        assert IntervalSet.of(iv("[0,5)")).box_minus(iv("[1,2]")) == ivs("[2,6)")
        assert IntervalSet.of(iv("(0,5]")).box_minus(iv("[1,2]")) == ivs("(2,6]")

    def test_unbounded_range_needs_unbounded_past(self):
        assert IntervalSet.of(iv("[0,5]")).box_minus(iv("[0,inf)")).is_empty
        assert IntervalSet.of(iv("(-inf,5]")).box_minus(iv("[0,inf)")) == ivs("(-inf,5]")

    def test_rejects_negative_range(self):
        with pytest.raises(ValueError):
            IntervalSet.of(iv("[0,9]")).box_minus(iv("[-1,2]"))

    def test_never_grows(self):
        for i, rho in [(iv("[0,9]"), iv("[1,3]")), (iv("[2,4]"), iv("[0,1]"))]:
            for out in IntervalSet.of(i).box_minus(rho):
                assert out.length() <= i.length()


def _interval_strategy(max_abs=8):
    """Intervals with fractional ends and every pair of flags, bounded or
    unbounded on either side or both."""

    def build(lo, w, lo_open, hi_open, shape):
        lo, hi = to_time(lo), to_time(lo + w)
        if shape in ("up", "whole"):
            hi = POS_INF
        if shape in ("down", "whole"):
            lo = NEG_INF
        try:
            return Interval(lo, hi, lo_open, hi_open)
        except ValueError:
            return None

    return st.builds(
        build,
        st.fractions(min_value=-max_abs, max_value=max_abs, max_denominator=4),
        st.fractions(min_value=0, max_value=max_abs, max_denominator=4),
        st.booleans(),
        st.booleans(),
        st.sampled_from(("bounded", "bounded", "up", "down", "whole")),
    ).filter(lambda x: x is not None)


def _range_strategy():
    """Operator ranges ``rho``: bounded, or ``[a, inf)`` (``(a, inf)``)."""

    def build(lo, w, lo_open, hi_open, ray):
        try:
            hi = POS_INF if ray else to_time(lo + w)
            return Interval(to_time(lo), hi, lo_open, hi_open)
        except ValueError:
            return None

    return st.builds(
        build,
        st.fractions(min_value=0, max_value=8, max_denominator=4),
        st.fractions(min_value=0, max_value=8, max_denominator=4),
        st.booleans(),
        st.booleans(),
        st.sampled_from((False, False, True)),
    ).filter(lambda x: x is not None)


# every interval over these ends with every pair of flags, as operand and
# as operator range (a range starts at 0 or later)
_GRID_ENDS = (NEG_INF, -3, -1, 0, F(1, 2), 1, 2, 3, 5, POS_INF)
_GRID_INTERVALS = sorted(
    {
        Interval(lo, hi, lo_open, hi_open)
        for lo in _GRID_ENDS
        for hi in _GRID_ENDS
        for lo_open in (False, True)
        for hi_open in (False, True)
        if lo < hi or lo == hi and not (lo_open or hi_open) and NEG_INF < lo < POS_INF
    },
    key=Interval.sort_key,
)
_GRID_RANGES = [rho for rho in _GRID_INTERVALS if rho.lo >= 0]


class TestPointwiseConformance:
    """Operator applications agree with the quantifier definitions on a
    grid of rationals surrounding every endpoint combination."""

    @settings(max_examples=200)
    @given(i=_interval_strategy(), rho=_range_strategy())
    def test_diamond(self, i, rho):
        out = IntervalSet.of(i).diamond_minus(rho)
        for t in probe_grid(i, rho):
            assert out.contains(t) == diamond_holds_at(t, i, rho)

    @settings(max_examples=200)
    @given(i=_interval_strategy(), rho=_range_strategy())
    def test_box(self, i, rho):
        out = IntervalSet.of(i).box_minus(rho)
        for t in probe_grid(i, rho):
            assert out.contains(t) == box_holds_at(t, i, rho)

    @pytest.mark.parametrize("i", _GRID_INTERVALS, ids=str)
    def test_box_on_every_end_and_flag(self, i):
        """``box_minus`` against the pointwise definition for every operand
        and range over a grid of ends, infinite ones among them, with
        every pair of flags: each way an end of the result can be attained
        or missed, and each way the result can be empty."""
        for rho in _GRID_RANGES:
            out = IntervalSet.of(i).box_minus(rho)
            for t in probe_grid(i, rho):
                assert out.contains(t) == box_holds_at(t, i, rho), (i, rho, t)


def reference_merge(intervals) -> IntervalSet:
    """Canonical set by the per-piece reference: sort, then join each
    interval to the last piece with ``overlaps_or_touches`` and ``hull``."""
    merged = []
    for i in sorted(intervals, key=Interval.sort_key):
        if merged and merged[-1].overlaps_or_touches(i):
            merged[-1] = merged[-1].hull(i)
        else:
            merged.append(i)
    return IntervalSet(tuple(merged))


def _set_piece_strategy():
    """Intervals with mixed flags and fractional ends; some are rays."""

    def build(lo, w, lo_open, hi_open, shape):
        lo, hi = to_time(F(lo, 3)), to_time(F(lo + w, 3))
        if shape == "up":
            hi = POS_INF
        elif shape == "down":
            lo = NEG_INF
        try:
            return Interval(lo, hi, lo_open, hi_open)
        except ValueError:
            return None

    return st.builds(
        build,
        st.integers(-36, 36),  # ends in thirds
        st.integers(0, 12),
        st.booleans(),
        st.booleans(),
        st.sampled_from(["bounded"] * 6 + ["up", "down"]),
    ).filter(lambda x: x is not None)


def _set_range_strategy():
    """Operator ranges ``rho`` with ``rho.lo >= 0``, rays ``[a,inf)`` included."""

    def build(lo, w, lo_open, hi_open, ray):
        hi = POS_INF if ray else to_time(F(lo + w, 3))
        try:
            return Interval(to_time(F(lo, 3)), hi, lo_open, hi_open)
        except ValueError:
            return None

    return st.builds(
        build,
        st.integers(0, 18),  # ends in thirds
        st.integers(0, 18),
        st.booleans(),
        st.booleans(),
        st.sampled_from([False, False, False, True]),
    ).filter(lambda x: x is not None)


class TestSetOperatorsAgainstReference:
    """The sort-free set operators and ``from_iterable`` equal a per-piece
    reference: apply the operator to each piece, then sort and merge."""

    @settings(max_examples=300)
    @given(raw=st.lists(_set_piece_strategy(), max_size=8))
    def test_from_iterable(self, raw):
        assert IntervalSet.from_iterable(raw) == reference_merge(raw)

    @settings(max_examples=300)
    @given(raw=st.lists(_set_piece_strategy(), max_size=8), rho=_set_range_strategy())
    def test_diamond_minus(self, raw, rho):
        s = reference_merge(raw)
        expected = reference_merge(p.minkowski(rho) for p in s)
        assert s.diamond_minus(rho) == expected

    @settings(max_examples=300)
    @given(raw=st.lists(_set_piece_strategy(), max_size=8), rho=_set_range_strategy())
    def test_box_minus(self, raw, rho):
        s = reference_merge(raw)
        expected = reference_merge(q for p in s for q in IntervalSet.of(p).box_minus(rho))
        assert s.box_minus(rho) == expected

    def test_merging_images(self):
        # the images of separate pieces overlap, touch, or stay apart
        s = ivs("[0,1]", "(2,3)", "[5,6]", "[9,inf)")
        assert s.diamond_minus(iv("[0,1]")) == ivs("[0,4)", "[5,7]", "[9,inf)")
        assert s.diamond_minus(iv("[0,2)")) == ivs("[0,8)", "[9,inf)")
        assert ivs("(-inf,1)", "(1,2]").diamond_minus(iv("[0,inf)")) == ivs("(-inf,inf)")
        assert s.box_minus(iv("[1,1]")) == s.shift(1)
        assert ivs("(-inf,1]", "[3,4]").box_minus(iv("[0,inf)")) == ivs("(-inf,1]")

    def test_range_is_checked_on_a_set(self):
        s = ivs("[0,1]", "[3,4]")
        with pytest.raises(ValueError, match="negative left endpoint"):
            s.diamond_minus(iv("[-1,2]"))
        with pytest.raises(ValueError, match="negative left endpoint"):
            s.box_minus(iv("[-1,2]"))

    def test_covers_interval_at_a_shared_lower_end(self):
        # a piece that starts at iv.lo open is the one candidate for iv
        s = ivs("[0,1)", "(1,3]")
        assert s.covers_interval(iv("(1,2]"))
        assert not s.covers_interval(iv("[1,2]"))
        assert s.covers_interval(iv("[0,1)")) and not s.covers_interval(iv("[0,1]"))


class TestValueSemantics:
    """Intervals and interval sets are values: equal by their fields,
    hashed as the tuple of their fields, never equal to that tuple."""

    def test_hash_is_the_hash_of_the_fields(self):
        for i in (iv("[0,1]"), iv("(1/2,inf)"), iv("(-inf,3]"), Interval.point(10**400)):
            assert hash(i) == hash((i.lo, i.hi, i.lo_open, i.hi_open))
        pieces = (iv("[0,1]"), iv("(2,3)"))
        assert hash(IntervalSet(pieces)) == hash((pieces,))
        assert hash(IntervalSet.empty()) == hash(((),))

    def test_equal_by_fields_and_never_to_a_tuple(self):
        a = Interval(lo=0, hi=1, hi_open=True)
        assert a == iv("[0,1)") and hash(a) == hash(iv("[0,1)"))
        assert a != iv("[0,1]") and a != iv("(0,1)")
        assert a != (0, 1, False, True) and (0, 1, False, True) != a
        assert {a: 1}.get((0, 1, False, True)) is None
        assert IntervalSet((a,)) == ivs("[0,1)") and IntervalSet((a,)) != (a,)
        assert Interval(F(1, 2), 1) == Interval(F(2, 4), F(1))

    def test_repr_and_keywords(self):
        assert repr(iv("[0,1)")) == "Interval([0,1))"
        assert repr(ivs("[0,1)", "(2,inf)")) == (
            "IntervalSet(pieces=(Interval([0,1)), Interval((2,inf))))"
        )
        ray = Interval(lo=NEG_INF, hi=POS_INF)
        assert (ray.lo_open, ray.hi_open) == (True, True) and str(ray) == "(-inf,inf)"

    def test_error_texts(self):
        with pytest.raises(ValueError, match=r"^empty interval \(2,1\]$"):
            Interval(2, 1, lo_open=True)
        with pytest.raises(ValueError, match=r"^empty interval \[1,1\)$"):
            Interval(1, 1, hi_open=True)
        with pytest.raises(ValueError, match=r"^empty interval \[inf,inf\]$"):
            Interval(POS_INF, POS_INF)
        with pytest.raises(ValueError, match=r"^undefined endpoint in \[nan,0\]$"):
            Interval(POS_INF - POS_INF, 0)


# ---------------------------------------------------------------------------
# shift / clip / lcm
# ---------------------------------------------------------------------------

class TestShiftClip:
    def test_shift_back_to_origin(self):
        assert iv("[7,8]").shift(-7) == iv("[0,1]")

    def test_zero_shift(self):
        assert iv("[1,2]").shift(0) == iv("[1,2]")

    def test_clip_subset(self):
        assert iv("[3,5]").intersect(iv("[0,14)")) == iv("[3,5]")

    def test_clip_cuts_and_keeps_window_flag(self):
        assert iv("[5,20]").intersect(iv("[0,14)")) == iv("[5,14)")

    @given(
        st.lists(st.tuples(st.integers(-8, 8), st.integers(0, 4), st.booleans()), max_size=6),
        st.integers(-10, 10),
        st.integers(0, 8),
        st.booleans(),
        st.booleans(),
    )
    def test_set_clip_matches_pointwise(self, raw, lo, width, lo_open, hi_open):
        pieces = [
            Interval(to_time(a), to_time(a + w), False, is_open and w > 0)
            for a, w, is_open in raw
        ]
        s = IntervalSet.from_iterable(pieces)
        if width == 0:
            lo_open = hi_open = False
        window = Interval(to_time(lo), to_time(lo + width), lo_open, hi_open)
        clipped = s.clip(window)
        assert clipped == IntervalSet.from_iterable(clipped)
        for numerator in range(-48, 49):
            t = F(numerator, 4)
            assert clipped.contains(t) == (s.contains(t) and window.contains(t))


class TestLcmRationals:
    def test_single(self):
        assert lcm_rationals([F(7)]) == 7

    def test_coprime_integers(self):
        assert lcm_rationals([F(3), F(5)]) == 15

    def test_fractions(self):
        assert lcm_rationals([F(1, 2), F(3, 4)]) == F(3, 2)

    def test_result_is_divisible_by_inputs(self):
        values = [F(3, 2), F(5, 6), F(7)]
        out = lcm_rationals(values)
        for v in values:
            assert (out / v).denominator == 1

    def test_empty_is_error(self):
        with pytest.raises(ValueError):
            lcm_rationals([])

    def test_nonpositive_is_error(self):
        with pytest.raises(ValueError):
            lcm_rationals([F(0)])


def test_parse_rational():
    assert parse_rational("3/2") == F(3, 2)
    assert parse_rational("1.5") == F(3, 2)
    assert parse_rational("-7") == -7
