"""Rule application, the bounded oracle, and the windowed procedure."""

import math
import random
from bisect import bisect_left, bisect_right
from fractions import Fraction as F
from pathlib import Path

import pytest

from chronolog.analysis import dependency_graph, pattern_length, simple_cycles
from chronolog.errors import (
    InputError,
    NotForwardPropagating,
    StepCapExceeded,
    WindowCapExceeded,
)
from chronolog.intervals import NEG_INF, POS_INF, Interval, IntervalSet, to_time, parse_interval
from chronolog import reasoner
from chronolog.reasoner import (
    _BLOCK,
    Model,
    Pattern,
    PeriodicModel,
    backward_slice,
    check_horizon,
    freeze,
    group_and_sort,
    max_time_point,
    naive_fixpoint_bounded,
    occurrences,
    reason,
)
from chronolog.syntax import (
    AUX_PREFIX,
    Atom,
    BoxMinus,
    BoxPlus,
    DiamondMinus,
    DiamondPlus,
    Fact,
    ground,
    parse_database,
    parse_fact,
    parse_program,
    to_normal_form,
)

from generators import (
    _random_acyclic_program,
    _random_fp_program,
    _random_linear_diamond,
    _random_nested_program,
    _random_nonground_program,
    _random_ray_program,
)
from grid import _grid_model
from test_acceptance import UNCOMPACTED_WORKED_EXAMPLE, oracle_span

FIXTURES = Path(__file__).parent / "fixtures"

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
        assert max_time_point(Model()) == 0


class TestFirstAndLastPiece:
    """``reason``'s first point, its input check and ``max_time_point``
    read each atom's first or last piece (``Model.first``,
    ``Model.last``), not every endpoint."""

    def test_first_matches_the_set(self):
        rng = random.Random("first")
        for _ in range(20):
            pieces = _store_pieces(rng.randrange(1, 3 * _BLOCK), rng)
            rng.shuffle(pieces)
            model = Model.from_facts(Fact(Atom("A"), p) for p in pieces)
            assert model.first(Atom("A")) == model.get(Atom("A")).pieces[0]
        assert model.first(Atom("B")) is None

    @pytest.mark.parametrize(
        "db_text, expected",
        [
            ("A@(-inf,inf).", 0),
            ("A@(-inf,inf).\nB@[3,inf).", 3),
            ("A@(-inf,-4].", -4),
            ("A@(-inf,-4].\nA@(-2,inf).\nB@[-9,-7).", -2),
            ("A@[0,1].\nA@[5,8).\nB@[2,inf).", 8),
        ],
    )
    def test_max_time_point_against_every_endpoint(self, db_text, expected):
        db = model_of(db_text)
        assert max_time_point(db) == max(db.finite_endpoints(), default=0) == expected

    def test_reason_and_check_horizon_scan_no_endpoints(self, monkeypatch):
        program = parse_program(WORKED_EXAMPLE)
        db = model_of("B@[9,10).\nA@[0,1].\nA@[20,21].\nZ@[10000,10000].")
        pm = reason(program, db)
        horizon = check_horizon(pm, db)
        assert horizon == 10000 + 3 * pm.period

        def refuse(self):
            raise AssertionError("reading one piece per atom must do")

        monkeypatch.setattr(Model, "finite_endpoints", refuse)
        assert reason(program, db) == pm
        assert check_horizon(pm, db) == horizon
        with pytest.raises(InputError, match=r"database fact A@\(-inf,3\] is unbounded below"):
            reason(program, model_of("B@[0,1].\nA@(-inf,3].\nA@[5,6]."))


def _insert_with_piece(ivs, iv):
    """Insertion into a set as ``IntervalSet.insert_with_piece`` did it
    before insertion moved into ``Model``: the reference ``Model.add`` is
    held against. Returns the new set and the piece covering ``iv``, or
    ``None`` for the piece when ``iv`` was covered already."""
    if ivs.covers_interval(iv):
        return ivs, None
    pieces = ivs.pieces
    start = bisect_left(pieces, iv.lo, key=lambda p: p.hi)
    stop = bisect_right(pieces, iv.hi, key=lambda p: p.lo)
    merged = iv
    lo_idx = hi_idx = start
    for idx in range(start, stop):
        piece = pieces[idx]
        if piece.overlaps_or_touches(merged):
            merged = merged.hull(piece)
            hi_idx = idx + 1
        elif piece.sort_key() < merged.sort_key():
            lo_idx = hi_idx = idx + 1
        else:
            break
    return IntervalSet(pieces[:lo_idx] + (merged,) + pieces[hi_idx:]), merged


def _store_pieces(n: int, rng: random.Random) -> list[Interval]:
    """``n`` pieces 3 apart, of random width and open or closed ends, some
    overlapping or touching their neighbours, one that spans a quarter of
    them, a ray at either end and one over the last eighth."""
    out = [
        Interval.up_to(-10, hi_open=True),
        Interval.ray_from(3 * n + 7),
        Interval(3 * (n // 2) + 1, 3 * (3 * n // 4), True, False),
        Interval.ray_from(3 * (7 * n // 8), lo_open=True),
    ]
    for i in range(n):
        lo = 3 * i
        kind = rng.random()
        if kind < 0.1:  # overlaps both neighbours
            out.append(Interval(lo - 2, lo + 4, rng.random() < 0.5, rng.random() < 0.5))
        elif kind < 0.2:  # touches the next one
            out.append(Interval(lo + 1, lo + 3, False, rng.random() < 0.5))
        else:
            width = rng.choice((0, 0, 1, 2))
            lo_open = width > 0 and rng.random() < 0.5
            hi_open = width > 0 and rng.random() < 0.5
            out.append(Interval(lo, lo + width, lo_open, hi_open))
    return out


_WHOLE = Interval(NEG_INF, POS_INF, True, True)


def _read_off_blocks(model: Model) -> tuple:
    """What a model holds, read through ``clip`` and ``finite_endpoints``,
    so a block changed behind the model's back shows."""
    return (
        [(str(a), str(model.clip(a, _WHOLE))) for a in model.atoms()],
        sorted(model.finite_endpoints()),
    )


class TestBlockStore:
    """``Model`` keeps each atom's pieces in sorted blocks of at most
    ``_BLOCK`` pieces; these tests hold it against whole-set operations."""

    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
    @pytest.mark.parametrize("block, n", [(4, 160), (_BLOCK, 6 * _BLOCK)])
    def test_add_matches_whole_set_insertion(self, monkeypatch, order, block, n):
        monkeypatch.setattr(reasoner, "_BLOCK", block)
        rng = random.Random(f"{order}-{block}")
        pieces = _store_pieces(n, rng)
        pieces.sort(key=Interval.sort_key, reverse=order == "descending")
        if order == "shuffled":
            rng.shuffle(pieces)
        atom = Atom("A")
        model, reference, most = Model(), IntervalSet.empty(), 0
        for count, piece in enumerate(pieces, 1):
            reference, expected = _insert_with_piece(reference, piece)
            assert model.add(atom, piece) == expected
            assert model.get(atom) == reference == IntervalSet.from_iterable(pieces[:count])
            assert all(0 < len(b) <= block for b in model._blocks[atom])
            most = max(most, len(model._blocks[atom]))
        assert most >= 3
        assert _read_off_blocks(model)[0] == [("A", str(reference))]

    @pytest.mark.parametrize("block", [4, 16])
    def test_block_readers_match_the_set(self, monkeypatch, block):
        monkeypatch.setattr(reasoner, "_BLOCK", block)
        rng = random.Random(block)
        pieces = _store_pieces(12 * block, rng)
        rng.shuffle(pieces)
        model = Model.from_facts(Fact(Atom("A"), p) for p in pieces)
        whole = model.get(Atom("A"))
        assert len(model._blocks[Atom("A")]) > 3
        for lo in range(-12, 36 * block + 10, 5):
            for width in (0, 1, 4, 30, 3 * block):
                for lo_open, hi_open in ((False, False), (True, True), (False, True)):
                    if width == 0 and (lo_open or hi_open):
                        continue
                    window = Interval(lo, lo + width, lo_open, hi_open)
                    assert model.clip(Atom("A"), window) == whole.clip(window)
                    assert model.covers(Atom("A"), window) == whole.covers_interval(window)
                    assert list(model.descending(Atom("A"), window)) == list(
                        reversed(whole.clip(window).pieces)
                    )
        assert model.clip(Atom("B"), _WHOLE).is_empty
        assert not model.covers(Atom("B"), Interval.point(0))
        assert sorted(model.finite_endpoints()) == sorted(
            e for p in whole for e in (p.lo, p.hi) if NEG_INF < e < POS_INF
        )

    @pytest.mark.parametrize("block", [4, 16])
    def test_meet_and_last_match_the_set(self, monkeypatch, block):
        """``meet`` against ``IntervalSet.intersect`` and ``last`` against
        the set's last piece, on stores of many blocks and on random sets
        with rays, open and closed ends, and none at all."""
        monkeypatch.setattr(reasoner, "_BLOCK", block)
        rng = random.Random(f"meet-{block}")
        pieces = _store_pieces(12 * block, rng)
        rng.shuffle(pieces)
        a, absent = Atom("A"), Atom("B")
        model = Model.from_facts(Fact(a, p) for p in pieces)
        whole = model.get(a)
        assert len(model._blocks[a]) > 3
        end = 36 * block + 20
        kinds = {"ray": 0, "empty": 0}
        for _ in range(400):
            drawn = []
            for _ in range(rng.randrange(6)):
                lo = rng.randrange(-20, end)
                kind = rng.random()
                if kind < 0.1:
                    drawn.append(Interval.up_to(lo, hi_open=rng.random() < 0.5))
                elif kind < 0.2:
                    drawn.append(Interval.ray_from(lo, lo_open=rng.random() < 0.5))
                else:
                    width = rng.choice((0, 1, 3, 10, 4 * block))
                    closed = width == 0
                    drawn.append(Interval(
                        lo, lo + width,
                        not closed and rng.random() < 0.5, not closed and rng.random() < 0.5,
                    ))
            ivs = IntervalSet.from_iterable(drawn)
            kinds["ray"] += any(not p.is_bounded for p in ivs)
            kinds["empty"] += ivs.is_empty
            assert model.meet(a, ivs) == ivs.intersect(whole), ivs
            assert model.meet(absent, ivs).is_empty
        assert kinds["ray"] > 50 and kinds["empty"] > 20
        assert model.last(a) == whole.pieces[-1]
        assert model.last(absent) is None
        points = Model.from_facts(Fact(a, Interval.point(2 * k)) for k in range(10 * block))
        assert points.last(a) == Interval.point(20 * block - 2)
        points.add(a, Interval(20 * block - 2, 20 * block, False, True))
        assert points.last(a) == points.get(a).pieces[-1] == Interval(
            20 * block - 2, 20 * block, False, True
        )

    def test_same_pieces_split_differently_are_equal(self, monkeypatch):
        monkeypatch.setattr(reasoner, "_BLOCK", 4)
        points = [Interval.point(2 * k) for k in range(40)]
        shuffled = points[:]
        random.Random(3).shuffle(shuffled)
        models = []
        for order in (points, points[::-1], shuffled):
            model = Model()
            for p in order:
                model.add(Atom("A"), p)
            models.append(model)
        up, down, mixed = models
        splits = {tuple(map(len, m._blocks[Atom("A")])) for m in models}
        assert len(splits) == 3
        assert up == down == mixed == Model({Atom("A"): IntervalSet.from_iterable(points)})
        assert up.rows() == down.rows() == mixed.rows()
        down.add(Atom("A"), Interval.point(1))
        assert up != down

    def test_copy_is_independent(self):
        model = model_of("A@[0,0].\nA@[4,4].\nB@[1,2].")
        copy = model.copy()
        assert copy == model
        copy.add(Atom("A"), Interval.point(2))
        copy.add(Atom("C"), Interval.point(2))
        assert _read_off_blocks(model) == _read_off_blocks(model_of("A@[0,0].\nA@[4,4].\nB@[1,2]."))
        assert str(copy.get(Atom("A"))) == "{[0,0], [2,2], [4,4]}"


    @pytest.mark.parametrize("block", [4, 16])
    def test_cut_matches_the_set(self, monkeypatch, block):
        """``cut(atom, at)`` leaves what ``clip`` to ``(-inf, at)`` gives,
        in blocks that are never empty, and drops an atom left with
        nothing; at every point, integral or not, of the atom's span and
        past both of its ends."""
        monkeypatch.setattr(reasoner, "_BLOCK", block)
        rng = random.Random(block)
        pieces = _store_pieces(12 * block, rng)
        model = Model.from_facts(Fact(Atom("A"), p) for p in pieces)
        whole = model.get(Atom("A"))
        for at in (F(k, 2) for k in range(-4, 2 * (36 * block + 10))):
            cut = model.copy()
            cut.cut(Atom("A"), to_time(at))
            assert cut.get(Atom("A")) == whole.clip(Interval(NEG_INF, to_time(at), True, True))
            assert all(cut._blocks.get(Atom("A"), [[0]]))
            assert (Atom("A") in cut._blocks) == (at > whole.pieces[0].lo)


class TestInputsLeftAsTheyWere:
    """``reason``, the oracle, ``backward_slice`` and ``unroll`` copy what
    they grow: the database they are given holds what it held before."""

    def test_database_unchanged(self):
        program = parse_program("diamondminus[2,2] A -> B .\ndiamondminus[3,3] B -> A .")
        database = parse_database("A@[0,0].\nA@[40,40].\nB@[41,41].")
        before = _read_off_blocks(database)
        pm = reason(program, database)
        assert _read_off_blocks(database) == before
        naive_fixpoint_bounded(program, database, 90)
        assert _read_off_blocks(database) == before
        backward_slice(program, database, Atom("A"))
        assert _read_off_blocks(database) == before
        facts = _read_off_blocks(pm.facts)
        pm.unroll(200)
        assert _read_off_blocks(pm.facts) == facts
        assert _read_off_blocks(database) == before

    def test_periodic_model_is_unhashable(self):
        pm = reason(parse_program("diamondminus[2,2] A -> A ."), parse_database("A@[0,0]."))
        with pytest.raises(TypeError, match="PeriodicModel"):
            hash(pm)


class _AddCost:
    """A test-local wrapper of ``Model.add``: per call, an upper bound on
    the pieces it moves or copies, namely the length of the block it wrote
    (``moved``), plus the number of blocks when it added or dropped one."""

    def __init__(self, monkeypatch):
        self.total = 0
        self.moved = 0
        add = Model.add

        def counted(model, atom, interval):
            before = len(model._blocks.get(atom, ()))
            piece = add(model, atom, interval)
            if piece is not None:
                blocks = model._blocks[atom]
                block = blocks[bisect_left(blocks, piece.hi, key=lambda b: b[-1].hi)]
                self.moved = max(self.moved, len(block))
                self.total += len(block) + (len(blocks) if len(blocks) != before else 0)
            return piece

        monkeypatch.setattr(Model, "add", counted)


class TestLinearGrowth:
    """Building a model piece by piece costs in proportion to its pieces:
    doubling the input at most about doubles the pieces ``add`` moves
    (counted, not timed)."""

    GAP = "diamondminus[2,2] A -> B .\ndiamondminus[3,3] B -> A ."

    def test_reason_on_a_gap(self, monkeypatch):
        cost = _AddCost(monkeypatch)
        totals = []
        for d in (8000, 16000):
            cost.total = 0
            pm = reason(parse_program(self.GAP), parse_database(f"A@[0,0].\nA@[{d},{d}]."))
            assert pm.period == 5
            totals.append(cost.total)
        assert totals[1] <= 2.5 * totals[0], totals

    def test_loading_many_facts_of_one_atom(self, monkeypatch):
        cost = _AddCost(monkeypatch)
        totals = []
        for n in (10000, 20000):
            cost.total = 0
            db = parse_database("".join(f"A@[{2 * k},{2 * k}].\n" for k in range(n)))
            assert len(db.get(Atom("A"))) == n
            totals.append(cost.total)
        assert totals[1] <= 2.5 * totals[0], totals

    def test_oracle_toward_minus_infinity_hits_its_step_cap(self, monkeypatch):
        cost = _AddCost(monkeypatch)
        with pytest.raises(StepCapExceeded):
            naive_fixpoint_bounded(
                parse_program("diamondplus[1,1] A -> A ."), parse_database("A@[5,5]."),
                30, step_cap=10**5,
            )
        assert cost.moved <= _BLOCK
        assert cost.total <= 10**5 * (_BLOCK + 1)


JOIN_FAMILY = (
    "A, B -> C .\ndiamondminus[3,3] C -> A .\ndiamondminus[3,3] C -> B .\n"
    "G -> A .\nH -> B ."
)


def _join_family_database(n: int) -> Model:
    """``G`` and ``H`` at ``3k`` for every even ``k < n``, at 1, and ``G``
    once more at ``3n + 1``: C's join of A and B recurs through both every
    3 units, and the last fact keeps it from settling before ``3n``."""
    points = "".join(f"G@[{3 * k},{3 * k}].\nH@[{3 * k},{3 * k}].\n" for k in range(0, n, 2))
    return parse_database(points + f"G@[1,1].\nH@[1,1].\nG@[{3 * n + 1},{3 * n + 1}].\n")


# the join family with its join's second literal read through an operator
OPERATOR_JOIN_FAMILY = JOIN_FAMILY.replace("A, B -> C", "A, diamondminus[0,0] B -> C")
# and with a rule reading C through two operators
NESTED_JOIN_FAMILY = OPERATOR_JOIN_FAMILY + "\ndiamondminus[1,1] diamondminus[0,0] C -> D ."


class TestJoinCost:
    """A recursive Horn join reads only the pieces its delta meets
    (``Model.meet``), not the atom's whole set after every round; the
    oracle reads an operator literal only on what its truth there reads,
    and a nested literal only where its changed pieces reach."""

    def test_pieces_built_grow_linearly(self, monkeypatch):
        """Count guard: the pieces that ``Model.get`` and ``Model.clip``
        return (each call builds them) per ``reason`` and per oracle call
        on the join family at n and 2n grow by at most 2.2 times, and per
        oracle call on the family whose join reads ``diamondminus[0,0] B``
        and on that family with a rule reading ``C`` through two operators
        (neither normal form, so the oracle's only). Reading the whole set
        of A or B, or a nested literal's whole truth, once per round made
        them grow four times."""
        get, clip = Model.get, Model.clip
        built = 0

        def counting_get(self, atom):
            nonlocal built
            ivs = get(self, atom)
            built += len(ivs)
            return ivs

        def counting_clip(self, atom, window):
            nonlocal built
            ivs = clip(self, atom, window)
            built += len(ivs)
            return ivs

        monkeypatch.setattr(Model, "get", counting_get)
        monkeypatch.setattr(Model, "clip", counting_clip)
        program = parse_program(JOIN_FAMILY)
        operator_join = parse_program(OPERATOR_JOIN_FAMILY)
        nested_join = parse_program(NESTED_JOIN_FAMILY)
        counts = {"reason": [], "oracle": [], "operator join": [], "nested join": []}
        for n in (400, 800):
            db = _join_family_database(n)
            built = 0
            pm = reason(program, db)
            counts["reason"].append(built)
            built = 0
            oracle = naive_fixpoint_bounded(program, db, 3 * n + 30)
            counts["oracle"].append(built)
            built = 0
            joined = naive_fixpoint_bounded(operator_join, db, 3 * n + 30)
            counts["operator join"].append(built)
            built = 0
            nested = naive_fixpoint_bounded(nested_join, db, 3 * n + 30)
            counts["nested join"].append(built)
            assert pm.unroll(3 * n + 30) == oracle == joined
            assert all(nested.get(atom) == ivs for atom, ivs in oracle.items())
            assert len(nested.get(Atom("D"))) == 2 * n + 20
            assert len(oracle.get(Atom("C"))) > n // 2
        for name, (small, large) in counts.items():
            assert large <= 2.2 * small, (name, counts)


class TestIntervalConstructions:
    def test_reason_on_a_chain_of_groups(self, monkeypatch):
        """Count guard: ``reason`` on the 21-group chain (``diamondminus[5,5]
        Pi -> Pi``, ``diamondminus[1,1] Pi -> Pi+1``, 100 point facts of P0
        on [0, 200)) builds at most 3000 intervals. Intersections and hulls
        that rebuilt an operand unchanged, and a compaction that copied
        each atom's pieces, built 4596; then 2708, and with the per-group
        constant cut it builds 2159."""
        k = 21
        program = parse_program(
            "".join(f"diamondminus[5,5] P{i} -> P{i} .\n" for i in range(k))
            + "".join(f"diamondminus[1,1] P{i} -> P{i + 1} .\n" for i in range(k - 1))
        )
        points = sorted(random.Random(0).sample(range(200), 100))
        db = model_of("".join(f"P0@[{j},{j}].\n" for j in points))
        init = Interval.__init__
        built = 0

        def counting(self, *args):
            nonlocal built
            built += 1
            init(self, *args)

        monkeypatch.setattr(Interval, "__init__", counting)
        pm = reason(program, db)
        monkeypatch.undo()
        assert (pm.period, pm.horizon, len(pm.patterns)) == (5, 45, 105)
        assert built <= 3000, built
        horizon = check_horizon(pm, db)
        assert pm.unroll(horizon) == naive_fixpoint_bounded(program, db, horizon)


    def test_reason_on_a_chain_of_one_atom_groups(self, monkeypatch):
        """Count guard on the cost every group pays: ``reason`` on 40
        one-atom groups whose rules read no group atom (``diamondminus[1,1]
        Pi -> Pi+1`` from ``P0@[0,0]``) builds at most 320 intervals. Two
        empty states compared per group, a compaction that shifted each
        piece it compared and ``freeze`` through offset tuples built 440
        (11 per group); it builds 280."""
        program = parse_program(
            "".join(f"diamondminus[1,1] P{i} -> P{i + 1} .\n" for i in range(40))
        )
        db = model_of("P0@[0,0].")
        init = Interval.__init__
        built = 0

        def counting(self, *args):
            nonlocal built
            built += 1
            init(self, *args)

        monkeypatch.setattr(Interval, "__init__", counting)
        pm = reason(program, db)
        monkeypatch.undo()
        assert (pm.period, pm.horizon, pm.patterns) == (1, 41, ())
        assert built <= 320, built
        assert pm.unroll(50) == naive_fixpoint_bounded(program, db, 50)


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
            "diamondminus[1,1] A -> A .",  # a linear rule
            "diamondminus[1,1] diamondminus[0,0] A -> A .",  # a nested rule
        ],
    )
    def test_step_cap_stops_a_runaway_derivation(self, text):
        with pytest.raises(StepCapExceeded):
            naive_fixpoint_bounded(parse_program(text), model_of("A@[0,0]."), step_cap=50)

    def test_rules_with_variables_are_rejected(self):
        with pytest.raises(InputError, match="requires a ground program"):
            naive_fixpoint_bounded(parse_program("A(X) -> B(X) ."), model_of("A(c)@[0,2]."), 10)

    def test_boxplus_body_against_the_grid(self):
        """A ``boxplus`` body literal, reflected through ``box_minus``,
        against the least model on the points k/2 of [0, 24]; the oracle's
        window ends there too, so neither reads a point past it."""
        program = parse_program("boxplus[1,2] A -> B .")
        for db_text in ("A@[2,6].", "A@[3,4].\nA@(4,9).\nA@[20,24].", "A@[5,5].\nA@[6,8]."):
            db = model_of(db_text)
            model = naive_fixpoint_bounded(program, db, 24)
            grid = {
                atom: {k for k in range(49) if ivs.contains(F(k, 2))}
                for atom, ivs in model.items()
            }
            assert {a: ks for a, ks in grid.items() if ks} == _grid_model(program, db), db_text

    @pytest.mark.parametrize(
        "generate", [_random_nested_program, _random_fp_program, _random_linear_diamond]
    )
    def test_original_programs_against_the_grid(self, generate):
        """The oracle on programs as written, without the normal form, so
        with nested literals and operator joins, against the least model
        on the points k/2 of [0, 24] (``grid._grid_model``), which shares
        no interval algebra with it; 400 programs, seed 7."""
        rng = random.Random(7)
        for _ in range(400):
            text, db_text = generate(rng)
            program, db = parse_program(text), model_of(db_text)
            model = naive_fixpoint_bounded(program, db, 24)
            grid = {
                atom: {k for k in range(49) if ivs.contains(F(k, 2))}
                for atom, ivs in model.items()
            }
            assert {a: ks for a, ks in grid.items() if ks} == _grid_model(program, db), (
                text, db_text,
            )

    def test_boxplus_head_against_its_normal_form(self):
        """A ``boxplus`` head forces its atom on the body's points shifted
        by the range, as the normal form's carrier and ``diamondminus``
        rule derive it."""
        program = parse_program("A -> boxplus[1,2] B .\nB, C -> D .")
        normal = to_normal_form(program)
        assert len(normal.rules) > len(program.rules)
        db = model_of("A@[0,1].\nA@(5,6).\nC@[2,4].\nC@[7,20].")
        whole = naive_fixpoint_bounded(program, db, 30)
        assert whole.get(Atom("B")) == IntervalSet.of(iv("[1,3]"), iv("(6,8)"))
        assert whole.get(Atom("D")) == IntervalSet.of(iv("[2,3]"), iv("[7,8)"))
        normalized = naive_fixpoint_bounded(normal, db, 30)
        assert all(normalized.get(atom) == ivs for atom, ivs in whole.items())

    def test_semi_naive_outside_the_forward_propagating_fragment(self, monkeypatch):
        """Count-only: each round joins the one new point of ``A`` with
        ``B``; re-evaluating ``diamondplus[1,1] A`` on the whole model
        every round made the work quadratic in the number of points."""
        calls = 0
        minkowski = Interval.minkowski

        def counting(self, other):
            nonlocal calls
            calls += 1
            return minkowski(self, other)

        monkeypatch.setattr(Interval, "minkowski", counting)
        program = parse_program("diamondplus[1,1] A, B -> A .")
        m = naive_fixpoint_bounded(program, model_of("A@[300,300].\nB@[0,300]."), 300)
        assert m.get(Atom("A")) == IntervalSet.from_iterable(
            Interval.point(t) for t in range(301)
        )
        assert calls < 3 * 301


def _random_unary(rng: random.Random, atoms: list[Atom], depth: int):
    """A chain of ``depth`` unary operators, each of the four drawn, over
    one of ``atoms``; ranges closed, open or ``[a,inf)``."""
    lit = rng.choice(atoms)
    for _ in range(depth):
        a = rng.randrange(5)
        kind = rng.randrange(3)
        if kind == 0:
            rho = Interval(a, a + rng.randrange(5))
        elif kind == 1:
            rho = Interval(a, a + 1 + rng.randrange(4), True, True)
        else:
            rho = Interval.ray_from(a)
        lit = rng.choice((BoxMinus, BoxPlus, DiamondMinus, DiamondPlus))(rho, lit)
    return lit


class TestRegionRead:
    """``reasoner._read`` on a region reads each operand only on the points
    the operator's truth there depends on (``_Unary.reads``), and gives
    exactly the whole truth set clipped to the region."""

    def test_region_read_is_the_whole_read_clipped(self, monkeypatch):
        monkeypatch.setattr(reasoner, "_BLOCK", 8)
        rng = random.Random("region-read")
        atoms = [Atom("A"), Atom("B")]
        end = 3 * 60
        checked = {"empty": 0, "nonempty": 0}
        for trial in range(300):
            model = Model.from_facts(
                Fact(atom, p) for atom in atoms if rng.random() < 0.85
                for p in _store_pieces(60, rng)
            )
            assert all(len(model._blocks[atom]) > 2 for atom in model.atoms())
            lit = _random_unary(rng, atoms, rng.randint(1, 3))
            drawn = []
            for _ in range(rng.randint(1, 4)):
                lo = rng.randrange(-10, end)
                kind = rng.random()
                if kind < 0.1:
                    drawn.append(Interval.up_to(lo, hi_open=rng.random() < 0.5))
                elif kind < 0.2:
                    drawn.append(Interval.ray_from(lo, lo_open=rng.random() < 0.5))
                else:
                    width = rng.choice((0, 1, 4, 20))
                    closed = width == 0
                    drawn.append(Interval(
                        lo, lo + width,
                        not closed and rng.random() < 0.5, not closed and rng.random() < 0.5,
                    ))
            region = IntervalSet.from_iterable(drawn)
            whole = reasoner._read(lit, model)
            read = reasoner._read(lit, model, region)
            assert read == whole.intersect(region), (str(lit), str(region))
            checked["empty" if read.is_empty else "nonempty"] += 1
        assert checked["empty"] > 10 and checked["nonempty"] > 100, checked

    def test_changed_read_holds_every_new_point(self, monkeypatch):
        """``reasoner._changed`` with one atom's merged pieces as the source
        lies inside the literal's truth after the change, and holds every
        point k/3 that the change made true."""
        monkeypatch.setattr(reasoner, "_BLOCK", 8)
        rng = random.Random("changed-read")
        atoms = [Atom("A"), Atom("B")]
        n = 30
        grid = [F(k, 3) for k in range(-3 * 30, 3 * (3 * n + 30))]
        grown = 0
        for trial in range(300):
            model = Model.from_facts(
                Fact(atom, p) for atom in atoms if rng.random() < 0.85
                for p in _store_pieces(n, rng)
            )
            lit = _random_unary(rng, atoms, rng.randint(1, 3))
            atom = lit
            while not isinstance(atom, Atom):
                atom = atom.inner
            before = reasoner._read(lit, model)
            merged = []
            for _ in range(rng.randint(1, 4)):
                lo = rng.randrange(-10, 3 * n)
                width = rng.choice((0, 1, 2, 5, 12))
                closed = width == 0
                piece = model.add(atom, Interval(
                    lo, lo + width,
                    not closed and rng.random() < 0.5, not closed and rng.random() < 0.5,
                ))
                if piece is not None:
                    merged.append(piece)
            if not merged:
                continue
            source = Model({atom: IntervalSet.from_iterable(merged)})
            changed = reasoner._changed(lit, source, model)
            after = reasoner._read(lit, model)
            assert changed.intersect(after) == changed, (str(lit), str(changed))
            new = [t for t in grid if after.contains(t) and not before.contains(t)]
            assert all(changed.contains(t) for t in new), (str(lit), str(changed))
            grown += bool(new)
        assert grown > 80, grown

    def test_affects_mirrors_reads(self):
        """A point ``p`` lies in ``affects(R)`` exactly when ``reads({p})``
        meets ``R``, on the points k/3 around ``R``."""
        rng = random.Random("affects")
        atom = Atom("A")
        for _ in range(200):
            op = _random_unary(rng, [atom], 1)
            pieces = []
            for _ in range(rng.randint(1, 3)):
                lo = rng.randrange(-6, 20)
                width = rng.choice((0, 1, 3))
                closed = width == 0
                pieces.append(Interval(
                    lo, lo + width,
                    not closed and rng.random() < 0.5, not closed and rng.random() < 0.5,
                ))
            region = IntervalSet.from_iterable(pieces)
            affected = op.affects(region)
            for k in range(-3 * 40, 3 * 40):
                point = IntervalSet.of(Interval.point(F(k, 3)))
                meets = not op.reads(point).intersect(region).is_empty
                assert affected.contains(F(k, 3)) == meets, (str(op), str(region), k)

    def test_reflect_negates_every_point(self):
        rng = random.Random("reflect")
        for _ in range(50):
            ivs = IntervalSet.from_iterable(_store_pieces(rng.randrange(8, 40), rng))
            reflected = ivs.reflect()
            assert reflected == IntervalSet.from_iterable(p.negate() for p in ivs)
            assert reflected.reflect() == ivs
        assert IntervalSet.empty().reflect() == IntervalSet.empty()


def _names(group) -> list[str]:
    return sorted(map(str, group.atoms))


class TestGroupAndSort:
    def test_single_group(self):
        p = parse_program(WORKED_EXAMPLE)
        groups = group_and_sort(p)
        assert len(groups) == 1
        assert groups[0].atoms == frozenset({Atom("A"), Atom("B")})
        assert len(groups[0].rules) == 2

    def test_chain_in_dependency_order(self):
        p = parse_program("A -> B .\nB -> C .")
        groups = group_and_sort(p)
        assert [_names(g) for g in groups] == [["B"], ["C"]]

    def test_mutually_reachable_triple(self):
        groups = group_and_sort(parse_program(NONLINEAR_DIAMOND))
        assert len(groups) == 1
        assert groups[0].atoms == frozenset({Atom("A"), Atom("B"), Atom("C")})

    def test_dependencies_before_dependents(self):
        p = parse_program(
            "diamondminus[1,1] S -> S .\nS -> T .\ndiamondminus[2,2] T -> T ."
        )
        groups = group_and_sort(p)
        order = [_names(g) for g in groups]
        assert order.index(["S"]) < order.index(["T"])

    def test_rules_in_program_order_and_the_cycle_step(self):
        p = parse_program(
            "B -> A .\n"
            "diamondminus[2,2] A -> B .\n"
            "C -> A .\n"
            "A -> D .\n"
            "boxminus[2,2] B -> A .\n"
        )
        groups = group_and_sort(p)
        assert [_names(g) for g in groups] == [["A", "B"], ["D"]]
        cycle, tail = groups
        assert [r.id for r in cycle.rules] == ["r1", "r2", "r3", "r5"]
        assert [r.id for r in tail.rules] == ["r4"]
        # A -> B -> A shifts by 2 + 0 and by 2 + 2; C and D lie on no cycle
        assert cycle.cycle_step == 2
        assert tail.cycle_step == 0

    @pytest.mark.parametrize("generator", ["forward", "nested", "ray", "linear"])
    def test_cycle_step_of_random_programs(self, monkeypatch, generator):
        """Each group's cycle step is the gcd of the positive finite shift
        sums of the simple cycles of its predicates' SCC in
        ``dependency_graph``, and ``reason`` builds no dependency graph."""
        from chronolog import analysis

        make = {
            "forward": _random_fp_program,
            "nested": _random_nested_program,
            "ray": _random_ray_program,
            "linear": _random_linear_diamond,
        }[generator]

        def refuse(*args, **kwargs):
            raise AssertionError("reason must not build the dependency graph")

        reference = analysis.dependency_graph
        monkeypatch.setattr(analysis, "dependency_graph", refuse)
        if hasattr(reasoner, "dependency_graph"):
            monkeypatch.setattr(reasoner, "dependency_graph", refuse)
        rng = random.Random(19)
        for _ in range(300):
            text, db_text = make(rng)
            program = to_normal_form(parse_program(text))
            graph = reference(program)
            cycles = simple_cycles(graph)
            for group in group_and_sort(program):
                (atom, *_) = group.atoms
                component = graph.components[graph.scc_of[atom.predicate]]
                sums = [s for c in cycles[component] if 0 < (s := c.shift_sum) < POS_INF]
                assert group.cycle_step == _gcd(sums), text
            reason(program, parse_database(db_text))

    @pytest.mark.parametrize(
        "text", ["A -> boxminus[1,2] B .", "A, diamondminus[1,2] B -> C ."]
    )
    def test_rejects_a_rule_not_in_normal_form(self, text):
        with pytest.raises(InputError, match="rule r1 is not in temporal normal form"):
            group_and_sort(parse_program(text))

    def test_ground_cycles_of_one_predicate_are_separate_groups(self):
        """Groups are SCCs of ground atoms; the groups of one predicate SCC
        share its cycle step, worked out over the rules of every group."""
        p = parse_program(
            "diamondminus[4,4] P(a) -> P(a) .\n"
            "diamondminus[6,6] P(b) -> P(b) .\n"
            "P(a), P(b) -> Q(a) ."
        )
        groups = group_and_sort(p)
        assert [_names(g) for g in groups] == [["P(a)"], ["P(b)"], ["Q(a)"]]
        assert [g.cycle_step for g in groups] == [2, 2, 0]


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
        # the diamond_join fixture needs two chunks (the worked example
        # repeats at its first comparison, within one)
        with pytest.raises(WindowCapExceeded):
            reason(
                parse_program(NONLINEAR_DIAMOND), model_of("A@[0,3].\nB@[2,4]."), window_cap=1
            )

    def test_database_ray_passes_through(self):
        pm = reason(parse_program("diamondminus[1,2] A -> B ."), model_of("A@[5,inf)."))
        assert pm.facts.get(Atom("B")) == IntervalSet.of(iv("[6,inf)"))

    def test_monotone_growth_across_iterations(self):
        snapshots = []
        reason(
            parse_program(NONLINEAR_DIAMOND),
            model_of("A@[0,3].\nB@[2,4]."),
            on_iteration=lambda group, n, facts: snapshots.append(facts),
        )
        assert len(snapshots) >= 2
        for before, after in zip(snapshots, snapshots[1:]):
            for atom in before.atoms():
                assert all(after.get(atom).covers_interval(p) for p in before.get(atom))

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
        """A group's cycle step enumerates no cycle, yet is the gcd of the
        positive finite shift sums of the simple cycles of its predicates'
        SCC (0 when there is none), with fractional ranges and with ``inf``
        edges that split an SCC into several parts."""
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
            graph = dependency_graph(program)
            cycles = simple_cycles(graph)
            for group in group_and_sort(program):
                (atom, *_) = group.atoms
                component = graph.components[graph.scc_of[atom.predicate]]
                sums = [
                    s for c in cycles[component] if 0 < (s := c.shift_sum) < POS_INF
                ]
                assert group.cycle_step == _gcd(sums), lines
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


class TestAgainstTheGrid:
    """``reason`` and the oracle held against ``grid._grid_model``, which
    shares none of their interval algebra and reads the program before
    its normal form."""

    @pytest.mark.parametrize(
        "generate",
        [_random_fp_program, _random_linear_diamond, _random_nested_program,
         _random_nonground_program],
    )
    def test_normal_form_against_the_written_program(self, generate):
        """``reason`` on the normal form, unrolled to 24, and the oracle on
        the normal form through 24 hold each atom of the program as
        written (grounded, not normalized) on the points k/2 of [0, 24]
        where its least model does (``_aux`` atoms aside); 400 programs,
        seed 7. The grid is exact there: a past operator reads no point
        after the one it decides."""
        rng = random.Random(7)
        for _ in range(400):
            text, db_text = generate(rng)
            written, db = parse_program(text), model_of(db_text)
            program = ground(to_normal_form(written), db)
            expected = _grid_model(ground(written, db), db)
            for side, model in (
                ("reason", reason(program, db).unroll(24)),
                ("oracle", naive_fixpoint_bounded(program, db, 24)),
            ):
                grid = {
                    atom: {k for k in range(49) if ivs.contains(F(k, 2))}
                    for atom, ivs in model.items()
                    if not atom.predicate.startswith(AUX_PREFIX)
                }
                assert {a: ks for a, ks in grid.items() if ks} == expected, (
                    side, text, db_text,
                )


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

    def test_a_point_query_works_out_no_settle_point(self, monkeypatch):
        """A query no longer than ``q`` past ``max(lo, 0)`` is never cut at
        ``w + q``, so ``entails`` does not work out ``w`` (``_settled``)."""
        pm = reason(
            parse_program((FIXTURES / "weekly.dmtl").read_text()),
            parse_database((FIXTURES / "weekly.db").read_text()),
        )
        calls = []
        settled = reasoner._settled
        monkeypatch.setattr(
            reasoner, "_settled", lambda *args: calls.append(args) or settled(*args)
        )
        assert pm.entails(parse_fact("Monday@[700,700]"))
        assert not pm.entails(parse_fact("Monday@[702,702]"))
        assert pm.entails(parse_fact("Monday@[1000000000000000000,1000000000000000000]"))
        assert pm.entails(parse_fact("Monday@[0,1]")) and not pm.entails(parse_fact("Monday@[0,7]"))
        assert calls == []
        assert not pm.entails(parse_fact("Monday@[0,inf)"))
        assert len(calls) == 1


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
    @pytest.mark.parametrize("generator", ["forward", "nested", "ray"])
    def test_entails_equals_unrolled_model(self, generator):
        import random

        make = {
            "forward": _random_fp_program,
            "nested": _random_nested_program,
            "ray": _random_ray_program,
        }[generator]
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
                # the same upper end, from -inf and from an open lower end
                lowers = [Interval(NEG_INF, hi)] + ([Interval(lo, hi, True)] if lo < hi else [])
                for query in lowers:
                    fact = Fact(atom, query)
                    assert pm.entails(fact) == _brute_entails(pm, fact), (
                        text, db_text, str(fact)
                    )

    def test_long_bounded_queries(self):
        """Bounded queries 0 to 50 periods long, over the fixtures and
        programs with fractional periods: the verdict is the one read off
        the whole query."""
        from test_cli import FIXTURE_PAIRS

        rng = random.Random(41)
        inputs = [
            ((FIXTURES / program).read_text(), (FIXTURES / database).read_text())
            for program, database in FIXTURE_PAIRS
        ]
        inputs += [_random_ray_program(rng) for _ in range(60)]
        long_queries = 0
        for text, db_text in inputs:
            database = parse_database(db_text)
            pm = reason(ground(to_normal_form(parse_program(text)), database), database)
            q = pm.period
            for _ in range(12):
                atom = rng.choice(pm.atoms() or [Atom("A")])
                lo = to_time(F(rng.randint(-8, 8 * (int(pm.horizon) + 4 * int(q) + 4)), 4))
                hi = lo + to_time(q * F(rng.randint(0, 200), 4))
                lo_open, hi_open = (False, False) if lo == hi else (
                    rng.random() < 0.3, rng.random() < 0.3
                )
                query = Interval(lo, hi, lo_open, hi_open)
                reference = pm.coverage(atom, query).covers_interval(query)
                assert pm.entails(Fact(atom, query)) == reference, (text, db_text, str(query))
                long_queries += hi - lo > 10 * q
        assert long_queries >= 300

    def test_long_bounded_query_reads_one_period(self, monkeypatch):
        """Count guard: a query 10^12 long builds the occurrences of about
        one period, not of every period it spans."""
        built = 0
        occurrences = reasoner.occurrences

        def counting(pattern, window):
            nonlocal built
            for hit in occurrences(pattern, window):
                built += 1
                yield hit

        monkeypatch.setattr(reasoner, "occurrences", counting)
        pm = reason(
            parse_program((FIXTURES / "alternating.dmtl").read_text()),
            parse_database((FIXTURES / "alternating.db").read_text()),
        )
        assert not pm.entails(parse_fact("A@[3,1000000000000]"))
        assert 0 < built <= 4 * len(pm.patterns)

    def test_unbounded_query_reads_only_its_atom(self, monkeypatch):
        """Count guard: an unbounded query reads the queried atom's facts
        and patterns, not every endpoint of the model."""
        program = parse_program(WORKED_EXAMPLE)
        pm = reason(program, model_of("A@[0,1].\nZ@[10000,10000]."))

        def refuse(self):
            raise AssertionError("entails must not scan the whole model")

        monkeypatch.setattr(Model, "finite_endpoints", refuse)
        assert not pm.entails(parse_fact("A@[0,inf)"))
        assert pm.entails(parse_fact("Z@[10000,10000]"))
        assert not pm.entails(parse_fact("Z@[10000,inf)"))


class TestBackwardSlice:
    """``backward_slice`` keeps every rule and fact the queried atom
    depends on, so reasoning over the slice entails what reasoning over
    the whole input does."""

    @pytest.mark.parametrize("generator", ["forward", "nested", "ray"])
    def test_sliced_verdict_equals_whole(self, generator):
        import random

        make = {
            "forward": _random_fp_program,
            "nested": _random_nested_program,
            "ray": _random_ray_program,
        }[generator]
        rng = random.Random(7)
        queries = entailed = slices = smaller = 0
        for _ in range(100):
            text, db_text = make(rng)
            program = to_normal_form(parse_program(text))
            db = parse_database(db_text)
            whole = reason(program, db)
            for pred in program.predicates():
                atom = Atom(pred)
                part, part_db = backward_slice(program, db, atom)
                rules = iter(program.rules)  # a subsequence, in program order
                assert all(rule in rules for rule in part.rules), (text, pred)
                slices += 1
                smaller += len(part.rules) < len(program.rules)
                sliced = reason(part, part_db)
                for _ in range(16):
                    lo = to_time(F(rng.randint(-4, 240), rng.choice((1, 2))))
                    hi = rng.choice((lo, lo + rng.randint(1, 9), POS_INF))
                    windows = [Interval(lo, hi), Interval(NEG_INF, hi)]
                    windows += [Interval(lo, hi, True)] if lo < hi else []
                    for window in windows:
                        fact = Fact(atom, window)
                        verdict = sliced.entails(fact)
                        assert verdict == whole.entails(fact), (text, db_text, str(fact))
                        queries += 1
                        entailed += verdict
        assert queries >= 7000 and entailed >= queries // 20
        assert smaller >= slices // 5


class TestPeriodFromRepeatedState:
    """``reason`` against the oracle on both random program generators, with
    the paper's pattern length as a bound that every period divides, and
    a horizon from which one period earlier the model does not repeat."""

    @pytest.mark.parametrize("generator", ["forward", "nested"])
    def test_random_programs(self, generator, monkeypatch):
        import math
        import random

        from chronolog import analysis

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
            if h - q < min(db.finite_endpoints(), default=0) // q * q:
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


# one group: Tick -> Armed -> Fire -> Tick, with a ray rule inside
RAY_GATE = (
    "diamondminus[3,3] Tick -> Tick .\ndiamondminus[10,inf) Tick -> Armed .\n"
    "Armed, Tick -> Fire .\ndiamondminus[2,2] Fire -> Tick ."
)


class TestRaysStoredWhole:
    """``_derive_group`` stores a derived ray whole, so a group reads its
    bodies back only as far as its lookback, and ``reason``'s state reads
    the rays off the facts."""

    def test_random_ray_programs_match_oracle(self):
        import random

        rng = random.Random(15)
        ray_rules = database_rays = 0
        for _ in range(300):
            text, db_text = _random_ray_program(rng)
            program = to_normal_form(parse_program(text))
            db = parse_database(db_text)
            ray_rules += ",inf)" in text
            database_rays += ",inf)" in db_text
            pm = reason(program, db)
            horizon = check_horizon(pm, db)
            assert pm.unroll(horizon) == naive_fixpoint_bounded(program, db, horizon), (
                text,
                db_text,
            )
        assert ray_rules >= 100 and database_rays >= 100

    def test_lookback_stays_finite(self, monkeypatch):
        """Count guard: with a ``diamondminus[10,inf)`` rule in the group,
        no window ``_derive_group`` reads starts at -inf."""
        from chronolog import reasoner

        coverage = reasoner._coverage
        windows = []

        def recording(facts, by_atom, atom, window):
            windows.append(window)
            return coverage(facts, by_atom, atom, window)

        monkeypatch.setattr(reasoner, "_coverage", recording)
        pm = reason(parse_program(RAY_GATE), model_of("Tick@[0,0]."))
        assert pm.facts.get(Atom("Armed")) == IntervalSet.of(iv("[10,inf)"))
        assert windows and all(w.lo != NEG_INF for w in windows)

    def test_derived_ray_is_stored_whole(self):
        snapshots = []
        reason(
            parse_program(RAY_GATE),
            model_of("Tick@[0,0]."),
            on_iteration=lambda group, n, facts: snapshots.append(facts),
        )
        assert snapshots[0].get(Atom("Armed")) == IntervalSet.of(iv("[10,inf)"))


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

    def test_unread_database_atom_does_not_delay_the_group(self, monkeypatch):
        """Count guard: the group of ``Q(a)`` reads ``P(a)`` but not
        ``P(b)``, so ``P(b)``'s late fact does not move its windows out."""
        from chronolog import reasoner

        derive = reasoner._derive_group
        windows = []

        def recording(group, facts, patterns, window):
            windows.append(window)
            derive(group, facts, patterns, window)

        monkeypatch.setattr(reasoner, "_derive_group", recording)
        program = parse_program("P(a) -> Q(a) .\ndiamondminus[2,2] Q(a) -> Q(a) .")
        pm = reason(program, model_of("P(a)@[0,0].\nP(b)@[1000,1000]."))
        assert (pm.period, pm.horizon) == (2, 0)
        assert windows and all(w.hi <= 50 for w in windows)

    def test_chain_cost_does_not_grow_with_the_first_group(self, monkeypatch):
        """Count-only: the window widths the groups after ``P0`` derive do
        not depend on how far out ``P0``'s last database point lies."""
        from chronolog import reasoner

        derive = reasoner._derive_group
        widths: dict[str, F] = {}

        def counting(group, facts, patterns, window):
            name = ",".join(_names(group))
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


def _compaction_pieces() -> list:
    """Every piece with ends in 0..3 and each open/closed combination,
    and ``None`` for a set with no piece left."""
    pieces = [None]
    for lo in range(4):
        for hi in range(lo, 4):
            for lo_open in (False, True):
                for hi_open in (False, True):
                    if lo < hi or not (lo_open or hi_open):
                        pieces.append(Interval(lo, hi, lo_open, hi_open))
    return pieces


class TestCompaction:
    """A group's horizon is read off its pieces: the last point where an
    atom differs from itself one period later (``_last_difference``)."""

    def test_last_difference_against_points(self):
        """Two sets that differ in their top pieces ``a`` and ``b`` and
        agree above them, on a half-integer grid: no point above the
        helper's answer differs, the answer itself differs exactly when
        the helper says so, and when it does not, the points just below
        it differ."""
        grid = [F(k, 2) for k in range(-2, 13)]
        pieces = _compaction_pieces()
        checked = 0
        for above in (None, iv("[4,5]"), iv("(3,5]")):
            for a in pieces:
                for b in pieces:
                    if a == b:
                        continue
                    sides = [[p for p in (x, above) if p is not None] for x in (a, b)]
                    left, right = map(IntervalSet.from_iterable, sides)
                    if (len(left), len(right)) != tuple(map(len, sides)):
                        continue  # a piece touches the common one above it
                    point, differs = reasoner._last_difference(a, b)

                    def differ(t):
                        return left.contains(t) != right.contains(t)

                    assert not any(differ(t) for t in grid if t > point), (a, b, above)
                    assert differ(point) == differs, (a, b, above)
                    assert differs or differ(point - F(1, 2)), (a, b, above)
                    checked += 1
        assert checked > 2000

    @pytest.mark.parametrize(
        "make",
        [
            _random_fp_program,
            _random_linear_diamond,
            _random_nested_program,
            _random_ray_program,
            _random_acyclic_program,
            _random_nonground_program,
        ],
    )
    def test_horizon_is_the_least_multiple_that_repeats(self, monkeypatch, make):
        """Each group's horizon, as ``freeze`` receives it, against a walk
        down one period at a time from the end of what the group derived,
        comparing the slabs ``[m, m + q)`` and ``[m + q, m + 2q)``."""
        derive, frozen = reasoner._derive_group, reasoner.freeze
        ends, found = [], {"above": 0, "floor": 0}

        def recording(group, facts, patterns, window):
            ends.append(window.hi)
            derive(group, facts, patterns, window)

        def checking(facts, atoms, start, period):
            lowest = first // period * period
            m = ends[-1] // period * period - 2 * period
            while m >= lowest and reasoner._slab(facts, atoms, m, m + period) == reasoner._slab(
                facts, atoms, m + period, m + 2 * period
            ):
                m -= period
            assert start == max(m + period, lowest), (text, db_text, list(map(str, atoms)))
            found["floor" if start == lowest else "above"] += 1
            return frozen(facts, atoms, start, period)

        monkeypatch.setattr(reasoner, "_derive_group", recording)
        monkeypatch.setattr(reasoner, "freeze", checking)
        rng = random.Random(26)
        for _ in range(60):
            text, db_text = make(rng)
            db = parse_database(db_text)
            first = min(db.finite_endpoints(), default=0)
            reason(ground(to_normal_form(parse_program(text)), db), db)
        # horizons both at the floor and above it
        assert found["above"] > 10 and found["floor"] > 10

    def test_derives_on_to_the_frozen_period(self, monkeypatch):
        """The chunks of P0 and P1 end at 140, the period is 84 and the
        horizon 84, so ``freeze`` needs the model up to 168: ``reason``
        derives one more chunk before it, and the answer is the oracle's."""
        derive, frozen = reasoner._derive_group, reasoner.freeze
        ends, froze = [], []

        def recording(group, facts, patterns, window):
            ends.append(window.hi)
            derive(group, facts, patterns, window)

        def checking(facts, atoms, start, period):
            froze.append((list(map(str, atoms)), start, period, ends[-2:]))
            return frozen(facts, atoms, start, period)

        monkeypatch.setattr(reasoner, "_derive_group", recording)
        monkeypatch.setattr(reasoner, "freeze", checking)
        program = parse_program(
            "P3, P0 -> P1 .\nboxminus[3,10] P1 -> P0 .\nP3 -> P3 .\n"
            "diamondminus[12,12] P0 -> P0 .\ndiamondminus[7,9] P3 -> P3 ."
        )
        db = model_of("P0@[7,10].\nP2@[9,11].\nP2@[11,11].\nP1@[10,11].")
        pm = reason(ground(to_normal_form(program), db), db)
        assert froze[-1] == (["P0", "P1"], 84, 84, [140, 168])
        horizon = check_horizon(pm, db)
        assert pm.unroll(horizon) == naive_fixpoint_bounded(program, db, horizon)

    def test_cost_does_not_grow_with_a_late_fact(self, monkeypatch):
        """Count guard: B repeats with period 1 from 0 on, whatever the
        point fact of D, so ``reason`` makes as many ``_slab`` and
        ``Model.clip`` calls at N = 10^3 as at N = 10^6; a search that
        walks back from the repeat toward 0 makes more as N grows."""
        slab, clip = reasoner._slab, Model.clip
        calls = {"slab": 0, "clip": 0}

        def counting_slab(*args):
            calls["slab"] += 1
            return slab(*args)

        def counting_clip(self, *args):
            calls["clip"] += 1
            return clip(self, *args)

        monkeypatch.setattr(reasoner, "_slab", counting_slab)
        monkeypatch.setattr(Model, "clip", counting_clip)
        program = parse_program("A -> B .\nD -> B .")
        seen = []
        for n in (10**3, 10**6):
            calls.update(slab=0, clip=0)
            pm = reason(program, model_of(f"A@[0,inf).\nD@[{n},{n}]."))
            assert (pm.horizon, pm.period) == (0, 1)
            seen.append(dict(calls))
        assert seen[0] == seen[1]

    def test_clips_read_only_the_seed(self, monkeypatch):
        """Count guard: on ``A -> B`` over N point facts of A, the pieces
        ``Model.clip`` returns per ``reason`` are N, A's seed, plus a
        constant, at N = 10^3 and 10^5. The compaction walks B's blocks
        from the top and leaves them alone when none reaches the horizon;
        copying B's pieces on both compaction windows and at the cut made
        it 4N - 1."""
        clip = Model.clip
        built = 0

        def counting_clip(self, atom, window):
            nonlocal built
            ivs = clip(self, atom, window)
            built += len(ivs)
            return ivs

        monkeypatch.setattr(Model, "clip", counting_clip)
        program = parse_program("A -> B .")
        for n in (10**3, 10**5):
            db = Model()
            for k in range(n):
                db.add(Atom("A"), Interval(2 * k, 2 * k))
            built = 0
            pm = reason(program, db)
            assert len(pm.facts.get(Atom("B"))) == n and not pm.patterns
            assert built <= n + 10, (n, built)


DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
WEEKLY_CALENDAR = (
    "diamondminus[7,7] Mon -> Mon .\n"
    + "".join(f"diamondminus[1,1] {a} -> {b} .\n" for a, b in zip(DAYS, DAYS[1:]))
    + "".join(f"{d} -> Workday .\n" for d in DAYS[:5])
    + "".join(f"{d} -> Weekend .\n" for d in DAYS[5:])
)


class TestFirstChunk:
    """Count-only: the first chunk runs through the first position whose
    state can repeat, so a group that repeats at its first comparison
    derives one chunk."""

    @staticmethod
    def chunks(program, database) -> dict[str, int]:
        counts: dict[str, int] = {}

        def count(group, n, facts):
            counts[group] = counts.get(group, 0) + 1

        reason(program, database, on_iteration=count)
        assert len(counts) == len(group_and_sort(program))
        return counts

    def test_weekly_fixture(self):
        program = parse_program((FIXTURES / "weekly.dmtl").read_text())
        database = model_of((FIXTURES / "weekly.db").read_text())
        assert set(self.chunks(program, database).values()) == {1}

    def test_chain_of_21_groups(self):
        k = 21
        rules = [f"diamondminus[5,5] P{i} -> P{i} ." for i in range(k)]
        rules += [f"diamondminus[1,1] P{i} -> P{i + 1} ." for i in range(k - 1)]
        points = [0, 3, 4, 7, 50, 121, 199]
        counts = self.chunks(
            parse_program("\n".join(rules)),
            model_of("".join(f"P0@[{t},{t}].\n" for t in points)),
        )
        assert len(counts) == k and set(counts.values()) == {1}

    @pytest.mark.parametrize("queried", ["Workday", "Weekend"])
    def test_calendar_slice(self, queried):
        program, database = backward_slice(
            parse_program(WEEKLY_CALENDAR), model_of("Mon@[0,1)."), Atom(queried)
        )
        assert set(self.chunks(program, database).values()) == {1}

    def test_state_spans_only_the_rules_that_read_the_group(self):
        """N2 reads itself only through a Horn rule, so its state is its ray
        flag alone: the lookback of 6 from its input N0 does not widen the
        slab, and the state repeats at the first comparison."""
        program = parse_program("N0, N2 -> N2 .\ndiamondminus[1,6] N0 -> N2 .")
        database = model_of("N0@[7,10].")
        (group,) = group_and_sort(program)
        assert (group.lookback, group.span) == (6, 0)
        assert self.chunks(program, database) == {"N2": 1}
        pm = reason(program, database)
        horizon = check_horizon(pm, database)
        assert pm.unroll(horizon) == naive_fixpoint_bounded(program, database, horizon)


class TestGroupsWithoutACycle:
    """A group of one atom that none of its rules reads skips the state
    search: its period is the lcm of its inputs' periods and it derives
    one chunk."""

    @staticmethod
    def periods(monkeypatch) -> dict[str, object]:
        """Each group's period, read off its call of ``freeze``."""
        frozen = reasoner.freeze
        found: dict[str, object] = {}

        def recording(facts, atoms, start, period):
            found[",".join(map(str, atoms))] = period
            return frozen(facts, atoms, start, period)

        monkeypatch.setattr(reasoner, "freeze", recording)
        return found

    @pytest.mark.parametrize(
        "rules, facts, period",
        [
            # the input's first point lies late in its period
            ("diamondminus[5,5] C -> C .\ndiamondminus[2,inf) C -> A .", "C@[4,4].", 5),
            ("diamondminus[5,5] C -> C .\nboxminus[1,inf) C -> A .", "C@[0,2].", 5),
            ("diamondminus[3,3] C -> C .\nboxminus[1,2] C -> A .", "C@[0,1].\nC@[2,2].", 3),
            ("diamondminus[5,5] C -> C .\nboxminus[2,9] C -> A .", "C@[0,4].", 5),
            # C fills up into a ray, and A's facts repeat only from where
            # its lookback lies past C's ray start
            ("diamondminus[11,12] C -> C .\nboxminus[5,12] C -> A .", "C@[2,6].", 11),
            ("diamondminus[4,4] C -> C .\ndiamondminus[1,6] C -> A .", "C@[3,3].", 4),
            (
                "diamondminus[2,2] C -> C .\ndiamondminus[3,3] D -> D .\nC, D -> A .",
                "C@[0,0].\nD@[0,1].",
                6,
            ),
            # a database fact and a database ray on the acyclic atom
            ("diamondminus[3,3] C -> C .\nC -> A .", "C@[1,1].\nA@[20,21].", 3),
            ("diamondminus[3/2,3/2] C -> C .\nC -> A .", "C@[1,1].\nA@[7,inf).", F(3, 2)),
        ],
    )
    def test_period_is_the_lcm_of_the_inputs(self, monkeypatch, rules, facts, period):
        program, database = parse_program(rules), model_of(facts)
        periods = self.periods(monkeypatch)
        chunks: dict[str, int] = {}

        def count(group, n, facts):
            chunks[group] = n

        pm = reason(program, database, on_iteration=count)
        assert periods["A"] == period and chunks["A"] == 1
        horizon = check_horizon(pm, database)
        assert pm.unroll(horizon) == naive_fixpoint_bounded(program, database, horizon)

    @pytest.mark.parametrize("queried", ["Workday", "Weekend"])
    def test_weekly_slices(self, monkeypatch, queried):
        """Count guard: only the state search reads the ray flags, and only
        the Monday cycle searches; every other group derives one chunk."""
        covers = Model.covers
        calls = 0

        def counting(self, atom, interval):
            nonlocal calls
            calls += 1
            return covers(self, atom, interval)

        monkeypatch.setattr(Model, "covers", counting)
        program, database = backward_slice(
            parse_program(WEEKLY_CALENDAR), model_of("Mon@[0,1)."), Atom(queried)
        )
        chunks = TestFirstChunk.chunks(program, database)
        assert calls == 2
        assert len(chunks) == (6 if queried == "Workday" else 8)
        assert set(chunks.values()) == {1}

    def test_random_programs_match_the_oracle(self):
        rng = random.Random(23)
        for _ in range(150):
            text, db_text = _random_acyclic_program(rng)
            program, database = parse_program(text), parse_database(db_text)
            pm = reason(program, database)
            horizon = check_horizon(pm, database)
            assert pm.unroll(horizon) == naive_fixpoint_bounded(program, database, horizon), (
                text,
                db_text,
            )


def _primes_program(n: int, residues: bool = False):
    """``diamondminus[p,p] P(c_p) -> P(c_p)`` for the first ``n`` primes,
    with ``P(c_p)`` at 0 or, with ``residues``, at every ``k < p``."""
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23][:n]
    program = parse_program(
        "\n".join(f"diamondminus[{p},{p}] P(c{p}) -> P(c{p}) ." for p in primes)
    )
    db = model_of("".join(
        f"P(c{p})@[{k},{k}].\n" for p in primes for k in (range(p) if residues else [0])
    ))
    return primes, program, db


class TestAtomGroups:
    """Each SCC of ground atoms is its own group, with its own state and
    period; the rhythm term ``c`` still comes from the predicate SCC."""

    @pytest.mark.parametrize("n", [6, 9])
    def test_each_prime_cycle_gets_its_own_period(self, n):
        primes, program, db = _primes_program(n)
        chunks = []
        pm = reason(program, db, on_iteration=lambda group, k, facts: chunks.append(group))
        assert len(group_and_sort(program)) == n
        assert sorted(set(chunks)) == sorted(f"P(c{p})" for p in primes)
        assert len(chunks) <= 3 * n  # count guard: a few chunks per group
        assert sorted((str(p.atom), p.offset, p.period) for p in pm.patterns) == sorted(
            (f"P(c{p})", iv("[0,0]"), p) for p in primes
        )
        assert pm.facts.is_empty and pm.horizon == 0
        assert pm.period == math.prod(primes)

    def test_filled_residues_keep_period_one(self):
        """Facts at every residue mod p fill each cycle's rhythm: the
        predicate SCC's ``c`` is gcd(2, 3, 5, 7, 11) = 1, so each atom
        repeats every 1, and ``check_horizon`` stays small."""
        primes, program, db = _primes_program(5, residues=True)
        pm = reason(program, db)
        assert pm.period == 1 and {p.period for p in pm.patterns} == {1}
        assert check_horizon(pm, db) == 13
        assert pm.unroll(13) == naive_fixpoint_bounded(program, db, 13)

    def test_database_only_atom_of_a_derived_predicate_stays_a_fact(self):
        """``P(b)`` has no rule, so it is in no group: its fact is not
        frozen with ``P(a)``'s group and does not delay it."""
        program = parse_program("diamondminus[2,2] P(a) -> P(a) .")
        db = model_of("P(a)@[0,0].\nP(b)@[5,5].")
        assert [_names(g) for g in group_and_sort(program)] == [["P(a)"]]
        pm = reason(program, db)
        assert str(pm.facts) == "P(b)@{[5,5]}"
        assert [str(p) for p in pm.patterns] == ["P(a)@[0,0]+2x for x>=0"]
        assert (pm.period, pm.horizon) == (2, 0)

    def test_window_cap_names_the_group_atoms(self):
        _, program, db = _primes_program(2)
        with pytest.raises(WindowCapExceeded, match=r"\(group \['P\(c2\)'\]\)"):
            reason(program, db, window_cap=1)

    def test_unrolled_reason_equals_oracle_on_nonground_programs(self):
        import random

        rng = random.Random(31)
        split = infinite = 0
        for _ in range(300):
            text, db_text = _random_nonground_program(rng)
            db = parse_database(db_text)
            program = ground(parse_program(text), db)
            pm = reason(program, db)
            horizon = check_horizon(pm, db)
            assert pm.unroll(horizon) == naive_fixpoint_bounded(program, db, horizon), (
                text,
                db_text,
            )
            groups = group_and_sort(program)
            split += len(groups) > len({a.predicate for g in groups for a in g.atoms})
            infinite += pm.representation_type() != "finite"
        # a predicate's atoms fall into several groups on about one program in five
        assert split > 40 and infinite > 20


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

    def test_rich_nested_programs_three_ways(self):
        """On 300 rich nested programs (depth up to 3, open ends and
        ``[a,inf)`` ranges; seed 7), ``reason`` unrolled, the oracle on the
        normal form and the oracle on the program as written agree through
        ``check_horizon`` on the original predicates."""
        rng = random.Random(7)

        def original_predicates(model):
            return Model(
                {a: ivs for a, ivs in model.items() if not a.predicate.startswith(AUX_PREFIX)}
            )

        for _ in range(300):
            text, db_text = _random_nested_program(rng, rich=True)
            original = parse_program(text)
            db = parse_database(db_text)
            normal = to_normal_form(original)
            pm = reason(normal, db)
            horizon = check_horizon(pm, db)
            unrolled = original_predicates(pm.unroll(horizon))
            assert unrolled == original_predicates(naive_fixpoint_bounded(normal, db, horizon)), (
                text, db_text,
            )
            assert unrolled == naive_fixpoint_bounded(original, db, horizon), (text, db_text)


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
