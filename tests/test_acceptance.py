"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdicts.
"""

import random
import time
from fractions import Fraction as F

import pytest

from chronolog.analysis import (
    RuleClass,
    classify_rules,
    max_applications,
    pattern_length,
)
from chronolog.intervals import (
    NEG_INF,
    POS_INF,
    Interval,
    IntervalSet,
    parse_interval,
    to_time,
)
from chronolog.reasoner import (
    Model,
    Pattern,
    PeriodicModel,
    check_horizon,
    max_time_point,
    naive_fixpoint_bounded,
    reason,
)
from chronolog.syntax import Atom, parse_database, parse_program, to_normal_form

from generators import _random_fp_program, _random_linear_diamond
from test_intervals import box_holds_at, diamond_holds_at, probe_grid


def report(number: int, message: str) -> None:
    print(f"PASS criterion {number}: {message}")


def oracle_span(program, db, pm, plength_cap=None):
    """How far a test compares ``reason`` with the oracle: the ``check``
    horizon, and no less than three pattern lengths past the database,
    unless the pattern length exceeds ``plength_cap``."""
    horizon = check_horizon(pm, db)
    plength = pattern_length(program)
    if plength_cap is None or plength <= plength_cap:
        horizon = max(horizon, max_time_point(db) + 3 * plength)
    return horizon


def closed_form_model(entries, limit: F) -> Model:
    """Union of arithmetic families atom@[a + s*n, b + s*n], clipped."""
    window = Interval.closed(0, limit)
    model = Model()
    for pred, a, b, step in entries:
        n = 0
        while a + step * n <= limit:
            piece = Interval.closed(a + step * n, b + step * n).intersect(window)
            if piece is not None:
                model.add(Atom(pred), piece)
            n += 1
    return model


def unrolled(program_text: str, db_text: str, limit: F) -> Model:
    program = parse_program(program_text)
    db = parse_database(db_text)
    pm = reason(program, db)
    window = Interval.closed(0, limit)
    return pm.unroll(limit).restrict(window)


# ---------------------------------------------------------------------------
# 1. worked example: exact periodic representation, under a second
# ---------------------------------------------------------------------------

# The worked example's model as ``reason`` gave it before the periodic
# start was pulled back: a first period as facts, patterns from x = 1.
UNCOMPACTED_WORKED_EXAMPLE = PeriodicModel(
    parse_database("A@[0,1].\nB@[3,5]."),
    (
        Pattern(Atom("A"), parse_interval("[0,1]"), 1, F(7)),
        Pattern(Atom("B"), parse_interval("[3,5]"), 1, F(7)),
    ),
    F(7),
    F(7),
)


def test_criterion_1_worked_example():
    program = parse_program("diamondminus[3,4] A -> B .\nboxminus[3,4] B -> A .")
    db = parse_database("A@[0,1].")
    started = time.monotonic()
    pm = reason(program, db)
    elapsed = time.monotonic() - started

    assert pm.period == 7
    assert pm.horizon == 0
    assert str(pm.facts) == "(empty)"
    assert pm.patterns == (
        Pattern(Atom("A"), parse_interval("[0,1]"), 0, F(7)),
        Pattern(Atom("B"), parse_interval("[3,5]"), 0, F(7)),
    )
    assert pm.unroll(70) == UNCOMPACTED_WORKED_EXAMPLE.unroll(70)
    assert elapsed < 1.0
    report(1, f"period 7, x>=0 patterns exact ({elapsed*1000:.0f} ms)")


# ---------------------------------------------------------------------------
# 2. box self-loop: finite vs eventually-constant branch
# ---------------------------------------------------------------------------

def test_criterion_2_box_self_loop_branches():
    program = parse_program("boxminus[3,7] A -> A .")

    finite = reason(program, parse_database("A@[0,1]."))
    assert str(finite.facts) == "A@{[0,1]}"
    assert finite.patterns == ()
    assert finite.representation_type() == "finite"

    constant = reason(program, parse_database("A@[0,7]."))
    assert str(constant.facts) == "A@{[0,inf)}"
    assert constant.patterns == ()
    assert constant.representation_type() == "constant"
    report(2, "short seed stays finite; week-long seed becomes the exact ray [0,inf)")


# ---------------------------------------------------------------------------
# 3. counterexample regressions: closed forms over [0,60]
# ---------------------------------------------------------------------------

def test_criterion_3_nonlinear_diamond_cycle():
    got = unrolled(
        "A, B -> C .\ndiamondminus[3,5] C -> A .\ndiamondminus[5,6] C -> B .",
        "A@[0,3].\nB@[2,4].",
        F(60),
    )
    expected = closed_form_model(
        [("A", 0, 3, 5), ("B", 2, 4, 5), ("C", 2, 3, 5)], F(60)
    )
    assert got == expected
    report(3, "join-of-two-diamonds model matches A/B/C closed forms on [0,60]")


def test_criterion_3_alternating_diamond_box():
    got = unrolled(
        "diamondminus[5,6] A -> B .\nboxminus[4,5] B -> A .",
        "A@[0,3].",
        F(60),
    )
    expected = closed_form_model([("A", 0, 3, 10), ("B", 5, 9, 10)], F(60))
    assert got == expected
    report(3, "alternating diamond/box model matches A/B closed forms on [0,60]")


BOX_UNION_PROGRAM = "A -> B .\nboxminus[1,2] A -> B .\nboxminus[10,12] B -> A ."
BOX_UNION_DB = "A@[2,5]."


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the stated closed form A@[10n+2,10n+5], B@[10n+2,10n+6] is not a "
        "model of these rules under the pointwise box semantics: the union "
        "extends B by one per cycle while the box shrinks it by two, so the "
        "derivation dies out after A@[26,27] (see the companion regression)"
    ),
)
def test_criterion_3_box_union_copy_stated_closed_form():
    got = unrolled(BOX_UNION_PROGRAM, BOX_UNION_DB, F(60))
    expected = closed_form_model([("A", 2, 5, 10), ("B", 2, 6, 10)], F(60))
    assert got == expected


def test_criterion_3_box_union_copy_actual_fixpoint():
    """The box/union program actually reaches a finite fixpoint; pin it and
    cross-check against the oracle."""
    got = unrolled(BOX_UNION_PROGRAM, BOX_UNION_DB, F(60))
    oracle = naive_fixpoint_bounded(
        parse_program(BOX_UNION_PROGRAM), parse_database(BOX_UNION_DB), 60
    )
    assert got == oracle
    assert str(got) == (
        "A@{[2,5], [14,16], [26,27]}; B@{[2,6], [14,17], [26,27], [28,28]}"
    )
    report(3, "box/union program: finite fixpoint pinned and oracle-checked "
              "(stated closed form documented as expected failure)")


# ---------------------------------------------------------------------------
# 4. application bound for diamond self-loops
# ---------------------------------------------------------------------------

def test_criterion_4_self_loop_application_bound():
    rng = random.Random(4)
    checked = 0
    for _ in range(10):
        t1 = F(rng.randint(0, 24), rng.choice((1, 2, 3)))
        t2 = t1 + F(rng.randint(1, 12), rng.choice((1, 2, 3)))
        eps = F(1, rng.randint(2, 10))
        bound = max_applications(t1, t2)
        rho = Interval.closed(t1, t2)

        # apply the rule piece by piece; the ray begins at the first piece
        # whose successor chains onto it, detected one application later
        current = IntervalSet.of(Interval.closed(0, eps))
        reached = current
        chain_start = None
        for step in range(1, bound + 2):
            nxt = current.diamond_minus(rho)
            pieces_before = len(reached)
            reached = reached.union(nxt)
            if len(reached) <= pieces_before:
                chain_start = step - 1
                break
            current = nxt
        assert chain_start is not None and chain_start <= bound, (t1, t2, eps)

        # the full fixpoint is a ray from the chain start onward
        program = parse_program(f"diamondminus[{t1},{t2}] P -> P .")
        db = parse_database(f"P@[0,{eps}].")
        ray_start = t1 * chain_start
        horizon = ray_start + 3 * (t2 + 1)
        model = naive_fixpoint_bounded(program, db, horizon)
        assert model.get(Atom("P")).covers_interval(
            Interval.closed(ray_start, horizon)
        ), (t1, t2, eps)
        checked += 1
    assert checked == 10
    report(4, "10 random diamond self-loops stabilize to a ray within "
              "floor(t1/(t2-t1)+1) applications")


# ---------------------------------------------------------------------------
# 5. classification: marking cases and a harmless corpus
# ---------------------------------------------------------------------------

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

HARMLESS_CORPUS = [
    # acyclic temporal chains and fans
    ("diamondminus[1,2] X -> Y .", "X@[0,1]."),
    ("diamondminus[1,2] X -> Y .\ndiamondminus[3,4] Y -> Z .", "X@[0,2]."),
    ("boxminus[0,1] X -> Y .\nboxminus[1,3] Y -> Z .", "X@[0,9]."),
    ("diamondminus[2,3] X -> Y .\nboxminus[0,2] X -> Z .", "X@[0,5]."),
    ("X -> Y .\nY -> Z .\nZ -> W .", "X@[1,4]."),
    ("diamondminus[1/2,3/2] X -> Y .", "X@[0,1/2]."),
    ("diamondminus[1,1] X -> Y .\nX, Y -> Z .", "X@[0,3]."),
    # temporal-acyclic recursion
    ("X -> A .\nA -> B .\nB -> A .", "X@[0,2]."),
    ("X -> A .\nA -> B .\nB -> C .\nC -> A .", "X@[5,6]."),
    # intersection-guarded cycles over an empty cycle database
    ("X -> D .\nD, E -> E .\ndiamondminus[1,2] E -> E .", "X@[0,1]."),
    ("boxminus[3,7] A -> A .\nX -> Y .", "X@[0,4]."),
    ("diamondminus[1,2] E -> E .\nE, X -> Out .", "X@[0,9]."),
    # joins of finite inputs
    ("X, Y -> Z .\ndiamondminus[0,1] Z -> W .", "X@[0,3].\nY@[2,5]."),
    ("X -> Z .\nY -> Z .\nZ, X -> W .", "X@[0,1].\nY@[4,5]."),
    # deeper DAGs
    (
        "diamondminus[1,2] X -> A .\ndiamondminus[2,3] X -> B .\nA, B -> C .",
        "X@[0,4].",
    ),
    ("boxminus[0,2] X -> A .\nA -> B .\ndiamondminus[1,4] B -> C .", "X@[0,6]."),
    ("X -> A .\ndiamondminus[3,3] A -> B .\nB, X -> C .", "X@[0,5]."),
    # nested bodies (normalized into chains of fresh predicates)
    ("diamondminus[1,2] diamondminus[0,1] X -> Y .", "X@[0,1]."),
    ("boxminus[0,1] diamondminus[1,2] X -> Y .", "X@[0,3]."),
    ("diamondminus[0,2] X, boxminus[0,1] X -> Y .", "X@[0,4]."),
]


def test_criterion_5_classification():
    # figure program: marking cases match node by node
    report_obj = classify_rules(parse_program(FIGURE_PROGRAM))
    assert report_obj.finite_nodes == {
        "X": "i",
        "Y": "ii",
        "A": "iii",
        "B": "iii",
        "C": "iii",
        "E": "iv",
    }
    assert "D" not in report_obj.finite_nodes

    assert len(HARMLESS_CORPUS) == 20
    for text, db_text in HARMLESS_CORPUS:
        normalized = to_normal_form(parse_program(text))
        db = parse_database(db_text)
        rep = classify_rules(normalized, db)
        assert rep.harmless_program, (text, rep.rule_classes)
        assert all(c is RuleClass.HARMLESS for c in rep.rule_classes.values())
        # a harmless program terminates without any horizon clipping
        model = naive_fixpoint_bounded(normalized, db, step_cap=100_000)
        for atom, ivs in model.items():
            for piece in ivs:
                assert piece.is_bounded, (text, atom, str(piece))
    report(5, "figure markers exact; 20-program harmless corpus all harmless "
              "with terminating unbounded-horizon fixpoints")


# ---------------------------------------------------------------------------
# 6. oracle equivalence on randomized forward programs
# ---------------------------------------------------------------------------

def test_criterion_6_oracle_equivalence():
    rng = random.Random(20260809)
    started = time.monotonic()
    for trial in range(200):
        text, db_text = _random_fp_program(rng)
        program = parse_program(text)
        db = parse_database(db_text)
        pm = reason(program, db)
        horizon = oracle_span(program, db, pm)
        assert pm.unroll(horizon) == naive_fixpoint_bounded(program, db, horizon), (
            text,
            db_text,
        )
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    report(6, f"200 random forward programs: unrolled output equals the "
              f"bounded fixpoint ({elapsed:.1f} s)")


# ---------------------------------------------------------------------------
# 7. diamond-only temporal-linear programs never need proper patterns
# ---------------------------------------------------------------------------

def test_criterion_7_linear_diamond_programs_become_constant():
    from chronolog.analysis import fragment_checks

    rng = random.Random(7)
    for trial in range(50):
        text, db_text = _random_linear_diamond(rng)
        program = parse_program(text)
        flags = fragment_checks(program)
        assert flags.temporal_linear and flags.forward_propagating, text
        pm = reason(program, parse_database(db_text))
        assert pm.patterns == (), (text, db_text, [str(p) for p in pm.patterns])
        for _, ivs in pm.facts.items():
            for piece in ivs:
                assert piece.is_bounded or (
                    piece.lo != NEG_INF and piece.hi == POS_INF
                ), (text, str(piece))
    report(7, "50 temporal-linear diamond programs produced only bounded "
              "facts and rays, never patterns")


# ---------------------------------------------------------------------------
# 8. interval algebra conformance against the pointwise semantics
# ---------------------------------------------------------------------------

def _random_interval(rng: random.Random, lo_min: int) -> Interval:
    while True:
        lo = F(rng.randint(lo_min, 16), rng.choice((1, 2, 4)))
        width = F(rng.randint(0, 16), rng.choice((1, 2, 4)))
        lo_open = rng.random() < 0.5
        hi_open = rng.random() < 0.5
        if width == 0 and (lo_open or hi_open):
            continue
        return Interval(to_time(lo), to_time(lo + width), lo_open, hi_open)


def test_criterion_8_interval_algebra_conformance():
    rng = random.Random(8)
    for trial in range(1000):
        i = _random_interval(rng, -16)
        rho = _random_interval(rng, 0)
        diamond = IntervalSet.of(i).diamond_minus(rho)
        box = IntervalSet.of(i).box_minus(rho)
        for t in probe_grid(i, rho):
            assert diamond.contains(t) == diamond_holds_at(t, i, rho), (i, rho, t)
            assert box.contains(t) == box_holds_at(t, i, rho), (i, rho, t)
    report(8, "1000 random (interval, range) pairs agree with the pointwise "
              "semantics on endpoint-adjacent grids")
