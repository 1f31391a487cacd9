"""Checks of chronolog's answers, made apart from chronolog.

Nothing here imports chronolog. Answers are read from the JSON the CLI
prints, never from its exit status, and compared with:

* closed forms derived from how the inputs were generated (``chain``,
  ``frontend``);
* day-of-week arithmetic (``far_query``);
* a small evaluator of the corpus programs on a half-unit grid of time
  points (``corpus_check``). Every corpus fact and operator range is a
  closed interval with integer ends, so every truth set is a finite
  union of such intervals, and such a set is fixed by its values at the
  integers and half-integers: the grid is exact.

Every check returns a list of error strings, empty when the answer is right.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from workloads import WEEK_PREDICATES, render_facts, render_program

INF = math.inf
GRID_CAP = 200  # furthest time the corpus evaluator goes to

_INTERVAL = re.compile(r"^([\[(])([^,]+),([^,]+)([\])])$")


def parse_interval(text: str):
    """``"[a,b)"`` to ``(lo, hi, lo_open, hi_open)``; infinite ends are floats."""
    m = _INTERVAL.match(text.replace(" ", ""))
    if m is None:
        raise ValueError(f"malformed interval {text!r}")
    lb, lo, hi, rb = m.groups()
    return _endpoint(lo), _endpoint(hi), lb == "(", rb == ")"


def _endpoint(text: str):
    if text == "-inf":
        return -INF
    if text in ("inf", "+inf"):
        return INF
    return Fraction(text)


# ---------------------------------------------------------------------------
# Sets of time points as bit masks over the half-unit grid 0, 1/2, ..., H
# ---------------------------------------------------------------------------

def _span(lo, hi, horizon: int) -> int:
    """Grid mask of the closed interval [lo, hi] clipped to [0, horizon]."""
    first = max(0, math.ceil(2 * lo))
    last = min(2 * horizon, math.floor(2 * hi) if hi != INF else 2 * horizon)
    return 0 if last < first else ((1 << (last - first + 1)) - 1) << first


def _closed_integer(piece) -> str | None:
    """Error text unless ``piece`` is closed with integer ends (a ray's
    open infinite end excepted): the shape every true answer here has."""
    lo, hi, lo_open, hi_open = piece
    ok = (
        not lo_open and lo != -INF and lo.denominator == 1
        and (hi == INF or (not hi_open and hi.denominator == 1))
    )
    return None if ok else "a piece that is not a closed interval with integer ends"


class Representation:
    """A ``reason`` answer as printed by ``--format json``."""

    def __init__(self, data: dict):
        self.period = Fraction(data["period"])
        self.horizon = Fraction(data["horizon"])
        self.facts = {
            f["atom"]: [parse_interval(i) for i in f["intervals"]] for f in data["facts"]
        }
        self.patterns = [
            (p["atom"], parse_interval(p["offset"]), Fraction(p["period"]),
             int(p["start_index"]))
            for p in data["patterns"]
        ]

    def atoms(self) -> set[str]:
        return set(self.facts) | {p[0] for p in self.patterns}

    def anchor(self) -> Fraction:
        """A time after which the answer only repeats with its period."""
        ends = [self.horizon]
        for pieces in self.facts.values():
            ends += [e for piece in pieces for e in piece[:2] if abs(e) != INF]
        for _, (lo, hi, _, _), period, start in self.patterns:
            ends.append(hi + period * start)
        return max(ends)

    def pieces(self, atom: str, horizon: int):
        yield from self.facts.get(atom, ())
        for name, (lo, hi, lo_open, hi_open), period, start in self.patterns:
            if name != atom:
                continue
            x = start
            while lo + period * x <= horizon:
                yield lo + period * x, hi + period * x, lo_open, hi_open
                x += 1

    def mask(self, atom: str, horizon: int) -> tuple[int, list[str]]:
        mask, errors = 0, []
        for piece in self.pieces(atom, horizon):
            error = _closed_integer(piece)
            if error:
                errors.append(f"{atom}: {error}")
            mask |= _span(piece[0], piece[1], horizon)
        return mask, errors


def _points(times, horizon: int) -> int:
    mask = 0
    for t in times:
        if 0 <= t <= horizon:
            mask |= 1 << (2 * t)
    return mask


def _progression(starts, step: int, horizon: int) -> int:
    """Mask of every ``s + step*m`` (m >= 0) up to ``horizon``."""
    return _points((t for s in starts for t in range(s, horizon + 1, step)), horizon)


def _periodic_points(rep: Representation, atom: str, starts, step: int,
                     settle: int) -> list[str]:
    """``atom`` holds exactly at ``s + step*m``: compare through a full
    representation period past both the answer's and the closed form's
    settle points; the answer's period must be a multiple of ``step``."""
    if rep.period % step:
        return [f"period {rep.period} is not a multiple of {step}"]
    horizon = math.ceil(max(rep.anchor(), settle) + rep.period)
    got, errors = rep.mask(atom, horizon)
    if got != _progression(starts, step, horizon):
        errors.append(f"{atom} differs from s + {step}m through {horizon}")
    return errors


# ---------------------------------------------------------------------------
# Per-workload checks
# ---------------------------------------------------------------------------

def check_chain(expect, outputs) -> list[str]:
    _, k, points = expect
    rep = Representation(outputs[0])
    errors = []
    for i in range(k):
        errors += _periodic_points(rep, f"P{i}", [j + i for j in points], 5,
                                   max(points) + k)
    extra = rep.atoms() - {f"P{i}" for i in range(k)}
    if extra:
        errors.append(f"unexpected atoms {sorted(extra)}")
    return errors


def week_entailed(pred: str, lo: Fraction, hi: Fraction) -> bool:
    """Is [lo, hi] inside one block [7m + first, 7m + last) of ``pred``?"""
    first, last = WEEK_PREDICATES[pred]
    week = math.floor((lo - first) / 7)
    return hi < 7 * week + last


def check_week(expect, outputs) -> list[str]:
    _, pred, lo, hi = expect
    want = week_entailed(pred, lo, hi)
    got = outputs[0]["entailed"]
    return [] if got is want else [f"{pred}@[{lo},{hi}]: entailed={got}, expected {want}"]


def check_frontend(expect, outputs) -> list[str]:
    _, depth, c_points, p_facts, q_facts = expect
    classified, reasoned = outputs
    errors = []
    finite = classified["finite_nodes"]
    for pred in ("P", "Q", "R"):
        if not finite.get(pred):
            errors.append(f"classify: {pred} is not marked finite")
    if classified["pattern_length"] != str(depth):
        errors.append(f"classify: pattern_length {classified['pattern_length']} != {depth}")

    rep = Representation(reasoned)
    errors += _periodic_points(rep, "C", c_points, depth, max(c_points))
    horizon = max(hi for *_, hi in p_facts + q_facts)
    p_of = {x: (lo, hi) for x, lo, hi in p_facts}
    want: dict[str, int] = {}
    for x, y, lo, hi in q_facts:
        p_lo, p_hi = p_of[x]
        atom = f"R({y})"
        want[atom] = want.get(atom, 0) | _span(max(lo, p_lo), min(hi, p_hi), horizon)
    want = {atom: mask for atom, mask in want.items() if mask}
    got_atoms = {a for a in rep.atoms() if a.startswith("R(")}
    if got_atoms != set(want):
        errors.append(f"R atoms {sorted(got_atoms ^ set(want))} differ")
    for atom in got_atoms & set(want):
        got, piece_errors = rep.mask(atom, horizon)
        errors += piece_errors
        if got != want[atom]:
            errors.append(f"{atom} is not the intersection of P and Q")
    return errors


def grid_model(rules, facts, horizon: int) -> dict[str, int]:
    """Least model of a corpus program on the half-unit grid through ``horizon``.

    ``diamondminus[a,b] L`` holds at t when L holds somewhere in
    [t-b, t-a]; ``boxminus[a,b] L`` when L holds everywhere there. On the
    grid both are an OR / AND of L's mask shifted by 2a..2b places.
    Nothing holds before 0, so shifted-in bits are false.
    """
    full = (1 << (2 * horizon + 1)) - 1
    model: dict[str, int] = {}
    for atom, lo, hi in facts:
        model[atom] = model.get(atom, 0) | _span(lo, hi, horizon)

    def value(lit) -> int:
        if isinstance(lit, str):
            return model.get(lit, 0)
        op, a, b, inner = lit
        mask = value(inner)
        shifted = [(mask << k) & full for k in range(2 * a, 2 * b + 1)]
        out = shifted[0]
        for s in shifted[1:]:
            out = out | s if op == "diamondminus" else out & s
        return out

    changed = True
    while changed:
        changed = False
        for body, head in rules:
            derived = full
            for lit in body:
                derived &= value(lit)
            if derived & ~model.get(head, 0):
                model[head] = model.get(head, 0) | derived
                changed = True
    return {atom: mask for atom, mask in model.items() if mask}


def corpus_grid_horizon(check_output: dict) -> int:
    """The check's own horizon (database end + 3 periods), capped at GRID_CAP."""
    return min(math.floor(Fraction(check_output["horizon"])), GRID_CAP)


def check_corpus(expect, outputs, oracle_output: dict, horizon: int) -> list[str]:
    """``check`` found no difference, and the oracle's facts through
    ``horizon`` equal the grid evaluation of the original program."""
    _, name, rules, facts = expect
    errors = [f"{name}: check reports {d}" for d in outputs[0]["differences"]]
    want = grid_model(rules, facts, horizon)
    got: dict[str, int] = {}
    for entry in oracle_output["facts"]:
        atom = entry["atom"]
        if atom.startswith("_aux"):
            continue
        for text in entry["intervals"]:
            piece = parse_interval(text)
            error = _closed_integer(piece)
            if error:
                errors.append(f"{name}: oracle {atom}: {error}")
            got[atom] = got.get(atom, 0) | _span(piece[0], piece[1], horizon)
    for atom in sorted(set(got) | set(want)):
        if got.get(atom, 0) != want.get(atom, 0):
            errors.append(f"{name}: oracle {atom} differs from the grid evaluator "
                          f"through {horizon}")
    return errors


def program_text(expect) -> str:
    """The corpus op's program and database, for error reports."""
    _, _, rules, facts = expect
    return render_program(rules) + render_facts(facts)
