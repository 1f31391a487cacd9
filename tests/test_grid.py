"""The grid reference's own tests."""

from chronolog.syntax import Atom, parse_database, parse_program

from grid import _grid_model


def test_grid_model_evaluates_since_and_until():
    p = parse_program("A since[1,2] B -> C .\nA until[0,1] B -> D .")
    m = _grid_model(p, parse_database("B@[3,3].\nA@[3,5].\nB@[8,8]."), last=10)
    assert m[Atom("C")] == {8, 9, 10}  # [4,5]: B at 3, A on (3,t)
    assert m[Atom("D")] == {6, 16}  # 3 and 8: only s = t, no A after
