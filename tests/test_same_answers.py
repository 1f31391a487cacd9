"""The comparison core of ``tools/same_answers.py``, run on two callables
in this process: no git and no second process."""

import importlib.util
from pathlib import Path

import pytest

from chronolog import reasoner

_spec = importlib.util.spec_from_file_location(
    "same_answers", Path(__file__).resolve().parent.parent / "tools" / "same_answers.py"
)
same_answers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_answers)


@pytest.fixture(scope="module")
def inputs():
    return same_answers.draw_inputs(count=2)


def test_inputs_cover_every_generator_and_fixture_command(inputs):
    names = [name for name, _, _ in inputs]
    assert len(names) == len(set(names))
    for generator in same_answers.GENERATORS:
        assert f"{generator}#1" in names
    commands = {argv[0] for _, kind, argv in inputs if kind == "cli" and argv}
    assert commands == {"classify", "reason", "check", "oracle", "query", "--help", "bogus"}
    assert "reason --program weekly.dmtl --database weekly.db --format json" in names
    assert {"(no arguments)", "reason --help", "reason --prog weekly.dmtl --database weekly.db"} <= set(names)
    # count=2: two mutated texts, each in both formats
    assert [name for name, kind, _ in inputs if kind == "mutated"] == [
        "mutated#0 reason human", "mutated#0 reason json", "mutated#1 check human", "mutated#1 check json"
    ]


def test_identity_passes(inputs):
    seen, rows, differ, first = same_answers.compare(
        inputs, same_answers.answer, same_answers.answer
    )
    assert (seen, differ, first) == (len(inputs), 0, None)
    assert rows > 3 * len(inputs)


@pytest.mark.parametrize(
    "target",
    [
        "_random_ray_program#1",
        "reason --program weekly.dmtl --database weekly.db --format json",
    ],
)
def test_a_shifted_horizon_fails_and_names_the_input(inputs, monkeypatch, target):
    real = reasoner.reason

    def shifted(program, database, **kwargs):
        pm = real(program, database, **kwargs)
        pm.horizon += 1
        return pm

    def change(item):
        if item[0] != target:
            return same_answers.answer(item)
        with monkeypatch.context() as patch:
            patch.setattr(reasoner, "reason", shifted)
            return same_answers.answer(item)

    seen, _, differ, first = same_answers.compare(inputs, same_answers.answer, change)
    assert (seen, differ) == (len(inputs), 1)
    assert first.startswith(f"{target}: row ")
