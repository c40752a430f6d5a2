"""The ``examples/`` scripts are code: each runs to completion as
``__main__``.  ``custom_policy.py`` and ``application_informed.py``
drive the public hook/kfunc authoring surface end to end."""

import pathlib
import runpy

import pytest

EXAMPLES = sorted((pathlib.Path(__file__).resolve().parent.parent
                   / "examples").glob("*.py"))


def test_the_examples_are_found():
    assert EXAMPLES     # an empty glob would parametrise to nothing


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs_as_main(path, monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", [str(path)])
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
