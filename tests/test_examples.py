"""Every script under ``examples/`` runs to completion: README and the
tutorial point users at them, and an API change that misses one otherwise
surfaces only when somebody runs it."""

import runpy
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).parent.parent / "examples").glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(path, capsys, monkeypatch):
    monkeypatch.setattr("sys.argv", [str(path)])
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
