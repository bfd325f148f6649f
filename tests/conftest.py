import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(autouse=True)
def _child_processes_import_src(monkeypatch):
    """Let `python -m arslab.cli` subprocesses import this checkout's arslab.

    They run with a temporary directory as cwd, where a relative
    PYTHONPATH=src no longer points at the package.  They also turn a
    RuntimeWarning into an error, as pyproject.toml does in this process.
    """
    rest = os.environ.get("PYTHONPATH")
    monkeypatch.setenv("PYTHONPATH", SRC + (os.pathsep + rest if rest else ""))
    # the last entry wins, so it goes after any filters already set
    rest = os.environ.get("PYTHONWARNINGS")
    monkeypatch.setenv("PYTHONWARNINGS", (rest + "," if rest else "") + "error::RuntimeWarning")
