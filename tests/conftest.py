import os
from pathlib import Path

import pytest

import filpiv
from filpiv.selfcheck import RunCache


@pytest.fixture(scope="session", autouse=True)
def _subprocess_imports_this_filpiv():
    """Tests that run `python -m filpiv.cli` in a subprocess import the same
    package as this process, also when only pytest's `pythonpath` setting put
    the source tree on sys.path."""
    src = str(Path(filpiv.__file__).resolve().parents[1])
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH",
                  os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        yield


@pytest.fixture(scope="session")
def runs():
    """Session-wide cache of flow integrations shared across test modules."""
    return RunCache()
