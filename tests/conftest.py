"""Shared test set-up."""

import os
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(autouse=True, scope="session")
def package_on_subprocess_path():
    """Let the tests that run ``python -m gospa`` in a subprocess import the
    package from this checkout, as ``pythonpath`` in ``pyproject.toml``
    lets the tests themselves."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", str(SRC), prepend=os.pathsep)
        yield
