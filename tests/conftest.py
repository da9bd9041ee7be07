"""Shared test set-up."""

import os
from pathlib import Path

import numpy as np
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


@pytest.fixture(scope="session")
def power_bases():
    """Zero, subnormals and values near the ends of the float range, and
    enough spread values that NumPy's array power, which differs from libm's
    pow in the last bit for some of them, would show."""
    return np.concatenate([
        [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 0.5, 1.0, 1.7, 1e300],
        10.0 ** np.random.default_rng(6).uniform(-300.0, 300.0, 20000)])
