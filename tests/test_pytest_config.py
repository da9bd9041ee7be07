"""Tests for the pytest settings in ``pyproject.toml``."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(value):
    assert value != value


def test_passes():
    pass
'''


def test_a_failing_property_test_does_not_stop_the_run(tmp_path):
    """Warnings are errors, but not the deprecation that hypothesis's report
    hook raises while it reports a failing example: as an error it ends the
    run with INTERNALERROR before any later test runs."""
    (tmp_path / "test_probe.py").write_text(PROBE)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-q", "-p", "no:cacheprovider", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert result.returncode == 1, result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout
