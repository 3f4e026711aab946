"""The pytest configuration in pyproject.toml."""

import pathlib
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n != n


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_lets_the_run_go_on(tmp_path):
    """A failing `@given` test makes hypothesis import libcst, which raises a
    DeprecationWarning; with every warning an error and no scoped ignore, pytest
    stopped with INTERNALERROR and never ran the passing test after it."""
    (tmp_path / "test_probe.py").write_text(PROBE)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = done.stdout + done.stderr
    assert done.returncode == 1, out
    assert "1 failed, 1 passed" in out and "INTERNALERROR" not in out, out
