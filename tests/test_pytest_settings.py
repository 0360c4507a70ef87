"""The repository's pytest settings, run on a throwaway test file in a
child process: a failing ``hypothesis`` property is reported as a failure
with its falsifying example, and the tests after it still run."""

import os

from support import run_python

PYPROJECT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "pyproject.toml")

CHILD = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_failing_property(x):
    assert x < 5


def test_passing():
    pass
'''


def test_failing_property_is_reported(tmp_path):
    path = tmp_path / "test_child.py"
    path.write_text(CHILD)
    proc = run_python(
        "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", PYPROJECT,
        "--rootdir", str(tmp_path), str(path),
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in proc.stdout
    assert "Falsifying example: test_failing_property(" in proc.stdout
    assert proc.returncode == 1
