"""The repository's pytest settings, run on a throwaway test file."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FAILING_THEN_PASSING = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, max_examples=5)
@given(st.integers())
def test_fails(x):
    assert x != x


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_is_reported_and_the_run_goes_on(tmp_path):
    # hypothesis's failure report imports libcst, whose import of
    # mypy_extensions warns with a DeprecationWarning; the settings turn other
    # DeprecationWarnings into errors, and must not turn this one into an
    # INTERNALERROR that skips the tests after it
    path = tmp_path / "test_throwaway.py"
    path.write_text(FAILING_THEN_PASSING)
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", os.path.join(ROOT, "pyproject.toml"), "-q",
         "-p", "no:cacheprovider", str(path)],
        capture_output=True, text=True, cwd=tmp_path, timeout=300,
    )
    assert out.returncode == 1, out.stdout + out.stderr
    assert "1 failed, 1 passed" in out.stdout
