"""The suite's own pytest settings: a failing Hypothesis test is reported, not fatal."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_TWO_TESTS = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_given_test_does_not_stop_the_run(tmp_path):
    # pyproject.toml turns warnings into errors; a failing @given test must
    # still be one failure, with the tests after it run.
    (tmp_path / "test_two.py").write_text(_TWO_TESTS, encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert result.returncode == 1
    assert "1 failed, 1 passed" in result.stdout.splitlines()[-1]
