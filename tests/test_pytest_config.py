"""The suite's pytest configuration reports a failing property test like any
other failure and runs on."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

MODULE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_falsified(x):
    assert x != 0


def test_after_it():
    pass
'''


def test_falsifying_example_does_not_abort_the_session(tmp_path):
    # While it reports a falsifying example, hypothesis's pytest plugin
    # touches the deprecated mypy_extensions.TypedDict.  Under a rule that
    # turns that DeprecationWarning into an error the session ends with
    # INTERNALERROR and exit 3, and the test after it never runs.  So this
    # test can fail only where mypy_extensions is installed.
    (tmp_path / "test_module.py").write_text(MODULE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q",
         "test_module.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "1 failed, 1 passed" in output
    assert "INTERNALERROR" not in output
