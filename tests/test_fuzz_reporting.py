"""A failing property test reports its falsifying example under the repo's warning filters.

pyproject.toml turns every DeprecationWarning into an error.  Hypothesis
imports libcst while it reports a failure, and libcst warns on import, so
without the scoped filter in pyproject.toml a failing property ends in a
pytest INTERNALERROR instead of the example.  The run happens in a fresh
interpreter, because a module that already imported libcst warns no more.
"""

import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_below_five(x):
    assert x < 5
"""


def test_failing_property_prints_its_falsifying_example(tmp_path):
    (tmp_path / "test_failing_property.py").write_text(FAILING_PROPERTY)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_failing_property.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "Falsifying example: test_below_five(" in output
