"""The project's pytest settings, run on a test file of their own."""

import subprocess
import sys
from pathlib import Path

INI = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(n):
    assert n < 0
"""


def test_failing_property_fails_one_test(tmp_path):
    # under warnings as errors, hypothesis's failure report must not abort the
    # run (an INTERNALERROR stops every test after it): it counts one failure
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run([sys.executable, "-m", "pytest", "-c", str(INI), "--rootdir", str(tmp_path),
                           "-p", "no:cacheprovider", "-q", str(tmp_path / "test_property.py")],
                          capture_output=True, text=True, cwd=tmp_path)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "INTERNALERROR" not in out and "1 failed in" in out, out


def test_mutant_profile_keeps_ci_examples_and_skips_shrinking():
    # a mutation run fails each broken property at its first failing example
    from hypothesis import Phase, settings

    mutant, ci = settings.get_profile("mutant"), settings.get_profile("ci")
    assert (mutant.derandomize, mutant.deadline) == (ci.derandomize, ci.deadline) == (True, None)
    assert set(ci.phases) - set(mutant.phases) == {Phase.shrink, Phase.explain}
