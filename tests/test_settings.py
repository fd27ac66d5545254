"""The repository's pytest settings, on an inner test session."""

from pathlib import Path

import pytest

pytest_plugins = ["pytester"]

ROOT = Path(__file__).resolve().parents[1]


def test_failing_given_test_reports_its_example(pytester):
    # a failing @given test under this repository's pyproject.toml (every
    # warning an error) is an ordinary failure that names its falsifying
    # example, not an INTERNALERROR raised from hypothesis's report hook
    pytester.makefile(".toml", pyproject=(ROOT / "pyproject.toml").read_text())
    pytester.makepyfile(test_inner="""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_below_five(x):
            assert x < 5
    """)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider", "test_inner.py")
    assert result.ret == pytest.ExitCode.TESTS_FAILED
    result.assert_outcomes(failed=1)
    result.stdout.fnmatch_lines(["*Falsifying example: test_below_five(*"])
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
