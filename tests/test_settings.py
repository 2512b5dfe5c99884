"""The suite's own pytest settings report a failing test as a failure."""

from pathlib import Path

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_hypothesis_test_is_reported_as_a_failure(pytester):
    # On a failure Hypothesis imports libcst to write its patch, which warns
    # about mypy_extensions.TypedDict; unless the settings ignore it,
    # warnings-as-errors turn it into an INTERNALERROR that ends the whole
    # session, so the passing test after it never runs.
    pytester.makepyprojecttoml(PYPROJECT.read_text())
    path = pytester.makepyfile(
        """
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 0

        def test_passes():
            pass
        """
    )
    result = pytester.runpytest_subprocess(str(path), "-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
