"""pyproject.toml's warning filters turn the warnings of retiring APIs into
errors, yet a failing property test still reports its falsifying example:
hypothesis imports libcst to explain the failure, and libcst's own
deprecated use of mypy_extensions.TypedDict must not break that report."""

pytest_plugins = ["pytester"]


def _run(pytester, pytestconfig, source):
    """Run test file `source` in a fresh interpreter, where libcst is not yet
    imported, under this session's filterwarnings (pyproject.toml's)."""
    pytester.makeini("[pytest]\nfilterwarnings =\n" + "".join(
        f"    {entry}\n" for entry in pytestconfig.getini("filterwarnings")))
    pytester.makepyfile(test_inner=source)
    return pytester.runpytest_subprocess("-p", "no:cacheprovider")


def test_failing_property_test_reports_its_example(pytester, pytestconfig):
    result = _run(pytester, pytestconfig, """
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_small(x):
            assert x < 5
    """)
    result.assert_outcomes(failed=1)
    result.stdout.fnmatch_lines(["*Falsifying example: test_small(*"])
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()


def test_other_deprecation_warnings_still_fail(pytester, pytestconfig):
    result = _run(pytester, pytestconfig, """
        import warnings

        def test_retiring_api():
            warnings.warn("this API is deprecated", DeprecationWarning)
    """)
    result.assert_outcomes(failed=1)
