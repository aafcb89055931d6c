"""The benchmark's traced run wraps package attributes by name; a refactor
that renames or removes one of them breaks `bench.py --trace 1`."""

import os
import sys

import pytest

BENCH_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks")


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, os.path.abspath(BENCH_DIR))
    try:
        import tracing
    finally:
        sys.path.pop(0)
    return tracing


def test_every_traced_target_exists(tracing):
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in tracing.targets() if not hasattr(owner, attr)]
    assert missing == []
