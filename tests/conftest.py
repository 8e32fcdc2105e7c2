import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)


@pytest.fixture(scope="session")
def terminates():
    """Call fn(*args) and return its result, failing the test if the call
    runs more than 10,000 Python lines, so a solver that never stops fails
    at once instead of hanging the suite.  Session-scoped so Hypothesis
    tests can use it."""
    def call(fn, *args):
        lines = 0

        def count(frame, event, arg):
            nonlocal lines
            lines += 1
            if lines > 10_000:
                raise AssertionError(f"{fn.__name__}{args} did not return "
                                     f"within 10,000 lines")
            return count

        sys.settrace(lambda frame, event, arg: count)
        try:
            return fn(*args)
        finally:
            sys.settrace(None)
    return call
