import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """A function that runs `fn()` under tracemalloc and returns its result
    and the traced peak in bytes: the most memory allocated during the call
    and alive at once. Tracing stops even when `fn` raises."""

    def run(fn):
        tracemalloc.start()
        try:
            result = fn()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return run
