"""Shared test helpers."""

import tracemalloc

import pytest


def _traced_peak(fn, *args, **kwargs) -> int:
    """Peak bytes allocated while ``fn(*args, **kwargs)`` runs, above what it started with.

    numpy reports its array buffers to ``tracemalloc``, so the peak
    covers every transient array as well as the result.
    """
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - before


@pytest.fixture
def traced_peak():
    return _traced_peak
