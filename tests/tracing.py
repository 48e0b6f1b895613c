"""Peak traced memory of one call, for the tests' allocation bounds. numpy
reports its buffers to tracemalloc, so the peak counts every array the call
allocates (and not those allocated before it)."""

import tracemalloc


def traced_peak(fn):
    """(fn(), the peak of traced memory while it ran, in bytes); tracing stops
    whether or not fn raises."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
