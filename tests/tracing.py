"""Peak traced memory of one call, for the tests' allocation bounds. numpy
reports its buffers to tracemalloc, so the peak counts every array the call
allocates (and not those allocated before it)."""

import tracemalloc

import numpy as np
import pytest

# numpy 2.0 gave its FFTs an `out` argument; before it, the FFT's output is a
# second full-size array, so the bounds on one transform buffer do not hold.
needs_fft_out = pytest.mark.skipif(
    np.lib.NumpyVersion(np.__version__) < "2.0.0",
    reason="numpy < 2.0 has no FFT `out`: the transform allocates its output",
)


def traced_peak(fn):
    """(fn(), the peak of traced memory while it ran, in bytes); tracing stops
    whether or not fn raises."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
