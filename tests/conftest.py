import tracemalloc

import pytest


@pytest.fixture
def traced_peak_mib():
    """fn -> the peak of the memory traced while fn runs, in MiB; numpy
    reports its array buffers to tracemalloc.  fn runs once untraced
    first, so lazy imports and caches do not count."""
    def peak(fn):
        fn()
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        try:
            fn()
            return (tracemalloc.get_traced_memory()[1] - base) / 2 ** 20
        finally:
            if not tracing:
                tracemalloc.stop()
    return peak
