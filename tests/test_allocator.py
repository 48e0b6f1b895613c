"""The allocator setting made when shorsim is imported: glibc's mmap and trim
thresholds fixed so that numpy temporaries reuse the heap, and nothing done
where the C library cannot be opened or has no `mallopt`."""

import ctypes
import importlib
import platform

import pytest

import shorsim
from shorsim import ProblemInstance, measurement_distribution, run_pipeline


class RecordingLibc:
    def __init__(self):
        self.calls = []

        def mallopt(param, value):
            self.calls.append((param, value))
            return 1

        self.mallopt = mallopt


def test_thresholds_are_set_through_mallopt():
    libc = RecordingLibc()
    shorsim._set_malloc_thresholds(libc)
    # M_MMAP_THRESHOLD = -3 and M_TRIM_THRESHOLD = -1 in glibc's malloc.h.
    assert libc.calls == [(-3, 8 << 20), (-1, 16 << 20)]


def _unopenable(name):
    raise OSError("no C library")


@pytest.mark.parametrize("fake_cdll", [lambda name: object(), _unopenable], ids=["no-mallopt", "raises"])
def test_import_succeeds_without_a_usable_mallopt(monkeypatch, fake_cdll):
    monkeypatch.setattr(ctypes, "CDLL", fake_cdll)
    assert importlib.reload(shorsim).MMAP_THRESHOLD == 8 << 20


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc thresholds")
def test_repeated_runs_do_not_page_fault_afresh():
    import resource

    instance = ProblemInstance(99, 73)
    faults = []
    for _ in range(3):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        measurement_distribution(run_pipeline(instance))
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    # With glibc's defaults each run's (q x m) temporaries were mapped and
    # faulted in afresh: about 2,000 minor faults per run at q = 16384.
    assert max(faults[1:]) < 100, faults
