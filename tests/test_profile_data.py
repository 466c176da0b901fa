"""Profile containers: VarRecord ranges/bins, ThreadProfile, archive."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.machine import presets
from repro.profiler.profile_data import (
    FirstTouchRecord,
    ProfileArchive,
    ThreadProfile,
    VarRecord,
)
from repro.runtime.callstack import SourceLoc
from repro.runtime.heap import HeapAllocator
from tests.reference.immediate_profiler import record_samples

PATH_A = (SourceLoc("main"), SourceLoc("kernel_a"))
PATH_B = (SourceLoc("main"), SourceLoc("kernel_b"))


@pytest.fixture
def var():
    machine = presets.generic()
    heap = HeapAllocator(machine)
    return heap.malloc(8 * 40_960, "v", (SourceLoc("main"),))  # 80 pages


class TestVarRecord:
    def test_binned_when_large(self, var):
        rec = VarRecord(var)
        assert rec.n_bins == 5

    def test_record_samples_tightens_ranges(self, var):
        rec = VarRecord(var)
        record_samples(rec, PATH_A, var.base + np.array([80, 160, 400]))
        lo, hi = rec.range_for(PATH_A)
        assert (lo, hi) == (var.base + 80, var.base + 400)

    def test_ranges_per_context(self, var):
        rec = VarRecord(var)
        record_samples(rec, PATH_A, var.base + np.array([0, 100]))
        record_samples(rec, PATH_B, var.base + np.array([5000, 9000]))
        assert rec.range_for(PATH_A) == (var.base, var.base + 100)
        assert rec.range_for(PATH_B) == (var.base + 5000, var.base + 9000)

    def test_range_across_contexts_is_min_max(self, var):
        rec = VarRecord(var)
        record_samples(rec, PATH_A, var.base + np.array([100]))
        record_samples(rec, PATH_B, var.base + np.array([9000]))
        assert rec.range_for() == (var.base + 100, var.base + 9000)

    def test_range_for_unknown_context(self, var):
        rec = VarRecord(var)
        assert rec.range_for(PATH_A) is None
        assert rec.range_for() is None

    def test_bin_indices_returned(self, var):
        rec = VarRecord(var)
        last = var.nbytes - 8
        bins = record_samples(rec, PATH_A, var.base + np.array([0, last]))
        np.testing.assert_array_equal(bins, [0, rec.n_bins - 1])

    def test_bin_ranges_tracked(self, var):
        rec = VarRecord(var)
        record_samples(rec, PATH_A, var.base + np.array([0, var.nbytes - 8]))
        arr = rec.ranges[PATH_A]
        # Row 0 = whole var; row 1 = bin 0; last row = last bin.
        assert arr[1, 0] == var.base
        assert arr[-1, 1] == var.base + var.nbytes - 8
        # Untouched middle bin keeps [inf, -inf].
        assert not np.isfinite(arr[3, 0])


class TestThreadProfile:
    def test_var_record_created_once(self, var):
        prof = ThreadProfile(tid=0, cpu=0, domain=0)
        a = prof.var_record(var)
        b = prof.var_record(var)
        assert a is b

    def test_footprint_grows_with_data(self, var):
        prof = ThreadProfile(tid=0, cpu=0, domain=0)
        empty = prof.footprint_bytes()
        rec = prof.var_record(var)
        record_samples(rec, PATH_A, var.base + np.array([0]))
        prof.first_touches.append(
            FirstTouchRecord("v", 0, 0, 0, np.arange(10), PATH_A)
        )
        assert prof.footprint_bytes() > empty


class TestArchive:
    def test_thread_access(self, var):
        arc = ProfileArchive("p", "m", 4, "IBS", None)
        arc.profiles[3] = ThreadProfile(tid=3, cpu=3, domain=1)
        assert arc.thread(3).tid == 3
        assert arc.n_threads == 1

    def test_all_var_names(self, var):
        arc = ProfileArchive("p", "m", 4, "IBS", None)
        p0 = ThreadProfile(tid=0, cpu=0, domain=0)
        p1 = ThreadProfile(tid=1, cpu=1, domain=0)
        p0.var_record(var)
        arc.profiles = {0: p0, 1: p1}
        assert arc.all_var_names() == ["v"]

    def test_first_touch_record(self):
        ft = FirstTouchRecord("v", 1, 2, 0, np.array([5, 6, 7]), PATH_A)
        assert ft.n_pages == 3


@given(
    offsets=st.lists(
        st.integers(min_value=0, max_value=8 * 40_960 - 1),
        min_size=1, max_size=100,
    )
)
@settings(max_examples=40, deadline=None)
def test_range_invariants(offsets, request):
    """Ranges always bracket every recorded sample; bin rows stay inside
    the whole-variable row."""
    machine = presets.generic()
    heap = HeapAllocator(machine)
    var = heap.malloc(8 * 40_960, "v", (SourceLoc("main"),))
    rec = VarRecord(var)
    addrs = var.base + np.array(offsets, dtype=np.int64)
    record_samples(rec, PATH_A, addrs)
    lo, hi = rec.range_for(PATH_A)
    assert lo == addrs.min() and hi == addrs.max()
    arr = rec.ranges[PATH_A]
    finite = np.isfinite(arr[1:, 0])
    assert np.all(arr[1:, 0][finite] >= lo)
    assert np.all(arr[1:, 1][finite] <= hi)
