"""Cache model: intra-chunk locality, reuse distance, sequential detection."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.machine.cache import (
    LEVEL_DRAM,
    LEVEL_L1,
    LEVEL_L2,
    LEVEL_L3,
    CacheConfig,
    CacheHierarchy,
    is_sequential,
)
from tests.reference.access import classify


def make_cache(l1=1024, l2=8 * 1024, l3=64 * 1024):
    return CacheHierarchy(CacheConfig(l1_bytes=l1, l2_bytes=l2, l3_bytes=l3))


def sweep(n_elems, base=0, stride=8):
    return base + np.arange(n_elems, dtype=np.int64) * stride


class TestConfig:
    def test_invalid_ordering_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig(l1_bytes=1024, l2_bytes=512, l3_bytes=2048)

    def test_invalid_line_size(self):
        with pytest.raises(ValueError):
            CacheConfig(line_size=0)


class TestIntraChunk:
    def test_unit_stride_fetch_rate_is_elem_over_line(self):
        """8-byte elements on 64-byte lines: 1/8 of accesses fetch."""
        cache = make_cache()
        cls = classify(cache, sweep(800), cpu=0, seg_id=1)
        fetches = np.count_nonzero(cls.levels != LEVEL_L1)
        assert fetches == 100

    def test_repeated_line_accesses_hit_l1(self):
        cache = make_cache()
        addrs = np.repeat(sweep(4, stride=64), 10)
        cls = classify(cache, addrs, cpu=0, seg_id=1)
        assert np.count_nonzero(cls.levels == LEVEL_L1) == 36
        assert cls.n_fetches == 4

    def test_footprint_counts_unique_lines(self):
        cache = make_cache()
        cls = classify(cache, sweep(16, stride=64), cpu=0, seg_id=1)
        assert cls.footprint_bytes == 16 * 64

    def test_empty_chunk(self):
        cache = make_cache()
        cls = classify(cache, np.empty(0, dtype=np.int64), cpu=0, seg_id=1)
        assert cls.levels.size == 0
        assert cls.footprint_bytes == 0


class TestReuseDistance:
    def test_first_visit_is_compulsory_dram(self):
        cache = make_cache()
        cls = classify(cache, sweep(64), cpu=0, seg_id=1)
        assert np.all(cls.levels[cls.levels != LEVEL_L1] == LEVEL_DRAM)

    def test_immediate_revisit_hits_l2(self):
        cache = make_cache()
        addrs = sweep(64)  # 512 bytes, well under L2
        classify(cache, addrs, cpu=0, seg_id=1)
        cls = classify(cache, addrs, cpu=0, seg_id=1)
        assert np.all(cls.levels[cls.levels != LEVEL_L1] == LEVEL_L2)

    def test_revisit_after_medium_stream_hits_l3(self):
        cache = make_cache()
        a = sweep(64)
        classify(cache, a, cpu=0, seg_id=1)
        # Stream ~16 KB through another segment: between L2 (8K) and L3 (64K).
        classify(cache, sweep(2048, base=1 << 20), cpu=0, seg_id=2)
        cls = classify(cache, a, cpu=0, seg_id=1)
        assert np.all(cls.levels[cls.levels != LEVEL_L1] == LEVEL_L3)

    def test_revisit_after_large_stream_is_dram(self):
        cache = make_cache()
        a = sweep(64)
        classify(cache, a, cpu=0, seg_id=1)
        classify(cache, sweep(32768, base=1 << 20), cpu=0, seg_id=2)  # 256 KB
        cls = classify(cache, a, cpu=0, seg_id=1)
        assert np.all(cls.levels[cls.levels != LEVEL_L1] == LEVEL_DRAM)

    def test_per_cpu_isolation(self):
        """One CPU's streaming does not evict another CPU's lines."""
        cache = make_cache()
        a = sweep(64)
        classify(cache, a, cpu=0, seg_id=1)
        classify(cache, sweep(32768, base=1 << 20), cpu=1, seg_id=2)
        cls = classify(cache, a, cpu=0, seg_id=1)
        assert np.all(cls.levels[cls.levels != LEVEL_L1] == LEVEL_L2)

    def test_distinct_region_of_same_segment_is_compulsory(self):
        """Touching a new L3-block of a segment is a miss, not a revisit
        (the UMT angle-plane case)."""
        cache = make_cache()
        classify(cache, sweep(64, base=0), cpu=0, seg_id=1)
        cls = classify(cache, sweep(64, base=2 << 20), cpu=0, seg_id=1)
        assert np.all(cls.levels[cls.levels != LEVEL_L1] == LEVEL_DRAM)

    def test_reset_forgets_state(self):
        cache = make_cache()
        a = sweep(64)
        classify(cache, a, cpu=0, seg_id=1)
        cache.reset()
        cls = classify(cache, a, cpu=0, seg_id=1)
        assert np.all(cls.levels[cls.levels != LEVEL_L1] == LEVEL_DRAM)


class TestSequentialDetection:
    def test_unit_stride_is_sequential(self):
        assert is_sequential(sweep(100))

    def test_line_stride_is_sequential(self):
        assert is_sequential(sweep(100, stride=64))

    def test_large_stride_is_not_sequential(self):
        assert not is_sequential(sweep(100, stride=4096))

    def test_shuffled_is_not_sequential(self):
        rng = np.random.default_rng(0)
        addrs = sweep(100)
        rng.shuffle(addrs)
        assert not is_sequential(addrs)

    def test_short_streams_default_sequential(self):
        assert is_sequential(np.array([42], dtype=np.int64))

    def test_mostly_sequential_with_rare_jumps(self):
        """A stream with <10% jumps still counts as prefetchable."""
        addrs = sweep(200).copy()
        addrs[50] += 1 << 20  # one wild access
        assert is_sequential(addrs)


@given(
    n=st.integers(min_value=1, max_value=2000),
    stride=st.sampled_from([4, 8, 16, 64, 128]),
)
@settings(max_examples=40, deadline=None)
def test_fetch_count_equals_unique_lines(n, stride):
    """Invariant: line fetches per chunk == unique lines touched."""
    cache = make_cache()
    addrs = sweep(n, stride=stride)
    cls = classify(cache, addrs, cpu=0, seg_id=1)
    unique_lines = np.unique(addrs // 64).size
    assert cls.n_fetches == unique_lines


@given(n=st.integers(min_value=8, max_value=512))
@settings(max_examples=30, deadline=None)
def test_revisit_never_slower_than_first_visit(n):
    """Monotonicity: an immediate revisit is served at least as close as
    the compulsory first visit."""
    cache = make_cache()
    addrs = sweep(n)
    first = classify(cache, addrs, cpu=0, seg_id=1)
    second = classify(cache, addrs, cpu=0, seg_id=1)
    assert second.levels.max() <= first.levels.max()
