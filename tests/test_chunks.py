"""Access chunks, their builders, and the affine closed forms."""

import numpy as np
import pytest

from repro import obs
from repro.errors import ProgramError
from repro.machine import presets
from repro.machine.cache import CacheConfig, CacheHierarchy
from repro.profiler import NumaProfiler
from repro.runtime import ExecutionEngine
from repro.runtime.callstack import SourceLoc
from repro.runtime.chunks import (
    AccessChunk,
    AffineChunk,
    compute_chunk,
    indexed_chunk,
    sweep_chunk,
)
from repro.runtime.heap import HeapAllocator
from repro.runtime.thread import BindingPolicy
from repro.sampling.ibs import IBS
from repro.sampling.mrk import MRK
from repro.spec import RunSpec
from repro.units import CACHE_LINE, PAGE_SIZE
from tests.reference.access import chunk_fetch_products

IP = SourceLoc("kernel", "k.c", 1)


@pytest.fixture
def var():
    machine = presets.generic(n_domains=2, cores_per_domain=1)
    heap = HeapAllocator(machine)
    return heap.malloc(8 * 1000, "v", (SourceLoc("main"),))


class TestAccessChunk:
    def test_instruction_floor(self, var):
        with pytest.raises(ProgramError):
            AccessChunk(var, var.base + np.arange(10) * 8, 5, IP)

    def test_bounds_check(self, var):
        with pytest.raises(ProgramError):
            AccessChunk(var, np.array([var.end]), 1, IP)
        with pytest.raises(ProgramError):
            AccessChunk(var, np.array([var.base - 1]), 1, IP)

    def test_n_accesses(self, var):
        chunk = AccessChunk(var, var.base + np.arange(7) * 8, 100, IP)
        assert chunk.n_accesses == 7

    def test_addrs_coerced_to_int64(self, var):
        chunk = AccessChunk(
            var, (var.base + np.arange(4) * 8).astype(np.float64), 10, IP
        )
        assert chunk.addrs.dtype == np.int64


class TestComputeChunk:
    def test_no_memory(self):
        chunk = compute_chunk(1000, IP)
        assert chunk.var is None
        assert chunk.n_accesses == 0
        assert chunk.n_instructions == 1000


class TestSweepChunk:
    def test_unit_stride_addresses(self, var):
        chunk = sweep_chunk(var, 10, 5, IP)
        np.testing.assert_array_equal(
            chunk.addrs, var.base + (10 + np.arange(5)) * 8
        )

    def test_strided(self, var):
        chunk = sweep_chunk(var, 0, 4, IP, stride_elems=8)
        np.testing.assert_array_equal(np.diff(chunk.addrs), 64)

    def test_elem_size(self, var):
        chunk = sweep_chunk(var, 0, 4, IP, elem_size=4)
        np.testing.assert_array_equal(np.diff(chunk.addrs), 4)

    def test_instructions_scale(self, var):
        chunk = sweep_chunk(var, 0, 100, IP, instructions_per_access=6.0)
        assert chunk.n_instructions == 600

    def test_instructions_at_least_accesses(self, var):
        chunk = sweep_chunk(var, 0, 100, IP, instructions_per_access=0.5)
        assert chunk.n_instructions == 100

    def test_empty_sweep_rejected(self, var):
        with pytest.raises(ProgramError):
            sweep_chunk(var, 0, 0, IP)

    def test_store_flag(self, var):
        assert sweep_chunk(var, 0, 1, IP, is_store=True).is_store


class TestIndexedChunk:
    def test_indirect_addresses(self, var):
        idx = np.array([5, 2, 9])
        chunk = indexed_chunk(var, idx, IP)
        np.testing.assert_array_equal(chunk.addrs, var.base + idx * 8)

    def test_empty_rejected(self, var):
        with pytest.raises(ProgramError):
            indexed_chunk(var, np.array([], dtype=np.int64), IP)

    def test_out_of_bounds_index_rejected(self, var):
        with pytest.raises(ProgramError):
            indexed_chunk(var, np.array([10_000]), IP)


# ---------------------------------------------------------------------- #
# Affine chunks: closed form against the explicit-array kernels
# ---------------------------------------------------------------------- #

LINE = CACHE_LINE
PAGE = PAGE_SIZE
#: Byte strides: zero, sub-line (dividing the line or not), one line,
#: over a line, one page, over a page, and negative strides under a line
#: (dividing it or not), over a line and one page.
STRIDES = [0, 1, 2, 4, 8, 16, 24, 48, 100, LINE, LINE + 8, PAGE, PAGE + 904,
           -1, -8, -24, -100, -PAGE]
#: Offsets of ``first`` from the variable base (from its end for negative
#: strides): aligned, unaligned, and 7 (8-aligned from the end).
OFFSETS = [0, 3, 7, 37, PAGE - 5]
COUNTS = [1, 2, 7, 1000]


@pytest.fixture(scope="module")
def big_var():
    machine = presets.generic(n_domains=2, cores_per_domain=1)
    heap = HeapAllocator(machine)
    return heap.malloc(8 << 20, "big", (SourceLoc("main"),))


def _pair(var, offset, step, n, n_instructions=None):
    """The same sweep as an affine chunk and as an explicit array."""
    if step >= 0:
        first = var.base + offset
    else:
        first = var.end - 1 - offset
    n_ins = n if n_instructions is None else n_instructions
    affine = AffineChunk(var, first, step, n, n_ins, IP)
    ref = first + step * np.arange(n, dtype=np.int64)
    return affine, AccessChunk(var, ref, n_ins, IP), ref


@pytest.mark.parametrize("n", COUNTS)
@pytest.mark.parametrize("offset", OFFSETS)
@pytest.mark.parametrize("step", STRIDES)
def test_affine_closed_form_matches_array_kernels(big_var, step, offset, n):
    affine, array, ref = _pair(big_var, offset, step, n)
    cache = CacheHierarchy(CacheConfig())
    want_fetch, want_fp, want_seq = chunk_fetch_products(cache, ref)
    fetch, fidx, fp, seq = affine.fetch_products(LINE)
    np.testing.assert_array_equal(fetch, want_fetch)
    np.testing.assert_array_equal(fidx, np.flatnonzero(want_fetch))
    assert fidx.dtype == np.int64
    assert (fp, seq) == (want_fp, want_seq)
    # The explicit-array chunk answers the same questions identically.
    a_fetch, a_fidx, a_fp, a_seq = array.fetch_products(LINE)
    np.testing.assert_array_equal(a_fetch, want_fetch)
    np.testing.assert_array_equal(a_fidx, fidx)
    assert (a_fp, a_seq) == (want_fp, want_seq)

    want_pages = np.unique(ref // PAGE)
    np.testing.assert_array_equal(affine.unique_pages(PAGE), want_pages)
    np.testing.assert_array_equal(array.unique_pages(PAGE), want_pages)

    idx = np.random.default_rng(n + offset).integers(0, n, size=17)
    np.testing.assert_array_equal(affine.addrs_at(idx), ref[idx])
    np.testing.assert_array_equal(array.addrs_at(idx), ref[idx])

    assert affine.n_accesses == array.n_accesses == n
    assert affine.first_addr == array.first_addr == int(ref[0])
    np.testing.assert_array_equal(affine.addrs, ref)


@pytest.mark.parametrize("n", COUNTS)
@pytest.mark.parametrize("offset", OFFSETS)
@pytest.mark.parametrize("step", STRIDES)
def test_fetch_page_runs_expand_to_fetch_pages(big_var, step, offset, n):
    affine, array, ref = _pair(big_var, offset, step, n)
    fidx = affine.fetch_products(LINE)[1]
    sampled = np.unique(np.random.default_rng(n + offset).integers(0, n, 17))
    for idx in (fidx, sampled):
        for chunk in (affine, array):
            pages, counts = chunk.fetch_page_runs(idx, PAGE)
            assert pages.dtype == counts.dtype == np.int64
            np.testing.assert_array_equal(
                np.repeat(pages, counts), ref[idx] // PAGE
            )
    # The chunk's own fetches: every affine run is a distinct page with
    # at least one fetch; an explicit chunk answers one run per fetch.
    pages, counts = affine.fetch_page_runs(fidx, PAGE)
    assert (counts > 0).all()
    assert (np.diff(pages) != 0).all()
    assert (array.fetch_page_runs(fidx, PAGE)[1] == 1).all()


@pytest.mark.parametrize("step", STRIDES)
def test_equal_fetch_keys_mean_equal_fetch_products(big_var, step):
    n = 1000
    affine, array, _ = _pair(big_var, 37, step, n)
    assert array.fetch_key(LINE) is None
    # Whole lines and pages further along: the same offset in a line.
    shift = (3 * PAGE + 5 * LINE) * (1 if step >= 0 else -1)
    moved = AffineChunk(big_var, affine.first_addr + shift, step, n, n, IP)
    assert moved.fetch_key(LINE) == affine.fetch_key(LINE)
    for got, want in zip(moved.fetch_products(LINE), affine.fetch_products(LINE)):
        np.testing.assert_array_equal(got, want)
    # One byte further is another offset in the line, so another key.
    nudged = AffineChunk(big_var, affine.first_addr + 1, step, n, n, IP)
    assert nudged.fetch_key(LINE) != affine.fetch_key(LINE)


@pytest.mark.parametrize("step", [8, -8, PAGE])
def test_affine_errors_match_array_errors(big_var, step):
    # Instruction floor.
    with pytest.raises(ProgramError) as got:
        _pair(big_var, 0, step, 10, n_instructions=5)[0]
    with pytest.raises(ProgramError) as want:
        AccessChunk(big_var, _pair(big_var, 0, step, 10)[2], 5, IP)
    assert str(got.value) == str(want.value)
    # Out of bounds: the sweep runs one element past the variable.
    n = big_var.nbytes // abs(step) + 1
    first = big_var.base if step > 0 else big_var.end - 1
    ref = first + step * np.arange(n, dtype=np.int64)
    with pytest.raises(ProgramError) as got:
        AffineChunk(big_var, first, step, n, n, IP)
    with pytest.raises(ProgramError) as want:
        AccessChunk(big_var, ref, n, IP)
    assert str(got.value) == str(want.value)
    assert "outside variable big" in str(got.value)


def test_sweep_chunk_is_affine_descriptor(var):
    chunk = sweep_chunk(var, 10, 400, IP, stride_elems=2)
    assert isinstance(chunk, AffineChunk)
    assert chunk.nbytes == 24
    assert chunk.first_addr == var.base + 80
    with pytest.raises(ProgramError, match="outside variable v"):
        sweep_chunk(var, 990, 20, IP)


def test_only_addrs_counts_a_materialization(var):
    tracer = obs.Tracer()
    old = obs.set_tracer(tracer)
    try:
        tracer.enable()
        chunk = sweep_chunk(var, 0, 100, IP)
        chunk.fetch_products(LINE)
        chunk.unique_pages(PAGE)
        chunk.addrs_at(np.arange(5))
        assert "engine.lazy.materialized_addrs" not in tracer.counters
        chunk.addrs
        chunk.addrs  # not cached: every call expands again
        # Explicit arrays are stored, not materialized.
        indexed_chunk(var, np.arange(5), IP).addrs
    finally:
        obs.set_tracer(old)
    assert tracer.counters["engine.lazy.materialized_addrs"] == 2


# ---------------------------------------------------------------------- #
# Summary steps never expand an affine chunk
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("workload, mechanism", [
    ("umt", lambda: MRK(2, max_rate=2e6)),
    ("lulesh", lambda: IBS(4096)),
])
def test_summary_steps_materialize_no_addresses(workload, mechanism):
    tracer = obs.Tracer()
    old = obs.set_tracer(tracer)
    try:
        tracer.enable()
        ExecutionEngine(
            presets.PRESETS["generic"](),
            RunSpec(workload, scale=0.02).program(), 8,
            monitor=NumaProfiler(mechanism()),
            binding=BindingPolicy.COMPACT,
        ).run()
    finally:
        obs.set_tracer(old)
    counters = tracer.counters
    assert counters.get("engine.steps_summary", 0) > 0
    assert counters.get("engine.lazy.materialized_addrs", 0) == 0
