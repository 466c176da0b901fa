"""Per-mechanism behaviour: capabilities, event selection, rates, costs."""

import numpy as np
import pytest

from repro.machine import presets
from repro.machine.cache import LEVEL_DRAM, LEVEL_L1, LEVEL_L2
from repro.runtime.callstack import SourceLoc
from repro.runtime.chunks import AccessChunk
from repro.runtime.heap import HeapAllocator
from repro.sampling import DEAR, IBS, MRK, PEBS, PEBSLL, SoftIBS
from tests.reference.sampling import cost_cycles, select


@pytest.fixture
def machine():
    return presets.generic(n_domains=2, cores_per_domain=2)


@pytest.fixture
def chunk(machine):
    heap = HeapAllocator(machine)
    var = heap.malloc(8 * 10_000, "v", (SourceLoc("main"),))
    return AccessChunk(
        var, var.base + np.arange(10_000) * 8, 80_000, SourceLoc("k", "k.c", 1)
    )


def uniform_inputs(chunk, dram_every=8, dram_latency=300.0):
    """Levels/targets/latencies with a DRAM access every ``dram_every``."""
    n = chunk.n_accesses
    levels = np.full(n, LEVEL_L1, dtype=np.uint8)
    levels[::dram_every] = LEVEL_DRAM
    targets = np.zeros(n, dtype=np.int64)
    lat = np.full(n, 4.0)
    lat[::dram_every] = dram_latency
    return levels, targets, lat


class TestIBS:
    def test_capabilities(self):
        caps = IBS.capabilities
        assert caps.measures_latency
        assert caps.samples_all_instructions
        assert not caps.event_based

    def test_sampling_rate_matches_period(self, machine, chunk):
        mech = IBS(period=1000)
        mech.configure(machine)
        levels, targets, lat = uniform_inputs(chunk)
        batch = select(mech, 0, chunk, levels, targets, lat)
        assert batch.n_sampled_instructions == 80
        # Memory samples ~ instruction samples x (accesses / instructions).
        assert batch.n_samples == pytest.approx(80 / 8, abs=6)

    def test_memory_samples_cover_chunk_uniformly(self, machine, chunk):
        mech = IBS(period=64)
        mech.configure(machine)
        levels, targets, lat = uniform_inputs(chunk)
        batch = select(mech, 0, chunk, levels, targets, lat)
        # Samples spread over the whole index range, not clustered.
        idx = batch.indices
        assert idx.min() < chunk.n_accesses * 0.1
        assert idx.max() > chunk.n_accesses * 0.9

    def test_no_aliasing_with_access_ratio(self, machine, chunk):
        """Period divisible by instr/access ratio must still yield samples
        (hardware-style low-bit randomization)."""
        mech = IBS(period=1024)  # 1024 % 8 == 0
        mech.configure(machine)
        levels, targets, lat = uniform_inputs(chunk)
        batch = select(mech, 0, chunk, levels, targets, lat)
        assert batch.n_samples > 0

    def test_latency_captured(self, machine, chunk):
        mech = IBS(period=100)
        mech.configure(machine)
        batch = select(mech, 0, chunk, *uniform_inputs(chunk))
        assert batch.latency_captured


class TestMRK:
    def test_capabilities(self):
        caps = MRK.capabilities
        assert not caps.measures_latency
        assert caps.counts_absolute_events
        assert caps.max_sample_rate_per_sec == 100.0

    def test_samples_only_demand_misses(self, machine, chunk):
        mech = MRK(max_rate=1e12)
        mech.configure(machine)
        levels, targets, lat = uniform_inputs(chunk, dram_latency=300.0)
        batch = select(mech, 0, chunk, levels, targets, lat)
        # All events are the DRAM accesses with demand latency.
        assert batch.n_events_total == np.count_nonzero(levels == LEVEL_DRAM)
        assert np.all(levels[batch.indices] == LEVEL_DRAM)

    def test_prefetched_lines_not_marked(self, machine, chunk):
        mech = MRK(max_rate=1e12)
        mech.configure(machine)
        levels, targets, lat = uniform_inputs(chunk)
        lat[levels == LEVEL_DRAM] = 44.0  # prefetched: below demand latency
        batch = select(mech, 0, chunk, levels, targets, lat)
        assert batch.n_events_total == 0
        assert batch.n_samples == 0

    def test_rate_cap_limits_samples(self, machine, chunk):
        capped = MRK(max_rate=100.0)
        capped.configure(machine)
        levels, targets, lat = uniform_inputs(chunk)
        batch = select(capped, 0, chunk, levels, targets, lat)
        free = MRK(max_rate=1e12)
        free.configure(machine)
        batch_free = select(free, 0, chunk, levels, targets, lat)
        assert batch.n_samples < batch_free.n_samples

    def test_rate_cap_budget_accumulates(self, machine, chunk):
        """Fractional budget carries across chunks: many small chunks get
        the same total as one big chunk."""
        mech = MRK(max_rate=5000.0)
        mech.configure(machine)
        levels, targets, lat = uniform_inputs(chunk)
        total = 0
        for _ in range(10):
            total += select(mech, 0, chunk, levels, targets, lat).n_samples
        mech2 = MRK(max_rate=50000.0)
        mech2.configure(machine)
        one = select(mech2, 0, chunk, levels, targets, lat).n_samples
        assert total == pytest.approx(one, abs=2)


class TestPEBS:
    def test_capabilities(self):
        assert not PEBS.capabilities.precise_ip
        assert not PEBS.capabilities.measures_latency

    def test_correction_cost_dominates(self, machine, chunk):
        corrected = PEBS(period=1000)
        corrected.configure(machine)
        levels, targets, lat = uniform_inputs(chunk)
        batch = select(corrected, 0, chunk, levels, targets, lat)
        cost_corrected = cost_cycles(corrected, batch, chunk)

        uncorrected = PEBS(period=1000, skid_correction=False)
        uncorrected.configure(machine)
        batch_u = select(uncorrected, 0, chunk, levels, targets, lat)
        cost_plain = cost_cycles(uncorrected, batch_u, chunk)
        assert cost_corrected > cost_plain

    def test_uncorrected_skid_shifts_attribution(self, machine, chunk):
        a = PEBS(period=500, skid_correction=True)
        b = PEBS(period=500, skid_correction=False)
        a.configure(machine, seed=1)
        b.configure(machine, seed=1)
        levels, targets, lat = uniform_inputs(chunk)
        ia = select(a, 0, chunk, levels, targets, lat).indices
        ib = select(b, 0, chunk, levels, targets, lat).indices
        assert ia.size == ib.size
        assert np.all(ib >= ia)
        assert np.any(ib == ia + 1)


class TestDEAR:
    def test_capabilities(self):
        caps = DEAR.capabilities
        assert not caps.supports_numa_events
        assert not caps.measures_latency

    def test_events_are_non_l1_accesses(self, machine, chunk):
        mech = DEAR(period=1)
        mech.configure(machine)
        n = chunk.n_accesses
        levels = np.full(n, LEVEL_L1, dtype=np.uint8)
        levels[::4] = LEVEL_L2
        levels[::16] = LEVEL_DRAM
        batch = select(mech, 0, chunk, levels, np.zeros(n), np.zeros(n))
        assert batch.n_events_total == np.count_nonzero(levels != LEVEL_L1)
        assert np.all(levels[batch.indices] != LEVEL_L1)


class TestPEBSLL:
    def test_capabilities(self):
        caps = PEBSLL.capabilities
        assert caps.measures_latency
        assert caps.counts_absolute_events

    def test_threshold_filters_events(self, machine, chunk):
        mech = PEBSLL(period=1, latency_threshold=100.0)
        mech.configure(machine)
        levels, targets, lat = uniform_inputs(chunk, dram_latency=300.0)
        batch = select(mech, 0, chunk, levels, targets, lat)
        assert batch.n_events_total == np.count_nonzero(lat > 100.0)
        assert np.all(lat[batch.indices] > 100.0)

    def test_period_reduces_samples_not_events(self, machine, chunk):
        mech = PEBSLL(period=10, latency_threshold=100.0)
        mech.configure(machine)
        levels, targets, lat = uniform_inputs(chunk)
        batch = select(mech, 0, chunk, levels, targets, lat)
        assert batch.n_events_total == 1250
        assert batch.n_samples == 125


class TestSoftIBS:
    def test_capabilities(self):
        caps = SoftIBS.capabilities
        assert caps.needs_thread_binding
        assert not caps.measures_latency

    def test_every_nth_access(self, machine, chunk):
        mech = SoftIBS(period=100)
        mech.configure(machine)
        levels, targets, lat = uniform_inputs(chunk)
        batch = select(mech, 0, chunk, levels, targets, lat)
        assert batch.n_samples == 100
        np.testing.assert_array_equal(np.diff(batch.indices), 100)

    def test_per_access_instrumentation_cost(self, machine, chunk):
        mech = SoftIBS(period=10**9)
        mech.configure(machine)
        levels, targets, lat = uniform_inputs(chunk)
        batch = select(mech, 0, chunk, levels, targets, lat)
        assert batch.n_samples == 0
        # Cost is nonzero even with zero samples: every access pays.
        assert cost_cycles(mech, batch, chunk) >= chunk.n_accesses * 10

    def test_counts_all_accesses_as_events(self, machine, chunk):
        mech = SoftIBS(period=100)
        mech.configure(machine)
        batch = select(mech, 0, chunk, *uniform_inputs(chunk))
        assert batch.n_events_total == chunk.n_accesses


class TestCrossMechanism:
    def test_overhead_ordering_per_access_cost(self, machine, chunk):
        """Soft-IBS must be the most expensive mechanism per executed
        chunk (Table 2's headline ordering)."""
        levels, targets, lat = uniform_inputs(chunk)
        costs = {}
        for mech in (IBS(), MRK(), PEBS(), DEAR(), PEBSLL(), SoftIBS()):
            mech.configure(machine)
            batch = select(mech, 0, chunk, levels, targets, lat)
            costs[mech.name] = cost_cycles(mech, batch, chunk)
        assert costs["Soft-IBS"] == max(costs.values())

    def test_independent_thread_state(self, machine, chunk):
        mech = SoftIBS(period=3000)
        mech.configure(machine)
        levels, targets, lat = uniform_inputs(chunk)
        b0 = select(mech, 0, chunk, levels, targets, lat)
        b1 = select(mech, 1, chunk, levels, targets, lat)
        np.testing.assert_array_equal(b0.indices, b1.indices)
