"""Statistical properties of address sampling.

The paper requires that "memory accesses are uniformly sampled" — these
tests verify the estimators built on that assumption: sampled metric
ratios converge to ground-truth ratios, and eq. (2)'s lpi estimate is
unbiased across sampling rates.
"""

import numpy as np
import pytest

from repro.machine import presets
from repro.machine.cache import LEVEL_DRAM, LEVEL_L1
from repro.runtime.callstack import SourceLoc
from repro.runtime.chunks import AccessChunk
from repro.runtime.heap import HeapAllocator
from repro.sampling import IBS, SoftIBS
from tests.reference.sampling import select


@pytest.fixture
def big_chunk():
    machine = presets.generic()
    heap = HeapAllocator(machine)
    var = heap.malloc(8 * 200_000, "v", (SourceLoc("main"),))
    n = 200_000
    return AccessChunk(
        var, var.base + np.arange(n) * 8, n * 5, SourceLoc("k")
    )


def make_inputs(chunk, remote_fraction=1 / 3, seed=11):
    """Ground truth with randomized (non-periodic) structure.

    Perfectly modular patterns would alias with the deterministic
    sampling grid — a pathology real access streams don't exhibit.
    """
    rng = np.random.default_rng(seed)
    n = chunk.n_accesses
    levels = np.full(n, LEVEL_L1, dtype=np.uint8)
    levels[rng.random(n) < 1 / 8] = LEVEL_DRAM
    targets = (rng.random(n) < remote_fraction).astype(np.int64)
    lat = np.where(levels == LEVEL_DRAM, 250.0, 4.0)
    return levels, targets, lat


class TestUniformity:
    def test_ibs_remote_fraction_unbiased(self, big_chunk):
        """Sampled remote fraction converges to the ground truth 1/3."""
        machine = presets.generic()
        mech = IBS(period=64)
        mech.configure(machine)
        levels, targets, lat = make_inputs(big_chunk)
        batch = select(mech, 0, big_chunk, levels, targets, lat)
        sampled_remote = np.count_nonzero(targets[batch.indices] == 1)
        frac = sampled_remote / batch.n_samples
        assert frac == pytest.approx(1 / 3, abs=0.03)

    def test_ibs_samples_spread_over_chunk(self, big_chunk):
        """No positional bias: sample quartiles hold ~25% each."""
        machine = presets.generic()
        mech = IBS(period=64)
        mech.configure(machine)
        levels, targets, lat = make_inputs(big_chunk)
        batch = select(mech, 0, big_chunk, levels, targets, lat)
        n = big_chunk.n_accesses
        hist, _ = np.histogram(batch.indices, bins=4, range=(0, n))
        assert hist.min() > 0.2 * batch.n_samples
        assert hist.max() < 0.3 * batch.n_samples

    def test_soft_ibs_exact_rate(self, big_chunk):
        machine = presets.generic()
        mech = SoftIBS(period=1000)
        mech.configure(machine)
        levels, targets, lat = make_inputs(big_chunk)
        batch = select(mech, 0, big_chunk, levels, targets, lat)
        assert batch.n_samples == big_chunk.n_accesses // 1000

    def test_memory_sample_rate_tracks_access_density(self, big_chunk):
        """IBS memory samples ~ instruction samples x (accesses/instr)."""
        machine = presets.generic()
        mech = IBS(period=128)
        mech.configure(machine)
        levels, targets, lat = make_inputs(big_chunk)
        batch = select(mech, 0, big_chunk, levels, targets, lat)
        expected = batch.n_sampled_instructions * (
            big_chunk.n_accesses / big_chunk.n_instructions
        )
        assert batch.n_samples == pytest.approx(expected, rel=0.1)


class TestLpiUnbiasedness:
    def test_eq2_estimate_stable_across_rates(self, big_chunk):
        """The eq. (2) ratio is invariant to the sampling period."""
        machine = presets.generic()
        levels, targets, lat = make_inputs(big_chunk)

        def lpi_at(period):
            mech = IBS(period=period)
            mech.configure(machine)
            batch = select(mech, 0, big_chunk, levels, targets, lat)
            remote = targets[batch.indices] == 1
            l_remote = lat[batch.indices][remote].sum()
            return l_remote / batch.n_sampled_instructions

        dense, sparse = lpi_at(32), lpi_at(256)
        # Ground truth: remote latency / instructions over the full chunk.
        truth = lat[targets == 1].sum() / big_chunk.n_instructions
        # Dense sampling (~6000 memory samples) pins the estimate down;
        # at period 256 only ~35 remote-DRAM events are sampled, so the
        # tolerance follows the ~1/sqrt(n) statistics.
        assert dense == pytest.approx(truth, rel=0.15)
        assert sparse == pytest.approx(truth, rel=0.6)
