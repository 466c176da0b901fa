"""Latency model: level latencies, remote penalties, prefetch exposure."""

import numpy as np
import pytest

from repro.machine.cache import LEVEL_DRAM, LEVEL_L1, LEVEL_L2, LEVEL_L3
from repro.machine.latency import LatencyModel
from repro.machine.topology import NumaTopology
from repro.runtime.callstack import SourceLoc
from repro.runtime.chunks import AccessChunk
from tests.reference.access import ChunkView, access_latency


@pytest.fixture
def topo():
    return NumaTopology(n_domains=4, cores_per_domain=2)


@pytest.fixture
def model():
    return LatencyModel(
        l1=4, l2=12, l3=40, dram_local=200, dram_remote=300,
        seq_exposure=0.25, remote_exposure_factor=2.0,
    )


def ones(topo):
    return np.ones(topo.n_domains)


class TestValidation:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            LatencyModel(l1=50, l2=12, l3=40, dram_local=200, dram_remote=300)

    def test_remote_below_local_rejected(self):
        with pytest.raises(ValueError):
            LatencyModel(dram_local=300, dram_remote=200)

    def test_exposure_bounds(self):
        with pytest.raises(ValueError):
            LatencyModel(seq_exposure=0.0)

    def test_remote_ratio(self):
        m = LatencyModel(dram_local=200, dram_remote=300)
        assert m.remote_ratio() == pytest.approx(1.5)


class TestCacheLevels:
    def test_level_latencies(self, model, topo):
        levels = np.array([LEVEL_L1, LEVEL_L2, LEVEL_L3], dtype=np.uint8)
        lat = access_latency(
            model, levels, np.zeros(3, dtype=np.int64), 0, topo, ones(topo)
        )
        np.testing.assert_allclose(lat, [4, 12, 40])


class TestDramLatency:
    def test_local_vs_remote_random_access(self, model, topo):
        levels = np.full(2, LEVEL_DRAM, dtype=np.uint8)
        targets = np.array([0, 1])
        lat = access_latency(
            model, levels, targets, 0, topo, ones(topo), sequential=False
        )
        assert lat[0] == pytest.approx(200)
        assert lat[1] > 300  # remote base + hop cost

    def test_hop_cost_scales_with_distance(self, topo):
        dist = np.array(
            [[10, 20, 40], [20, 10, 20], [40, 20, 10]], dtype=np.int64
        )
        topo3 = NumaTopology(n_domains=3, cores_per_domain=1, distances=dist)
        m = LatencyModel(hop_cost=10.0)
        levels = np.full(2, LEVEL_DRAM, dtype=np.uint8)
        lat = access_latency(
            m, levels, np.array([1, 2]), 0, topo3, np.ones(3), sequential=False
        )
        assert lat[1] > lat[0]

    def test_inflation_multiplies_dram(self, model, topo):
        levels = np.array([LEVEL_DRAM], dtype=np.uint8)
        infl = np.array([3.0, 1.0, 1.0, 1.0])
        lat = access_latency(
            model, levels, np.array([0]), 0, topo, infl, sequential=False
        )
        assert lat[0] == pytest.approx(600)

    def test_inflation_does_not_touch_cache_hits(self, model, topo):
        levels = np.array([LEVEL_L2], dtype=np.uint8)
        infl = np.full(4, 5.0)
        lat = access_latency(model, levels, np.array([0]), 0, topo, infl)
        assert lat[0] == pytest.approx(12)


class TestPrefetchExposure:
    def test_sequential_mostly_prefetched(self, model, topo):
        levels = np.full(100, LEVEL_DRAM, dtype=np.uint8)
        targets = np.zeros(100, dtype=np.int64)
        lat = access_latency(
            model, levels, targets, 0, topo, ones(topo), sequential=True
        )
        exposed = np.count_nonzero(lat > model.prefetched_latency)
        assert exposed == pytest.approx(25, abs=2)  # seq_exposure 0.25

    def test_random_fully_exposed(self, model, topo):
        levels = np.full(50, LEVEL_DRAM, dtype=np.uint8)
        lat = access_latency(
            model, levels, np.zeros(50, dtype=np.int64), 0, topo, ones(topo),
            sequential=False,
        )
        assert np.all(lat == pytest.approx(200))

    def test_remote_streams_more_exposed(self, model, topo):
        levels = np.full(200, LEVEL_DRAM, dtype=np.uint8)
        local = access_latency(
            model, levels, np.zeros(200, dtype=np.int64), 0, topo, ones(topo),
            sequential=True,
        )
        remote = access_latency(
            model, levels, np.ones(200, dtype=np.int64), 0, topo, ones(topo),
            sequential=True,
        )
        exp_local = np.count_nonzero(local > model.prefetched_latency)
        exp_remote = np.count_nonzero(remote > model.prefetched_latency)
        assert exp_remote == pytest.approx(2 * exp_local, rel=0.2)

    def test_contention_degrades_prefetch(self, model, topo):
        """Saturated controllers expose more fetches (the Fig. 1 coupling)."""
        levels = np.full(200, LEVEL_DRAM, dtype=np.uint8)
        targets = np.zeros(200, dtype=np.int64)
        quiet = access_latency(
            model, levels, targets, 0, topo, ones(topo), sequential=True
        )
        loud = access_latency(
            model, levels, targets, 0, topo, np.array([3.0, 1, 1, 1]),
            sequential=True,
        )
        assert loud.sum() > quiet.sum()

    def test_interleave_penalty_raises_exposure(self, topo):
        m = LatencyModel(seq_exposure=0.1, interleave_stream_penalty=4.0)
        levels = np.full(200, LEVEL_DRAM, dtype=np.uint8)
        targets = np.zeros(200, dtype=np.int64)
        plain = access_latency(
            m, levels, targets, 0, topo, ones(topo), sequential=True
        )
        interleaved = access_latency(
            m, levels, targets, 0, topo, ones(topo),
            sequential=True, interleaved=True,
        )
        assert interleaved.sum() > plain.sum()

    def test_exposure_capped_at_one(self, topo):
        m = LatencyModel(seq_exposure=0.9, remote_exposure_factor=5.0)
        levels = np.full(50, LEVEL_DRAM, dtype=np.uint8)
        lat = access_latency(
            m, levels, np.ones(50, dtype=np.int64), 0, topo, ones(topo),
            sequential=True,
        )
        # Everything exposed; none at the prefetched latency.
        assert np.all(lat > m.prefetched_latency)


def _view(levels, latencies):
    """An eager one-chunk view of ``levels`` and ``latencies``."""
    n = levels.size
    return ChunkView(
        0, 0, 0, AccessChunk(None, np.arange(n, dtype=np.int64) * 64, n,
                             SourceLoc("k")),
        levels, np.zeros(n, np.int64), latencies, (SourceLoc("k"),),
        levels == LEVEL_DRAM, np.zeros(n, bool),
    )


class TestDemandMask:
    """MRK's demand-miss events: DRAM accesses at or above
    ``demand_min_latency`` (``ChunkView.demand_miss_events``)."""

    def test_separates_demand_from_prefetched(self, model, topo):
        levels = np.full(100, LEVEL_DRAM, dtype=np.uint8)
        lat = access_latency(
            model, levels, np.zeros(100, dtype=np.int64), 0, topo, ones(topo),
            sequential=True,
        )
        events = _view(levels, lat).demand_miss_events(
            model.demand_min_latency
        )
        assert 0 < events.size < lat.size
        np.testing.assert_array_equal(events, np.flatnonzero(lat >= 200 * 0.95))

    def test_cache_hits_never_demand(self, model, topo):
        levels = np.array([LEVEL_L3], dtype=np.uint8)
        lat = np.array([400.0])  # even with high latency value
        view = _view(levels, lat)
        assert view.demand_miss_events(model.demand_min_latency).size == 0


class TestFetchLatencies:
    """``LatencyModel.dram_fetch_latencies`` (a chunk's DRAM fetches,
    built in place) equals the per-access reference bit for bit."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("sequential,interleaved", [
        (False, False), (True, False), (True, True),
    ])
    def test_matches_reference(self, topo, seed, sequential, interleaved):
        rng = np.random.default_rng(seed)
        model = LatencyModel(
            seq_exposure=float(rng.uniform(0.05, 1.0)),
            remote_exposure_factor=float(rng.uniform(1.0, 4.0)),
            interleave_stream_penalty=float(rng.uniform(1.0, 3.0)),
        )
        n = int(rng.integers(0, 3000))
        # Mostly one domain, as a bound segment's pages are.
        targets = np.where(
            rng.random(n) < 0.8, int(rng.integers(0, 4)),
            rng.integers(0, 4, n),
        ).astype(np.int8)
        inflation = rng.uniform(1.0, 3.0, topo.n_domains)
        accessor = int(rng.integers(0, 4))
        lat = model.dram_fetch_latencies(
            targets, accessor, topo, inflation,
            sequential=sequential, interleaved=interleaved,
        )
        ref = access_latency(
            model, np.full(n, LEVEL_DRAM, dtype=np.uint8), targets,
            accessor, topo, inflation,
            sequential=sequential, interleaved=interleaved,
        )
        assert lat.dtype == np.float64
        np.testing.assert_array_equal(lat, ref)
