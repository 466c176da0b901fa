"""End-to-end memory latency model.

Combines the cache service level, the local/remote placement of the
target page, prefetch exposure, and the contention inflation of the
target domain's memory controller into a per-access latency in cycles.

Remote DRAM carries both a base latency penalty (paper Section 2: remote
accesses have more than 30% higher latency than local) and a per-hop
interconnect cost derived from the SLIT distance matrix.

**Prefetch exposure.** For a sequential chunk, only a fraction
``seq_exposure`` of DRAM fetches expose full memory latency; the rest
are covered by the hardware prefetcher and cost ``prefetched_latency``.
Exposure degrades with contention: a saturated controller cannot keep
prefetches ahead of the core, so the effective exposure is
``min(1, seq_exposure * inflation(target))`` — this is the mechanism by
which the centralized distribution of the paper's Figure 1 hurts even
perfectly streaming code, and it lets balanced distributions
(interleaved/block-wise) recover prefetch efficiency.

Non-sequential (indirect) chunks are always fully exposed, which is why
AMG2006's indirection produces a larger lpi_NUMA than LULESH's streams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.machine.topology import NumaTopology


@dataclass(frozen=True, repr=False)
class LatencyModel:
    """Latency parameters (cycles) for each service point."""

    l1: float = 4.0
    l2: float = 12.0
    l3: float = 40.0
    dram_local: float = 200.0
    dram_remote: float = 300.0
    hop_cost: float = 6.0  # extra cycles per SLIT-distance-unit above local
    #: Latency of a DRAM fetch fully covered by the prefetcher.
    prefetched_latency: float = 44.0
    #: Fraction of a sequential stream's DRAM fetches exposing full latency
    #: at inflation 1 (uncontended).
    seq_exposure: float = 0.12
    #: Prefetchers cover remote streams less well than local ones (the
    #: round trip is longer than the prefetch distance buys): remote
    #: fetches' exposure is scaled up by this factor.
    remote_exposure_factor: float = 1.75
    #: Stream prefetchers stop at page boundaries; on a page-interleaved
    #: segment every restart lands on a (likely remote) new domain, so
    #: sequential exposure rises by this factor. Architectures with long
    #: prefetch ramp-up (POWER7) are hit hardest — this is the mechanism
    #: behind the paper's observation that interleaving *degraded* LULESH
    #: on POWER7 by 16.4% while helping on AMD.
    interleave_stream_penalty: float = 1.0

    def __post_init__(self) -> None:
        if not (0 < self.l1 <= self.l2 <= self.l3 <= self.dram_local):
            raise ValueError("latencies must satisfy 0 < L1 <= L2 <= L3 <= DRAM")
        if self.dram_remote < self.dram_local:
            raise ValueError("remote DRAM latency must be >= local")
        if not 0.0 < self.seq_exposure <= 1.0:
            raise ValueError("seq_exposure must be in (0, 1]")

    def remote_ratio(self) -> float:
        """Base remote/local DRAM latency ratio (paper: > 1.3)."""
        return self.dram_remote / self.dram_local

    def _demand_latency(
        self,
        accessor_domain: int,
        topology: NumaTopology,
        inflation: np.ndarray,
    ) -> np.ndarray:
        """Full (exposed) DRAM latency per *target domain*.

        A fetch's latency depends on it only through its target domain,
        so it is computed once per domain and gathered: the same float
        operations per element, without access-sized temporaries.
        """
        dist = topology.distances[accessor_domain]
        local = np.arange(topology.n_domains) == accessor_domain
        base = np.where(local, self.dram_local, self.dram_remote)
        hops = np.maximum(dist - 10, 0) / 10.0  # SLIT units above local
        base = base + hops * self.hop_cost * 10.0
        return base * np.asarray(inflation)

    def dram_fetch_latencies(
        self,
        target_domains: np.ndarray,
        accessor_domain: int,
        topology: NumaTopology,
        inflation: np.ndarray,
        *,
        sequential: bool = False,
        interleaved: bool = False,
    ) -> np.ndarray:
        """Latency of one chunk's DRAM line fetches, in fetch order.

        ``target_domains`` holds the fetching accesses' page owners. A
        fetch costs its target domain's latency (remote base plus SLIT
        hop cost) times the domain's contention inflation. In a
        sequential (prefetchable) stream only the fetches crossing the
        next exposure quantum expose it — the k-th fetch is exposed
        when ``floor((k + 1) * e) > floor(k * e)`` for its exposure
        ``e`` — and the rest cost ``prefetched_latency``. Cache-level
        accesses cost the level's fixed latency and never reach here.
        """
        tgt = np.asarray(target_domains)
        demand = self._demand_latency(accessor_domain, topology, inflation)
        if not sequential:
            return demand[tgt]
        # Per target domain, then gathered (as the demand latency).
        local = np.arange(topology.n_domains) == accessor_domain
        remote_scale = np.where(local, 1.0, self.remote_exposure_factor)
        stream_scale = self.interleave_stream_penalty if interleaved else 1.0
        exposure = np.minimum(
            1.0,
            self.seq_exposure
            * np.asarray(inflation)
            * remote_scale
            * stream_scale,
        )[tgt]
        # Three fetch-sized float arrays at most: floor(k * e), then
        # floor((k + 1) * e) built in ``exposure``, then the output in
        # the first one's buffer.
        n = tgt.size
        lat = np.arange(n, dtype=np.float64)
        lat *= exposure
        np.floor(lat, out=lat)
        exposure *= np.arange(1, n + 1, dtype=np.float64)
        np.floor(exposure, out=exposure)
        exposed = exposure > lat
        del exposure
        lat.fill(self.prefetched_latency)
        lat[exposed] = demand[tgt[exposed]]
        return lat

    @property
    def demand_min_latency(self) -> float:
        """The least latency a *demand* DRAM miss exposes.

        Event counters that fire on demand misses only (MRK's
        ``PM_MRK_FROM_L3MISS``) count DRAM accesses at or above it
        (``ChunkView.demand_miss_events``): prefetched lines do not
        cause demand-miss events.
        """
        return self.dram_local * 0.95
