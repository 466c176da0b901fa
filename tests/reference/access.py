"""Per-chunk access pipeline: classification, placement and latency.

The engine classifies and prices a whole step at once: cached fetch
products, one reuse lookup over interned slots
(``CacheHierarchy.fetch_levels``), DRAM page owners per page run and
latencies per fetch (``LatencyModel.dram_fetch_latencies``). These
functions are the per-chunk, per-access definition it must reproduce
(``tests/test_step_reference.py``): every access gets a level, an owner
and a latency. The reuse lookup here is a scalar one over the cache's
own state arrays, so it advances the same state the engine reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.machine.cache import (
    LEVEL_DRAM,
    LEVEL_L1,
    LEVEL_L2,
    LEVEL_L3,
    SEQUENTIAL_FRACTION,
    SEQUENTIAL_STRIDE_LIMIT,
)
from repro.runtime.callstack import CallPath
from repro.runtime.chunks import AccessChunk
from repro.runtime.memo import StepViews


@dataclass
class ChunkClassification:
    """Output of :func:`classify` for one chunk."""

    levels: np.ndarray          # per-access service level codes
    sequential: bool            # prefetchable stream?
    footprint_bytes: int        # unique lines touched * line size

    @property
    def n_fetches(self) -> int:
        """Line fetches that left L1 (L2 + L3 + DRAM services)."""
        return int(np.count_nonzero(self.levels != LEVEL_L1))


def explicit_fetch_products(
    addrs: np.ndarray, line_size: int
) -> tuple[np.ndarray, int, bool]:
    """``(fetch_mask, footprint_bytes, sequential)`` of explicit addresses.

    Each line's first access fetches it; the footprint is the unique
    lines times ``line_size``; a stream is sequential when at least
    ``SEQUENTIAL_FRACTION`` of its address deltas are small forward
    strides.
    """
    addrs = np.asarray(addrs, dtype=np.int64)
    _, first = np.unique(addrs // line_size, return_index=True)
    fetch = np.zeros(addrs.size, dtype=bool)
    fetch[first] = True
    if addrs.size < 2:
        sequential = True
    else:
        deltas = np.diff(addrs)
        ok = (deltas >= 0) & (deltas <= SEQUENTIAL_STRIDE_LIMIT)
        sequential = bool(
            np.count_nonzero(ok) >= SEQUENTIAL_FRACTION * deltas.size
        )
    return fetch, int(first.size) * line_size, sequential


def fetch_level(cache, cpu: int, seg_id: int, first_addr: int,
                footprint: int) -> int:
    """Service level of one chunk's line fetches; advances the cache.

    The bytes ``cpu`` streamed since its last visit to the chunk's
    (segment, L3-sized block), plus the chunk's own footprint, decide
    L2, L3 or DRAM; a first visit is a compulsory DRAM fetch.
    """
    config = cache.config
    slot = int(cache.slots((cpu,), (seg_id,), (first_addr,))[0])
    pos = int(cache._pos[cpu])
    last = int(cache._last[slot])
    if last < 0:
        level = LEVEL_DRAM
    else:
        distance = pos - last + footprint
        if distance <= config.l2_bytes:
            level = LEVEL_L2
        elif distance <= config.l3_bytes:
            level = LEVEL_L3
        else:
            level = LEVEL_DRAM
    cache._pos[cpu] = cache._last[slot] = pos + footprint
    return level


def classify(cache, addrs: np.ndarray, cpu: int, seg_id: int) -> ChunkClassification:
    """Classify one chunk of accesses (in program order) for one CPU."""
    addrs = np.asarray(addrs, dtype=np.int64)
    levels = np.full(addrs.shape, LEVEL_L1, dtype=np.uint8)
    if addrs.size == 0:
        return ChunkClassification(levels, True, 0)
    fetch, footprint, sequential = explicit_fetch_products(
        addrs, cache.config.line_size
    )
    levels[fetch] = fetch_level(cache, cpu, seg_id, int(addrs[0]), footprint)
    return ChunkClassification(levels, sequential, footprint)


def chunk_fetch_products(cache, addrs: np.ndarray) -> tuple[np.ndarray, int, bool]:
    """The pure half of :func:`classify` for one non-empty chunk."""
    return explicit_fetch_products(addrs, cache.config.line_size)


def classify_accesses(machine, addrs: np.ndarray, cpu: int, seg):
    """``(classification, target_domains)``: levels and page owners.

    Pages must be bound first; addresses fall inside ``seg``.
    """
    classification = classify(machine.cache, addrs, cpu, seg.seg_id)
    pages = np.asarray(addrs, dtype=np.int64) // machine.page_size
    return classification, seg.domains[pages - seg.start_page]


def dram_request_counts(machine, levels: np.ndarray,
                        target_domains: np.ndarray) -> np.ndarray:
    """Per-domain DRAM request counts for contention accounting."""
    dram_targets = np.asarray(target_domains)[np.asarray(levels) == LEVEL_DRAM]
    return np.bincount(
        dram_targets, minlength=machine.topology.n_domains
    ).astype(np.int64)


def access_latency(
    model, levels: np.ndarray, target_domains: np.ndarray,
    accessor_domain: int, topology, inflation: np.ndarray, *,
    sequential: bool = False, interleaved: bool = False,
) -> np.ndarray:
    """Per-access latency in cycles under ``model`` (a ``LatencyModel``).

    Cache levels cost their fixed latency. A DRAM access costs the
    target domain's latency (remote base plus SLIT hop cost) times its
    contention inflation; in a sequential stream only the accesses
    crossing the next exposure quantum expose it, the rest cost the
    prefetched latency.
    """
    levels = np.asarray(levels)
    lat = np.empty(levels.shape, dtype=np.float64)
    lat[levels == LEVEL_L1] = model.l1
    lat[levels == LEVEL_L2] = model.l2
    lat[levels == LEVEL_L3] = model.l3
    dram_mask = levels == LEVEL_DRAM
    n_dram = int(np.count_nonzero(dram_mask))
    if n_dram == 0:
        return lat
    tgt = np.asarray(target_domains)[dram_mask]
    dist = topology.distances[accessor_domain]
    local = np.arange(topology.n_domains) == accessor_domain
    base = np.where(local, model.dram_local, model.dram_remote)
    hops = np.maximum(dist - 10, 0) / 10.0  # SLIT units above local
    base = base + hops * model.hop_cost * 10.0
    demand = (base * np.asarray(inflation))[tgt]
    if not sequential:
        lat[dram_mask] = demand
        return lat
    remote_scale = np.where(
        tgt == accessor_domain, 1.0, model.remote_exposure_factor
    )
    stream_scale = model.interleave_stream_penalty if interleaved else 1.0
    exposure = np.minimum(
        1.0,
        model.seq_exposure * np.asarray(inflation)[tgt] * remote_scale
        * stream_scale,
    )
    idx = np.arange(n_dram, dtype=np.float64)
    exposed = np.floor((idx + 1) * exposure) > np.floor(idx * exposure)
    lat[dram_mask] = np.where(exposed, demand, model.prefetched_latency)
    return lat


def machine_access_latency(
    machine, levels: np.ndarray, target_domains: np.ndarray, cpu: int,
    inflation: np.ndarray, *, sequential: bool = False,
    interleaved: bool = False,
) -> np.ndarray:
    """:func:`access_latency` for accesses issued by ``cpu`` of ``machine``."""
    return access_latency(
        machine.latency_model, levels, target_domains,
        machine.topology.domain_of_cpu(cpu), machine.topology, inflation,
        sequential=sequential, interleaved=interleaved,
    )


@dataclass(eq=False, repr=False)
class ChunkView:
    """One chunk's per-access products as explicit arrays.

    The eager definition of the engine's view
    (``repro.runtime.engine.LazyChunkView``): ``levels``,
    ``target_domains`` and ``latencies`` per access, plus the masks
    ``dram_mask`` (service level is DRAM) and ``remote_mask`` (page
    owner differs from the accessing thread's domain). The oracle
    suites build it from this module's per-chunk pipeline and compare
    the engine's lazy views and batched monitors against it.
    """

    tid: int
    cpu: int
    domain: int
    chunk: AccessChunk
    levels: np.ndarray
    target_domains: np.ndarray
    latencies: np.ndarray
    path: CallPath
    dram_mask: np.ndarray
    remote_mask: np.ndarray

    def remote_event_count(self) -> int:
        """Remote DRAM accesses in this chunk (absolute event counters)."""
        return int(np.count_nonzero(self.dram_mask & self.remote_mask))

    # Event primitives: the chunk-local indices of one sampling
    # mechanism's trigger events, ascending. Event mechanisms select
    # from these instead of masking the per-access arrays themselves.

    def demand_miss_events(self, min_latency: float) -> np.ndarray:
        """DRAM accesses with latency at least ``min_latency`` (MRK)."""
        return np.flatnonzero(self.dram_mask & (self.latencies >= min_latency))

    def miss_events(self) -> np.ndarray:
        """Accesses not serviced by L1 (DEAR)."""
        return np.flatnonzero(self.levels != LEVEL_L1)

    def slow_events(self, threshold: float) -> np.ndarray:
        """Accesses with latency above ``threshold`` (PEBS-LL)."""
        return np.flatnonzero(self.latencies > threshold)

    def latency_total(self) -> float:
        """``float(self.latencies.sum())``."""
        return float(self.latencies.sum())

    def latencies_at(self, idx: np.ndarray) -> np.ndarray:
        """Latencies at sampled indices ``idx`` (sorted, chunk-local)."""
        return self.latencies[idx]


def _ask_every_view(ks, n_s, idx, lat_ok: bool):
    """A step gather that answers nothing in closed form: every view
    ``ks`` is left to its ``chunk.addrs_at`` / ``latencies_at``."""
    addrs = np.empty(idx.size, dtype=np.int64)
    lat = np.empty(idx.size) if lat_ok else None
    return addrs, lat, range(ks.size)


def step_views(views) -> StepViews:
    """Eager per-chunk views as the ``StepViews`` a monitor's ``on_step``
    takes, with the per-view thread, instruction and access counts and a
    gather that asks each sampled view for its addresses and latencies."""
    n = len(views)
    tids = np.fromiter((v.tid for v in views), dtype=np.int64, count=n)
    n_ins = np.fromiter(
        (v.chunk.n_instructions for v in views), dtype=np.int64, count=n
    )
    n_acc = np.fromiter(
        (v.chunk.n_accesses for v in views), dtype=np.int64, count=n
    )
    out = StepViews(views, tids, n_ins, n_acc)
    out.gather = _ask_every_view
    return out
