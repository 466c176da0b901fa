"""Cache hierarchy model.

The profiler does not need a cycle-accurate cache simulator; it needs a
model that decides, per access, which level services it — because only
accesses that reach memory (an "L3 miss" in the paper's MRK
configuration) have a NUMA-relevant local/remote distinction and a NUMA
latency — and how much of that memory latency is *exposed* to the core.

The model is deterministic and vectorized, with three ingredients:

1. **Intra-chunk temporal locality.** Within one access chunk, the first
   occurrence of each cache line is a *line fetch*; repeats hit L1. A
   unit-stride double sweep yields the classic ``elem/line = 1/8``
   per-access fetch rate.

2. **Inter-chunk reuse distance.** Each CPU keeps a running count of
   bytes it has streamed; per (cpu, segment) the position of the last
   visit is remembered. On revisit, the bytes streamed since — a
   stack-distance approximation — decide whether the segment's lines are
   still in L2, in L3, or evicted to DRAM. This is what makes
   Blackscholes (small per-thread slices revisited every step) cache-
   resident while LULESH (large multi-array per-thread footprint)
   misses to DRAM every time step, matching the two papers' verdicts.

3. **Prefetch exposure.** Sequential streams are largely covered by
   hardware prefetchers: only a fraction of their DRAM fetches expose
   full memory latency to the core (the rest arrive early and cost only
   an L3-ish latency) — but *every* fetch still consumes memory-controller
   bandwidth, and when a controller saturates, prefetching stops keeping
   up and the exposed fraction rises toward 1. That coupling (handled in
   :mod:`repro.machine.latency`) is the paper's Figure 1 story: a
   centralized data distribution hurts even streaming code. Irregular
   (indirect) access is not prefetchable and is always fully exposed —
   which is why AMG2006 shows a larger lpi_NUMA than LULESH.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.units import CACHE_LINE, first_occurrence_mask

#: Service-level codes used across the simulator.
LEVEL_L1 = 0
LEVEL_L2 = 1
LEVEL_L3 = 2
LEVEL_DRAM = 3

#: Last-visit marker of a reuse slot not visited since the last reset
#: (real markers are stream positions after a visit, never negative).
_NEVER = -1

#: Maximum forward byte-stride still considered a prefetchable stream.
SEQUENTIAL_STRIDE_LIMIT = 256

#: Fraction of consecutive address deltas that must look sequential for
#: the chunk to count as prefetchable.
SEQUENTIAL_FRACTION = 0.9


@dataclass(frozen=True, repr=False)
class CacheConfig:
    """Capacities (bytes) and line size of one core's reachable hierarchy.

    ``l3_bytes`` is the slice of the shared last-level cache a single
    hardware thread can realistically keep resident (capacity / sharers
    is a reasonable default in the presets).
    """

    l1_bytes: int = 32 * 1024
    l2_bytes: int = 512 * 1024
    l3_bytes: int = 1 * 1024 * 1024
    line_size: int = CACHE_LINE

    def __post_init__(self) -> None:
        if not (0 < self.l1_bytes <= self.l2_bytes <= self.l3_bytes):
            raise ValueError(
                "cache sizes must satisfy 0 < L1 <= L2 <= L3, got "
                f"{self.l1_bytes}/{self.l2_bytes}/{self.l3_bytes}"
            )
        if self.line_size <= 0:
            raise ValueError(f"line size must be positive, got {self.line_size}")


@dataclass(eq=False, repr=False)
class ChunkSummary:
    """One chunk's classification without per-access levels.

    ``fetch`` marks the accesses that fetch a new cache line; they are all
    serviced at ``fetch_level`` while every other access hits L1, so the
    full per-access level array is recoverable but never allocated. The
    engine's step pipeline builds it from the chunk's ``fetch_products``
    (pure; see :mod:`repro.runtime.chunks`) and
    :meth:`CacheHierarchy.fetch_levels` (stateful).
    """

    fetch: np.ndarray           # per-access line-fetch mask
    fetch_level: int            # service level of all fetches
    sequential: bool            # prefetchable stream?
    footprint_bytes: int        # unique lines touched * line size

    @property
    def n_fetches(self) -> int:
        """Number of line fetches (``footprint / line_size``)."""
        return int(np.count_nonzero(self.fetch))


def is_sequential(addrs: np.ndarray) -> bool:
    """Detect a prefetchable (mostly small-forward-stride) access stream."""
    if addrs.size < 2:
        return True
    deltas = np.diff(addrs)
    ok = (deltas >= 0) & (deltas <= SEQUENTIAL_STRIDE_LIMIT)
    return bool(np.count_nonzero(ok) >= SEQUENTIAL_FRACTION * deltas.size)


def array_fetch_products(
    addrs: np.ndarray, line_size: int
) -> tuple[np.ndarray, int, bool]:
    """``(fetch_mask, footprint_bytes, sequential)`` of explicit addresses.

    ``fetch_mask`` marks each line's first access and the footprint is
    the unique lines times ``line_size``: an explicit chunk's
    ``fetch_products`` (an affine chunk answers in closed form). Pure in
    the addresses, so cacheable across iterations; the reuse-distance
    half of classification is :meth:`CacheHierarchy.fetch_levels`.
    """
    fetch = first_occurrence_mask(addrs // line_size)
    footprint = int(np.count_nonzero(fetch)) * line_size
    return fetch, footprint, is_sequential(addrs)


class CacheHierarchy:
    """Per-machine cache state: which level services each access.

    State: per-CPU streamed-byte counters and per-(cpu, segment, block)
    last-visit positions, implementing the reuse-distance approximation,
    in int64 arrays indexed by CPU and by *slot*: each reuse key is
    interned to a slot once (:meth:`slots`), and a step's lookups are a
    few array operations (:meth:`fetch_levels`). ``reset()`` clears the
    state (cold caches) and keeps the slots.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self._bounds = np.array([config.l2_bytes, config.l3_bytes])
        #: Reuse key -> slot, in slot order.
        self._slot_of: dict[tuple[int, int, int], int] = {}
        self._slot_cpu = np.zeros(0, dtype=np.int64)
        self._pos = np.zeros(0, dtype=np.int64)  # bytes streamed per CPU
        self._last = np.zeros(0, dtype=np.int64)  # per slot, or _NEVER

    def reset(self) -> None:
        """Forget all streaming state (cold caches)."""
        self._pos[:] = 0
        self._last[:] = _NEVER

    def slots(self, cpus, seg_ids, first_addrs) -> np.ndarray:
        """The reuse-key slots of chunks, interning new keys.

        Reuse state is keyed by (cpu, segment, L3-sized block within the
        segment): touching a *different* region of the same variable
        (e.g. the next angle plane of UMT's STime) is a compulsory miss,
        not a hot revisit. Slots are stable for the cache's lifetime.
        """
        block = max(self.config.l3_bytes, 1)
        out = np.empty(len(cpus), dtype=np.int64)
        for k, key in enumerate(
            zip(cpus, seg_ids, (a // block for a in first_addrs))
        ):
            out[k] = self._slot_of.setdefault(key, len(self._slot_of))
        n_new = len(self._slot_of) - self._last.size
        if n_new:
            self._last = np.append(self._last, np.full(n_new, _NEVER))
            self._slot_cpu = np.array([key[0] for key in self._slot_of])
            grow = int(self._slot_cpu.max()) + 1 - self._pos.size
            self._pos = np.append(self._pos, np.zeros(max(grow, 0), np.int64))
        return out

    def fetch_levels(
        self, cpus: np.ndarray, slots: np.ndarray, footprints: np.ndarray
    ) -> np.ndarray:
        """One step's reuse lookups + state updates (uint8 levels).

        The CPUs must be distinct — ``bind_threads`` forbids
        oversubscription, so a step's chunks run on distinct CPUs —
        which makes the array update equal to sequential per-chunk
        lookups: each CPU and each slot is read and written once.
        """
        pos = self._pos[cpus]
        last = self._last[slots]
        # L2 up to l2_bytes, L3 up to l3_bytes, DRAM beyond; a first
        # visit is a compulsory DRAM fetch.
        levels = np.where(
            last == _NEVER, LEVEL_DRAM,
            LEVEL_L2 + np.searchsorted(self._bounds, pos - last + footprints),
        ).astype(np.uint8)
        self._pos[cpus] = self._last[slots] = pos + footprints
        return levels
