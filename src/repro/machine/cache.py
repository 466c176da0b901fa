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

LEVEL_NAMES = {LEVEL_L1: "L1", LEVEL_L2: "L2", LEVEL_L3: "L3", LEVEL_DRAM: "DRAM"}

#: Maximum forward byte-stride still considered a prefetchable stream.
SEQUENTIAL_STRIDE_LIMIT = 256

#: Fraction of consecutive address deltas that must look sequential for
#: the chunk to count as prefetchable.
SEQUENTIAL_FRACTION = 0.9


@dataclass(frozen=True)
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


@dataclass
class ChunkClassification:
    """Output of :meth:`CacheHierarchy.classify` for one chunk."""

    levels: np.ndarray          # per-access service level codes
    sequential: bool            # prefetchable stream?
    footprint_bytes: int        # unique lines touched * line size

    @property
    def n_fetches(self) -> int:
        """Line fetches that left L1 (L2 + L3 + DRAM services)."""
        return int(np.count_nonzero(self.levels != LEVEL_L1))


@dataclass
class ChunkSummary:
    """One chunk's classification without per-access levels.

    ``fetch`` marks the accesses that fetch a new cache line; they are all
    serviced at ``fetch_level`` while every other access hits L1, so the
    full per-access level array of :class:`ChunkClassification` is
    recoverable but never allocated. The engine's summary path builds it
    from the chunk's ``fetch_products`` (pure; see
    :mod:`repro.runtime.chunks`) and
    :meth:`CacheHierarchy.chunk_fetch_level` (stateful).
    """

    fetch: np.ndarray           # per-access line-fetch mask
    fetch_level: int            # service level of all fetches
    sequential: bool            # prefetchable stream?
    footprint_bytes: int        # unique lines touched * line size

    @property
    def n_fetches(self) -> int:
        """Number of line fetches (``footprint / line_size``)."""
        return int(np.count_nonzero(self.fetch))


@dataclass
class StepFetchProducts:
    """State-free half of a step's batched classification.

    Everything here is a pure function of the concatenated address
    stream, so the engine's memoization layer may cache it across a
    region's repeat iterations; the reuse-distance lookup
    (:meth:`CacheHierarchy.step_fetch_levels`) is the only stateful part
    and must run live every iteration. Together they classify exactly as
    one :meth:`CacheHierarchy.classify` call per chunk, in step order.
    """

    fetch: np.ndarray           # concatenated per-access line-fetch mask
    sequential: np.ndarray      # per-chunk prefetchable-stream flags
    footprints: np.ndarray      # per-chunk unique-line bytes
    first_addrs: np.ndarray     # per-chunk first access address


class ScratchPool:
    """Growable pool of named scratch buffers for the fused step kernel.

    The batched small-chunk path allocates several step-sized temporaries
    (line numbers, deltas, cumulative sums) per step; with thousands of
    steps per region that allocation churn dominates the classify phase.
    A pool hands out the same backing buffers every step instead.
    Buffers are overwritten by the next request for the same name, so
    only intermediates that never escape the kernel may live here —
    anything retained (e.g. by the memo layer) must be an owned array.
    """

    def __init__(self) -> None:
        self._bufs: dict[str, np.ndarray] = {}

    def get(self, name: str, size: int, dtype) -> np.ndarray:
        """A length-``size`` array named ``name`` (contents undefined)."""
        buf = self._bufs.get(name)
        if buf is None or buf.size < size or buf.dtype != np.dtype(dtype):
            grow = 0 if buf is None or buf.dtype != np.dtype(dtype) else 2 * buf.size
            buf = np.empty(max(size, grow), dtype=dtype)
            self._bufs[name] = buf
        return buf[:size]

    def nbytes(self) -> int:
        """Total bytes currently held by the pool."""
        return sum(b.nbytes for b in self._bufs.values())


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
    the unique lines times ``line_size``. This is the explicit-array
    kernel behind :meth:`CacheHierarchy.classify` and
    :meth:`CacheHierarchy.chunk_fetch_products`, and the reference an
    affine chunk's closed-form ``fetch_products`` must reproduce.
    """
    fetch = first_occurrence_mask(addrs // line_size)
    footprint = int(np.count_nonzero(fetch)) * line_size
    return fetch, footprint, is_sequential(addrs)


class CacheHierarchy:
    """Per-machine cache state: which level services each access.

    State: per-CPU streamed-byte counters and per-(cpu, segment) last
    visit positions, implementing the reuse-distance approximation.
    ``reset()`` clears everything (cold caches).
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self._stream_pos: dict[int, int] = {}
        self._last_visit: dict[tuple[int, int, int], int] = {}

    def reset(self) -> None:
        """Forget all streaming state (cold caches)."""
        self._stream_pos.clear()
        self._last_visit.clear()

    def state_digest(self) -> frozenset:
        """Translation-invariant digest of the reuse-distance state.

        ``_stream_pos`` grows monotonically, so raw state never reaches
        a fixed point; but :meth:`_fetch_level` only ever reads the
        *difference* ``stream_pos[cpu] - last_visit[key]``, so two
        states whose per-key differences (and key sets) match produce
        identical classifications for any identical future access
        stream. Differences are additionally clamped at
        ``l3_bytes + 1``: beyond it the next access to the key is a
        DRAM fetch (which then resets its distance) no matter how much
        further the stream advances, so cold keys from *other* regions
        don't keep a steady region out of its fixed point. frozenset
        equality is exact — no hash-collision risk.
        """
        pos = self._stream_pos
        sat = self.config.l3_bytes + 1
        return frozenset(
            (key, min(pos.get(key[0], 0) - last, sat))
            for key, last in self._last_visit.items()
        )

    def phase_snapshot(self) -> tuple[dict, dict]:
        """Copy of the raw streaming state (phase-recording baseline)."""
        return dict(self._stream_pos), dict(self._last_visit)

    def phase_delta(
        self, snapshot: tuple[dict, dict]
    ) -> tuple[dict, list, dict]:
        """How one iteration moved the state: per-CPU stream advances,
        the keys it touched, and those keys' absolute end-of-iteration
        last-visit positions. Advances and touched sets are
        iteration-invariant for a steady (identical-trace) iteration,
        which makes :meth:`phase_advance` exact; the last-visit values
        grow by the cycle advance each period and are what
        :meth:`phase_advance_cycle` reconstructs per slot."""
        snap_pos, snap_lv = snapshot
        delta_pos = {
            cpu: pos - snap_pos.get(cpu, 0)
            for cpu, pos in self._stream_pos.items()
            if pos != snap_pos.get(cpu, 0)
        }
        lv_obs = {
            key: last
            for key, last in self._last_visit.items()
            if snap_lv.get(key) != last
        }
        return delta_pos, list(lv_obs), lv_obs

    def phase_advance(self, delta: tuple, n: int) -> None:
        """Fast-forward the state by ``n`` steady iterations, exactly.

        A steady iteration advances each CPU's stream position by a
        constant and re-visits the same key set at fixed offsets from
        the stream head, so after ``n`` skipped iterations the exact
        run's state is: positions advanced ``n`` deltas, touched keys'
        last-visit markers riding along, untouched keys unchanged
        (their reuse distances grow by exactly the stream advance).
        """
        delta_pos, touched = delta[0], delta[1]
        pos = self._stream_pos
        for cpu, d in delta_pos.items():
            pos[cpu] = pos.get(cpu, 0) + d * n
        lv = self._last_visit
        for key in touched:
            lv[key] += delta_pos.get(key[0], 0) * n

    def phase_advance_cycle(self, slot_deltas: list[tuple], n: int) -> None:
        """Fast-forward the state by ``n`` iterations of a period-p
        cycle, exactly.

        ``slot_deltas`` is the cycle's :meth:`phase_delta` per slot in
        chronological order; the current state is the end of the live
        baseline cycle (slot p-1 just finished), and skipped iteration
        ``t`` replays slot ``t % p``. All arithmetic is integer:

        * stream positions advance by ``C`` whole-cycle sums plus the
          remainder slots' deltas (``n = C*p + m``);
        * a key's last-visit marker lands where its final skipped visit
          left it: the recorded end-of-slot value shifted by one cycle
          advance per completed cycle since the baseline observation —
          ``lv_obs[j] + (q+1) * cycle_pos`` for a last visit in slot
          ``j`` of 0-based skipped cycle ``q``;
        * keys no skipped iteration touches stay put (their reuse
          distances grow by exactly the stream advance).

        For p = 1 this reduces to :meth:`phase_advance`:
        ``lv_obs[key] + n*d`` equals the old ``lv[key] += d*n`` because
        the baseline value is the live iteration's own.
        """
        p = len(slot_deltas)
        if p == 1:
            self.phase_advance(slot_deltas[0], n)
            return
        full, rem = divmod(n, p)
        cycle_pos: dict[int, int] = {}
        for dp, _, _ in slot_deltas:
            for cpu, d in dp.items():
                cycle_pos[cpu] = cycle_pos.get(cpu, 0) + d
        pos = self._stream_pos
        for cpu, d in cycle_pos.items():
            pos[cpu] = pos.get(cpu, 0) + d * full
        for dp, _, _ in slot_deltas[:rem]:
            for cpu, d in dp.items():
                pos[cpu] = pos.get(cpu, 0) + d
        # Last touching slot per key, split at the remainder boundary:
        # a key's final visit is in the remainder partial cycle if any
        # of its slots runs there, else in the last completed cycle.
        last_slot: dict[tuple, int] = {}
        last_slot_rem: dict[tuple, int] = {}
        for j, (_, touched, _) in enumerate(slot_deltas):
            for key in touched:
                last_slot[key] = j
                if j < rem:
                    last_slot_rem[key] = j
        lv = self._last_visit
        for key, j in last_slot.items():
            shift = cycle_pos.get(key[0], 0)
            j_rem = last_slot_rem.get(key)
            if j_rem is not None:
                # Final visit in the remainder cycle (0-based cycle
                # index ``full`` → ``full + 1`` cycle shifts from the
                # live baseline observation).
                lv[key] = slot_deltas[j_rem][2][key] + (full + 1) * shift
            elif full >= 1:
                lv[key] = slot_deltas[j][2][key] + full * shift
            # else: no skipped iteration touches this key (n < its
            # first slot in the remainder and no full cycle) — but with
            # n >= 1 and p slots all inside the cycle, full == 0 and
            # rem == n means slots >= n never run; leave those keys at
            # their live-baseline values.

    def _fetch_level(
        self, cpu: int, seg_id: int, first_addr: int, footprint: int
    ) -> int:
        """Reuse-distance lookup + state update for one chunk's fetches.

        Reuse state is keyed by (cpu, segment, L3-sized block within the
        segment): touching a *different* region of the same variable
        (e.g. the next angle plane of UMT's STime) is a compulsory miss,
        not a hot revisit.
        """
        pos = self._stream_pos.get(cpu, 0)
        block = first_addr // max(self.config.l3_bytes, 1)
        key = (cpu, seg_id, block)
        last = self._last_visit.get(key)
        if last is None:
            fetch_level = LEVEL_DRAM  # compulsory: first visit ever
        else:
            distance = (pos - last) + footprint
            if distance <= self.config.l2_bytes:
                fetch_level = LEVEL_L2
            elif distance <= self.config.l3_bytes:
                fetch_level = LEVEL_L3
            else:
                fetch_level = LEVEL_DRAM
        new_pos = pos + footprint
        self._stream_pos[cpu] = new_pos
        self._last_visit[key] = new_pos
        return fetch_level

    def classify(
        self,
        addrs: np.ndarray,
        cpu: int,
        seg_id: int,
    ) -> ChunkClassification:
        """Classify one chunk of accesses for one CPU.

        Parameters
        ----------
        addrs: byte addresses of the accesses, in program order.
        cpu: hardware thread performing them.
        seg_id: segment (variable) identity for reuse-distance state.
        """
        addrs = np.asarray(addrs, dtype=np.int64)
        levels = np.full(addrs.shape, LEVEL_L1, dtype=np.uint8)
        if addrs.size == 0:
            return ChunkClassification(levels, True, 0)

        fetch, footprint, sequential = array_fetch_products(
            addrs, self.config.line_size
        )
        levels[fetch] = self._fetch_level(cpu, seg_id, int(addrs[0]), footprint)

        return ChunkClassification(
            levels=levels,
            sequential=sequential,
            footprint_bytes=footprint,
        )

    def chunk_fetch_products(
        self, addrs: np.ndarray
    ) -> tuple[np.ndarray, int, bool]:
        """Pure half of :meth:`classify` for one non-empty chunk.

        Returns ``(fetch_mask, footprint_bytes, sequential)`` — a pure
        function of the addresses, cacheable across iterations; the
        reuse-distance half is :meth:`chunk_fetch_level`.
        """
        return array_fetch_products(addrs, self.config.line_size)

    def chunk_fetch_level(
        self, cpu: int, seg_id: int, first_addr: int, footprint: int
    ) -> int:
        """Stateful half of :meth:`classify`: one reuse lookup.

        Advances the streaming state exactly as the per-chunk classify
        calls would; the memo layer calls this live every iteration.
        """
        return self._fetch_level(cpu, seg_id, first_addr, footprint)

    def step_fetch_products(
        self,
        addrs: np.ndarray,
        starts: np.ndarray,
        scratch: ScratchPool | None = None,
    ) -> StepFetchProducts:
        """Pure per-access half of batched step classification.

        ``addrs`` concatenates the step's chunk addresses; chunk ``j``
        occupies ``addrs[starts[j]:starts[j+1]]``. Computes the
        concatenated line-fetch mask, per-chunk sequentiality,
        footprints, and first addresses without touching reuse-distance
        state — a pure function of ``addrs``/``starts`` that the memo
        layer caches across iterations. ``scratch``
        optionally supplies pooled buffers for the step-sized
        intermediates (line numbers, deltas, cumulative sums); the
        returned arrays are always owned allocations.

        ``addrs`` is never written: every intermediate lands in the
        scratch pool or a fresh allocation.
        """
        starts = np.asarray(starts, dtype=np.int64)
        lengths = np.diff(starts)
        n = addrs.size
        pool = scratch
        if pool is not None:
            lines = pool.get("lines", n, np.int64)
            np.floor_divide(addrs, self.config.line_size, out=lines)
        else:
            lines = addrs // self.config.line_size

        # Global delta arrays; entries that span a chunk boundary are
        # neutralized below (the boundary position is forced True in the
        # fetch mask, and per-chunk delta counts only cover interior
        # deltas via the exclusive-cumsum trick).
        fetch = np.empty(addrs.shape, dtype=bool)
        fetch[0] = True
        if n > 1:
            if pool is not None:
                ldeltas = pool.get("ldeltas", n - 1, np.int64)
                np.subtract(lines[1:], lines[:-1], out=ldeltas)
                adeltas = pool.get("adeltas", n - 1, np.int64)
                np.subtract(addrs[1:], addrs[:-1], out=adeltas)
                np.greater(ldeltas, 0, out=fetch[1:])
                dneg = pool.get("dneg", n - 1, bool)
                np.less(ldeltas, 0, out=dneg)
                neg_cum = pool.get("neg_cum", n, np.int64)
                neg_cum[0] = 0
                np.cumsum(dneg, dtype=np.int64, out=neg_cum[1:])
                seq_ok = pool.get("seq_ok", n - 1, bool)
                np.less_equal(adeltas, SEQUENTIAL_STRIDE_LIMIT, out=seq_ok)
                seq_ok &= adeltas >= 0
                ok_cum = pool.get("ok_cum", n, np.int64)
                ok_cum[0] = 0
                np.cumsum(seq_ok, dtype=np.int64, out=ok_cum[1:])
            else:
                ldeltas = np.diff(lines)
                adeltas = np.diff(addrs)
                fetch[1:] = ldeltas > 0
                neg_cum = np.concatenate(
                    ([0], np.cumsum(ldeltas < 0, dtype=np.int64))
                )
                seq_ok = (adeltas >= 0) & (adeltas <= SEQUENTIAL_STRIDE_LIMIT)
                ok_cum = np.concatenate(
                    ([0], np.cumsum(seq_ok, dtype=np.int64))
                )
        else:
            neg_cum = np.zeros(1, dtype=np.int64)
            ok_cum = np.zeros(1, dtype=np.int64)
        fetch[starts[:-1]] = True

        # Interior deltas of chunk j are global delta indices
        # [starts[j], starts[j+1] - 2]; sums over them come from the
        # exclusive cumulative counts.
        s, e = starts[:-1], starts[1:]
        n_deltas = lengths - 1
        n_neg = neg_cum[np.maximum(e - 1, s)] - neg_cum[s]
        n_ok = ok_cum[np.maximum(e - 1, s)] - ok_cum[s]
        sequential = (n_deltas < 1) | (n_ok >= SEQUENTIAL_FRACTION * n_deltas)

        # Chunks with backward line jumps need the generic (np.unique)
        # first-occurrence mask; recompute only their slices.
        for j in np.nonzero(n_neg > 0)[0]:
            fetch[s[j] : e[j]] = first_occurrence_mask(lines[s[j] : e[j]])

        if pool is not None:
            fetch_cum = pool.get("fetch_cum", n + 1, np.int64)
            fetch_cum[0] = 0
            np.cumsum(fetch, dtype=np.int64, out=fetch_cum[1:])
        else:
            fetch_cum = np.concatenate(([0], np.cumsum(fetch, dtype=np.int64)))
        footprints = (fetch_cum[e] - fetch_cum[s]) * self.config.line_size

        return StepFetchProducts(
            fetch=fetch,
            sequential=sequential,
            footprints=footprints,
            # Fancy indexing already yields an owned array (no view into
            # the possibly segment-backed input), so no defensive copy.
            first_addrs=addrs[starts[:-1]],
        )

    def step_fetch_levels(
        self,
        cpus: list[int],
        seg_ids: list[int],
        first_addrs: np.ndarray,
        footprints: np.ndarray,
    ) -> np.ndarray:
        """Stateful half of batched step classification: fetch levels.

        Runs the reuse-distance lookup/update once per chunk in step
        order — exactly the sequence the per-chunk :meth:`classify` calls
        would perform. This is the *only* part of step classification
        that mutates cache state, so the engine's memo layer calls it
        live every iteration (never from cache) and keys cached variants
        on its result.
        """
        n_chunks = len(cpus)
        fetch_levels = np.empty(n_chunks, dtype=np.uint8)
        for j in range(n_chunks):
            fetch_levels[j] = self._fetch_level(
                cpus[j], seg_ids[j], int(first_addrs[j]), int(footprints[j])
            )
        return fetch_levels

    @staticmethod
    def expand_step_levels(
        fetch: np.ndarray, fetch_levels: np.ndarray, lengths: np.ndarray
    ) -> np.ndarray:
        """Per-access levels from the fetch mask + per-chunk fetch levels."""
        return np.where(
            fetch, np.repeat(fetch_levels, lengths), np.uint8(LEVEL_L1)
        )

    def level_counts(self, levels: np.ndarray) -> dict[str, int]:
        """Histogram of service levels, keyed by level name."""
        counts = np.bincount(levels, minlength=4)
        return {LEVEL_NAMES[i]: int(counts[i]) for i in range(4)}
