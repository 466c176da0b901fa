"""The execution engine: drives programs through the simulated machine.

Responsibilities:

* bind threads, run regions in order, and model barrier semantics
  (a parallel region's elapsed time is the maximum over its threads);
* per chunk: bind first-touch pages, deliver page-protection traps to the
  monitor (the SIGSEGV path of paper Section 6), classify cache service
  levels, and compute latencies under the step's contention inflation;
* account per-thread busy cycles, wall-clock cycles, instruction counts,
  and monitoring overhead (so Table 2's overhead percentages can be
  measured exactly as the paper does: monitored time vs. unmonitored).

Contention is evaluated per *step* — the set of chunks all active threads
execute concurrently — so traffic concentrated on one domain inflates
latency for every thread in that step, reproducing Figure 1's
centralized-allocation bandwidth problem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.errors import ProgramError
from repro.machine.cache import LEVEL_DRAM, LEVEL_L1, ChunkSummary
from repro.machine.machine import Machine
from repro.machine.pagetable import PlacementPolicy
from repro.runtime.callstack import CallPath, CallStack
from repro.runtime.chunks import AccessChunk, StepTrace
from repro.runtime.heap import HeapAllocator, Variable
from repro.runtime.memo import (
    ClassifyVariant,
    IterationMemo,
    LatVariant,
    PureStep,
    StepViews,
    _nbytes,
    memo_budget,
)
from repro.runtime.driver import (
    DEFAULT_DISARM_AFTER,
    InProcessBackend,
    RunResult,
    drive,
)
from repro.runtime.program import Program, ProgramContext, Region, RegionKind
from repro.runtime.thread import BindingPolicy, SimThread, bind_threads


#: Shared empty arrays handed to monitors for pure-compute chunks.
_EMPTY_U8 = np.empty(0, dtype=np.uint8)
_EMPTY_I64 = np.empty(0, dtype=np.int64)
_EMPTY_F64 = np.empty(0, dtype=np.float64)
_EMPTY_BOOL = np.empty(0, dtype=bool)


@dataclass(eq=False, repr=False)
class ChunkView:
    """One chunk's share of a step's memory products (see ``Monitor.on_step``).

    The engine computes the step's classification, placement, and latency
    on concatenated arrays for small-chunk steps, and each view exposes
    one chunk's slice of those products plus the per-access masks every
    monitor used to recompute: ``dram_mask`` (service level is DRAM) and
    ``remote_mask`` (page owner differs from the accessing thread's
    domain). Large-chunk steps deliver :class:`LazyChunkView` instead,
    which exposes the same attributes but materializes them on demand.
    Arrays may be views into shared step buffers — monitors must not
    mutate them.
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
        """Latencies at sampled indices ``idx`` (sorted, chunk-local).

        Sampling monitors go through this instead of indexing the full
        array so lazy views (:class:`LazyChunkView`) can serve samples
        without materializing whole-chunk products.
        """
        return self.latencies[idx]


class LazyChunkView:
    """A :class:`ChunkView` that materializes per-access arrays on demand.

    The monitored step pipeline computes only each chunk's
    classification summary (line-fetch mask + single fetch level) plus —
    for DRAM-level chunks — the fetch subset's page owners and latencies,
    which the engine needed for timing/traffic accounting anyway. Full
    per-access ``levels`` / ``target_domains`` / ``latencies`` / masks
    are reconstructed lazily on first attribute access, with values
    identical to the per-chunk, per-access definition
    (``tests/reference/access.py``): every non-fetch access hits L1,
    all fetches are serviced at the summary's fetch level, and
    ``dram_fetch_latencies`` produces exactly its DRAM entries.
    Sampling monitors that only need values at sampled indices or
    trigger events call :meth:`latencies_at` /
    :meth:`remote_event_count` / the event primitives (and ask the page
    table for sampled addresses' owners) and never pay full
    materialization.
    """

    __slots__ = (
        "tid", "cpu", "domain", "chunk", "path",
        "_summ", "_machine", "_fetch_idx", "_fetch_targets", "_fetch_lat",
        "_levels", "_targets", "_lat", "_dram", "_remote",
    )

    def __init__(
        self,
        tid: int,
        cpu: int,
        domain: int,
        chunk: AccessChunk,
        path: CallPath,
        summ,
        machine: Machine,
        fetch_idx: np.ndarray,
        fetch_targets: np.ndarray | None,
        fetch_lat: np.ndarray | None,
    ) -> None:
        self.tid = tid
        self.cpu = cpu
        self.domain = domain
        self.chunk = chunk
        self.path = path
        self._summ = summ
        self._machine = machine
        self._fetch_idx = fetch_idx
        self._fetch_targets = fetch_targets
        self._fetch_lat = fetch_lat
        self._levels = None
        self._targets = None
        self._lat = None
        self._dram = None
        self._remote = None

    @property
    def levels(self) -> np.ndarray:
        lv = self._levels
        if lv is None:
            obs.TRACER.count("engine.lazy.materialized_levels")
            summ = self._summ
            lv = np.full(self.chunk.n_accesses, LEVEL_L1, dtype=np.uint8)
            lv[self._fetch_idx] = summ.fetch_level
            self._levels = lv
        return lv

    @property
    def target_domains(self) -> np.ndarray:
        tg = self._targets
        if tg is None:
            obs.TRACER.count("engine.lazy.materialized_targets")
            chunk = self.chunk
            seg = chunk.var.segment
            pages = chunk.addrs // self._machine.page_size
            tg = seg.domains[pages - seg.start_page]
            self._targets = tg
        return tg

    @property
    def latencies(self) -> np.ndarray:
        lat = self._lat
        if lat is None:
            obs.TRACER.count("engine.lazy.materialized_latencies")
            lat = self._lat = self._build_latencies()
        return lat

    def _build_latencies(self) -> np.ndarray:
        summ = self._summ
        lat = np.full(
            self.chunk.n_accesses, self._machine.latency_model.l1,
            dtype=np.float64,
        )
        if summ.fetch_level == LEVEL_DRAM:
            lat[self._fetch_idx] = self._fetch_lat
        else:
            lat[self._fetch_idx] = self._level_latency()
        return lat

    def _level_latency(self) -> float:
        """The latency of a fetch serviced at the (non-DRAM) fetch level."""
        lm = self._machine.latency_model
        return (lm.l1, lm.l2, lm.l3)[self._summ.fetch_level]

    @property
    def dram_mask(self) -> np.ndarray:
        dm = self._dram
        if dm is None:
            summ = self._summ
            if summ.fetch_level == LEVEL_DRAM:
                dm = summ.fetch
            else:
                dm = np.zeros(self.chunk.n_accesses, dtype=bool)
            self._dram = dm
        return dm

    @property
    def remote_mask(self) -> np.ndarray:
        rm = self._remote
        if rm is None:
            rm = self.target_domains != self.domain
            self._remote = rm
        return rm

    def remote_event_count(self) -> int:
        """Remote DRAM accesses, from the fetch subset (no materialization)."""
        if self._fetch_targets is None:
            return 0
        return int(np.count_nonzero(self._fetch_targets != self.domain))

    # Event primitives from the fetch subset: every non-fetch access is
    # an L1 hit, and every fetch is serviced at the summary's level.

    def demand_miss_events(self, min_latency: float) -> np.ndarray:
        if self._summ.fetch_level != LEVEL_DRAM:
            return _EMPTY_I64
        return self._fetch_idx[self._fetch_lat >= min_latency]

    def miss_events(self) -> np.ndarray:
        # A chunk's fetches are serviced by L2, L3 or DRAM, never by L1.
        return self._fetch_idx

    def slow_events(self, threshold: float) -> np.ndarray:
        if self._summ.fetch_level == LEVEL_DRAM:
            hot = self._fetch_idx[self._fetch_lat > threshold]
        elif self._level_latency() > threshold:
            hot = self._fetch_idx
        else:
            hot = _EMPTY_I64
        if not self._machine.latency_model.l1 > threshold:
            return hot
        # L1 itself is above the threshold: every access that is not a
        # fetch is an event too.
        mask = ~self._summ.fetch
        mask[hot] = True
        return np.flatnonzero(mask)

    def latency_total(self) -> float:
        """``float(self.latencies.sum())``, without keeping the array.

        Unless the view is materialized, this builds the chunk's whole
        per-access latency array only to sum it; such builds count as
        ``engine.lazy.latency_sum_builds``.
        """
        lat = self._lat
        if lat is None:
            obs.TRACER.count("engine.lazy.latency_sum_builds")
            lat = self._build_latencies()
        return float(lat.sum())

    def latencies_at(self, idx: np.ndarray) -> np.ndarray:
        """Latencies at sampled indices, from the fetch mask.

        Non-fetches are L1; a sampled fetch's DRAM latency is found by
        its ordinal among the chunk's fetches via ``searchsorted``.
        Values are identical to indexing the materialized array.
        """
        if self._lat is not None:
            return self._lat[idx]
        summ = self._summ
        lat = np.full(
            idx.size, self._machine.latency_model.l1, dtype=np.float64
        )
        f = summ.fetch[idx]
        if f.any():
            if summ.fetch_level == LEVEL_DRAM:
                pos = self._fetch_idx.searchsorted(idx[f])
                lat[f] = self._fetch_lat[pos]
            else:
                lat[f] = self._level_latency()
        return lat


class SampleGather:
    """Closed-form sampled addresses and latencies of one step's views.

    Per view: a sweep's ``(first, stride)``, its cache-level fetch
    latency and the offset of its DRAM fetch latencies in the latency
    variant's ``lat_buf`` (-1: fetches hit a cache level). A sampled
    access of a sweep fetches iff it is the first or changes line; its
    fetch ordinal is its line distance from the first access for
    strides under a line (every line in between is visited) and its
    index otherwise — what :meth:`LazyChunkView.latencies_at` finds by
    ``searchsorted``.
    """

    __slots__ = (
        "first", "stride", "explicit", "fetch_lat", "lat_off", "lat_buf",
        "l1", "line",
    )

    def __init__(self, step, pure, var, lv, machine: Machine) -> None:
        n = len(step)
        lm = machine.latency_model
        self.l1, self.line = lm.l1, machine.cache.config.line_size
        self.lat_buf = lv.lat_buf
        self.first = np.zeros(n, dtype=np.int64)
        self.stride = np.zeros(n, dtype=np.int64)
        self.explicit = np.zeros(n, dtype=bool)
        self.fetch_lat = np.zeros(n)
        self.fetch_lat[pure.mem_idx] = np.array([lm.l1, lm.l2, lm.l3, 0.0])[var.levels]
        self.lat_off = np.full(n, -1, dtype=np.int64)
        if lv.lat_off is not None:
            self.lat_off[pure.mem_idx] = lv.lat_off
        for i, (_, chunk) in zip(pure.mem_idx.tolist(), pure.mem):
            form = chunk.affine_form()
            self.explicit[i] = form is None
            self.first[i], self.stride[i] = form or (0, 0)

    def __call__(self, ks, n_s, idx, lat_ok: bool):
        """``(addrs, latencies or None, views left to ask)``."""
        # ``idx * stride + first`` per sample, built in place.
        addrs = np.repeat(self.stride[ks], n_s)
        addrs *= idx
        addrs += np.repeat(self.first[ks], n_s)
        lat = None
        if lat_ok:
            rows = np.repeat(ks, n_s)
            first, stride = self.first[rows], self.stride[rows]
            lines = addrs // self.line
            fetch = (lines != (addrs - stride) // self.line) | (idx == 0)
            ordinal = np.where(
                np.abs(stride) >= self.line, idx, np.abs(lines - first // self.line)
            )
            lat = np.full(idx.size, self.l1, dtype=np.float64)
            off = self.lat_off[rows]
            cached = fetch & (off < 0)
            lat[cached] = self.fetch_lat[rows[cached]]
            dram = fetch & (off >= 0)
            if dram.any():
                lat[dram] = self.lat_buf[off[dram] + ordinal[dram]]
        return addrs, lat, np.flatnonzero(self.explicit[ks])


def gather_samples(views, ks, n_s, idx, lat_ok: bool):
    """Sampled addresses (and latencies if ``lat_ok``) of views ``ks``,
    whose ``n_s`` samples sit in ``idx`` in view order: in closed form
    for an engine step's sweeps (:class:`SampleGather`), through each
    view's ``chunk.addrs_at`` / ``latencies_at`` otherwise."""
    if views.gather is not None:
        addrs, lat, ask = views.gather(ks, n_s, idx, lat_ok)
    else:
        addrs = np.empty(idx.size, dtype=np.int64)
        lat = np.empty(idx.size) if lat_ok else None
        ask = range(ks.size)
    ends = np.cumsum(n_s)
    for j in ask:
        a, b = ends[j] - n_s[j], ends[j]
        v = views[ks[j]]
        addrs[a:b] = v.chunk.addrs_at(idx[a:b])
        if lat_ok:
            lat[a:b] = v.latencies_at(idx[a:b])
    return addrs, lat


def _mem_positions(step, rec) -> list[int]:
    """Step positions of the chunks with memory traffic.

    A record that already holds the step's pure products supplies them:
    chunk geometry is iteration-invariant.
    """
    if rec.pure is not None:
        return rec.pure.mem_idx
    return [
        i for i, (_, c) in enumerate(step)
        if c.var is not None and c.n_accesses
    ]


class _StepMem:
    """Per-step state carried from classification to latency.

    :meth:`ExecutionEngine.classify_step` (page traps, classification)
    and :meth:`ExecutionEngine.finish_step` (latency, monitor,
    accounting) run back to back per step in process, but in separate
    rounds in a worker pool — latency needs the step's contention
    inflation over *every* shard's requests — so the step's record and
    selected variants live in an explicit bundle. ``mem_idx[k]`` maps
    memory chunk ``k`` back to step position ``i``; ``trap_costs`` /
    ``lat_sums`` are indexed by step position, and ``cols`` holds the
    step's per-chunk ``(tids, n_ins, n_acc)`` (``StepTrace.columns``).
    """

    __slots__ = (
        "n_active", "cols", "mem_idx", "trap_costs", "step_requests",
        "lat_sums", "dram", "remote_dram", "traffic",
        "rec", "var", "lat",
    )

    def __init__(self, n_active: int) -> None:
        self.n_active = n_active
        self.trap_costs = np.zeros(n_active)


class _Iteration:
    """One live region iteration's engine state, between round methods."""

    __slots__ = (
        "region_idx", "region", "iteration", "fired", "epoch0", "owned",
        "retain", "steps", "events", "ev_i", "own_ips", "own_i", "states",
        "region_cycles", "instructions", "accesses", "chunks", "dram",
        "remote_dram", "traffic",
    )

    def __init__(self, region_idx: int, region: Region, iteration: int):
        self.region_idx = region_idx
        self.region = region
        self.iteration = iteration
        self.fired = False
        self.ev_i = self.own_i = 0
        self.states: list = []
        self.instructions = self.accesses = self.chunks = 0
        self.dram = self.remote_dram = 0


class Monitor:
    """No-op monitoring interface; the profiler subclasses this.

    Hook return values in *cycles* are charged to the triggering thread,
    which is how measurement overhead becomes visible in simulated
    execution time.
    """

    def on_run_start(self, engine: "ExecutionEngine") -> None:
        """Called once before program setup."""

    def on_alloc(self, var: Variable) -> None:
        """Called for every variable allocation (allocation wrapper)."""

    def on_free(self, var: Variable) -> None:
        """Called when a variable is freed."""

    def on_region_enter(self, tid: int, region: Region, iteration: int) -> None:
        """Called as each thread enters a region iteration."""

    def on_region_exit(self, tid: int, region: Region, iteration: int) -> None:
        """Called as each thread leaves a region iteration."""

    def on_first_touch(
        self, tid: int, cpu: int, var: Variable, pages: np.ndarray, path: CallPath
    ) -> float:
        """Protection-trap handler; returns handler cost in cycles."""
        return 0.0

    def on_step(self, views: StepViews) -> np.ndarray:
        """Observe one execution step; returns per-chunk costs in cycles.

        The engine calls this once per step with a :class:`StepViews`:
        one view per executed chunk, in step order — a
        :class:`LazyChunkView` for each memory chunk and a
        :class:`ChunkView` with empty arrays for each pure-compute
        chunk — plus the step's per-chunk ``tids`` / ``n_ins`` /
        ``n_acc`` arrays and its ``memo``. Monitors consume samples
        through ``latencies_at`` / ``remote_event_count`` and the event
        primitives, so lazy views never materialize whole-chunk arrays.
        The default observes nothing and costs nothing.
        """
        return np.zeros(len(views))

    def on_run_end(self, result: "RunResult") -> None:
        """Called once after the last region."""


class ExecutionEngine:
    """Single-use runner: one engine executes one program on one machine."""

    #: Cycles charged for taking a protection trap, independent of the
    #: monitor's handler cost. A real fault costs ~3000 cycles, but the
    #: simulated executions are orders of magnitude shorter than the
    #: paper's minutes-long runs while touching similar page counts; the
    #: charge is scaled down accordingly so the trap cost relative to
    #: total runtime matches the paper's "low runtime overhead" claim.
    TRAP_BASE_COST = 50.0

    #: This engine's slice of a run: it executes (and attributes) the
    #: threads with ``tid % n_shards == shard_id``. A standalone engine
    #: is shard 0 of 1; a worker pool reassigns both per process.
    shard_id = 0
    n_shards = 1

    def __init__(
        self,
        machine: Machine,
        program: Program,
        n_threads: int,
        *,
        binding: BindingPolicy = BindingPolicy.COMPACT,
        monitor: Monitor | None = None,
        params: dict | None = None,
        seed: int = 0,
        memoize: bool = True,
        memo_bytes: int | None = None,
        schedule=None,
        extrapolate: bool = False,
        extrap_warmup: int = 2,
        extrap_disarm: int = DEFAULT_DISARM_AFTER,
    ) -> None:
        self.machine = machine
        self.program = program
        self.threads = bind_threads(machine.topology, n_threads, binding)
        self.monitor = monitor
        self.heap = HeapAllocator(machine)
        self.ctx = ProgramContext(machine, self.heap, self.threads, params, seed)
        self.callstacks = {t.tid: CallStack() for t in self.threads}
        #: Iteration memoization (see :mod:`repro.runtime.memo`):
        #: ``memoize=False`` is a zero budget on the same
        #: pipeline; results are bit-identical at every budget.
        self.memo = IterationMemo(memo_budget(memoize, memo_bytes))
        #: Live-migration schedule (duck-typed
        #: :class:`repro.optim.schedule.PolicySchedule` — the engine must
        #: not import :mod:`repro.optim` to avoid an import cycle).
        #: Its ``apply`` runs at the top of every region iteration;
        #: mutations are applied before any thread enters the region, so
        #: a sharded run replays them identically in every worker.
        self.schedule = schedule
        #: Log of schedule applications
        #: (:class:`~repro.optim.schedule.AppliedAction`), in order.
        self.applied_actions: list = []
        #: Phase-adaptive extrapolation (see :mod:`repro.runtime.phase`).
        #: Requires a non-zero memo budget; exact (ε=0) whenever the
        #: monitor's selection state also reaches a fixed point,
        #: ε-accounted otherwise. ``phase_report`` (a dict) is attached
        #: after the run.
        self.extrapolate = bool(extrapolate) and self.memo.budget > 0
        self.extrap_warmup = max(1, int(extrap_warmup))
        #: Non-converging windows before a detector disarms (0 = never).
        self.extrap_disarm = max(0, int(extrap_disarm))
        self.phase_report: dict | None = None
        #: The phase layer's adapter for this engine
        #: (:class:`~repro.runtime.phase.EnginePhase`), attached at run
        #: start when extrapolating and the monitor has an adapter.
        self._phase = None
        #: The same adapter while it records a live iteration, else None.
        self._phase_rec = None
        self._ran = False
        self._regions: list | None = None
        self._it: _Iteration | None = None
        # Overhead accumulates per thread and reduces once at the end:
        # each tid's partial sum involves only that thread's own chunks
        # in step order, so any sharding reduces bit-identically.
        self._overhead_by_tid = np.zeros(len(self.threads), dtype=np.float64)

    def run(self) -> RunResult:
        """Execute the program once and return timing/traffic statistics.

        A standalone run is the driver's in-process case: this engine is
        the one shard and owns every thread (see
        :mod:`repro.runtime.driver`).
        """
        if self._ran:
            raise ProgramError("ExecutionEngine is single-use; build a new one")
        self._ran = True
        with obs.TRACER.span("engine.run", "engine", program=self.program.name):
            return drive(InProcessBackend(self))

    def owns(self, tid: int) -> bool:
        """Whether this engine executes (and attributes) thread ``tid``."""
        return tid % self.n_shards == self.shard_id

    # ------------------------------------------------------------------ #
    # round methods (called by repro.runtime.driver through a backend)
    # ------------------------------------------------------------------ #

    def start(self) -> dict:
        """Run start: monitor hookup, program setup, region list.

        Returns the region count (the driver cross-checks every shard
        against its own copy) and whether this shard can take part in
        phase extrapolation: whether the phase layer attached an adapter.
        """
        if self.monitor is not None:
            self.heap.add_monitor(self.monitor)
            self.monitor.on_run_start(self)
        if self.extrapolate:
            from repro.runtime.phase import attach

            self._phase = attach(self)
        with obs.TRACER.span("engine.setup", "engine"):
            self.program.setup(self.ctx)
            self._regions = self.program.regions(self.ctx)
        return {
            "n_regions": len(self._regions),
            "phase_ok": self._phase is not None,
        }

    def begin_iteration(self, region_idx: int, iteration: int) -> None:
        """Open a live region iteration: schedule, then phase observation
        (before the monitor's region-enter callbacks in
        :meth:`enter_region`)."""
        region = self._regions[region_idx]
        it = self._it = _Iteration(region_idx, region, iteration)
        it.epoch0 = self.machine.page_table.epoch
        if self.schedule is not None:
            it.fired = self.schedule.apply(self, region_idx, region, iteration)
        if self._phase is not None:
            self._phase.begin_iteration(it)

    def enter_region(self) -> dict:
        """Enter the region and pre-draw this shard's step trace.

        Returns per-step chunk and memory-chunk counts (the driver
        counts steps over every shard) and this shard's page events
        (see :meth:`_page_events`).
        """
        it = self._it
        region = it.region
        memo = self.memo
        active = (
            self.threads
            if region.kind is RegionKind.PARALLEL
            else self.threads[:1]
        )
        owned = it.owned = [t for t in active if self.owns(t.tid)]
        for t in owned:
            self.callstacks[t.tid].push(region.src)
            if self.monitor is not None:
                self.monitor.on_region_enter(t.tid, region, it.iteration)
        it.region_cycles = np.zeros(len(self.threads))
        it.traffic = np.zeros(
            (self.machine.n_domains, self.machine.n_domains), dtype=np.int64
        )
        retain = it.retain = memo.retains(region.repeat)
        steps = memo.gen_get(it.region_idx) if retain else None
        if steps is None:
            steps = self._draw_steps(owned, {
                t.tid: iter(region.kernel(self.ctx, t.tid)) for t in owned
            })
            if retain:
                memo.gen_store(it.region_idx, steps, steps.nbytes)
        it.steps = steps
        it.events = self._page_events(steps)
        return {
            "n_chunks": steps.n_chunks,
            "n_mem": steps.n_mem,
            "events": it.events,
        }

    def _page_events(self, steps) -> dict:
        """This shard's candidate page events, as flat columns.

        One event per memory chunk whose segment still has protected or
        unbound pages now: step / tid / cpu / variable id (into
        ``names``), and the chunk's unique page set as a slice
        ``pstart[i]:pstart[i+1]`` of ``pages``. Events are in
        ``(step, tid)`` order. The counters only fall within an
        iteration, so this is a superset of the step-time check, which
        the replay repeats (see :meth:`_apply_page_event`). Page events
        are never cached: the counters are live machine state. Source
        coordinates stay in the shard (``own_ips``) — only the owner
        attributes a trap.
        """
        page_size = self.machine.page_size
        ev_step: list[int] = []
        ev_tid: list[int] = []
        ev_cpu: list[int] = []
        ev_var: list[int] = []
        ev_pages: list[np.ndarray] = []
        ips: list = []
        names: list[str] = []
        name_id: dict[str, int] = {}
        if not self.machine.page_table.has_pending_pages():
            # Every page is bound and unprotected: no chunk has an event.
            steps = ()
        for s, step in enumerate(steps):
            for t, chunk in step:
                if chunk.var is None or not chunk.n_accesses:
                    continue
                seg = chunk.var.segment
                if seg.n_protected or seg.n_unbound:
                    name = chunk.var.name
                    vid = name_id.get(name)
                    if vid is None:
                        vid = name_id[name] = len(names)
                        names.append(name)
                    ev_step.append(s)
                    ev_tid.append(t.tid)
                    ev_cpu.append(t.cpu)
                    ev_var.append(vid)
                    ev_pages.append(chunk.unique_pages(page_size))
                    ips.append(chunk.ip)
        self._it.own_ips = ips
        pstart = np.zeros(len(ev_pages) + 1, dtype=np.int64)
        np.cumsum([p.size for p in ev_pages], dtype=np.int64, out=pstart[1:])
        return {
            "step": np.array(ev_step, dtype=np.int64),
            "tid": np.array(ev_tid, dtype=np.int64),
            "cpu": np.array(ev_cpu, dtype=np.int64),
            "var": np.array(ev_var, dtype=np.int64),
            "pstart": pstart,
            "pages": (
                np.concatenate(ev_pages) if ev_pages
                else np.empty(0, dtype=np.int64)
            ),
            "names": names,
        }

    def set_page_events(self, events: dict) -> None:
        """Replace this shard's own page events with every shard's.

        ``events`` has the :meth:`_page_events` layout, merged into
        serial ``(step, tid)`` order; a single shard's own events are
        already in that order.
        """
        self._it.events = events

    def classify_step(self, s: int) -> np.ndarray | None:
        """Replay step ``s``'s page events, then classify this shard's chunks.

        Every event updates this shard's page table; only the owning
        shard charges the trap and attributes it to its monitor.
        Returns the step's DRAM request vector, or None when this shard
        has no chunk in step ``s``.
        """
        it = self._it
        tr = obs.TRACER
        traced = tr.enabled
        if traced:
            tr.begin("engine.page_traps", "engine")
        trap_by_tid = self._replay_page_events(s)
        if traced:
            tr.end()
        steps = it.steps
        if s >= len(steps):
            it.states.append(None)
            return None
        step = steps[s]
        st = _StepMem(len(step))
        st.cols = steps.columns(s)
        if trap_by_tid:
            # One chunk per thread per step, and only memory chunks
            # carry page events.
            st.trap_costs = np.array(
                [trap_by_tid.get(t.tid, 0.0) for t, _ in step]
            )
        rec = self.memo.record(it.region_idx, s, transient=not it.retain)
        st.mem_idx = _mem_positions(step, rec)
        if traced:
            tr.begin("engine.classify", "engine")
            self._classify_phase(step, st, rec)
            tr.end()
        else:
            self._classify_phase(step, st, rec)
        it.states.append(st)
        if self._phase_rec is not None:
            self._phase_rec.requests += st.step_requests
        return st.step_requests

    def _replay_page_events(self, s: int) -> dict | None:
        """Apply step ``s``'s page events; returns owned trap costs by tid."""
        it = self._it
        ev = it.events
        ev_step = ev["step"]
        i = it.ev_i
        n = ev_step.size
        if i >= n or ev_step[i] != s:
            return None
        pstart = ev["pstart"]
        pages = ev["pages"]
        names = ev["names"]
        trap_by_tid = {}
        while i < n and ev_step[i] == s:
            tid = int(ev["tid"][i])
            owned = self.owns(tid)
            ip = None  # never read: attribution is owner-only
            if owned:
                ip = it.own_ips[it.own_i]
                it.own_i += 1
            cost = self._apply_page_event(
                tid, int(ev["cpu"][i]), self.ctx.var(names[ev["var"][i]]),
                pages[pstart[i] : pstart[i + 1]], ip, attribute=owned,
            )
            if owned:
                trap_by_tid[tid] = cost
            i += 1
        it.ev_i = i
        return trap_by_tid

    def finish_step(self, s: int, inflation: np.ndarray) -> None:
        """Latency under the driver's step inflation, monitor, accounting."""
        it = self._it
        st = it.states[s]
        if st is None:
            return
        it.states[s] = None
        step = it.steps[s]
        tr = obs.TRACER
        if tr.enabled:
            tr.begin("engine.latency", "engine")
            self._latency_phase(st, inflation)
            tr.end()
        else:
            self._latency_phase(st, inflation)
        costs = self._monitor_phase(step, st)
        instructions, accesses = self._account_phase(
            st, costs, it.region_cycles, self._overhead_by_tid
        )
        it.instructions += instructions
        it.accesses += accesses
        it.chunks += len(step)
        it.dram += st.dram
        it.remote_dram += st.remote_dram
        it.traffic += st.traffic

    def exit_region(self) -> None:
        """Region-exit callbacks for this shard's threads."""
        it = self._it
        for t in it.owned:
            if self.monitor is not None:
                self.monitor.on_region_exit(t.tid, it.region, it.iteration)
            self.callstacks[t.tid].pop()

    def end_iteration(self) -> dict:
        """Close the live iteration; returns this shard's deltas.

        The payload carries the per-tid region cycles, the integer
        counters, the traffic matrix and the metrics flags this
        iteration raised; the phase adapter, when attached, adds the
        detector's readiness (``phase``, ``steady``). A region's memo
        state is released after its last iteration.
        """
        it = self._it
        self._it = None
        region = it.region
        if it.iteration == region.repeat - 1:
            self.memo.release_region(it.region_idx)
        it.region_cycles = {
            t.tid: float(it.region_cycles[t.tid]) for t in it.owned
        }
        ints = {
            "instructions": it.instructions,
            "accesses": it.accesses,
            "chunks": it.chunks,
            "dram": it.dram,
            "remote_dram": it.remote_dram,
        }
        flags = 0
        if it.fired:
            flags |= obs.FLAG_SCHEDULE
        if self.machine.page_table.epoch != it.epoch0:
            flags |= obs.FLAG_EPOCH
        payload = {
            "region_cycles": it.region_cycles,
            "ints": ints,
            "traffic": it.traffic,
            "flags": flags,
        }
        if self._phase is not None:
            self._phase.end_iteration(it, payload)
        return payload

    def finish_run(self) -> dict:
        """This shard's per-tid overhead totals and schedule log."""
        overhead = self._overhead_by_tid
        return {
            "overhead_by_tid": {
                t.tid: float(overhead[t.tid])
                for t in self.threads
                if self.owns(t.tid)
            },
            "applied_actions": list(self.applied_actions),
        }

    # ------------------------------------------------------------------ #

    @staticmethod
    def _draw_steps(active: list[SimThread], iters: dict) -> StepTrace:
        """Drain the iteration's kernels into a :class:`StepTrace`.

        Each step takes the next chunk of every thread whose kernel is
        not exhausted, in thread order; the steps are drawn before any of
        them executes (see ``Region``).
        """
        steps: list[list[tuple[SimThread, AccessChunk]]] = []
        while iters:
            step: list[tuple[SimThread, AccessChunk]] = []
            for t in active:
                if t.tid not in iters:
                    continue
                try:
                    step.append((t, next(iters[t.tid])))
                except StopIteration:
                    del iters[t.tid]
            if not step:
                break
            steps.append(step)
        return StepTrace(steps)

    def _apply_page_event(
        self,
        tid: int,
        cpu: int,
        var: Variable,
        pages: np.ndarray,
        ip: "SourceLoc",
        *,
        attribute: bool = True,
    ) -> float:
        """Deliver pending page work for one chunk's unique page set.

        Handles protection traps (unprotect + optional monitor
        attribution) and first-touch binding, returning the trap cost in
        cycles. ``attribute=False`` applies the page-table state changes
        without involving the monitor — the replay of *other* shards'
        page events, which must update every shard's replicated page
        table but be attributed only by the owner.
        """
        machine = self.machine
        seg = var.segment
        if seg.n_protected == 0 and seg.n_unbound == 0:
            return 0.0  # fast path: nothing left to trap or bind
        cost = 0.0
        if seg.n_protected:
            prot = machine.page_table.protected_mask(pages)
            if np.any(prot):
                trapped = pages[prot]
                cost = self.TRAP_BASE_COST * trapped.size
                if attribute and self.monitor is not None:
                    path = self.callstacks[tid].with_leaf(ip)
                    cost += self.monitor.on_first_touch(
                        tid, cpu, var, trapped, path
                    )
                machine.page_table.unprotect_pages(trapped)
        if seg.n_unbound:
            machine.page_table.touch_pages(pages, cpu)
        return cost

    def _classify_phase(
        self,
        step: list[tuple[SimThread, AccessChunk]],
        st: _StepMem,
        rec,
    ) -> None:
        """Classification / placement: pure products + keyed variants.

        The reuse-distance lookup (the only stateful part of
        classification) runs live, as one array lookup over the step's
        memory chunks; its result joins the page-table epoch in the
        variant key, so both a cache-state change and any
        page-placement mutation select — or build — a different
        variant.
        """
        machine = self.machine
        memo = self.memo
        st.rec = rec
        pure = rec.pure
        if pure is not None:
            memo.hit(rec)
        else:
            memo.miss(rec)
            pure = self._build_pure(step, st.mem_idx)
            rec.pure = pure
            memo.charge(rec, pure.nbytes)
        st.mem_idx = pure.mem_idx
        fetch_levels = machine.cache.fetch_levels(
            pure.cpus, pure.slots, pure.chunk_fp
        )
        ckey = (machine.page_table.epoch, fetch_levels.tobytes())
        if self._phase_rec is not None:
            # The iteration's phase signature is the sequence of memo
            # variant keys it selects — belt and braces over the state
            # digest.
            self._phase_rec.sig.append(ckey)
        var = rec.variants.get(ckey)
        if var is None:
            memo.miss(rec)
            var = self._build_variant(pure, fetch_levels)
            rec.variants[ckey] = var
            memo.charge(rec, var.nbytes)
        else:
            memo.hit(rec)
        st.var = var
        st.step_requests = var.step_requests

    def _build_pure(
        self,
        step: list[tuple[SimThread, AccessChunk]],
        mem_idx: list[int],
    ) -> PureStep:
        """Compute one step's iteration-invariant products.

        Chunks answer their own geometry questions (see
        :mod:`repro.runtime.chunks`), so no address is expanded here.
        Chunks with equal ``fetch_key`` share one read-only copy of the
        fetch products. Each chunk's reuse key is interned to a cache
        slot here, once.
        """
        pure = PureStep()
        pure.mem_idx = np.array(mem_idx, dtype=np.int64)
        mem = pure.mem = [step[i] for i in mem_idx]
        n_mem = len(mem)
        pure.interleaved = [
            c.var.segment.policy is PlacementPolicy.INTERLEAVE
            for _, c in mem
        ]
        cpus = [t.cpu for t, _ in mem]
        pure.cpus = np.array(cpus, dtype=np.int64)
        pure.domains = np.array([t.domain for t, _ in mem], dtype=np.int64)
        pure.n_acc = np.array([c.n_accesses for _, c in mem], dtype=np.int64)
        cache = self.machine.cache
        pure.slots = cache.slots(
            cpus,
            [c.var.segment.seg_id for _, c in mem],
            [c.first_addr for _, c in mem],
        )
        pure.chunk_fetch = [None] * n_mem
        pure.chunk_seq_flags = [True] * n_mem
        pure.chunk_fidx = [None] * n_mem
        footprints = [0] * n_mem
        line_size = cache.config.line_size
        shared = {}
        for k, (t, c) in enumerate(mem):
            key = c.fetch_key(line_size)
            if key is None:
                key = k  # an explicit chunk: never a geometry key
            got = shared.get(key)
            if got is None:
                got = shared[key] = c.fetch_products(line_size)
                got[0].flags.writeable = got[1].flags.writeable = False
            fetch, fidx, footprint, seq = got
            pure.chunk_fetch[k] = fetch
            pure.chunk_seq_flags[k] = seq
            footprints[k] = footprint
            pure.chunk_fidx[k] = fidx
        pure.chunk_fp = np.array(footprints, dtype=np.int64)
        obs.TRACER.count("engine.build.shared_fetch", n_mem - len(shared))
        pure.nbytes = _nbytes(pure.chunk_fetch, pure.chunk_fidx)
        return pure

    def _build_variant(
        self, pure: PureStep, fetch_levels: np.ndarray
    ) -> ClassifyVariant:
        """Placement-dependent products for one classification variant.

        Every non-fetch access hits L1 and only DRAM-level fetches have
        NUMA-relevant placement, so page owners are looked up on the
        fetch subset of DRAM-level chunks only, once per page run.
        Chunks whose ``(owners, counts)`` runs are equal share one
        read-only target array, its request counts, and an integer id
        that keys their latency group: chunks with equal accessor
        domain, stream flags and target id get one latency build.
        """
        machine = self.machine
        page_size = machine.page_size
        n_domains = machine.n_domains
        var = ClassifyVariant()
        n_mem = len(pure.mem)
        var.levels = fetch_levels
        var.summaries = [
            ChunkSummary(fetch, level, seq, fp)
            for fetch, level, seq, fp in zip(
                pure.chunk_fetch, fetch_levels.tolist(),
                pure.chunk_seq_flags, pure.chunk_fp.tolist(),
            )
        ]
        var.dram_targets = [None] * n_mem
        var.lat_group = np.full(n_mem, -1, dtype=np.int64)
        var.lat_groups = []
        var.step_requests = np.zeros(n_domains, dtype=np.int64)
        var.traffic = np.zeros((n_domains, n_domains), dtype=np.int64)
        var.dram = var.remote_dram = 0
        dram_k = np.flatnonzero(fetch_levels == LEVEL_DRAM)
        if dram_k.size:
            owners, counts = [], []
            for k in dram_k.tolist():
                c = pure.mem[k][1]
                seg = c.var.segment
                pages, cnt = c.fetch_page_runs(pure.chunk_fidx[k], page_size)
                owners.append(seg.domains[pages - seg.start_page])
                counts.append(cnt)
            # Equal runs must mean equal targets: merge adjacent runs of
            # one owner within a chunk. A chunk's key is its slice of one
            # byte string of every chunk's runs.
            own = np.concatenate(owners)
            first = np.cumsum([0] + [o.size for o in owners[:-1]])
            head = np.r_[True, own[1:] != own[:-1]]
            head[first] = True
            heads = np.flatnonzero(head)
            # Targets keep the page table's owner dtype; only the keys
            # read the two columns as one int64 array.
            run_own = own[heads]
            run_cnt = np.add.reduceat(np.concatenate(counts), heads)
            runs = np.stack([run_own, run_cnt], 1)
            ends = np.cumsum(np.add.reduceat(head, first)).tolist()
            raw, width = runs.tobytes(), 2 * runs.itemsize
            n_fetch = pure.chunk_fp[dram_k] // machine.cache.config.line_size
            doms = pure.domains[dram_k]
            target_of, targets, per_domain, groups = {}, [], [], {}
            ids = np.empty(dram_k.size, dtype=np.int64)
            for j, (k, a, b) in enumerate(zip(dram_k.tolist(), [0] + ends, ends)):
                tid = ids[j] = target_of.setdefault(
                    raw[a * width : b * width], len(targets)
                )
                if tid == len(targets):
                    o, cnt = run_own[a:b], run_cnt[a:b]
                    # A run per fetch: the owners are the targets.
                    tgt = o.copy() if o.size == n_fetch[j] else np.repeat(o, cnt)
                    tgt.flags.writeable = False
                    targets.append(tgt)
                    # Float weights sum small integers exactly.
                    per_domain.append(np.bincount(o, cnt, minlength=n_domains))
                var.dram_targets[k] = targets[tid]
                gkey = (int(doms[j]), pure.chunk_seq_flags[k], pure.interleaved[k])
                g = var.lat_group[k] = groups.setdefault((*gkey, tid), len(groups))
                if g == len(var.lat_groups):
                    var.lat_groups.append((targets[tid], *gkey))
            obs.TRACER.count(
                "engine.build.shared_targets", dram_k.size - len(targets)
            )
            per = np.array(per_domain).astype(np.int64)[ids]
            var.step_requests = per.sum(axis=0)
            np.add.at(var.traffic, doms, per)
            var.dram = int(n_fetch.sum())
            var.remote_dram = var.dram - int(per[np.arange(doms.size), doms].sum())
        var.nbytes = _nbytes(var.dram_targets) + var.traffic.nbytes
        return var

    def _latency_phase(self, st: _StepMem, inflation: np.ndarray) -> None:
        """Latency under step inflation: variants keyed by its exact bytes.

        ``inflation`` is the driver's contention inflation for the step,
        from every shard's requests. The inflation-independent
        accounting (DRAM counts, remote counts, traffic matrix) lives on
        the classification variant; DRAM fetch latencies and per-chunk
        sums are cached per distinct ``inflation.tobytes()`` within it.
        A cache-state or placement change produced a different
        classification variant upstream, so latency entries can never
        serve stale inputs. A build prices each latency group of the
        variant once (one array and its ``ndarray.sum()``) and every
        chunk's sum with array arithmetic. Each group array lives only
        while it is summed and, in a monitored run, copied into its
        slice of one preallocated buffer; views get read-only slices of
        that buffer.
        """
        machine = self.machine
        memo = self.memo
        var = st.var
        rec = st.rec
        pure = rec.pure
        st.dram = var.dram
        st.remote_dram = var.remote_dram
        st.traffic = var.traffic
        lkey = inflation.tobytes()
        lv = var.lats.get(lkey)
        if lv is None:
            memo.miss(rec)
            lm = machine.latency_model
            topology = machine.topology
            groups = var.lat_groups
            g_off = np.cumsum([0] + [g[0].size for g in groups])
            lat_buf = None
            if self.monitor is not None and groups:
                lat_buf = np.empty(int(g_off[-1]))
            g_sum = np.empty(len(groups))
            for g, (tgt, domain, seq, interleaved) in enumerate(groups):
                lat = lm.dram_fetch_latencies(
                    tgt, domain, topology, inflation,
                    sequential=seq, interleaved=interleaved,
                )
                g_sum[g] = float(lat.sum())
                if lat_buf is not None:
                    lat_buf[g_off[g] : g_off[g + 1]] = lat
                # Freed before the next group is priced, not after.
                del lat
            n_fetch = pure.chunk_fp // machine.cache.config.line_size
            rest = (pure.n_acc - n_fetch) * lm.l1
            # All fetches of a cache-level chunk hit one level: its sum
            # is exact closed-form arithmetic.
            lvl = np.array([lm.l1, lm.l2, lm.l3, 0.0])
            sums = rest + n_fetch * lvl[var.levels]
            group = var.lat_group
            dram = np.flatnonzero(group >= 0)
            sums[dram] = g_sum[group[dram]] + rest[dram]
            lat_sums = np.zeros(st.n_active)
            lat_sums[pure.mem_idx] = sums
            obs.TRACER.count(
                "engine.build.shared_latency", dram.size - len(groups)
            )
            lv = LatVariant(lat_sums, [None] * len(pure.mem), 8 * st.n_active)
            if lat_buf is not None:
                lv.lat_buf = lat_buf
                lv.lat_buf.flags.writeable = False
                g_views = np.split(lv.lat_buf, g_off[1:-1])
                lv.chunk_lat = [g_views[g] if g >= 0 else None for g in group.tolist()]
                lv.lat_off = np.where(group >= 0, g_off[group], -1)
                lv.nbytes += lv.lat_buf.nbytes
            var.lats[lkey] = lv
            memo.charge(rec, lv.nbytes)
        else:
            memo.hit(rec)
        st.lat = lv
        st.lat_sums = lv.lat_sums

    def _monitor_phase(
        self, step: list[tuple[SimThread, AccessChunk]], st: _StepMem
    ) -> np.ndarray | None:
        """One ``on_step`` call with the step's views; returns the costs.

        The views — lazy views for memory chunks, empty arrays for
        pure-compute chunks — and their :class:`SampleGather` are built
        once per latency variant. Call paths come from the live
        callstacks, which hold the same frames on every iteration of a
        region. The monitor itself — sampling, attribution, costs —
        always runs live on them.
        """
        if self.monitor is None:
            return None
        tr = obs.TRACER
        traced = tr.enabled
        if traced:
            tr.begin("engine.monitor", "engine")
        memo = self.memo
        rec = st.rec
        var = st.var
        lv = st.lat
        views = lv.views
        if views is None:
            memo.miss(rec)
            machine = self.machine
            pure = rec.pure
            mem_rank = {i: k for k, i in enumerate(pure.mem_idx.tolist())}
            views = []
            for i, (t, chunk) in enumerate(step):
                path = self.callstacks[t.tid].with_leaf(chunk.ip)
                k = mem_rank.get(i)
                if k is None:
                    views.append(ChunkView(
                        t.tid, t.cpu, t.domain, chunk, _EMPTY_U8, _EMPTY_I64,
                        _EMPTY_F64, path, _EMPTY_BOOL, _EMPTY_BOOL,
                    ))
                else:
                    views.append(LazyChunkView(
                        t.tid, t.cpu, t.domain, chunk, path,
                        var.summaries[k], machine, pure.chunk_fidx[k],
                        var.dram_targets[k], lv.chunk_lat[k],
                    ))
            views = lv.views = StepViews(views, *st.cols)
            views.gather = SampleGather(step, pure, var, lv, machine)
            # Views are slices into already-charged variant arrays;
            # charge the per-view object overhead approximately.
            memo.charge(rec, 256 * len(views))
        else:
            memo.hit(rec)
        costs = np.asarray(self.monitor.on_step(views), dtype=np.float64)
        memo.charge_views(rec, views)
        if traced:
            tr.end()
        if costs.shape != (st.n_active,):
            raise ProgramError(
                f"monitor on_step returned {costs.size} costs for "
                f"{st.n_active} chunks"
            )
        return costs

    def _account_phase(
        self,
        st: _StepMem,
        costs,
        region_cycles: np.ndarray,
        overhead_by_tid: np.ndarray,
    ) -> tuple[int, int]:
        """Cycle / counter accounting; returns (instructions, accesses).

        Every chunk of a step runs on a distinct thread, so the per-tid
        array adds over the step's ``(tids, n_ins, n_acc)`` columns
        equal per-chunk adds in step order.
        """
        tids, n_ins, n_acc = st.cols
        cycles = (
            n_ins * self.machine.base_cpi
            + st.trap_costs
            + np.asarray(st.lat_sums) / self.machine.mlp
        )
        oh = st.trap_costs
        if costs is not None:
            costs = np.asarray(costs, dtype=np.float64)
            cycles += costs
            oh = oh + costs
        overhead_by_tid[tids] += oh
        if self._phase_rec is not None:
            # Zero adds are exact no-ops; recording only the nonzero
            # ones keeps replay cheap and bit-identical.
            nz = oh != 0.0
            if nz.any():
                self._phase_rec.oh_ops.append((tids[nz], oh[nz]))
        region_cycles[tids] += cycles
        return int(n_ins.sum()), int(n_acc.sum())
