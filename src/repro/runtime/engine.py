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
from repro.errors import AllocationError, ProgramError
from repro.machine.cache import (
    LEVEL_DRAM,
    LEVEL_L1,
    ChunkSummary,
    ScratchPool,
)
from repro.machine.machine import Machine
from repro.machine.pagetable import PlacementPolicy
from repro.runtime.callstack import CallPath, CallStack
from repro.runtime.chunks import AccessChunk, StepTrace, concat_addrs
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
from repro.runtime.driver import InProcessBackend, RunResult, drive
from repro.runtime.phase import (
    DEFAULT_DISARM_AFTER,
    DEFAULT_MAX_PERIOD,
    INT_FIELDS,
    IterationRecording,
    PhaseDetector,
    PhaseLibrary,
    sig_digest,
    slot_counts,
    trace_content_key,
)
from repro.runtime.program import Program, ProgramContext, Region, RegionKind
from repro.runtime.thread import BindingPolicy, SimThread, bind_threads


#: Shared empty arrays handed to monitors for pure-compute chunks.
_EMPTY_U8 = np.empty(0, dtype=np.uint8)
_EMPTY_I64 = np.empty(0, dtype=np.int64)
_EMPTY_F64 = np.empty(0, dtype=np.float64)
_EMPTY_BOOL = np.empty(0, dtype=bool)


@dataclass
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

    def gather_samples(self, idx: np.ndarray, *, want_lat: bool = True):
        """Per-access products at sampled indices only.

        Returns ``(target_domains, remote, latencies)`` gathered at
        ``idx`` (sorted chunk-local positions); ``latencies`` is ``None``
        when ``want_lat`` is false. Sampling monitors go through this
        instead of indexing the full arrays so lazy views
        (:class:`LazyChunkView`) can serve samples without materializing
        whole-chunk products.
        """
        targets = self.target_domains[idx]
        remote = self.remote_mask[idx]
        lat = self.latencies[idx] if want_lat else None
        return targets, remote, lat


class LazyChunkView:
    """A :class:`ChunkView` that materializes per-access arrays on demand.

    The monitored large-chunk path computes only each chunk's
    classification summary (line-fetch mask + single fetch level) plus —
    for DRAM-level chunks — the fetch subset's page owners and latencies,
    which the engine needed for timing/traffic accounting anyway. Full
    per-access ``levels`` / ``target_domains`` / ``latencies`` / masks
    are reconstructed lazily on first attribute access, with values
    identical to the eager pipeline: every non-fetch access hits L1, all
    fetches are serviced at the summary's fetch level, and
    ``dram_fetch_latencies`` produces exactly the DRAM entries
    ``access_latency`` would. Sampling monitors that only need values at
    sampled indices or trigger events call :meth:`gather_samples` /
    :meth:`remote_event_count` / the event primitives and never pay full
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
            lv[summ.fetch] = summ.fetch_level
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
            lat[summ.fetch] = self._fetch_lat
        else:
            lat[summ.fetch] = self._level_latency()
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
        """``float(self.latencies.sum())``, without keeping the array."""
        lat = self._lat if self._lat is not None else self._build_latencies()
        return float(lat.sum())

    def gather_samples(self, idx: np.ndarray, *, want_lat: bool = True):
        """Gather ``(targets, remote, latencies)`` at sampled indices.

        Targets come from a direct page-owner lookup on the sampled
        addresses; latencies from the fetch mask (non-fetches are L1, a
        sampled fetch's DRAM latency is found by its ordinal among the
        chunk's fetches via ``searchsorted``). Values are identical to
        indexing the materialized arrays.
        """
        chunk = self.chunk
        if self._targets is not None:
            targets = self._targets[idx]
        else:
            seg = chunk.var.segment
            pages = chunk.addrs_at(idx) // self._machine.page_size
            targets = seg.domains[pages - seg.start_page]
        remote = targets != self.domain
        lat = None
        if want_lat:
            if self._lat is not None:
                lat = self._lat[idx]
            else:
                summ = self._summ
                lm = self._machine.latency_model
                lat = np.full(idx.size, lm.l1, dtype=np.float64)
                f = summ.fetch[idx]
                if np.any(f):
                    if summ.fetch_level == LEVEL_DRAM:
                        pos = np.searchsorted(self._fetch_idx, idx[f])
                        lat[f] = self._fetch_lat[pos]
                    else:
                        lat[f] = self._level_latency()
        return targets, remote, lat


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
    ``lat_sums`` are indexed by step position.
    """

    __slots__ = (
        "n_active", "mem_idx", "trap_costs", "step_requests",
        "lat_sums", "dram", "remote_dram", "traffic",
        "rec", "var", "lat",
    )

    def __init__(self, n_active: int) -> None:
        self.n_active = n_active
        self.trap_costs = [0.0] * n_active


class _Iteration:
    """One live region iteration's engine state, between round methods."""

    __slots__ = (
        "region_idx", "region", "iteration", "fired", "epoch0", "breaks0",
        "observe", "cache_snap", "mon_snap", "oh_base", "owned", "retain",
        "steps", "events", "ev_i", "own_ips", "own_i", "states",
        "region_cycles", "instructions", "accesses", "chunks", "dram",
        "remote_dram", "requests", "traffic",
    )

    def __init__(self, region_idx: int, region: Region, iteration: int):
        self.region_idx = region_idx
        self.region = region
        self.iteration = iteration
        self.fired = False
        self.observe = False
        self.breaks0 = 0
        self.cache_snap = self.mon_snap = self.oh_base = None
        self.requests = None
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

    def on_chunk(
        self,
        tid: int,
        cpu: int,
        chunk: AccessChunk,
        levels: np.ndarray,
        target_domains: np.ndarray,
        latencies: np.ndarray,
        path: CallPath,
    ) -> float:
        """Observe one executed chunk; returns monitoring cost in cycles."""
        return 0.0

    def on_step(self, views: StepViews) -> list[float]:
        """Observe one execution step; returns per-chunk costs in cycles.

        The engine calls this once per step with a :class:`StepViews`
        holding one view per executed chunk, in step order — a
        :class:`ChunkView` with eager arrays for small-chunk (batched)
        steps, a :class:`LazyChunkView` for large-chunk steps. The
        default implementation preserves the historical per-chunk
        contract by dispatching each view to :meth:`on_chunk`, which
        materializes lazy views; batch-aware monitors override it and
        consume samples through ``gather_samples`` /
        ``remote_event_count`` so lazy views never materialize
        whole-chunk arrays.
        """
        return [
            self.on_chunk(
                v.tid, v.cpu, v.chunk, v.levels, v.target_domains,
                v.latencies, v.path,
            )
            for v in views
        ]

    def on_run_end(self, result: "RunResult") -> None:
        """Called once after the last region."""

    # -- phase-extrapolation protocol (see repro.runtime.phase) -------- #
    #
    # A monitor that cannot participate leaves ``phase_supported`` False
    # and the engine simply never extrapolates monitored regions; the
    # remaining hooks are only called when it returns True (or when the
    # engine runs unmonitored, in which case none of them are called).

    def phase_supported(self) -> bool:
        """Whether this monitor can record/replay iteration deltas."""
        return False

    def phase_digest(self):
        """Hashable digest of mutable state that affects future output."""
        return None

    def phase_record_begin(self) -> None:
        """Start recording this iteration's accumulation program."""

    def phase_record_end(self):
        """Finish recording; returns the replayable program."""
        return None

    def phase_replay(self, prog, n: int) -> None:
        """Re-apply a recorded iteration program ``n`` times (exactly)."""

    def phase_snapshot(self):
        """Snapshot accumulator state for ε-mode delta extraction."""
        return None

    def phase_delta(self, snapshot):
        """Delta since ``snapshot``; None if structure changed (ε reset)."""
        return None

    def extrapolate_flush(self, deltas: list, n: int) -> float:
        """Apply the window-mean of ``deltas`` scaled by ``n`` iterations.

        Returns the observed relative half-spread (ε contribution).
        """
        return 0.0


@dataclass(frozen=True)
class AppliedAction:
    """Record of one scheduled migration the engine applied (or refused).

    ``ok`` is False when the migration aborted (e.g. an exhausted
    domain): ``migrate_segment`` is atomic, so the run simply continues
    on the old placement, and ``error`` carries the reason.
    """

    region_idx: int
    iteration: int
    var_name: str
    policy: str
    domains: tuple[int, ...] | None
    ok: bool
    epoch: int
    error: str = ""


class ExecutionEngine:
    """Single-use runner: one engine executes one program on one machine."""

    #: Cycles charged for taking a protection trap, independent of the
    #: monitor's handler cost. A real fault costs ~3000 cycles, but the
    #: simulated executions are orders of magnitude shorter than the
    #: paper's minutes-long runs while touching similar page counts; the
    #: charge is scaled down accordingly so the trap cost relative to
    #: total runtime matches the paper's "low runtime overhead" claim.
    TRAP_BASE_COST = 50.0

    #: Mean accesses-per-chunk at or below which a step's chunks are
    #: concatenated and run through the batched variant. Small chunks
    #: are dominated by fixed per-chunk NumPy dispatch cost, which
    #: batching amortizes; large chunks already amortize it and are
    #: faster processed one at a time (the summary variant) because each
    #: chunk's working set stays cache-resident. The two variants compute
    #: identical per-access values, so this is a pure performance knob
    #: (see ``tests/test_step_pipeline.py``).
    BATCH_MEAN_ACCESSES = 2048

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
        extrap_period: int = DEFAULT_MAX_PERIOD,
        extrap_disarm: int = DEFAULT_DISARM_AFTER,
        extrap_share: bool = True,
    ) -> None:
        self.machine = machine
        self.program = program
        self.threads = bind_threads(machine.topology, n_threads, binding)
        self.monitor = monitor
        self.heap = HeapAllocator(machine)
        self.ctx = ProgramContext(machine, self.heap, self.threads, params, seed)
        self.callstacks = {t.tid: CallStack() for t in self.threads}
        #: Iteration memoization (see :mod:`repro.runtime.memo`):
        #: ``memoize=False`` (``--no-memo``) is a zero budget on the same
        #: pipeline; results are bit-identical at every budget.
        self.memo = IterationMemo(memo_budget(memoize, memo_bytes))
        #: Live-migration schedule (duck-typed
        #: :class:`repro.optim.policies.PolicySchedule` — the engine must
        #: not import :mod:`repro.optim` to avoid an import cycle).
        #: Consulted at the top of every region iteration; mutations are
        #: applied before any thread enters the region, so a sharded run
        #: replays them identically in every worker.
        self.schedule = schedule
        #: Log of schedule applications (``AppliedAction``), in order.
        self.applied_actions: list[AppliedAction] = []
        #: Phase-adaptive extrapolation (see :mod:`repro.runtime.phase`).
        #: Requires a non-zero memo budget; exact (ε=0) whenever the
        #: monitor's selection state also reaches a fixed point,
        #: ε-accounted otherwise. ``phase_report`` (a dict) is attached
        #: after the run.
        self.extrapolate = bool(extrapolate) and self.memo.budget > 0
        self.extrap_warmup = max(1, int(extrap_warmup))
        #: Longest phase cycle searched for (period-p detection).
        self.extrap_period = max(1, int(extrap_period))
        #: Non-converging windows before a detector disarms (0 = never).
        self.extrap_disarm = max(0, int(extrap_disarm))
        #: Cross-region phase sharing: converged cycles land in a
        #: run-scoped library keyed by trace content so identical
        #: regions skip their warmup (see ``repro.runtime.phase``).
        self.phase_library = (
            PhaseLibrary()
            if self.extrapolate and bool(extrap_share)
            else None
        )
        self.phase_report: dict | None = None
        #: Per-iteration recording hooks (active only while a detector
        #: is live): overhead (tid, cycles) pairs and memo variant keys.
        self._phase_oh_rec: list | None = None
        self._phase_sig: list | None = None
        self._scratch = ScratchPool()
        self._ran = False
        self._regions: list | None = None
        #: The current region's phase detector (None: not observed).
        self._detector: PhaseDetector | None = None
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

    def _apply_schedule(
        self, region_idx: int, region: Region, iteration: int
    ) -> bool:
        """Apply scheduled live migrations at this iteration boundary.

        Runs before any thread enters the region (and before the memo
        reads the page-table epoch), so every worker in a sharded run —
        each holding a replica of the page table — performs the same
        mutations in the same order and arrives at the same epoch. A
        failed migration is atomic (see ``PageTable.migrate_segment``):
        it is logged with ``ok=False`` and the run continues unchanged.
        Returns whether any action was scheduled here (a phase break).
        """
        steps = self.schedule.steps_for(region_idx, iteration)
        if not steps:
            return False
        tr = obs.TRACER
        page_table = self.machine.page_table
        for step in steps:
            domains = step.domain_list()
            var = self.heap.variables.get(step.var_name)
            error = None
            if var is None:
                error = f"unknown variable {step.var_name!r}"
            else:
                with tr.span(
                    "engine.migrate", "optim",
                    var=step.var_name, policy=step.policy.value,
                    region=region.name, iteration=iteration,
                ):
                    try:
                        page_table.migrate_segment(
                            page_table.segment_of_addr(var.base),
                            step.policy, domains,
                        )
                    except AllocationError as exc:
                        error = str(exc)
            self.applied_actions.append(AppliedAction(
                region_idx, iteration, step.var_name, step.policy.value,
                tuple(domains) if domains else None, error is None,
                page_table.epoch, error=error or "",
            ))
            tr.count(
                "optim.migrations_applied" if error is None
                else "optim.migrations_failed"
            )
        return True

    # ------------------------------------------------------------------ #
    # round methods (called by repro.runtime.driver through a backend)
    # ------------------------------------------------------------------ #

    def start(self) -> dict:
        """Run start: monitor hookup, program setup, region list.

        Returns the region count (the driver cross-checks every shard
        against its own copy), whether this shard can take part in
        phase extrapolation, and whether it is monitored.
        """
        if self.monitor is not None:
            self.heap.add_monitor(self.monitor)
            self.monitor.on_run_start(self)
        with obs.TRACER.span("engine.setup", "engine"):
            self.program.setup(self.ctx)
            self._regions = self.program.regions(self.ctx)
        return {
            "n_regions": len(self._regions),
            "phase_ok": bool(
                self.extrapolate
                and (self.monitor is None or self.monitor.phase_supported())
            ),
            "monitored": self.monitor is not None,
        }

    def _new_detector(self, region: Region) -> PhaseDetector | None:
        """The region's phase detector, or None where one cannot pay.

        A repeat-1 region can neither skip nor converge. With the
        library, a region whose trace matches an already-converged
        phase can arm after a single live iteration, so any repeated
        region is worth watching.
        """
        if not (
            self.extrapolate
            and region.repeat > 1
            and (
                region.repeat > self.extrap_warmup
                or self.phase_library is not None
            )
            and (self.monitor is None or self.monitor.phase_supported())
        ):
            return None
        return PhaseDetector(
            region.name,
            warmup=self.extrap_warmup,
            max_period=self.extrap_period,
            allow_eps=self.monitor is not None,
            monitor_present=self.monitor is not None,
            disarm_after=self.extrap_disarm,
            library=self.phase_library,
        )

    def begin_iteration(self, region_idx: int, iteration: int) -> None:
        """Open a live region iteration: schedule, then phase observation.

        Recording hooks are installed before the monitor's region-enter
        callbacks (in :meth:`enter_region`) so the replay program covers
        the whole iteration.
        """
        region = self._regions[region_idx]
        page_table = self.machine.page_table
        it = self._it = _Iteration(region_idx, region, iteration)
        it.epoch0 = page_table.epoch
        if self.schedule is not None:
            it.fired = self._apply_schedule(region_idx, region, iteration)
        if iteration == 0:
            self._detector = self._new_detector(region)
        detector = self._detector
        if detector is None:
            return
        it.breaks0 = detector.breaks
        if it.fired:
            detector.invalidate()
        it.observe = detector.begin_iteration(page_table.epoch)
        if it.observe:
            self._phase_oh_rec = []
            self._phase_sig = []
            it.cache_snap = self.machine.cache.phase_snapshot()
            it.requests = np.zeros(self.machine.n_domains, dtype=np.int64)
            if self.monitor is not None:
                self.monitor.phase_record_begin()
                if detector.allow_eps:
                    it.mon_snap = self.monitor.phase_snapshot()
                    it.oh_base = self._overhead_by_tid.copy()

    def enter_region(self) -> dict:
        """Enter the region and pre-draw this shard's step trace.

        Returns per-step chunk, memory-chunk and access counts (the
        driver's per-step decisions need the totals over every shard)
        and this shard's page events (see :meth:`_page_events`).
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
        it.region_cycles = {t.tid: 0.0 for t in owned}
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
        if it.observe and it.iteration == 0 and self.phase_library is not None:
            # Per-shard trace content key: each shard's library matches
            # its own slice of the region's step stream, so regions that
            # share in one process share identically under sharding.
            mon = self.monitor
            self._detector.set_library_key(
                trace_content_key(steps),
                type(getattr(mon, "mechanism", mon)).__name__
                if mon is not None
                else None,
                self.machine.page_table.epoch,
            )
        it.events = self._page_events(steps)
        return {
            "n_chunks": steps.n_chunks,
            "n_mem": steps.n_mem,
            "acc_sum": steps.acc_sum,
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

    def classify_step(self, s: int, batched: bool) -> np.ndarray | None:
        """Replay step ``s``'s page events, then classify this shard's chunks.

        Every event updates this shard's page table; only the owning
        shard charges the trap and attributes it to its monitor.
        ``batched`` is the driver's pipeline flag for the step. Returns
        the step's DRAM request vector, or None when this shard has no
        chunk in step ``s``.
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
        if trap_by_tid:
            # One chunk per thread per step, and only memory chunks
            # carry page events.
            st.trap_costs = [trap_by_tid.get(t.tid, 0.0) for t, _ in step]
        rec = self.memo.record(it.region_idx, s, transient=not it.retain)
        st.mem_idx = _mem_positions(step, rec)
        if traced:
            tr.begin("engine.classify", "engine")
            self._classify_phase(step, st, rec, batched)
            tr.end()
        else:
            self._classify_phase(step, st, rec, batched)
        it.states.append(st)
        if it.requests is not None:
            it.requests += st.step_requests
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
            step, st, costs, it.region_cycles, self._overhead_by_tid
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
        counters, the traffic matrix, the metrics flags this iteration
        raised, and the detector's readiness (``phase``). A region's
        memo state is released after its last iteration.
        """
        it = self._it
        self._it = None
        region = it.region
        if it.iteration == region.repeat - 1:
            self.memo.release_region(it.region_idx)
        ints = {
            "instructions": it.instructions,
            "accesses": it.accesses,
            "chunks": it.chunks,
            "dram": it.dram,
            "remote_dram": it.remote_dram,
        }
        detector = self._detector
        if it.observe:
            self._record_iteration(it, ints)
        flags = 0
        if it.fired:
            flags |= obs.FLAG_SCHEDULE
        if self.machine.page_table.epoch != it.epoch0:
            flags |= obs.FLAG_EPOCH
        if detector is not None and detector.breaks != it.breaks0:
            flags |= obs.FLAG_PHASE_BREAK
        return {
            "region_cycles": it.region_cycles,
            "ints": ints,
            "traffic": it.traffic,
            "flags": flags,
            "steady": it.observe and detector.is_steady,
            "phase": detector.phase_payload() if detector is not None else None,
        }

    def _record_iteration(self, it: "_Iteration", ints: dict) -> None:
        """Feed an observed iteration to the region's phase detector."""
        oh_ops, sig = self._phase_oh_rec, self._phase_sig
        self._phase_oh_rec = self._phase_sig = None
        mon_digest: object = ()
        mon_prog = None
        mon_delta = None
        if self.monitor is not None:
            mon_prog = self.monitor.phase_record_end()
            mon_digest = self.monitor.phase_digest()
            if it.mon_snap is not None:
                mon_delta = self.monitor.phase_delta(it.mon_snap)
        rec = IterationRecording(
            ints=ints,
            requests=it.requests,
            traffic=it.traffic,
            region_cycles=it.region_cycles,
            # The barrier's elapsed time is a max over every shard's
            # threads: the driver records it in its merged window.
            elapsed=0.0,
            oh_ops=oh_ops,
            cache_delta=self.machine.cache.phase_delta(it.cache_snap),
            monitor_prog=mon_prog,
        )
        # The cache's reuse-distance state needs no digest entry: an
        # identical trace revisits the same keys every iteration, so
        # fetch levels are periodic once the memo-key signature repeats
        # (see phase.py); the recorded cache delta is compared exactly.
        self._detector.end_live_iteration(
            sig_digest(self.machine.page_table.epoch, sig),
            mon_digest,
            rec,
            self._overhead_by_tid - it.oh_base
            if it.oh_base is not None else None,
            mon_delta,
        )

    def extrapolate_iterations(
        self, region_idx: int, n_skip: int, release: bool,
        mode: str, period: int,
    ) -> dict:
        """Apply ``n_skip`` iterations' shard-local effects unsimulated.

        The driver has armed the skip at ``period`` (the smallest period
        every shard is ready at, exact preferred) and clamped it to the
        next scheduled boundary; it folds the merged cycle and integer
        quantities itself. Here skipped iteration ``t`` replays cycle
        slot ``t % period``'s overhead adds and monitor program — exact
        mode in per-iteration slot order, the float adds of simulating
        the cycle; ε mode as each slot's window mean scaled by its skip
        count — and fast-forwards the cache. Returns this shard's
        monitor ε (the cycle spread is the driver's, over its merged
        window), library-hit count and integer deltas.
        """
        detector = self._detector
        detector.note_armed(mode, period)
        recs = [e.rec for e in detector.cycle_slots(period)]
        counts = slot_counts(n_skip, period)
        monitor = self.monitor
        overhead = self._overhead_by_tid
        eps = 0.0
        if mode == "exact":
            for t_i in range(n_skip):
                for tid, oh in recs[t_i % period].oh_ops:
                    overhead[tid] += oh
            if monitor is not None:
                if period == 1:
                    monitor.phase_replay(recs[0].monitor_prog, n_skip)
                else:
                    # Per iteration in slot order: replay loops the
                    # identical numpy ops, so this is the exact float-add
                    # order of simulating the cycle.
                    for t_i in range(n_skip):
                        monitor.phase_replay(recs[t_i % period].monitor_prog, 1)
        else:
            windows = detector.slot_windows(period)
            for j, w in enumerate(windows):
                if not counts[j] or not w:
                    continue
                oh_mean = w[0].oh_delta.copy()
                for sample in w[1:]:
                    oh_mean += sample.oh_delta
                oh_mean /= len(w)
                overhead += oh_mean * counts[j]
                if monitor is not None:
                    eps = max(eps, monitor.extrapolate_flush(
                        [sample.monitor_delta for sample in w], counts[j]
                    ))
        if recs[0].cache_delta is not None:
            # Fast-forward the reuse-distance state so regions after
            # this one classify bit-identically to the exact run.
            self.machine.cache.phase_advance_cycle(
                [r.cache_delta for r in recs], n_skip
            )
        if release:
            self.memo.release_region(region_idx)
        ints = dict.fromkeys(INT_FIELDS, 0)
        for rec, cnt in zip(recs, counts):
            for k in INT_FIELDS:
                ints[k] += rec.ints[k] * cnt
        return {
            "eps": eps,
            "library_hits": detector.library_hits,
            "ints": ints,
        }

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
        batched: bool,
    ) -> None:
        """Classification / placement: pure products + keyed variants.

        ``batched`` is the driver's batched-vs-summary flag for the
        step, computed from every shard's totals so each shard takes the
        same float-summation path. The reuse-distance lookup (the only
        stateful part of classification) runs live; its per-chunk result
        joins the page-table epoch in the variant key, so both a
        cache-state change and any page-placement mutation select — or
        build — a different variant.
        """
        machine = self.machine
        memo = self.memo
        st.rec = rec
        if not st.mem_idx:
            # Pure-compute steps have nothing to batch: the summary
            # builders degenerate to empty products.
            batched = False
        pure = rec.pure
        if pure is not None and pure.batched == batched:
            memo.hit(rec)
        else:
            memo.miss(rec)
            pure = self._build_pure(step, st.mem_idx, batched)
            rec.pure = pure
            memo.charge(rec, pure.nbytes)
        st.mem_idx = pure.mem_idx
        cache = machine.cache
        if pure.batched:
            fetch_levels = cache.step_fetch_levels(
                pure.cpus, pure.seg_ids, pure.first_addrs, pure.footprints
            )
        else:
            n_mem = len(pure.mem)
            fetch_levels = np.empty(n_mem, dtype=np.uint8)
            for k in range(n_mem):
                fetch_levels[k] = cache.chunk_fetch_level(
                    pure.cpus[k], pure.seg_ids[k],
                    pure.chunk_first[k], pure.chunk_fp[k],
                )
        ckey = (machine.page_table.epoch, fetch_levels.tobytes())
        if self._phase_sig is not None:
            # The iteration's phase signature is the sequence of memo
            # variant keys it selects — belt and braces over the state
            # digest.
            self._phase_sig.append(ckey)
        var = rec.variants.get(ckey)
        if var is None:
            memo.miss(rec)
            if pure.batched:
                var = self._build_batched_variant(pure, fetch_levels)
            else:
                var = self._build_summary_variant(pure, fetch_levels)
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
        batched: bool,
    ) -> PureStep:
        """Compute one step's iteration-invariant products.

        Chunks answer their own geometry questions (see
        :mod:`repro.runtime.chunks`); only the batched path expands
        the step's addresses, once, into an owned array the record
        keeps and the memo charges.
        """
        machine = self.machine
        pure = PureStep()
        pure.mem_idx = list(mem_idx)
        mem = pure.mem = [step[i] for i in pure.mem_idx]
        n_mem = len(mem)
        lengths = pure.lengths = np.array(
            [c.n_accesses for _, c in mem], dtype=np.int64
        )
        pure.interleaved = [
            c.var.segment.policy is PlacementPolicy.INTERLEAVE
            for _, c in mem
        ]
        pure.interleaved_arr = np.array(pure.interleaved, dtype=bool)
        pure.cpus = [t.cpu for t, _ in mem]
        pure.segs = [c.var.segment for _, c in mem]
        pure.seg_ids = [seg.seg_id for seg in pure.segs]
        pure.acc_domains = np.array([t.domain for t, _ in mem], dtype=np.int64)
        pure.batched = batched
        if batched:
            starts = pure.starts = np.zeros(n_mem + 1, dtype=np.int64)
            np.cumsum(lengths, out=starts[1:])
            cat = pure.addrs_cat = concat_addrs([c for _, c in mem])
            fp = machine.cache.step_fetch_products(cat, starts, self._scratch)
            pure.fetch = fp.fetch
            pure.sequential = fp.sequential
            pure.footprints = fp.footprints
            pure.first_addrs = fp.first_addrs
            pure.nbytes = _nbytes(
                cat, pure.fetch, pure.footprints, pure.first_addrs,
                lengths, starts, pure.acc_domains,
            )
        else:
            pure.chunk_fetch = [None] * n_mem
            pure.chunk_seq_flags = [True] * n_mem
            pure.chunk_fp = [0] * n_mem
            pure.chunk_first = [0] * n_mem
            pure.chunk_fidx = [None] * n_mem
            line_size = machine.cache.config.line_size
            for k, (t, c) in enumerate(mem):
                fetch, fidx, footprint, seq = c.fetch_products(line_size)
                pure.chunk_fetch[k] = fetch
                pure.chunk_seq_flags[k] = seq
                pure.chunk_fp[k] = footprint
                pure.chunk_first[k] = c.first_addr
                pure.chunk_fidx[k] = fidx
            pure.nbytes = _nbytes(pure.chunk_fetch, pure.chunk_fidx)
        return pure

    def _build_batched_variant(
        self, pure: PureStep, fetch_levels: np.ndarray
    ) -> ClassifyVariant:
        """Fused placement/classification kernel for one batched variant.

        Computes every inflation-independent product of the classify and
        latency phases — per-access levels, page owners, DRAM/remote
        masks, domain requests, the traffic matrix, and the per-chunk
        view slices — in one pass over the step's concatenated arrays
        (the intermediates ride the scratch pool; retained arrays are
        owned).
        """
        machine = self.machine
        n_domains = machine.n_domains
        var = ClassifyVariant()
        levels = var.levels = machine.cache.expand_step_levels(
            pure.fetch, fetch_levels, pure.lengths
        )
        starts = pure.starts
        n = int(starts[-1])
        pages = self._scratch.get("pages", n, np.int64)
        np.floor_divide(pure.addrs_cat, machine.page_size, out=pages)
        targets = var.targets_cat = np.empty(n, dtype=np.int64)
        for k, seg in enumerate(pure.segs):
            s, e = starts[k], starts[k + 1]
            targets[s:e] = seg.domains[pages[s:e] - seg.start_page]
        dram_cat = var.dram_cat = levels == LEVEL_DRAM
        var.step_requests = np.bincount(
            targets[dram_cat], minlength=n_domains
        ).astype(np.int64)
        acc_rep = np.repeat(pure.acc_domains, pure.lengths)
        remote_cat = var.remote_cat = targets != acc_rep
        var.dram = int(np.count_nonzero(dram_cat))
        var.remote_dram = int(np.count_nonzero(dram_cat & remote_cat))
        # Traffic matrix in one pass: bincount over flattened
        # (accessor domain, target domain) pair codes of DRAM fetches.
        pair = acc_rep[dram_cat] * n_domains + targets[dram_cat]
        var.traffic = (
            np.bincount(pair, minlength=n_domains * n_domains)
            .reshape(n_domains, n_domains)
            .astype(np.int64)
        )
        if self.monitor is not None:
            n_mem = len(pure.mem)
            var.chunk_levels = [None] * n_mem
            var.chunk_targets = [None] * n_mem
            var.chunk_dram = [None] * n_mem
            var.chunk_remote = [None] * n_mem
            for k in range(n_mem):
                s, e = starts[k], starts[k + 1]
                var.chunk_levels[k] = levels[s:e]
                var.chunk_targets[k] = targets[s:e]
                var.chunk_dram[k] = dram_cat[s:e]
                var.chunk_remote[k] = remote_cat[s:e]
        var.nbytes = _nbytes(
            levels, targets, dram_cat, remote_cat,
            var.step_requests, var.traffic,
        )
        return var

    def _build_summary_variant(
        self, pure: PureStep, fetch_levels: np.ndarray
    ) -> ClassifyVariant:
        """Placement-dependent products for one summary-path variant.

        Every non-fetch access hits L1 and only DRAM-level fetches have
        NUMA-relevant placement, so page owners are looked up on the
        fetch subset of DRAM-level chunks only.
        """
        machine = self.machine
        page_size = machine.page_size
        n_domains = machine.n_domains
        line_size = machine.cache.config.line_size
        var = ClassifyVariant()
        n_mem = len(pure.mem)
        var.summaries = [None] * n_mem
        var.dram_targets = [None] * n_mem
        var.step_requests = np.zeros(n_domains, dtype=np.int64)
        var.dram = 0
        var.remote_dram = 0
        var.traffic = np.zeros((n_domains, n_domains), dtype=np.int64)
        for k, (t, c) in enumerate(pure.mem):
            summ = ChunkSummary(
                pure.chunk_fetch[k], int(fetch_levels[k]),
                pure.chunk_seq_flags[k], pure.chunk_fp[k],
            )
            var.summaries[k] = summ
            if summ.fetch_level == LEVEL_DRAM:
                fidx = pure.chunk_fidx[k]
                seg = c.var.segment
                tgt = seg.domains[c.addrs_at(fidx) // page_size - seg.start_page]
                var.dram_targets[k] = tgt
                var.step_requests += np.bincount(tgt, minlength=n_domains)
                nf = summ.footprint_bytes // line_size
                var.dram += nf
                var.remote_dram += int(np.count_nonzero(tgt != t.domain))
                var.traffic[t.domain] += np.bincount(tgt, minlength=n_domains)
        var.nbytes = _nbytes(var.dram_targets) + var.traffic.nbytes
        return var

    def _latency_phase(self, st: _StepMem, inflation: np.ndarray) -> None:
        """Latency under step inflation: variants keyed by its exact bytes.

        ``inflation`` is the driver's contention inflation for the step,
        from every shard's requests. The inflation-independent accounting (DRAM counts, remote counts,
        traffic matrix) lives on the classification variant; per-access
        latencies and per-chunk sums are cached per distinct
        ``inflation.tobytes()`` within it. A cache-state or placement
        change produced a different classification variant upstream, so
        latency entries can never serve stale inputs.
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
            need_views = self.monitor is not None
            n_mem = len(pure.mem)
            lat_sums = [0.0] * st.n_active
            #: Batched: per-chunk slices of the step's latency array.
            #: Summary: DRAM fetch-latency subsets for lazy views.
            chunk_lat = [None] * n_mem
            nbytes = 0
            if pure.batched:
                lat_cat = machine.step_access_latency(
                    var.levels,
                    var.targets_cat,
                    pure.acc_domains,
                    pure.starts,
                    inflation,
                    pure.sequential,
                    pure.interleaved_arr,
                )
                starts = pure.starts
                for k, i in enumerate(pure.mem_idx):
                    s, e = starts[k], starts[k + 1]
                    lat_sums[i] = float(lat_cat[s:e].sum())
                    if need_views:
                        chunk_lat[k] = lat_cat[s:e]
                if need_views:
                    nbytes += lat_cat.nbytes
            else:
                latency_model = machine.latency_model
                topology = machine.topology
                l1 = latency_model.l1
                lvl_lat = (
                    latency_model.l1, latency_model.l2, latency_model.l3
                )
                line_size = machine.cache.config.line_size
                for k, i in enumerate(pure.mem_idx):
                    t, c = pure.mem[k]
                    summ = var.summaries[k]
                    tgt = var.dram_targets[k]
                    nf = summ.footprint_bytes // line_size
                    if tgt is None:
                        # All fetches hit a cache level: the chunk's
                        # latency sum is exact closed-form arithmetic.
                        lat_sums[i] = (
                            (c.n_accesses - nf) * l1
                            + nf * lvl_lat[summ.fetch_level]
                        )
                    else:
                        fetch_lat = latency_model.dram_fetch_latencies(
                            tgt,
                            t.domain,
                            topology,
                            inflation,
                            sequential=summ.sequential,
                            interleaved=pure.interleaved[k],
                        )
                        lat_sums[i] = (
                            float(fetch_lat.sum()) + (c.n_accesses - nf) * l1
                        )
                        if need_views:
                            chunk_lat[k] = fetch_lat
                            nbytes += fetch_lat.nbytes
            lv = LatVariant(lat_sums, chunk_lat, nbytes + 8 * st.n_active)
            var.lats[lkey] = lv
            memo.charge(rec, lv.nbytes)
        else:
            memo.hit(rec)
        st.lat = lv
        st.lat_sums = lv.lat_sums

    def _monitor_phase(
        self, step: list[tuple[SimThread, AccessChunk]], st: _StepMem
    ) -> list[float] | None:
        """One ``on_step`` call with the step's views; returns the costs.

        The views — eager slices of the variant's concatenated arrays on
        the batched path, lazy views on the summary path, empty arrays
        for pure-compute chunks — are built once per latency variant.
        Call paths come from the live callstacks, which hold the same
        frames on every iteration of a region. The monitor itself —
        sampling, attribution, costs — always runs live on them.
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
            mem_rank = {i: k for k, i in enumerate(pure.mem_idx)}
            views = []
            for i, (t, chunk) in enumerate(step):
                path = self.callstacks[t.tid].with_leaf(chunk.ip)
                k = mem_rank.get(i)
                if k is None:
                    views.append(ChunkView(
                        t.tid, t.cpu, t.domain, chunk, _EMPTY_U8, _EMPTY_I64,
                        _EMPTY_F64, path, _EMPTY_BOOL, _EMPTY_BOOL,
                    ))
                elif pure.batched:
                    views.append(ChunkView(
                        t.tid, t.cpu, t.domain, chunk, var.chunk_levels[k],
                        var.chunk_targets[k], lv.chunk_lat[k], path,
                        var.chunk_dram[k], var.chunk_remote[k],
                    ))
                else:
                    views.append(LazyChunkView(
                        t.tid, t.cpu, t.domain, chunk, path,
                        var.summaries[k], machine, pure.chunk_fidx[k],
                        var.dram_targets[k], lv.chunk_lat[k],
                    ))
            views = lv.views = StepViews.from_views(views)
            # Views are slices into already-charged variant arrays;
            # charge the per-view object overhead approximately.
            memo.charge(rec, 256 * len(views))
        else:
            memo.hit(rec)
        costs = list(self.monitor.on_step(views))
        if traced:
            tr.end()
        if len(costs) != st.n_active:
            raise ProgramError(
                f"monitor on_step returned {len(costs)} costs for "
                f"{st.n_active} chunks"
            )
        return costs

    def _account_phase(
        self,
        step: list[tuple[SimThread, AccessChunk]],
        st: _StepMem,
        costs: list[float] | None,
        region_cycles: dict[int, float],
        overhead_by_tid: np.ndarray,
    ) -> tuple[int, int]:
        """Cycle / counter accounting; returns (instructions, accesses)."""
        instructions = 0
        accesses = 0
        base_cpi = self.machine.base_cpi
        mlp = self.machine.mlp
        oh_rec = self._phase_oh_rec
        for i, (t, chunk) in enumerate(step):
            cycles = (
                chunk.n_instructions * base_cpi
                + st.trap_costs[i]
                + st.lat_sums[i] / mlp
            )
            oh = st.trap_costs[i]
            if costs is not None:
                cycles += costs[i]
                oh += costs[i]
            overhead_by_tid[t.tid] += oh
            if oh_rec is not None and oh != 0.0:
                # Zero adds are exact no-ops; recording only the nonzero
                # ones keeps replay cheap and bit-identical.
                oh_rec.append((t.tid, oh))
            instructions += chunk.n_instructions
            accesses += chunk.n_accesses
            region_cycles[t.tid] += cycles
        return instructions, accesses
