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
    LEVEL_L2,
    ChunkSummary,
    ScratchPool,
)
from repro.machine.machine import Machine
from repro.machine.pagetable import PlacementPolicy
from repro.units import fast_unique
from repro.runtime.callstack import CallPath, CallStack
from repro.runtime.chunks import AccessChunk, columnarize_steps, steps_nbytes
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
from repro.runtime.phase import (
    DEFAULT_DISARM_AFTER,
    DEFAULT_MAX_PERIOD,
    IterationRecording,
    PhaseDetector,
    PhaseLibrary,
    PhaseReport,
    mean_cycles,
    next_schedule_boundary,
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
    sampled indices call :meth:`gather_samples` /
    :meth:`remote_event_count` and never pay full materialization.
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
        fetch_idx: np.ndarray | None,
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
            summ = self._summ
            lm = self._machine.latency_model
            lat = np.full(self.chunk.n_accesses, lm.l1, dtype=np.float64)
            if summ.fetch_level == LEVEL_DRAM:
                lat[summ.fetch] = self._fetch_lat
            elif summ.fetch_level != LEVEL_L1:
                lat[summ.fetch] = (
                    lm.l2 if summ.fetch_level == LEVEL_L2 else lm.l3
                )
            self._lat = lat
        return lat

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
            pages = chunk.addrs[idx] // self._machine.page_size
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
                        lat[f] = (
                            lm.l2 if summ.fetch_level == LEVEL_L2 else lm.l3
                        )
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
    """Per-step state carried between engine phases.

    The serial engine runs page traps → classification → latency →
    monitor → accounting back to back inside one step; the sharded
    engine (:mod:`repro.parallel`) runs the same phases in separate
    communication rounds — classification once the merged page state is
    ready, latency once the parent has the step's *global* contention
    inflation — so the step's record and selected variants live in an
    explicit bundle rather than local variables. ``mem_idx[k]`` maps
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


@dataclass
class RunResult:
    """Outcome of one simulated execution."""

    program: str
    n_threads: int
    wall_cycles: float
    thread_busy_cycles: np.ndarray
    total_instructions: int
    total_accesses: int
    dram_accesses: int
    remote_dram_accesses: int
    monitor_overhead_cycles: float
    region_wall_cycles: dict[str, float]
    domain_dram_requests: np.ndarray
    #: DRAM traffic matrix: ``[accessor_domain, target_domain]`` fetch
    #: counts — the interconnect load picture behind Figure 1's bandwidth
    #: argument (off-diagonal mass = cross-domain traffic).
    domain_traffic: np.ndarray
    ghz: float
    #: Number of access chunks executed (every chunk counts, including
    #: pure-compute ones) — the denominator of the perf harness's
    #: chunks/s throughput metric.
    total_chunks: int = 0

    @property
    def wall_seconds(self) -> float:
        """Simulated wall-clock seconds."""
        return self.wall_cycles / (self.ghz * 1e9)

    @property
    def remote_dram_fraction(self) -> float:
        """Fraction of DRAM accesses that were remote."""
        if self.dram_accesses == 0:
            return 0.0
        return self.remote_dram_accesses / self.dram_accesses

    def region_seconds(self, name: str) -> float:
        """Simulated seconds spent in (all iterations of) a region."""
        return self.region_wall_cycles.get(name, 0.0) / (self.ghz * 1e9)


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

    def run(self) -> RunResult:
        """Execute the program once and return timing/traffic statistics."""
        if self._ran:
            raise ProgramError("ExecutionEngine is single-use; build a new one")
        self._ran = True
        tr = obs.TRACER
        if not tr.enabled:
            return self._run(tr)
        tr.begin("engine.run", "engine", program=self.program.name)
        try:
            return self._run(tr)
        finally:
            tr.end()

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
            if var is None:
                self.applied_actions.append(
                    AppliedAction(
                        region_idx, iteration, step.var_name,
                        step.policy.value,
                        tuple(domains) if domains else None,
                        False, page_table.epoch,
                        error=f"unknown variable {step.var_name!r}",
                    )
                )
                tr.count("optim.migrations_failed")
                continue
            seg = page_table.segment_of_addr(var.base)
            if tr.enabled:
                tr.begin(
                    "engine.migrate", "optim",
                    var=step.var_name, policy=step.policy.value,
                    region=region.name, iteration=iteration,
                )
            try:
                page_table.migrate_segment(seg, step.policy, domains)
            except AllocationError as exc:
                self.applied_actions.append(
                    AppliedAction(
                        region_idx, iteration, step.var_name,
                        step.policy.value,
                        tuple(domains) if domains else None,
                        False, page_table.epoch, error=str(exc),
                    )
                )
                tr.count("optim.migrations_failed")
            else:
                self.applied_actions.append(
                    AppliedAction(
                        region_idx, iteration, step.var_name,
                        step.policy.value,
                        tuple(domains) if domains else None,
                        True, page_table.epoch,
                    )
                )
                tr.count("optim.migrations_applied")
            finally:
                if tr.enabled:
                    tr.end()
        return True

    def _phase_extrapolate(
        self, detector, planned, region, active, n_skip, busy,
        overhead_by_tid, domain_requests, domain_traffic, wall,
        region_wall, tr,
    ):
        """Apply ``n_skip`` iterations' deltas without simulating them.

        Skipped iteration ``t`` replays cycle slot ``t % period``.
        Exact mode folds the recorded slot recordings per iteration in
        slot order — the same float adds in the same order the live
        loop would perform — so the result is bit-identical to
        simulating (ε = 0). ε mode (engine periodic, sampling jittered)
        folds each slot's window-mean cycle and overhead deltas scaled
        by that slot's skip count and has the monitor scale its
        per-slot window-mean accumulator deltas; engine-pure integers
        multiply exactly per slot in both modes. Returns
        ``(wall, int_deltas, mode, eps)``.
        """
        name = region.name
        mode, period, _ = planned
        slots = detector.cycle_slots(period)
        recs = [e.rec for e in slots]
        counts = slot_counts(n_skip, period)
        if tr.enabled:
            tr.begin(
                "engine.phase.extrapolate", "engine",
                region=name, iterations=n_skip, mode=mode, period=period,
            )
        eps = 0.0
        if mode == "exact":
            for t_i in range(n_skip):
                rec = recs[t_i % period]
                for t in active:
                    busy[t.tid] += rec.region_cycles[t.tid]
                wall += rec.elapsed
                region_wall[name] = region_wall.get(name, 0.0) + rec.elapsed
                for tid, oh in rec.oh_ops:
                    overhead_by_tid[tid] += oh
            if self.monitor is not None:
                if period == 1:
                    self.monitor.phase_replay(recs[0].monitor_prog, n_skip)
                else:
                    # Interleave per-iteration in slot order: replay
                    # loops the identical numpy ops, so this is the
                    # exact float-add order of simulating the cycle.
                    for t_i in range(n_skip):
                        self.monitor.phase_replay(
                            recs[t_i % period].monitor_prog, 1
                        )
        else:
            windows = detector.slot_windows(period)
            for j, w in enumerate(windows):
                cnt = counts[j]
                if not cnt or not w:
                    continue
                rc_mean, elapsed_mean = mean_cycles(w)
                for t in active:
                    busy[t.tid] += rc_mean[t.tid] * cnt
                wall += elapsed_mean * cnt
                region_wall[name] = (
                    region_wall.get(name, 0.0) + elapsed_mean * cnt
                )
                oh_mean = w[0].oh_delta.copy()
                for s in w[1:]:
                    oh_mean += s.oh_delta
                oh_mean /= len(w)
                overhead_by_tid += oh_mean * cnt
            eps = detector.eps_value(period)
            if self.monitor is not None:
                for j, w in enumerate(windows):
                    if not counts[j] or not w:
                        continue
                    eps = max(eps, self.monitor.extrapolate_flush(
                        [s.monitor_delta for s in w], counts[j]
                    ))
        ints = {k: 0 for k in recs[0].ints}
        for j, cnt in enumerate(counts):
            if not cnt:
                continue
            rec = recs[j]
            domain_requests += rec.requests * cnt
            domain_traffic += rec.traffic * cnt
            for k, v in rec.ints.items():
                ints[k] += v * cnt
        if recs[0].cache_delta is not None:
            # Fast-forward the reuse-distance state so regions after
            # this one classify bit-identically to the exact run.
            self.machine.cache.phase_advance_cycle(
                [r.cache_delta for r in recs], n_skip
            )
        if tr.enabled:
            tr.count("engine.phase.extrapolated_iterations", n_skip)
            tr.end()
        return wall, ints, mode, eps

    def _run(self, tr) -> RunResult:
        if self.monitor is not None:
            self.heap.add_monitor(self.monitor)
            self.monitor.on_run_start(self)

        if tr.enabled:
            with tr.span("engine.setup", "engine"):
                self.program.setup(self.ctx)
                regions = self.program.regions(self.ctx)
        else:
            self.program.setup(self.ctx)
            regions = self.program.regions(self.ctx)

        # Metrics plane: a recorder attached to an enabled tracer gets a
        # snapshot at every region-iteration boundary. Sampling is a
        # read-only observer on host time — simulated results are
        # bit-identical with it on or off (tests/test_metrics_parity.py).
        mx = getattr(tr, "metrics", None) if tr.enabled else None

        busy = np.zeros(len(self.threads), dtype=np.float64)
        # Overhead accumulates per thread and reduces once at the end:
        # each tid's partial sum involves only that thread's own chunks
        # in step order, so a sharded run (which accumulates the same
        # per-tid sequences in worker processes) reduces bit-identically.
        overhead_by_tid = np.zeros(len(self.threads), dtype=np.float64)
        total_instructions = 0
        total_accesses = 0
        total_chunks = 0
        dram_accesses = 0
        remote_dram = 0
        wall = 0.0
        region_wall: dict[str, float] = {}
        domain_requests = np.zeros(self.machine.n_domains, dtype=np.int64)
        domain_traffic = np.zeros(
            (self.machine.n_domains, self.machine.n_domains), dtype=np.int64
        )
        phase_report = PhaseReport(enabled=self.extrapolate)

        def _mx_values() -> dict:
            # Cumulative engine totals snapshotted into the metrics plane.
            # Passed explicitly (not read from tracer counters) so the
            # sharded parent — whose counters live in the workers — can
            # feed the same keys and share the rate-derivation path.
            values = {
                "engine.chunks": float(total_chunks),
                "engine.accesses": float(total_accesses),
                "engine.instructions": float(total_instructions),
            }
            if dram_accesses:
                values["engine.remote_fraction"] = remote_dram / dram_accesses
            for d in range(self.machine.n_domains):
                values[f"engine.domain.requests.{d}"] = float(
                    domain_requests[d]
                )
            return values

        for region_idx, region in enumerate(regions):
            active = (
                self.threads
                if region.kind is RegionKind.PARALLEL
                else self.threads[:1]
            )
            memo = self.memo
            retain = memo.retains(region.repeat)
            detector = None
            if (
                self.extrapolate
                # With the library, a region whose trace matches an
                # already-converged phase can arm after a single live
                # iteration, so any repeated region is worth watching.
                # A repeat-1 region can neither skip nor converge, so
                # it never pays for observation.
                and region.repeat > 1
                and (
                    region.repeat > self.extrap_warmup
                    or self.phase_library is not None
                )
                and (self.monitor is None or self.monitor.phase_supported())
            ):
                detector = PhaseDetector(
                    region.name,
                    warmup=self.extrap_warmup,
                    max_period=self.extrap_period,
                    allow_eps=self.monitor is not None,
                    monitor_present=self.monitor is not None,
                    disarm_after=self.extrap_disarm,
                    library=self.phase_library,
                )
            n_exact = n_eps = 0
            eps_max = 0.0
            iteration = 0
            while iteration < region.repeat:
                fired = False
                if mx is not None:
                    epoch0 = self.machine.page_table.epoch
                    breaks0 = detector.breaks if detector is not None else 0
                if self.schedule is not None:
                    fired = self._apply_schedule(region_idx, region, iteration)
                    if fired and detector is not None:
                        detector.invalidate()
                observe = detector is not None and detector.begin_iteration(
                    self.machine.page_table.epoch
                )
                planned = detector.plan() if observe else None
                if planned is not None:
                    stop = next_schedule_boundary(
                        self.schedule, region_idx, iteration, region.repeat
                    )
                    n_skip = stop - iteration
                    if planned[0] == "exact" and planned[1] > 1 \
                            and self.monitor is not None:
                        # The monitor's selection state cycles with the
                        # phase; replay only advances its accumulators.
                        # Skipping whole cycles lands that state back on
                        # the live baseline; a partial cycle would
                        # resume the monitor mid-cycle and diverge, so
                        # the remainder iterations run live instead.
                        n_skip -= n_skip % planned[1]
                        stop = iteration + n_skip
                    if n_skip > 0:
                        detector.note_armed(planned)
                        wall, ints, mode, eps = self._phase_extrapolate(
                            detector, planned, region, active, n_skip, busy,
                            overhead_by_tid, domain_requests, domain_traffic,
                            wall, region_wall, tr,
                        )
                        total_instructions += ints["instructions"]
                        total_accesses += ints["accesses"]
                        total_chunks += ints["chunks"]
                        dram_accesses += ints["dram"]
                        remote_dram += ints["remote_dram"]
                        if mode == "exact":
                            n_exact += n_skip
                        else:
                            n_eps += n_skip
                            eps_max = max(eps_max, eps)
                        iteration = stop
                        if mx is not None:
                            mx.sample(
                                tr,
                                flags=obs.FLAG_EXTRAPOLATED,
                                region=region.name,
                                iteration=iteration - 1,
                                values=_mx_values(),
                            )
                        continue
                traced = tr.enabled
                oh_ops: list = []
                mon_snap = None
                oh_base = None
                cache_snap = None
                if observe:
                    self._phase_oh_rec = oh_ops
                    self._phase_sig = sig = []
                    cache_snap = self.machine.cache.phase_snapshot()
                    if self.monitor is not None:
                        self.monitor.phase_record_begin()
                        if detector.allow_eps:
                            mon_snap = self.monitor.phase_snapshot()
                            oh_base = overhead_by_tid.copy()
                if traced:
                    iter_t0 = tr.now_ns()
                    tr.begin(
                        "engine.region", "engine",
                        region=region.name, iteration=iteration,
                    )
                for t in active:
                    self.callstacks[t.tid].push(region.src)
                    if self.monitor is not None:
                        self.monitor.on_region_enter(t.tid, region, iteration)

                steps = memo.gen_get(region_idx) if retain else None
                if steps is None:
                    steps = self._draw_steps(active, {
                        t.tid: iter(region.kernel(self.ctx, t.tid))
                        for t in active
                    })
                    if retain:
                        memo.gen_store(region_idx, steps, steps_nbytes(steps))
                if (
                    observe
                    and iteration == 0
                    and self.phase_library is not None
                ):
                    mon = self.monitor
                    detector.set_library_key(
                        trace_content_key(steps),
                        type(getattr(mon, "mechanism", mon)).__name__
                        if mon is not None
                        else None,
                        self.machine.page_table.epoch,
                    )

                region_cycles = {t.tid: 0.0 for t in active}
                # Per-iteration integer deltas (folded into the run
                # totals below; integer adds are associative, so this
                # restructure is bit-identical — and it is exactly what
                # the phase detector records for extrapolation).
                it_instructions = it_accesses = it_chunks = 0
                it_dram = it_remote = 0
                it_requests = np.zeros_like(domain_requests)
                it_traffic = np.zeros_like(domain_traffic)
                for s_idx, step in enumerate(steps):
                    rec = memo.record(region_idx, s_idx, transient=not retain)
                    cat = steps.step_addrs(s_idx)
                    if traced:
                        tr.begin("engine.step", "engine")
                        stats = self._execute_step(
                            step, region_cycles, overhead_by_tid, rec, cat
                        )
                        tr.end()
                    else:
                        stats = self._execute_step(
                            step, region_cycles, overhead_by_tid, rec, cat
                        )
                    it_instructions += stats["instructions"]
                    it_accesses += stats["accesses"]
                    it_chunks += len(step)
                    it_dram += stats["dram"]
                    it_remote += stats["remote_dram"]
                    it_requests += stats["domain_requests"]
                    it_traffic += stats["domain_traffic"]

                for t in active:
                    if self.monitor is not None:
                        self.monitor.on_region_exit(t.tid, region, iteration)
                    self.callstacks[t.tid].pop()

                if traced:
                    tr.end()
                    # Per-simulated-thread mirror tracks: the region
                    # iteration as each thread saw it (lockstep, so the
                    # host-time interval is shared).
                    iter_t1 = tr.now_ns()
                    for t in active:
                        tr.pair(
                            region.name, "engine", t.tid, iter_t0, iter_t1
                        )

                elapsed = max(region_cycles.values()) if region_cycles else 0.0
                for t in active:
                    busy[t.tid] += region_cycles[t.tid]
                wall += elapsed
                region_wall[region.name] = region_wall.get(region.name, 0.0) + elapsed

                total_instructions += it_instructions
                total_accesses += it_accesses
                total_chunks += it_chunks
                dram_accesses += it_dram
                remote_dram += it_remote
                domain_requests += it_requests
                domain_traffic += it_traffic

                if observe:
                    self._phase_oh_rec = None
                    self._phase_sig = None
                    mon_digest = ()
                    mon_prog = None
                    mon_delta = None
                    if self.monitor is not None:
                        mon_prog = self.monitor.phase_record_end()
                        mon_digest = self.monitor.phase_digest()
                        if mon_snap is not None:
                            mon_delta = self.monitor.phase_delta(mon_snap)
                    rec_i = IterationRecording(
                        ints={
                            "instructions": it_instructions,
                            "accesses": it_accesses,
                            "chunks": it_chunks,
                            "dram": it_dram,
                            "remote_dram": it_remote,
                        },
                        requests=it_requests,
                        traffic=it_traffic,
                        region_cycles=region_cycles,
                        elapsed=elapsed,
                        oh_ops=oh_ops,
                        cache_delta=self.machine.cache.phase_delta(cache_snap),
                        monitor_prog=mon_prog,
                    )
                    # The cache's reuse-distance state needs no digest
                    # entry: an identical trace revisits the same keys
                    # every iteration, so fetch levels are periodic once
                    # the memo-key signature repeats (see phase.py); the
                    # recorded cache delta is compared exactly instead.
                    engine_digest = sig_digest(
                        self.machine.page_table.epoch, sig
                    )
                    detector.end_live_iteration(
                        engine_digest, mon_digest, rec_i,
                        overhead_by_tid - oh_base
                        if oh_base is not None else None,
                        mon_delta,
                    )
                    if traced and detector.is_steady:
                        tr.count("engine.phase.steady_iterations")
                if mx is not None:
                    flags = obs.FLAG_ITERATION
                    if fired:
                        flags |= obs.FLAG_SCHEDULE
                    if self.machine.page_table.epoch != epoch0:
                        flags |= obs.FLAG_EPOCH
                    if detector is not None and detector.breaks != breaks0:
                        flags |= obs.FLAG_PHASE_BREAK
                    mx.sample(
                        tr,
                        flags=flags,
                        region=region.name,
                        iteration=iteration,
                        values=_mx_values(),
                    )
                iteration += 1

            memo.release_region(region_idx)
            if self.extrapolate:
                stats_r = phase_report.region(region.name)
                stats_r.iterations += region.repeat
                stats_r.extrapolated_exact += n_exact
                stats_r.extrapolated_eps += n_eps
                stats_r.simulated += region.repeat - n_exact - n_eps
                if detector is not None:
                    stats_r.breaks += detector.breaks
                    stats_r.period = max(
                        stats_r.period, detector.period_detected
                    )
                    stats_r.disarms += detector.disarms
                    stats_r.library_hits += detector.library_hits
                stats_r.epsilon = max(stats_r.epsilon, eps_max)
                if traced and detector is not None and detector.breaks:
                    tr.count("engine.phase.breaks", detector.breaks)

        result = RunResult(
            program=self.program.name,
            n_threads=len(self.threads),
            wall_cycles=wall,
            thread_busy_cycles=busy,
            total_instructions=total_instructions,
            total_accesses=total_accesses,
            dram_accesses=dram_accesses,
            remote_dram_accesses=remote_dram,
            monitor_overhead_cycles=float(overhead_by_tid.sum()),
            region_wall_cycles=region_wall,
            domain_dram_requests=domain_requests,
            domain_traffic=domain_traffic,
            ghz=self.machine.ghz,
            total_chunks=total_chunks,
        )
        if self.extrapolate:
            self.phase_report = phase_report.as_dict()
            if tr.enabled:
                tr.gauge(
                    "engine.phase.epsilon", self.phase_report["epsilon"]
                )
                tr.gauge(
                    "engine.phase.coverage_pct",
                    self.phase_report["coverage_pct"],
                )
        if self.monitor is not None:
            self.monitor.on_run_end(result)
        if mx is not None:
            # Final snapshot after run-end gauges (phase report, profiler
            # row tables) are set, so the last row carries them all.
            mx.sample(tr, flags=obs.FLAG_FINAL, values=_mx_values())
        return result

    # ------------------------------------------------------------------ #

    @staticmethod
    def _draw_steps(active: list[SimThread], iters: dict, alloc=None):
        """Drain the iteration's kernels into a :class:`StepTrace`.

        Each step takes the next chunk of every thread whose kernel is
        not exhausted, in thread order; the steps are drawn before any of
        them executes (see ``Region``). ``alloc`` optionally supplies the
        trace's flat address buffer (see :func:`columnarize_steps`).
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
        # Pack the trace's addresses into one flat column so classify
        # reads each step's concatenation in place (values unchanged).
        return columnarize_steps(steps, alloc)

    def _execute_step(
        self,
        step: list[tuple[SimThread, AccessChunk]],
        region_cycles: dict[int, float],
        overhead_by_tid: np.ndarray,
        rec,
        cat: np.ndarray,
    ) -> dict:
        """Run one lockstep set of chunks through the memory system.

        Page work (traps + first-touch binding) runs per chunk in step
        order — trap delivery and binding order are semantically ordered —
        but is skipped entirely for segments whose ``n_protected`` /
        ``n_unbound`` counters are zero. The per-access work then runs
        through the step's record ``rec`` (see :mod:`repro.runtime.memo`):
        pure products → a variant keyed by page-table epoch and fetch
        levels → a latency variant keyed by the step's inflation → the
        monitor's views. The record is retained across a repeated
        region's iterations, or transient (built for this step only) in
        repeat-1 regions and under a zero memo budget — the same code
        either way. ``cat`` is the step's concatenated mem-chunk
        addresses from the columnar trace.

        Within the pipeline, steps of small chunks (mean accesses/chunk
        <= ``BATCH_MEAN_ACCESSES``) take the batched variant, computed
        on the step's concatenated arrays to amortize per-chunk dispatch
        overhead; steps of large chunks take the summary variant (fetch
        mask + single fetch level per chunk), touching per-access data
        only on the fetch subset, with monitors served by
        :class:`LazyChunkView` so full per-access arrays are
        reconstructed only if a monitor actually reads them. Both compute
        identical per-access values.

        The phases are factored into ``_page_phase`` / ``_classify_phase``
        / ``_latency_phase`` / ``_monitor_phase`` / ``_account_phase`` so
        the sharded engine can drive them across communication rounds;
        this method is the serial orchestration.
        """
        tr = obs.TRACER
        traced = tr.enabled
        if traced:
            tr.count("engine.steps")
            tr.count("engine.chunks", len(step))
            tr.begin("engine.page_traps", "engine")

        st = self._page_phase(step, rec)

        if traced:
            tr.end()
            tr.begin("engine.classify", "engine")

        self._classify_phase(step, st, rec, cat)

        if traced:
            if st.mem_idx:
                tr.count(
                    "engine.steps_batched" if rec.pure.batched
                    else "engine.steps_summary"
                )
            tr.end()
            tr.begin("engine.latency", "engine")

        self._latency_phase(st)

        if traced:
            tr.end()

        costs = self._monitor_phase(step, st)
        instructions, accesses = self._account_phase(
            step, st, costs, region_cycles, overhead_by_tid
        )

        return {
            "instructions": instructions,
            "accesses": accesses,
            "dram": st.dram,
            "remote_dram": st.remote_dram,
            "domain_requests": st.step_requests,
            "domain_traffic": st.traffic,
        }

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
        without involving the monitor — the sharded engine's replay of
        *other* shards' page events, which must update every worker's
        replicated page table but be attributed only by the owner.
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

    def _page_phase(
        self, step: list[tuple[SimThread, AccessChunk]], rec
    ) -> _StepMem:
        """Ordered page-protection traps + first touches for one step.

        In steady state every segment's counters are already zero, so
        only the positions scan remains.
        """
        page_size = self.machine.page_size
        st = _StepMem(len(step))
        st.mem_idx = _mem_positions(step, rec)
        for i in st.mem_idx:
            t, chunk = step[i]
            seg = chunk.var.segment
            if seg.n_protected == 0 and seg.n_unbound == 0:
                continue
            pages = fast_unique(chunk.addrs // page_size)
            st.trap_costs[i] = self._apply_page_event(
                t.tid, t.cpu, chunk.var, pages, chunk.ip
            )
        return st

    def _classify_phase(
        self,
        step: list[tuple[SimThread, AccessChunk]],
        st: _StepMem,
        rec,
        cat: np.ndarray,
        batched: bool | None = None,
    ) -> None:
        """Classification / placement: pure products + keyed variants.

        ``batched=None`` decides the batched-vs-summary split from this
        step's own totals (serial); the sharded engine passes the
        parent's globally computed flag so every worker takes the same
        float-summation path. The reuse-distance lookup (the only
        stateful part of classification) runs live; its per-chunk result
        joins the page-table epoch in the variant key, so both a
        cache-state change and any page-placement mutation select — or
        build — a different variant. ``cat`` carries the step's
        concatenated mem-chunk addresses from the columnar trace
        (:class:`StepTrace`), read in place.
        """
        machine = self.machine
        memo = self.memo
        st.rec = rec
        if not st.mem_idx:
            # Pure-compute steps have nothing to batch: the summary
            # builders degenerate to empty products.
            batched = False
        pure = rec.pure
        if pure is not None and (batched is None or pure.batched == batched):
            memo.hit(rec)
        else:
            memo.miss(rec)
            pure = self._build_pure(step, st.mem_idx, batched, cat)
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
        batched: bool | None,
        cat: np.ndarray,
    ) -> PureStep:
        """Compute one step's iteration-invariant products."""
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
        if batched is None:
            batched = int(lengths.sum()) <= self.BATCH_MEAN_ACCESSES * n_mem
        pure.batched = batched
        if batched:
            starts = pure.starts = np.zeros(n_mem + 1, dtype=np.int64)
            np.cumsum(lengths, out=starts[1:])
            # The columnar trace slice is the concatenation (chunk addrs
            # are views of it); its bytes are the trace's, so the memo
            # does not charge them again.
            pure.addrs_cat = cat
            fp = machine.cache.step_fetch_products(cat, starts, self._scratch)
            pure.fetch = fp.fetch
            pure.sequential = fp.sequential
            pure.footprints = fp.footprints
            pure.first_addrs = fp.first_addrs
            pure.nbytes = _nbytes(
                pure.fetch, pure.footprints, pure.first_addrs,
                lengths, starts, pure.acc_domains,
            )
        else:
            pure.chunk_fetch = [None] * n_mem
            pure.chunk_seq_flags = [True] * n_mem
            pure.chunk_fp = [0] * n_mem
            pure.chunk_first = [0] * n_mem
            pure.chunk_fidx = [None] * n_mem
            for k, (t, c) in enumerate(mem):
                fetch, footprint, seq = machine.cache.chunk_fetch_products(
                    c.addrs
                )
                pure.chunk_fetch[k] = fetch
                pure.chunk_seq_flags[k] = seq
                pure.chunk_fp[k] = footprint
                pure.chunk_first[k] = int(c.addrs[0])
                pure.chunk_fidx[k] = np.nonzero(fetch)[0]
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
        var.fidx = [None] * n_mem
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
                tgt = seg.domains[c.addrs[fidx] // page_size - seg.start_page]
                var.fidx[k] = fidx
                var.dram_targets[k] = tgt
                var.step_requests += np.bincount(tgt, minlength=n_domains)
                nf = summ.footprint_bytes // line_size
                var.dram += nf
                var.remote_dram += int(np.count_nonzero(tgt != t.domain))
                var.traffic[t.domain] += np.bincount(tgt, minlength=n_domains)
        var.nbytes = _nbytes(var.dram_targets, var.fidx) + var.traffic.nbytes
        return var

    def _latency_phase(self, st: _StepMem, inflation=None) -> None:
        """Latency under step inflation: variants keyed by its exact bytes.

        ``inflation=None`` (serial) derives the step's contention
        inflation from the variant's own requests and the step's active
        count — a pure function of the variant, cached on it; the
        sharded engine passes the parent's merged inflation. The
        inflation-independent accounting (DRAM counts, remote counts,
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
        if inflation is None:
            inflation = var.serial_inflation
            if inflation is None:
                inflation = var.serial_inflation = (
                    machine.contention.inflation(
                        var.step_requests, st.n_active
                    )
                )
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
                        var.summaries[k], machine, var.fidx[k],
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
