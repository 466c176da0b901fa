"""Shard worker: one process's slice of a sharded execution.

A :class:`ShardEngine` owns the simulated threads with
``tid % n_shards == shard_id`` and runs the full engine pipeline —
chunk generation, page-trap delivery, classification, latency,
``select_step`` sampling, deferred accumulation — for exactly that
slice, using the phase methods the serial
:class:`~repro.runtime.engine.ExecutionEngine` was factored into.

Determinism contract (the reason serial and sharded runs are
bit-identical, enforced by ``tests/test_parallel_parity.py``):

* every worker builds the *same* simulated state from the parent's
  factories (machine, program, heap layout, thread binding), so
  addresses and segments agree across processes;
* page-table mutations are **replicated**: each region iteration's
  first-touch/unprotect events from every shard are merged by the
  parent, sorted into serial ``(step, tid)`` order, and replayed by
  every worker against its own page-table copy — so placement lookups
  (``seg.domains``) agree everywhere, while only the owning shard
  attributes the trap to its monitor;
* global per-step decisions (the batched-vs-summary pipeline flag and
  the contention inflation computed from merged per-step domain
  traffic) are computed by the parent from merged integer counts and
  broadcast, so every worker takes the same float-summation path the
  serial engine would;
* per-thread state (sampling carries, per-thread RNG streams, profiler
  accumulator rows, cycle/overhead accumulation) is keyed by tid and
  never crosses shards.

The worker protocol runs three rounds per region iteration —
``gen_iteration`` → ``classify_iteration`` → ``finish_iteration`` —
plus ``start`` once before the first region and ``finish_run`` once
after the last (see :mod:`repro.parallel.engine`).
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.runtime.arena import (
    ArenaReader,
    ShmArena,
    decode_payload,
    encode_payload,
    worker_segment,
)
from repro.runtime.chunks import steps_nbytes
from repro.runtime.engine import ExecutionEngine, _StepMem, _mem_positions
from repro.runtime.phase import (
    IterationRecording,
    PhaseDetector,
    sig_digest,
    slot_counts,
    trace_content_key,
)
from repro.runtime.program import RegionKind
from repro.units import fast_unique


#: Seconds a worker waits for its siblings at the per-round barrier
#: before declaring the round broken (a sibling died or hung).
_BARRIER_TIMEOUT_S = 600.0

#: Per-process worker state installed by :func:`_init_worker`.
_WORKER: dict = {}


class ShardEngine(ExecutionEngine):
    """An :class:`ExecutionEngine` driving only one shard of threads.

    The parent never calls :meth:`run`; it drives the round methods
    below, one region iteration at a time, broadcasting merged global
    state between rounds.
    """

    def __init__(
        self,
        machine,
        program,
        n_threads: int,
        *,
        shard_id: int,
        n_shards: int,
        **kwargs,
    ) -> None:
        super().__init__(machine, program, n_threads, **kwargs)
        self.shard_id = int(shard_id)
        self.n_shards = int(n_shards)
        #: Shared-memory arena owned by this worker (outbound round
        #: payloads + the columnar trace plane); installed by
        #: :func:`_init_worker`, ``None`` in the pickled-payload fallback.
        self.arena: ShmArena | None = None
        self._regions = None
        self._overhead_by_tid = np.zeros(len(self.threads), dtype=np.float64)
        self._iter_steps: list | None = None
        self._iter_states: list | None = None
        self._iter_owned: list | None = None
        self._iter_region = None
        self._iter_region_idx: int | None = None
        self._iter_retain = False
        #: Source coordinates of this shard's own page events, in event
        #: order. Broadcast event columns omit IPs entirely — only the
        #: owning shard attributes a trap, and its own events appear in
        #: the merged (step, tid) order exactly as generated (one event
        #: per (step, tid), steps ascending, owned tids ascending).
        self._iter_event_ips: list = []
        #: Phase detection over this shard's slice. Every worker digests
        #: its own partition of the step stream (epoch + its chunks'
        #: memo keys + its threads' sampling state); the parent arms
        #: extrapolation only when every shard reports a fixed point, so
        #: the union condition matches the serial detector exactly.
        self._shard_detector: PhaseDetector | None = None
        self._iter_observe = False
        self._iter_requests = None
        self._iter_cache_snap = None
        self._iter_mon_snap = None
        self._iter_oh_base = None
        # Metrics-plane bookkeeping (this shard's slice only): cumulative
        # totals fed to the worker recorder's samples, plus per-iteration
        # flag state captured in gen_iteration and read in
        # finish_iteration.
        self._mx_chunks = 0
        self._mx_accesses = 0
        self._mx_instructions = 0
        self._mx_dram = 0
        self._mx_remote = 0
        self._mx_skipped = 0
        self._iter_fired = False
        self._iter_epoch0 = 0
        self._iter_breaks0 = 0

    def owns(self, tid: int) -> bool:
        """Whether this shard executes (and attributes) thread ``tid``."""
        return tid % self.n_shards == self.shard_id

    # ------------------------------------------------------------------ #
    # rounds
    # ------------------------------------------------------------------ #

    def start(self) -> dict:
        """Run-start: monitor hookup + program setup.

        Returns the region count (parent cross-checks every shard agrees
        with its bookkeeping copy) and whether this shard can take part
        in phase extrapolation.
        """
        if self.monitor is not None:
            self.heap.add_monitor(self.monitor)
            self.monitor.on_run_start(self)
        self.program.setup(self.ctx)
        self._regions = self.program.regions(self.ctx)
        return {
            "n_regions": len(self._regions),
            "phase_ok": bool(
                self.extrapolate
                and (self.monitor is None or self.monitor.phase_supported())
            ),
        }

    def gen_iteration(self, region_idx: int, iteration: int) -> dict:
        """Round A: drain this shard's generators for one iteration.

        Enters the region for owned threads, pre-draws every lockstep
        step's chunks into a columnar :class:`StepTrace`, and returns
        per-step chunk/memory counts plus the shard's page events as
        flat columns (step / tid / cpu / var-id / concatenated unique
        page sets) — one entry for each memory chunk whose segment still
        had protected or unbound pages when generation ran. That
        counter check is a
        conservative superset of the serial engine's step-time check
        (the counters only decrease within an iteration); replay applies
        the exact step-time check, so bind/trap decisions match serial
        exactly.
        """
        region = self._regions[region_idx]
        memo = self.memo
        retain = memo.retains(region.repeat)
        self._iter_epoch0 = self.machine.page_table.epoch
        fired = False
        if self.schedule is not None:
            # Every shard applies the identical scheduled migrations on
            # its page-table replica before any thread enters the region
            # — the sharded counterpart of the serial engine's call at
            # the top of the iteration loop. Epochs advance in lockstep.
            fired = self._apply_schedule(region_idx, region, iteration)
        if iteration == 0:
            detector = None
            if (
                self.extrapolate
                # Mirrors the serial gate: repeat-1 regions can neither
                # skip nor converge, so they never pay for observation.
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
            self._shard_detector = detector
        else:
            detector = self._shard_detector
        self._iter_fired = fired
        self._iter_breaks0 = detector.breaks if detector is not None else 0
        if detector is not None and fired:
            detector.invalidate()
        observe = detector is not None and detector.begin_iteration(
            self.machine.page_table.epoch
        )
        self._iter_observe = observe
        if observe:
            # Recording hooks mirror the serial engine's live-iteration
            # setup and must precede the monitor's region-enter callback
            # so the replay program covers the whole iteration.
            self._phase_oh_rec = []
            self._phase_sig = []
            self._iter_cache_snap = self.machine.cache.phase_snapshot()
            self._iter_oh_base = None
            self._iter_mon_snap = None
            if self.monitor is not None:
                self.monitor.phase_record_begin()
                if detector.allow_eps:
                    self._iter_mon_snap = self.monitor.phase_snapshot()
                    self._iter_oh_base = self._overhead_by_tid.copy()
        active = (
            self.threads
            if region.kind is RegionKind.PARALLEL
            else self.threads[:1]
        )
        owned = [t for t in active if self.owns(t.tid)]
        for t in owned:
            self.callstacks[t.tid].push(region.src)
            if self.monitor is not None:
                self.monitor.on_region_enter(t.tid, region, iteration)
        if self.arena is not None:
            # Non-retained traces live in the per-iteration pool; the
            # previous iteration is fully finished, so rewind it.
            self.arena.reset("iter")
        cached = memo.gen_get(region_idx) if retain else None
        if cached is not None:
            steps, n_chunks, n_mem, acc_sum = cached
        else:
            # Pack the trace's addresses into one flat column — classify
            # reads step slices in place, and with an arena the whole
            # trace plane lives in this shard's shared segments
            # (retained regions get a region pool unlinked on release;
            # see IterationMemo.on_release).
            alloc = None
            if self.arena is not None:
                pool = ("gen", region_idx) if retain else "iter"
                arena = self.arena

                def alloc(n, _pool=pool, _arena=arena):
                    return _arena.alloc_array(n, np.int64, _pool)[0]

            steps = self._draw_steps(owned, {
                t.tid: iter(region.kernel(self.ctx, t.tid)) for t in owned
            }, alloc)
            n_chunks = np.zeros(len(steps), dtype=np.int64)
            n_mem = np.zeros(len(steps), dtype=np.int64)
            acc_sum = np.zeros(len(steps), dtype=np.int64)
            for s, step in enumerate(steps):
                n_chunks[s] = len(step)
                for _, chunk in step:
                    if chunk.var is None or not chunk.n_accesses:
                        continue
                    n_mem[s] += 1
                    acc_sum[s] += chunk.n_accesses
            if retain:
                memo.gen_store(
                    region_idx,
                    (steps, n_chunks, n_mem, acc_sum),
                    steps_nbytes(steps)
                    + n_chunks.nbytes + n_mem.nbytes + acc_sum.nbytes,
                    shared_nbytes=(
                        steps.addrs_cat.nbytes if self.arena is not None
                        else 0
                    ),
                )

        if (
            observe
            and iteration == 0
            and self.phase_library is not None
        ):
            # Per-shard trace content key: each worker's library matches
            # its own slice of a region's step stream, so two regions
            # that share serially share identically under sharding.
            mon = self.monitor
            detector.set_library_key(
                trace_content_key(steps),
                type(getattr(mon, "mechanism", mon)).__name__
                if mon is not None
                else None,
                self.machine.page_table.epoch,
            )

        # Page events are *not* cacheable: the protected/unbound counters
        # are live machine state that drains as iterations bind pages, so
        # the candidate check reruns against current counters every time
        # (exactly like the serial engine's record replay in _page_phase).
        # Events ship as columns — step/tid/cpu/var-id plus the
        # concatenated unique-page sets — so the merged broadcast is a
        # handful of flat arrays (descriptors, with an arena) instead of
        # a pickled tuple list. IPs stay shard-local (see
        # ``_iter_event_ips``).
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
                    pages = fast_unique(chunk.addrs // page_size)
                    name = chunk.var.name
                    vid = name_id.get(name)
                    if vid is None:
                        vid = name_id[name] = len(names)
                        names.append(name)
                    ev_step.append(s)
                    ev_tid.append(t.tid)
                    ev_cpu.append(t.cpu)
                    ev_var.append(vid)
                    ev_pages.append(pages)
                    ips.append(chunk.ip)
        n_events = len(ev_step)
        events = {
            "step": np.array(ev_step, dtype=np.int64),
            "tid": np.array(ev_tid, dtype=np.int64),
            "cpu": np.array(ev_cpu, dtype=np.int64),
            "var": np.array(ev_var, dtype=np.int64),
            "plen": np.fromiter(
                (p.size for p in ev_pages), dtype=np.int64, count=n_events
            ),
            "pages": (
                np.concatenate(ev_pages) if ev_pages
                else np.empty(0, dtype=np.int64)
            ),
            "names": names,
        }

        self._iter_steps = steps
        self._iter_event_ips = ips
        self._iter_owned = owned
        self._iter_region = (region, iteration)
        self._iter_region_idx = region_idx
        self._iter_retain = retain
        return {
            "n_chunks": n_chunks,
            "n_mem": n_mem,
            "acc_sum": acc_sum,
            "events": events,
        }

    def classify_iteration(
        self, events: dict, batched_flags, n_steps: int
    ) -> np.ndarray:
        """Round B: replay merged page events + classify own chunks.

        ``events`` is every shard's page-event columns merged and sorted
        into serial ``(step, tid)`` order (``pstart`` delimits each
        event's slice of the concatenated ``pages`` column; with the
        arena the columns are zero-copy views of the parent's
        segments); ``batched_flags`` is the parent's globally computed
        pipeline flag per step. For each step the worker first replays
        that step's page events on its replicated page table
        (attributing traps only for owned tids, whose source
        coordinates it kept locally), then classifies its own chunks —
        the same page-state-then-classify ordering the serial step
        uses. Returns the shard's per-step DRAM request matrix
        ``(n_steps, n_domains)``.
        """
        steps = self._iter_steps
        n_domains = self.machine.n_domains
        requests = np.zeros((n_steps, n_domains), dtype=np.int64)
        states: list[_StepMem | None] = []
        memo = self.memo
        transient = not self._iter_retain
        region_idx = self._iter_region_idx
        ev_step = events["step"]
        ev_tid = events["tid"]
        ev_cpu = events["cpu"]
        ev_var = events["var"]
        pstart = events["pstart"]
        pages_cat = events["pages"]
        names = events["names"]
        own_ips = self._iter_event_ips
        own_i = 0
        ev_i = 0
        n_events = int(ev_step.size)
        for s in range(n_steps):
            trap_by_tid: dict[int, float] = {}
            while ev_i < n_events and ev_step[ev_i] == s:
                tid = int(ev_tid[ev_i])
                cpu = int(ev_cpu[ev_i])
                var = self.ctx.var(names[int(ev_var[ev_i])])
                pages = pages_cat[pstart[ev_i] : pstart[ev_i + 1]]
                ev_i += 1
                owned = self.owns(tid)
                if owned:
                    ip = own_ips[own_i]
                    own_i += 1
                else:
                    ip = None  # never read: attribution is owner-only
                cost = self._apply_page_event(
                    tid, cpu, var, pages, ip, attribute=owned
                )
                if owned:
                    trap_by_tid[tid] = cost

            if s >= len(steps):
                # This shard's threads have no chunk in this step.
                states.append(None)
                continue
            step = steps[s]
            st = _StepMem(len(step))
            # One chunk per thread per step, and only memory chunks
            # carry page events.
            st.trap_costs = [trap_by_tid.get(t.tid, 0.0) for t, _ in step]
            rec = memo.record(region_idx, s, transient=transient)
            st.mem_idx = _mem_positions(step, rec)
            self._classify_phase(
                step, st, rec, steps.step_addrs(s),
                batched=bool(batched_flags[s]),
            )
            requests[s] = st.step_requests
            states.append(st)
        self._iter_states = states
        if self._shard_detector is not None:
            self._iter_requests = requests.sum(axis=0)
        return requests

    def finish_iteration(self, inflation: np.ndarray) -> dict:
        """Round C: latency, monitoring, and accounting under the
        parent's merged per-step inflation matrix.

        Returns the shard's per-tid region cycles plus integer counters
        and the DRAM traffic matrix for this iteration.
        """
        region, iteration = self._iter_region
        steps = self._iter_steps
        region_cycles = {t.tid: 0.0 for t in self._iter_owned}
        instructions = 0
        accesses = 0
        chunks = 0
        dram = 0
        remote_dram = 0
        n_domains = self.machine.n_domains
        traffic = np.zeros((n_domains, n_domains), dtype=np.int64)

        for s, st in enumerate(self._iter_states):
            if st is None:
                continue
            step = steps[s]
            self._latency_phase(st, inflation[s])
            costs = self._monitor_phase(step, st)
            ins, acc = self._account_phase(
                step, st, costs, region_cycles, self._overhead_by_tid
            )
            instructions += ins
            accesses += acc
            chunks += len(step)
            dram += st.dram
            remote_dram += st.remote_dram
            traffic += st.traffic

        for t in self._iter_owned:
            if self.monitor is not None:
                self.monitor.on_region_exit(t.tid, region, iteration)
            self.callstacks[t.tid].pop()
        if iteration == region.repeat - 1:
            self.memo.release_region(self._iter_region_idx)
        payload = {
            "region_cycles": region_cycles,
            "instructions": instructions,
            "accesses": accesses,
            "chunks": chunks,
            "dram": dram,
            "remote_dram": remote_dram,
            "traffic": traffic,
            "phase": None,
        }
        detector = self._shard_detector
        if detector is not None and self._iter_observe:
            sig = self._phase_sig or []
            self._phase_oh_rec, oh_ops = None, self._phase_oh_rec
            self._phase_sig = None
            mon_digest: object = ()
            mon_prog = None
            mon_delta = None
            if self.monitor is not None:
                mon_prog = self.monitor.phase_record_end()
                mon_digest = self.monitor.phase_digest()
                if self._iter_mon_snap is not None:
                    mon_delta = self.monitor.phase_delta(self._iter_mon_snap)
            rec = IterationRecording(
                ints={
                    "instructions": instructions,
                    "accesses": accesses,
                    "chunks": chunks,
                    "dram": dram,
                    "remote_dram": remote_dram,
                },
                requests=self._iter_requests,
                traffic=traffic,
                region_cycles=region_cycles,
                elapsed=0.0,  # merged elapsed lives with the parent
                oh_ops=oh_ops or [],
                cache_delta=self.machine.cache.phase_delta(
                    self._iter_cache_snap
                ),
                monitor_prog=mon_prog,
            )
            detector.end_live_iteration(
                sig_digest(self.machine.page_table.epoch, sig),
                mon_digest,
                rec,
                self._overhead_by_tid - self._iter_oh_base
                if self._iter_oh_base is not None else None,
                mon_delta,
            )
            self._iter_cache_snap = None
            self._iter_mon_snap = None
            self._iter_oh_base = None
            self._iter_requests = None
        if detector is not None:
            payload["phase"] = detector.phase_payload()
        tr = obs.TRACER
        mx = getattr(tr, "metrics", None) if tr.enabled else None
        if mx is not None:
            self._mx_instructions += instructions
            self._mx_accesses += accesses
            self._mx_chunks += chunks
            self._mx_dram += dram
            self._mx_remote += remote_dram
            flags = obs.FLAG_ITERATION
            if self._iter_fired:
                flags |= obs.FLAG_SCHEDULE
            if self.machine.page_table.epoch != self._iter_epoch0:
                flags |= obs.FLAG_EPOCH
            if (
                detector is not None
                and detector.breaks != self._iter_breaks0
            ):
                flags |= obs.FLAG_PHASE_BREAK
            mx.sample(
                tr,
                flags=flags,
                region=region.name,
                iteration=iteration,
                values=self._shard_mx_values(),
            )
        self._iter_steps = None
        self._iter_states = None
        self._iter_owned = None
        self._iter_region = None
        return payload

    def extrapolate_iterations(
        self, region_idx: int, n_skip: int, release: bool,
        mode: str, period: int,
    ) -> dict:
        """Extrapolation round: apply ``n_skip`` iterations shard-locally.

        The parent has verified every shard is ready at ``period`` (the
        smallest period every shard agrees on, exact preferred) and
        clamped the skip to the next scheduled boundary; this shard
        replays its recorded per-slot effects — monitor programs,
        overhead adds, cycle cache advance — without simulating. The
        parent folds the merged cycle/integer quantities itself.
        """
        detector = self._shard_detector
        detector.note_armed(
            (mode, period, detector.arming_provenance(mode, period))
        )
        slots = detector.cycle_slots(period)
        recs = [e.rec for e in slots]
        counts = slot_counts(n_skip, period)
        eps = 0.0
        if mode == "exact":
            for t_i in range(n_skip):
                rec = recs[t_i % period]
                for tid, oh in rec.oh_ops:
                    self._overhead_by_tid[tid] += oh
            if self.monitor is not None:
                if period == 1:
                    self.monitor.phase_replay(recs[0].monitor_prog, n_skip)
                else:
                    for t_i in range(n_skip):
                        self.monitor.phase_replay(
                            recs[t_i % period].monitor_prog, 1
                        )
        else:
            windows = detector.slot_windows(period)
            for j, w in enumerate(windows):
                if not counts[j] or not w:
                    continue
                oh_mean = w[0].oh_delta.copy()
                for s in w[1:]:
                    oh_mean += s.oh_delta
                oh_mean /= len(w)
                self._overhead_by_tid += oh_mean * counts[j]
            eps = detector.eps_value(period)
            if self.monitor is not None:
                for j, w in enumerate(windows):
                    if not counts[j] or not w:
                        continue
                    eps = max(eps, self.monitor.extrapolate_flush(
                        [s.monitor_delta for s in w], counts[j]
                    ))
        if recs[0].cache_delta is not None:
            self.machine.cache.phase_advance_cycle(
                [r.cache_delta for r in recs], n_skip
            )
        if release:
            self.memo.release_region(region_idx)
        tr = obs.TRACER
        mx = getattr(tr, "metrics", None) if tr.enabled else None
        if mx is not None:
            for j, cnt in enumerate(counts):
                if not cnt:
                    continue
                rec = recs[j]
                self._mx_instructions += rec.ints["instructions"] * cnt
                self._mx_accesses += rec.ints["accesses"] * cnt
                self._mx_chunks += rec.ints["chunks"] * cnt
                self._mx_dram += rec.ints["dram"] * cnt
                self._mx_remote += rec.ints["remote_dram"] * cnt
            self._mx_skipped += n_skip
            mx.sample(
                tr,
                flags=obs.FLAG_EXTRAPOLATED,
                region=self._regions[region_idx].name,
                iteration=-1,
                values=self._shard_mx_values(),
            )
        return {"eps": eps}

    def _shard_mx_values(self) -> dict:
        """This shard's cumulative totals for its recorder's samples."""
        values = {
            "engine.chunks": float(self._mx_chunks),
            "engine.accesses": float(self._mx_accesses),
            "engine.instructions": float(self._mx_instructions),
        }
        if self._mx_dram:
            values["engine.remote_fraction"] = (
                self._mx_remote / self._mx_dram
            )
        if self._mx_skipped:
            values["engine.phase.extrapolated_iterations"] = float(
                self._mx_skipped
            )
        return values

    def finish_run(self) -> dict:
        """Final round: flush the monitor and ship this shard's results.

        The archive metadata shell travels alongside the owned
        :class:`ThreadProfile` objects so the parent can assemble one
        :class:`ProfileArchive` (see ``analysis.merge.
        assemble_shard_archive``); the monitor flushes with
        ``result=None`` because only the parent can compute the merged
        :class:`RunResult`.
        """
        if self.monitor is not None:
            self.monitor.on_run_end(None)
        payload: dict = {
            "overhead_by_tid": {
                t.tid: float(self._overhead_by_tid[t.tid])
                for t in self.threads
                if self.owns(t.tid)
            },
            "archive_meta": None,
            "profiles": {},
            "telemetry": None,
            "applied_actions": list(self.applied_actions),
        }
        archive = getattr(self.monitor, "archive", None)
        if archive is not None:
            payload["archive_meta"] = {
                "program": archive.program,
                "machine_desc": archive.machine_desc,
                "n_domains": archive.n_domains,
                "mechanism_name": archive.mechanism_name,
                "capabilities": archive.capabilities,
            }
            payload["profiles"] = {
                tid: prof
                for tid, prof in archive.profiles.items()
                if self.owns(tid)
            }
        tr = obs.TRACER
        if tr.enabled:
            payload["telemetry"] = tr.export_state()
        return payload


# ---------------------------------------------------------------------- #
# process-pool plumbing
# ---------------------------------------------------------------------- #


def _init_worker(claim_queue, barrier, spec) -> None:
    """Pool initializer: claim a shard id and build this shard's engine.

    Runs once per worker process. The claim queue hands out shard ids
    atomically; the barrier is stored for round dispatch (see
    :func:`_round_task`). Factories arrive by fork inheritance, so they
    need not be picklable.
    """
    shard = claim_queue.get()
    tr = obs.TRACER
    if tr.enabled:
        # The forked tracer carries the parent's events (and metrics
        # recorder); restart it so this process records only its own, on
        # its own epoch (shifted back onto the parent timeline at stitch
        # time). Capture the recorder capacity before the clear drops it.
        capacity = tr.metrics.capacity if tr.metrics is not None else None
        tr.enable(clear=True)
        if capacity is not None:
            tr.metrics = obs.MetricsRecorder(capacity=capacity)
    (
        machine_factory, program_factory, n_threads, binding,
        monitor_factory, params, seed, n_shards, memoize, memo_bytes,
        schedule, extrapolate, extrap_warmup, extrap_period,
        extrap_disarm, extrap_share, use_shm, shm_token,
    ) = spec
    monitor = monitor_factory() if monitor_factory is not None else None
    engine = ShardEngine(
        machine_factory(),
        program_factory(),
        n_threads,
        shard_id=shard,
        n_shards=n_shards,
        binding=binding,
        monitor=monitor,
        params=params,
        seed=seed,
        memoize=memoize,
        memo_bytes=memo_bytes,
        schedule=schedule,
        extrapolate=extrapolate,
        extrap_warmup=extrap_warmup,
        extrap_period=extrap_period,
        extrap_disarm=extrap_disarm,
        extrap_share=extrap_share,
    )
    arena = reader = None
    if use_shm:
        # Deterministic per-shard segment names: the parent can reap
        # them by name after an abort even if this process died.
        arena = ShmArena(worker_segment(shm_token, shard))
        reader = ArenaReader()
        engine.arena = arena
        engine.memo.on_release = (
            lambda region_idx: arena.release_pool(("gen", region_idx))
        )
    _WORKER["engine"] = engine
    _WORKER["shard"] = shard
    _WORKER["barrier"] = barrier
    _WORKER["arena"] = arena
    _WORKER["reader"] = reader


def _round_task(method: str, args: tuple):
    """One worker's share of a broadcast round.

    The parent submits exactly ``n_shards`` of these per round; the
    barrier makes every worker process take exactly one (a process can
    only pass the barrier while holding a task, so N simultaneous
    holders means N distinct processes). Results carry the shard id so
    the parent can order them deterministically.
    """
    _WORKER["barrier"].wait(timeout=_BARRIER_TIMEOUT_S)
    engine: ShardEngine = _WORKER["engine"]
    reader: ArenaReader | None = _WORKER.get("reader")
    if reader is not None:
        # Broadcast args may carry descriptors into the parent's arena;
        # materialize them as zero-copy views (attachments are cached).
        args = decode_payload(args, reader)
    tr = obs.TRACER
    # finish_run snapshots the telemetry itself, so wrapping it in a
    # span would export that span still open (a dangling B event).
    if tr.enabled and method != "finish_run":
        with tr.span(f"shard.{method}", "shard"):
            payload = getattr(engine, method)(*args)
    else:
        payload = getattr(engine, method)(*args)
    arena: ShmArena | None = _WORKER.get("arena")
    if arena is not None and method != "finish_run":
        # The parent consumed the previous round's payload before it
        # submitted this one, so the outbound pool can be rewound here.
        # finish_run ships long-lived objects (profiles, telemetry) that
        # the parent retains past arena teardown — those stay pickled.
        arena.reset()
        payload = encode_payload(payload, arena)
    return _WORKER["shard"], payload
