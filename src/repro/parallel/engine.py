"""Sharded multi-process execution: the parent orchestrator.

:class:`ParallelEngine` partitions a program's simulated threads across
OS worker processes (``tid % n_workers``) and drives them through the
same lockstep region/step schedule the serial
:class:`~repro.runtime.engine.ExecutionEngine` uses, three broadcast
rounds per region iteration:

1. **generate** — every worker drains its own threads' kernel
   generators for the iteration and reports per-step chunk/memory
   counts plus its page-binding events;
2. **classify** — the parent merges the page events into serial
   ``(step, tid)`` order and broadcasts them with the globally computed
   batched-pipeline flags; workers replay the events on replicated page
   tables and classify their own chunks, reporting per-step DRAM
   request counts;
3. **finish** — the parent computes each step's contention inflation
   from the *merged* per-step domain traffic (so cross-shard contention
   survives sharding) and broadcasts it; workers compute latencies,
   deliver monitor callbacks, and account cycles.

The parent then folds worker results exactly the way the serial loop
does — per-tid cycle streams, ``max`` for barrier semantics, integer
counter sums, one final per-tid overhead reduction — so a sharded run's
:class:`RunResult` and profile archive are bit-identical to serial
(``tests/test_parallel_parity.py``). Worker telemetry is stitched onto
the parent tracer as ``w<k>`` tracks when tracing is enabled.

Falls back to an ordinary in-process run when ``n_workers == 1`` or the
platform cannot fork.
"""

from __future__ import annotations

import multiprocessing as mp
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from collections import deque

from repro import obs
from repro.errors import ProgramError
from repro.runtime.arena import (
    ArenaReader,
    ShmArena,
    decode_payload,
    encode_payload,
    force_unlink,
    run_token,
    shm_available,
    worker_segment,
)
from repro.runtime.engine import ExecutionEngine, RunResult
from repro.runtime.heap import HeapAllocator
from repro.runtime.memo import memo_budget
from repro.runtime.phase import (
    DEFAULT_DISARM_AFTER,
    DEFAULT_MAX_PERIOD,
    EpsSample,
    IterationRecording,
    PhaseReport,
    mean_cycles,
    next_schedule_boundary,
    relative_spread,
    slot_counts,
    union_plan,
)
from repro.runtime.program import ProgramContext, RegionKind
from repro.runtime.thread import BindingPolicy, bind_threads
from repro.parallel.worker import _init_worker, _round_task


def sharding_supported() -> bool:
    """Whether this platform can run the forked worker pool."""
    return "fork" in mp.get_all_start_methods()


def _merge_page_events(shard_events: list[dict]) -> dict:
    """Merge per-shard page-event columns into serial ``(step, tid)`` order.

    Each shard reports flat columns (see ``ShardEngine.gen_iteration``):
    ``step``/``tid``/``cpu``/``var`` (int64), per-event page-set lengths
    ``plen``, the concatenated unique page sets ``pages``, and its local
    variable-name table ``names``. This concatenates the columns in
    shard order, remaps variable ids onto one global name table, sorts
    with a stable lexsort (``(step, tid)`` keys are unique — one chunk
    per thread per step — so the order is total), and gathers the
    variable-length page sets into the merged layout. Pure integer
    array work: the merged order and every page value are exactly what
    the old sorted tuple list carried.
    """
    names: list[str] = []
    name_id: dict[str, int] = {}
    cols: dict[str, list[np.ndarray]] = {
        "step": [], "tid": [], "cpu": [], "var": [], "plen": [], "pages": [],
    }
    for ev in shard_events:
        remap = np.empty(len(ev["names"]), dtype=np.int64)
        for i, name in enumerate(ev["names"]):
            gid = name_id.get(name)
            if gid is None:
                gid = name_id[name] = len(names)
                names.append(name)
            remap[i] = gid
        cols["step"].append(ev["step"])
        cols["tid"].append(ev["tid"])
        cols["cpu"].append(ev["cpu"])
        cols["var"].append(remap[ev["var"]])
        cols["plen"].append(ev["plen"])
        cols["pages"].append(ev["pages"])

    def cat(key: str) -> np.ndarray:
        arrs = cols[key]
        return (
            np.concatenate(arrs) if arrs else np.empty(0, dtype=np.int64)
        )

    step, tid, cpu, var = cat("step"), cat("tid"), cat("cpu"), cat("var")
    plen, pages = cat("plen"), cat("pages")
    n = step.size
    order = np.lexsort((tid, step))
    plen_sorted = plen[order]
    pstart = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(plen_sorted, out=pstart[1:])
    if pages.size:
        src_start = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(plen, out=src_start[1:])
        # Gather each event's page slice into its merged position:
        # global index = source start (per event, repeated) + offset
        # within the event (arange minus the merged start, repeated).
        gather = (
            np.arange(pstart[-1], dtype=np.int64)
            - np.repeat(pstart[:-1], plen_sorted)
            + np.repeat(src_start[:-1][order], plen_sorted)
        )
        pages = pages[gather]
    return {
        "step": step[order],
        "tid": tid[order],
        "cpu": cpu[order],
        "var": var[order],
        "pstart": pstart,
        "pages": pages,
        "names": names,
    }


class ParallelEngine:
    """Sharded counterpart of :class:`ExecutionEngine`.

    Takes *factories* rather than instances — every worker process (and
    the parent's bookkeeping copy) builds its own machine/program/
    monitor, which fork inheritance makes cheap and keeps simulated
    state identical across processes.

    After :meth:`run`, ``archive`` holds the assembled
    :class:`~repro.profiler.profile_data.ProfileArchive` (when a
    ``monitor_factory`` was given) and ``threads`` the thread binding.
    """

    def __init__(
        self,
        machine_factory,
        program_factory,
        n_threads: int,
        *,
        n_workers: int,
        binding: BindingPolicy = BindingPolicy.COMPACT,
        monitor_factory=None,
        params: dict | None = None,
        seed: int = 0,
        force_sharded: bool = False,
        memoize: bool = True,
        memo_bytes: int | None = None,
        schedule=None,
        extrapolate: bool = False,
        extrap_warmup: int = 2,
        extrap_period: int = DEFAULT_MAX_PERIOD,
        extrap_disarm: int = DEFAULT_DISARM_AFTER,
        extrap_share: bool = True,
        use_shm: bool | None = None,
    ) -> None:
        if n_workers < 1:
            raise ProgramError(f"n_workers must be >= 1, got {n_workers}")
        self.machine_factory = machine_factory
        self.program_factory = program_factory
        self.n_threads = int(n_threads)
        #: Workers beyond the thread count would own empty shards.
        self.n_workers = min(int(n_workers), self.n_threads)
        self.binding = binding
        self.monitor_factory = monitor_factory
        self.params = params
        self.seed = seed
        self.force_sharded = force_sharded
        #: Iteration memoization, forwarded to every shard engine (and
        #: the serial fallback; ``memoize=False`` is a zero budget);
        #: page-table epochs replay identically across shards, so cached
        #: classification survives sharding.
        self.memoize = bool(memoize)
        self.memo_bytes = memo_bytes
        #: Live-migration schedule (``repro.optim.policies.PolicySchedule``),
        #: forwarded verbatim to every shard engine so each page-table
        #: replica applies identical mutations at identical boundaries.
        self.schedule = schedule
        #: ``AppliedAction`` log harvested after the run (shard 0's copy;
        #: every shard applies the same schedule, so the logs agree on
        #: everything except trap attribution, which the log omits).
        self.applied_actions: list = []
        #: Phase-adaptive extrapolation (see :mod:`repro.runtime.phase`):
        #: every shard detects fixed points over its slice, the parent
        #: arms a skip only when all shards agree, so entry/exit rounds
        #: are identical across worker counts. ``phase_report`` (a
        #: dict) is attached after a run when enabled.
        self.extrapolate = (
            bool(extrapolate) and memo_budget(memoize, memo_bytes) > 0
        )
        self.extrap_warmup = max(1, int(extrap_warmup))
        self.extrap_period = max(1, int(extrap_period))
        self.extrap_disarm = max(0, int(extrap_disarm))
        self.extrap_share = bool(extrap_share)
        self.phase_report: dict | None = None
        #: Shared-memory round payloads: ``None`` probes availability at
        #: run time, ``False`` forces the pickled-payload fallback
        #: (``--no-shm``), ``True`` requests shm but still degrades to
        #: pickling when POSIX shared memory is unavailable.
        self.use_shm = use_shm
        #: Whether the last run actually exchanged rounds through the
        #: arena (False for serial fallback or pickled rounds).
        self.shm_used = False
        self.archive = None
        self.threads = None
        self._ran = False
        self._arena: ShmArena | None = None
        self._reader: ArenaReader | None = None

    # ------------------------------------------------------------------ #

    def run(self) -> RunResult:
        """Execute once; serial fallback below 2 workers or without fork."""
        if self._ran:
            raise ProgramError("ParallelEngine is single-use; build a new one")
        self._ran = True
        log = obs.get_logger("parallel")
        if self.n_workers == 1 and not self.force_sharded:
            log.info("n_workers=1: running in-process (serial fallback)")
            return self._run_inline()
        if not sharding_supported():
            log.warning(
                "platform lacks fork start method; falling back to serial"
            )
            return self._run_inline()
        return self._run_sharded()

    def _run_inline(self) -> RunResult:
        monitor = (
            self.monitor_factory() if self.monitor_factory is not None else None
        )
        engine = ExecutionEngine(
            self.machine_factory(),
            self.program_factory(),
            self.n_threads,
            binding=self.binding,
            monitor=monitor,
            params=self.params,
            seed=self.seed,
            memoize=self.memoize,
            memo_bytes=self.memo_bytes,
            schedule=self.schedule,
            extrapolate=self.extrapolate,
            extrap_warmup=self.extrap_warmup,
            extrap_period=self.extrap_period,
            extrap_disarm=self.extrap_disarm,
            extrap_share=self.extrap_share,
        )
        result = engine.run()
        self.threads = engine.threads
        self.applied_actions = engine.applied_actions
        self.phase_report = engine.phase_report
        self.archive = getattr(monitor, "archive", None)
        return result

    # ------------------------------------------------------------------ #

    def _run_sharded(self) -> RunResult:
        tr = obs.TRACER
        if not tr.enabled:
            return self._orchestrate(tr)
        tr.begin(
            "parallel.run", "parallel",
            workers=self.n_workers, threads=self.n_threads,
        )
        try:
            return self._orchestrate(tr)
        finally:
            tr.end()

    def _orchestrate(self, tr) -> RunResult:
        # Parent bookkeeping copy of the simulated state: regions and
        # the thread binding (its page table is never consulted).
        machine = self.machine_factory()
        program = self.program_factory()
        threads = bind_threads(machine.topology, self.n_threads, self.binding)
        ctx = ProgramContext(
            machine, HeapAllocator(machine), threads, self.params, self.seed
        )
        program.setup(ctx)
        regions = program.regions(ctx)
        self.threads = threads

        n_workers = self.n_workers
        mp_ctx = mp.get_context("fork")
        claim = mp_ctx.Queue()
        for k in range(n_workers):
            claim.put(k)
        barrier = mp_ctx.Barrier(n_workers)
        use_shm = self.use_shm
        if use_shm is None:
            use_shm = shm_available()
        elif use_shm and not shm_available():
            obs.get_logger("parallel").warning(
                "POSIX shared memory unavailable; "
                "falling back to pickled round payloads"
            )
            use_shm = False
        token = run_token() if use_shm else None
        self.shm_used = bool(use_shm)
        if use_shm:
            self._arena = ShmArena(f"{token}-p")
            self._reader = ArenaReader()
        spec = (
            self.machine_factory, self.program_factory, self.n_threads,
            self.binding, self.monitor_factory, self.params, self.seed,
            n_workers, self.memoize, self.memo_bytes, self.schedule,
            self.extrapolate, self.extrap_warmup, self.extrap_period,
            self.extrap_disarm, self.extrap_share, use_shm, token,
        )
        executor = ProcessPoolExecutor(
            max_workers=n_workers,
            mp_context=mp_ctx,
            initializer=_init_worker,
            initargs=(claim, barrier, spec),
        )
        try:
            result = self._drive(executor, machine, program, threads, regions)
        finally:
            executor.shutdown()
            if use_shm:
                # Views into worker segments are dead (workers have
                # exited and every fold happened inline), so close our
                # attachments, unlink our own segments, and reap the
                # workers' by their deterministic names — best-effort on
                # the abort path, exact on the normal path. No
                # ``/dev/shm`` entries survive the run either way.
                self._reader.close()
                self._reader = None
                self._arena.destroy()
                self._arena = None
                for k in range(n_workers):
                    force_unlink(worker_segment(token, k))
        return result

    def _round(self, executor, method: str, *args) -> list:
        """Broadcast one round to all workers; results in shard order.

        With the arena, large arrays in ``args`` are written to shared
        memory **once** and every worker receives the same tiny
        descriptors — the pickled broadcast no longer scales with
        payload size times worker count. The round pool is rewound
        first: the previous round's args were only read during that
        round (all its futures resolved before this call), so the bytes
        are dead. Worker payloads come back the same way and are
        materialized as zero-copy views here; every use below folds
        them into parent-owned arrays before the next round is
        submitted, which is what makes the workers' own pool rewinds
        safe.
        """
        if self._arena is not None and args:
            self._arena.reset()
            args = tuple(encode_payload(a, self._arena) for a in args)
        futures = [
            executor.submit(_round_task, method, args)
            for _ in range(self.n_workers)
        ]
        results = sorted(f.result() for f in futures)
        if self._reader is not None:
            return [
                decode_payload(payload, self._reader)
                for _shard, payload in results
            ]
        return [payload for _shard, payload in results]

    def _drive(self, executor, machine, program, threads, regions) -> RunResult:
        started = self._round(executor, "start")
        n_regions = [s["n_regions"] for s in started]
        if any(n != len(regions) for n in n_regions):
            raise ProgramError(
                "worker/parent region lists diverged: "
                f"parent has {len(regions)}, workers report {n_regions}"
            )
        phase_ok = self.extrapolate and all(s["phase_ok"] for s in started)

        # Parent-side metrics plane: the parent's tracer counters live in
        # the workers, so merged cumulative totals are passed explicitly
        # (same keys as the serial engine's samples, same derivations).
        tr_mx = obs.TRACER
        mx = getattr(tr_mx, "metrics", None) if tr_mx.enabled else None
        skipped_total = 0

        n_domains = machine.n_domains
        busy = np.zeros(len(threads), dtype=np.float64)
        total_instructions = 0
        total_accesses = 0
        total_chunks = 0
        dram_accesses = 0
        remote_dram = 0
        wall = 0.0
        region_wall: dict[str, float] = {}
        domain_requests = np.zeros(n_domains, dtype=np.int64)
        domain_traffic = np.zeros((n_domains, n_domains), dtype=np.int64)
        batch_limit = ExecutionEngine.BATCH_MEAN_ACCESSES

        phase_report = PhaseReport(enabled=self.extrapolate)

        def _mx_values() -> dict:
            values = {
                "engine.chunks": float(total_chunks),
                "engine.accesses": float(total_accesses),
                "engine.instructions": float(total_instructions),
            }
            if dram_accesses:
                values["engine.remote_fraction"] = remote_dram / dram_accesses
            for d in range(n_domains):
                values[f"engine.domain.requests.{d}"] = float(
                    domain_requests[d]
                )
            if skipped_total:
                values["engine.phase.extrapolated_iterations"] = float(
                    skipped_total
                )
            return values

        for r_idx, region in enumerate(regions):
            active = (
                threads
                if region.kind is RegionKind.PARALLEL
                else threads[:1]
            )
            #: Trailing merged-iteration window: shard histories are
            #: contiguous suffixes of the live iterations, so the last
            #: ``steady_tail`` merged entries here are exactly the
            #: verified on-cycle tail the serial detector would hold.
            window: deque = deque(
                maxlen=self.extrap_period * (self.extrap_warmup + 2)
            )
            plan = None
            n_exact = n_eps = 0
            eps_max = 0.0
            breaks_max = 0
            disarms_max = 0
            lib_hits_max = 0
            period_max = 0
            iteration = 0
            while iteration < region.repeat:
                if phase_ok and plan is not None:
                    stop = next_schedule_boundary(
                        self.schedule, r_idx, iteration, region.repeat
                    )
                    n_skip = stop - iteration
                    mode, period, tail_len = plan
                    if mode == "exact" and period > 1 \
                            and self.monitor_factory is not None:
                        # Whole cycles only: shard monitors replay
                        # accumulators but not selection state, which
                        # must land back on the live baseline (see the
                        # serial engine's identical clamp).
                        n_skip -= n_skip % period
                        stop = iteration + n_skip
                    if n_skip > 0:
                        period_max = max(period_max, period)
                        shard_eps = self._round(
                            executor, "extrapolate_iterations",
                            r_idx, n_skip, stop == region.repeat,
                            mode, period,
                        )
                        slots = list(window)[-period:]
                        recs = [s.rec for s in slots]
                        counts = slot_counts(n_skip, period)
                        if mode == "exact":
                            # The same float adds, in the same order,
                            # the serial extrapolation performs.
                            for t_i in range(n_skip):
                                rec = recs[t_i % period]
                                for t in active:
                                    busy[t.tid] += rec.region_cycles[t.tid]
                                wall += rec.elapsed
                                region_wall[region.name] = (
                                    region_wall.get(region.name, 0.0)
                                    + rec.elapsed
                                )
                            n_exact += n_skip
                        else:
                            # Per-slot trailing windows over the merged
                            # steady tail, mirroring
                            # PhaseDetector.slot_windows.
                            tail = list(window)
                            tail = tail[len(tail) - min(tail_len, len(tail)):]
                            eps = 0.0
                            for j in range(period):
                                if not counts[j]:
                                    continue
                                idx = len(tail) - period + j
                                w: list[EpsSample] = []
                                while idx >= 0 and len(w) < self.extrap_warmup:
                                    w.append(tail[idx])
                                    idx -= period
                                w.reverse()
                                if not w:
                                    continue
                                rc_mean, elapsed_mean = mean_cycles(w)
                                cnt = counts[j]
                                for t in active:
                                    busy[t.tid] += rc_mean[t.tid] * cnt
                                wall += elapsed_mean * cnt
                                region_wall[region.name] = (
                                    region_wall.get(region.name, 0.0)
                                    + elapsed_mean * cnt
                                )
                                if len(w) >= 2:
                                    eps = max(eps, relative_spread(
                                        [s.rec.elapsed for s in w]
                                    ))
                                    for tid in w[0].rec.region_cycles:
                                        eps = max(eps, relative_spread(
                                            [s.rec.region_cycles[tid]
                                             for s in w]
                                        ))
                            for payload in shard_eps:
                                eps = max(eps, payload["eps"])
                            eps_max = max(eps_max, eps)
                            n_eps += n_skip
                        for j, cnt in enumerate(counts):
                            if not cnt:
                                continue
                            rec = recs[j]
                            total_instructions += (
                                rec.ints["instructions"] * cnt
                            )
                            total_accesses += rec.ints["accesses"] * cnt
                            total_chunks += rec.ints["chunks"] * cnt
                            dram_accesses += rec.ints["dram"] * cnt
                            remote_dram += rec.ints["remote_dram"] * cnt
                            domain_requests += rec.requests * cnt
                            domain_traffic += rec.traffic * cnt
                        iteration = stop
                        if mx is not None:
                            skipped_total += n_skip
                            mx.sample(
                                tr_mx,
                                flags=obs.FLAG_EXTRAPOLATED,
                                region=region.name,
                                iteration=iteration - 1,
                                values=_mx_values(),
                            )
                        continue
                gen = self._round(executor, "gen_iteration", r_idx, iteration)
                n_steps = max((g["n_chunks"].size for g in gen), default=0)
                n_active = np.zeros(n_steps, dtype=np.int64)
                n_mem = np.zeros(n_steps, dtype=np.int64)
                acc_sum = np.zeros(n_steps, dtype=np.int64)
                for g in gen:
                    k = g["n_chunks"].size
                    n_active[:k] += g["n_chunks"]
                    n_mem[:k] += g["n_mem"]
                    acc_sum[:k] += g["acc_sum"]
                # Serial (step, tid) order: the order the one-process
                # engine would deliver traps and first touches in.
                events = _merge_page_events([g["events"] for g in gen])
                # The serial engine's global pipeline decision, from
                # merged integer totals — broadcast so every worker
                # takes the same float-summation path.
                batched_flags = (n_mem > 0) & (acc_sum <= batch_limit * n_mem)

                requests = self._round(
                    executor, "classify_iteration",
                    events, batched_flags, n_steps,
                )
                step_requests = sum(requests) if requests else np.zeros(
                    (n_steps, n_domains), dtype=np.int64
                )
                # Contention from *merged* per-step domain traffic:
                # cross-shard effects survive sharding.
                inflation = np.ones((n_steps, n_domains), dtype=np.float64)
                for s in range(n_steps):
                    inflation[s] = machine.contention.inflation(
                        step_requests[s], int(n_active[s])
                    )

                fin = self._round(executor, "finish_iteration", inflation)
                region_cycles: dict[int, float] = {}
                it_ints = {
                    "instructions": 0, "accesses": 0, "chunks": 0,
                    "dram": 0, "remote_dram": 0,
                }
                it_traffic = np.zeros((n_domains, n_domains), dtype=np.int64)
                for f in fin:
                    region_cycles.update(f["region_cycles"])
                    it_ints["instructions"] += f["instructions"]
                    it_ints["accesses"] += f["accesses"]
                    it_ints["chunks"] += f["chunks"]
                    it_ints["dram"] += f["dram"]
                    it_ints["remote_dram"] += f["remote_dram"]
                    it_traffic += f["traffic"]
                total_instructions += it_ints["instructions"]
                total_accesses += it_ints["accesses"]
                total_chunks += it_ints["chunks"]
                dram_accesses += it_ints["dram"]
                remote_dram += it_ints["remote_dram"]
                domain_traffic += it_traffic
                it_requests = step_requests.sum(axis=0) if n_steps else (
                    np.zeros(n_domains, dtype=np.int64)
                )
                if n_steps:
                    domain_requests += it_requests

                elapsed = max(region_cycles.values()) if region_cycles else 0.0
                for t in active:
                    busy[t.tid] += region_cycles[t.tid]
                wall += elapsed
                region_wall[region.name] = (
                    region_wall.get(region.name, 0.0) + elapsed
                )

                breaks_prev = breaks_max
                if phase_ok:
                    infos = [f["phase"] for f in fin]
                    plan = union_plan(infos, self.extrap_period)
                    breaks_max = max(breaks_max, max(
                        (p["breaks"] for p in infos if p is not None),
                        default=0,
                    ))
                    disarms_max = max(disarms_max, max(
                        (p["disarms"] for p in infos if p is not None),
                        default=0,
                    ))
                    lib_hits_max = max(lib_hits_max, max(
                        (p["library_hits"] for p in infos if p is not None),
                        default=0,
                    ))
                    window.append(EpsSample(
                        rec=IterationRecording(
                            ints=it_ints,
                            requests=it_requests,
                            traffic=it_traffic,
                            region_cycles=region_cycles,
                            elapsed=elapsed,
                            oh_ops=[],
                        ),
                        oh_delta=None,
                        monitor_delta=None,
                    ))
                if mx is not None:
                    flags = obs.FLAG_ITERATION
                    if self.schedule is not None and self.schedule.steps_for(
                        r_idx, iteration
                    ):
                        # Workers applied these steps (and bumped their
                        # page-table epochs) at the top of this iteration.
                        flags |= obs.FLAG_SCHEDULE | obs.FLAG_EPOCH
                    if breaks_max > breaks_prev:
                        flags |= obs.FLAG_PHASE_BREAK
                    mx.sample(
                        tr_mx,
                        flags=flags,
                        region=region.name,
                        iteration=iteration,
                        values=_mx_values(),
                    )
                iteration += 1

            if self.extrapolate:
                stats_r = phase_report.region(region.name)
                stats_r.iterations += region.repeat
                stats_r.extrapolated_exact += n_exact
                stats_r.extrapolated_eps += n_eps
                stats_r.simulated += region.repeat - n_exact - n_eps
                stats_r.breaks += breaks_max
                stats_r.period = max(stats_r.period, period_max)
                stats_r.disarms += disarms_max
                stats_r.library_hits += lib_hits_max
                stats_r.epsilon = max(stats_r.epsilon, eps_max)

        if self.extrapolate:
            self.phase_report = phase_report.as_dict()
        final = self._round(executor, "finish_run")
        if final:
            self.applied_actions = final[0].get("applied_actions", [])
        overhead_by_tid = np.zeros(len(threads), dtype=np.float64)
        for payload in final:
            for tid, value in payload["overhead_by_tid"].items():
                overhead_by_tid[tid] = value

        result = RunResult(
            program=program.name,
            n_threads=len(threads),
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
            ghz=machine.ghz,
            total_chunks=total_chunks,
        )

        if self.monitor_factory is not None:
            from repro.analysis.merge import assemble_shard_archive

            self.archive = assemble_shard_archive(
                [
                    (p["archive_meta"], p["profiles"])
                    for p in final
                ],
                run_result=result,
            )

        tr = obs.TRACER
        if tr.enabled:
            for shard, payload in enumerate(final):
                state = payload.get("telemetry")
                if state is not None:
                    tr.absorb(state, f"w{shard}")
        if mx is not None:
            # After the absorb, so merged worker counters/gauges (memo
            # hits, sampling volume, phase gauges) land in the final row.
            mx.sample(tr_mx, flags=obs.FLAG_FINAL, values=_mx_values())

        return result
