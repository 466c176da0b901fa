"""Sharded multi-process execution: the worker-pool backend.

:class:`ParallelEngine` partitions a program's simulated threads across
OS worker processes (``tid % n_workers``). The region/iteration loop is
the run driver's (:func:`repro.runtime.driver.drive`); this module is
its pool backend, which broadcasts each driver call to every worker as
one round:

1. **gen_iteration** — every worker opens the iteration, drains its own
   threads' kernels, and reports per-step chunk and memory-chunk counts
   plus its page-binding events;
2. **classify_iteration** — the parent merges the page events into
   serial ``(step, tid)`` order and broadcasts them; workers replay the
   events on replicated page tables and classify their own chunks,
   step by step, reporting per-step DRAM request counts;
3. **finish_iteration** — the driver computes each step's contention
   inflation from the *merged* requests (so cross-shard contention
   survives sharding); workers compute latencies, deliver monitor
   callbacks and account cycles, step by step, then close the
   iteration.

A worker classifies every step before finishing any, because one
step's inflation needs every shard's requests for it; the in-process
backend interleaves the two per step instead. Either order gives the
same results: per-thread state never crosses shards, and latency does
not touch the cache state classification advances. The driver folds
the shards' payloads into one :class:`RunResult`, bit-identical to an
in-process run (``tests/test_parallel_parity.py``). Worker telemetry is
stitched onto the parent tracer as ``w<k>`` tracks when tracing is
enabled.

Runs in process when ``n_workers == 1`` or the platform cannot fork.
"""

from __future__ import annotations

import multiprocessing as mp
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np

from repro import obs
from repro.errors import ProgramError, WorkerError
from repro.runtime.driver import RunResult, drive
from repro.runtime.engine import ExecutionEngine
from repro.runtime.memo import memo_budget
from repro.runtime.phase import DEFAULT_DISARM_AFTER
from repro.runtime.thread import BindingPolicy
from repro.parallel.worker import _init_worker, _round_task


def sharding_supported() -> bool:
    """Whether this platform can run the forked worker pool."""
    return "fork" in mp.get_all_start_methods()


def _merge_page_events(shard_events: list[dict]) -> dict:
    """Merge per-shard page-event columns into serial ``(step, tid)`` order.

    Each shard reports the columns of ``ExecutionEngine._page_events``
    (``step``/``tid``/``cpu``/``var``, page sets delimited by ``pstart``
    in ``pages``, a local variable-name table ``names``). Variable ids
    are remapped onto one global name table and the events sorted by
    ``(step, tid)`` — unique keys, one chunk per thread per step — with
    each event's page set following it into the merged layout.
    """
    name_id: dict[str, int] = {}
    cols: dict[str, list] = {"step": [], "tid": [], "cpu": [], "var": []}
    page_sets: list[np.ndarray] = []
    for ev in shard_events:
        remap = np.array(
            [name_id.setdefault(n, len(name_id)) for n in ev["names"]],
            dtype=np.int64,
        )
        for key in ("step", "tid", "cpu"):
            cols[key].append(ev[key])
        cols["var"].append(remap[ev["var"]])
        ps = ev["pstart"]
        page_sets += [ev["pages"][a:b] for a, b in zip(ps[:-1], ps[1:])]
    merged = {key: np.concatenate(arrs) for key, arrs in cols.items()}
    order = np.lexsort((merged["tid"], merged["step"]))
    merged = {key: col[order] for key, col in merged.items()}
    page_sets = [page_sets[i] for i in order]
    pstart = np.zeros(len(page_sets) + 1, dtype=np.int64)
    np.cumsum([p.size for p in page_sets], dtype=np.int64, out=pstart[1:])
    merged["pstart"] = pstart
    merged["pages"] = (
        np.concatenate(page_sets) if page_sets
        else np.empty(0, dtype=np.int64)
    )
    merged["names"] = list(name_id)
    return merged


class _PoolBackend:
    """The run driver's worker-pool backend: one broadcast round per call.

    ``engine`` is the parent's bookkeeping copy of the run (machine,
    program, threads, settings); it is set up but never simulates.
    """

    def __init__(self, engine, executor, n_workers: int,
                 monitored: bool) -> None:
        self.engine = engine
        self.executor = executor
        self.n_workers = n_workers
        self.monitored = monitored
        self.archive = None

    def _round(self, method: str, *args) -> list:
        """Broadcast one round to all workers; results in shard order.

        ``args`` and each worker's payload travel pickled through the
        executor's channel.
        """
        futures = [
            self.executor.submit(_round_task, method, args)
            for _ in range(self.n_workers)
        ]
        return [payload for _shard, payload in
                sorted(f.result() for f in futures)]

    def start(self) -> list[dict]:
        self.engine.start()
        return self._round("start")

    def gen(self, region_idx: int, iteration: int) -> list[dict]:
        return self._round("gen_iteration", region_idx, iteration)

    def run_iteration(self, gen, n_steps: int, inflate) -> list[dict]:
        events = _merge_page_events([g["events"] for g in gen])
        requests = self._round("classify_iteration", events, n_steps)
        step_requests = sum(requests)
        n_domains = self.engine.machine.n_domains
        inflation = np.ones((n_steps, n_domains), dtype=np.float64)
        for s in range(n_steps):
            inflation[s] = inflate(s, step_requests[s])
        return self._round("finish_iteration", inflation)

    def extrapolate(self, region_idx, n_skip, release, mode):
        return self._round(
            "extrapolate_iterations", region_idx, n_skip, release, mode
        )

    def finish_run(self) -> list[dict]:
        final = self._round("finish_run")
        # Every shard applies the same schedule; shard 0's log speaks
        # for all of them.
        self.engine.applied_actions = final[0]["applied_actions"]
        return final

    def close(self, result: RunResult, final: list[dict]) -> None:
        if self.monitored:
            from repro.analysis.merge import assemble_shard_archive

            self.archive = assemble_shard_archive(
                [(p["archive_meta"], p["profiles"]) for p in final],
                run_result=result,
            )
        tr = obs.TRACER
        if tr.enabled:
            for shard, payload in enumerate(final):
                state = payload.get("telemetry")
                if state is not None:
                    tr.absorb(state, f"w{shard}")


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
        extrap_disarm: int = DEFAULT_DISARM_AFTER,
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
        #: Iteration memoization, forwarded to every shard engine
        #: (``memoize=False`` is a zero budget); page-table epochs replay
        #: identically across shards, so cached classification survives
        #: sharding.
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
        #: every shard detects fixed points over its slice, the driver
        #: arms a skip only when all shards agree, so entry/exit rounds
        #: are identical across worker counts. ``phase_report`` (a dict) is
        #: attached after a run when enabled.
        self.extrapolate = (
            bool(extrapolate) and memo_budget(memoize, memo_bytes) > 0
        )
        self.extrap_warmup = max(1, int(extrap_warmup))
        self.extrap_disarm = max(0, int(extrap_disarm))
        self.phase_report: dict | None = None
        self.archive = None
        self.threads = None
        self._ran = False

    def _engine(self, monitor) -> ExecutionEngine:
        """An engine with this run's settings (one shard's, or the
        parent's bookkeeping copy when ``monitor`` is None)."""
        return ExecutionEngine(
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
            extrap_disarm=self.extrap_disarm,
        )

    # ------------------------------------------------------------------ #

    def run(self) -> RunResult:
        """Execute once; in process below 2 workers or without fork."""
        if self._ran:
            raise ProgramError("ParallelEngine is single-use; build a new one")
        self._ran = True
        log = obs.get_logger("parallel")
        sharded = self.n_workers > 1 or self.force_sharded
        if sharded and not sharding_supported():
            log.warning("platform lacks fork start method; running in-process")
            sharded = False
        elif not sharded:
            log.info("n_workers=1: running in-process")
        if sharded:
            engine = self._engine(None)
            result = self._run_sharded(engine)
        else:
            monitor = (
                self.monitor_factory()
                if self.monitor_factory is not None else None
            )
            engine = self._engine(monitor)
            result = engine.run()
            self.archive = getattr(monitor, "archive", None)
        self.threads = engine.threads
        self.applied_actions = engine.applied_actions
        self.phase_report = engine.phase_report
        return result

    def _run_sharded(self, engine: ExecutionEngine) -> RunResult:
        n_workers = self.n_workers
        mp_ctx = mp.get_context("fork")
        claim = mp_ctx.Queue()
        for k in range(n_workers):
            claim.put(k)
        barrier = mp_ctx.Barrier(n_workers)
        # The engine factory reaches the workers by fork inheritance, so
        # nothing it closes over need be picklable.
        spec = (self._engine, self.monitor_factory, n_workers)
        executor = ProcessPoolExecutor(
            max_workers=n_workers,
            mp_context=mp_ctx,
            initializer=_init_worker,
            initargs=(claim, barrier, spec),
        )
        backend = _PoolBackend(
            engine, executor, n_workers, self.monitor_factory is not None,
        )
        try:
            with obs.TRACER.span(
                "parallel.run", "parallel",
                workers=n_workers, threads=self.n_threads,
            ):
                result = drive(backend)
        except BrokenProcessPool as exc:
            raise WorkerError(
                f"a shard worker process died mid-run; the {n_workers}-"
                f"worker pool was aborted ({exc})"
            ) from exc
        finally:
            executor.shutdown()
        self.archive = backend.archive
        return result
