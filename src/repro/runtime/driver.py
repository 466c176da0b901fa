"""The run driver: the one region/iteration loop over a backend.

A run is the paper's per-thread measurement model: shards own disjoint
thread sets (``tid % n_shards``), keep all per-thread state, and the
driver merges what they report. A standalone run is the one-shard case.
The driver owns, once:

* the region/iteration loop and the per-step contention inflation,
  computed from DRAM requests merged over every shard;
* phase extrapolation: the union plan over the shards' readiness,
  the skip clamp, and the exact/ε fold of the merged iteration;
* run totals, the per-region phase report, metrics samples and the
  :class:`RunResult`.

A backend runs the engine round methods (see
:class:`~repro.runtime.engine.ExecutionEngine`) on its shards and
returns one payload per shard, in shard order:

``start()``
    run start on every shard;
``gen(region_idx, iteration)``
    open a live iteration and pre-draw its step trace;
``run_iteration(gen, n_steps, inflate)``
    classify and finish every step, then close the iteration.
    ``inflate(s, requests)`` takes step ``s``'s merged DRAM requests
    and returns its inflation;
``extrapolate(region_idx, n_skip, release, mode)``
    apply skipped iterations' shard-local effects;
``finish_run()`` / ``close(result, final)``
    per-shard totals, then the monitor hand-off once the result exists.

``backend.engine`` is an engine holding the run's machine, threads,
program and settings (in a worker pool, a bookkeeping copy that never
simulates). :class:`InProcessBackend` is the one-shard backend; the
worker pool's lives in :mod:`repro.parallel.engine`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.errors import ProgramError
from repro.runtime.program import RegionKind

#: Engine-pure integer counters, summed over shards and extrapolated by
#: exact multiplication.
INT_FIELDS = ("instructions", "accesses", "chunks", "dram", "remote_dram")

#: Non-converging windows before a phase detector disarms
#: (the engines' ``extrap_disarm``; 0 = never disarm).
DEFAULT_DISARM_AFTER = 3


@dataclass(eq=False, repr=False)
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


class InProcessBackend:
    """One engine owning every thread: shard 0 of 1.

    Calls the engine's round methods directly and interleaves classify
    and finish per step — page traps, classification, latency, monitor
    and accounting run back to back, the order in which per-step state
    (``_StepMem``) is consumed the moment it is produced. Emits the
    engine's ``engine.region`` (with per-simulated-thread mirror
    tracks), ``engine.step`` and ``engine.phase.extrapolate`` spans.
    """

    def __init__(self, engine) -> None:
        self.engine = engine
        self._t0 = 0

    def start(self) -> list[dict]:
        return [self.engine.start()]

    def gen(self, region_idx: int, iteration: int) -> list[dict]:
        engine = self.engine
        engine.begin_iteration(region_idx, iteration)
        tr = obs.TRACER
        if tr.enabled:
            self._t0 = tr.now_ns()
            tr.begin(
                "engine.region", "engine",
                region=engine._regions[region_idx].name, iteration=iteration,
            )
        return [engine.enter_region()]

    def run_iteration(self, gen, n_steps: int, inflate) -> list[dict]:
        engine = self.engine
        tr = obs.TRACER
        traced = tr.enabled
        for s in range(n_steps):
            if traced:
                tr.begin("engine.step", "engine")
            requests = engine.classify_step(s)
            engine.finish_step(s, inflate(s, requests))
            if traced:
                tr.end()
        it = engine._it
        engine.exit_region()
        if traced:
            tr.end()
            # Mirror tracks: the region iteration as each simulated
            # thread saw it (lockstep, so the host interval is shared).
            t1 = tr.now_ns()
            for t in it.owned:
                tr.pair(it.region.name, "engine", t.tid, self._t0, t1)
        return [engine.end_iteration()]

    def extrapolate(self, region_idx, n_skip, release, mode):
        from repro.runtime import phase

        with obs.TRACER.span(
            "engine.phase.extrapolate", "engine",
            region=self.engine._regions[region_idx].name,
            iterations=n_skip, mode=mode,
        ):
            return [phase.extrapolate_iterations(
                self.engine, region_idx, n_skip, release, mode
            )]

    def finish_run(self) -> list[dict]:
        return [self.engine.finish_run()]

    def close(self, result: RunResult, final: list[dict]) -> None:
        if self.engine.monitor is not None:
            self.engine.monitor.on_run_end(result)


def totals_values(totals: dict, skipped: int) -> dict:
    """Cumulative engine totals as metrics-sample values."""
    values = {
        "engine.chunks": float(totals["chunks"]),
        "engine.accesses": float(totals["accesses"]),
        "engine.instructions": float(totals["instructions"]),
    }
    if totals["dram"]:
        values["engine.remote_fraction"] = totals["remote_dram"] / totals["dram"]
    if skipped:
        values["engine.phase.extrapolated_iterations"] = float(skipped)
    return values


def drive(backend) -> RunResult:
    """Run the backend's program once; the one region/iteration loop."""
    engine = backend.engine
    machine = engine.machine
    contention = machine.contention
    threads = engine.threads
    n_domains = machine.n_domains
    schedule = engine.schedule
    warmup = engine.extrap_warmup

    started = backend.start()
    regions = engine._regions
    n_regions = [s["n_regions"] for s in started]
    if any(n != len(regions) for n in n_regions):
        raise ProgramError(
            "shard region lists diverged: "
            f"driver has {len(regions)}, shards report {n_regions}"
        )
    phase_ok = engine.extrapolate and all(s["phase_ok"] for s in started)

    tr = obs.TRACER
    traced = tr.enabled
    # Metrics plane: a recorder attached to an enabled tracer gets a
    # snapshot at every region-iteration boundary. Sampling is a
    # read-only observer on host time — simulated results are
    # bit-identical with it on or off (tests/test_metrics_parity.py).
    mx = getattr(tr, "metrics", None) if traced else None

    busy = np.zeros(len(threads), dtype=np.float64)
    totals = dict.fromkeys(INT_FIELDS, 0)
    skipped = 0
    wall = 0.0
    region_wall: dict[str, float] = {}
    domain_requests = np.zeros(n_domains, dtype=np.int64)
    domain_traffic = np.zeros((n_domains, n_domains), dtype=np.int64)
    phase = phase_report = None
    if engine.extrapolate:
        # Only a run that extrapolates loads the phase layer.
        from repro.runtime import phase

        phase_report = phase.PhaseReport(enabled=True)

    def _mx_values() -> dict:
        # Merged cumulative totals, passed explicitly: in a worker pool
        # the engine counters accrue in the workers' tracers.
        values = totals_values(totals, skipped)
        for d in range(n_domains):
            values[f"engine.domain.requests.{d}"] = float(domain_requests[d])
        return values

    for r_idx, region in enumerate(regions):
        name = region.name
        active = (
            threads if region.kind is RegionKind.PARALLEL else threads[:1]
        )
        #: Trailing merged-iteration window. Shard histories are
        #: contiguous suffixes of the live iterations, so its last
        #: ``steady_tail`` entries are exactly the verified steady tail
        #: one detector over the union would hold.
        window: deque = deque(maxlen=warmup)
        plan = None
        n_exact = n_eps = 0
        eps_max = 0.0
        breaks = disarms = 0
        iteration = 0
        while iteration < region.repeat:
            if plan is not None:
                stop = phase.next_schedule_boundary(
                    schedule, r_idx, iteration, region.repeat
                )
                n_skip = stop - iteration
                mode, tail_len = plan
                if n_skip > 0:
                    shards = backend.extrapolate(
                        r_idx, n_skip, stop == region.repeat, mode
                    )
                    rec = window[-1].rec
                    if mode == "exact":
                        # Every skipped iteration replays the last live
                        # one: the same float adds, in the same order,
                        # as simulating it.
                        for _ in range(n_skip):
                            for t in active:
                                busy[t.tid] += rec.region_cycles[t.tid]
                            wall += rec.elapsed
                            region_wall[name] = (
                                region_wall.get(name, 0.0) + rec.elapsed
                            )
                        n_exact += n_skip
                    else:
                        # ε: the window-mean cycles, scaled by the skip.
                        tail = list(window)[-tail_len:] if tail_len else []
                        w = phase.trailing_window(tail, warmup)
                        if w:
                            rc_mean, elapsed_mean = phase.mean_cycles(w)
                            for t in active:
                                busy[t.tid] += rc_mean[t.tid] * n_skip
                            wall += elapsed_mean * n_skip
                            region_wall[name] = (
                                region_wall.get(name, 0.0)
                                + elapsed_mean * n_skip
                            )
                        eps = max([phase.window_eps(w)] + [p["eps"] for p in shards])
                        eps_max = max(eps_max, eps)
                        n_eps += n_skip
                    # Engine-pure integers multiply exactly.
                    for k in INT_FIELDS:
                        totals[k] += rec.ints[k] * n_skip
                    domain_requests += rec.requests * n_skip
                    domain_traffic += rec.traffic * n_skip
                    iteration = stop
                    skipped += n_skip
                    if traced:
                        tr.count(
                            "engine.phase.extrapolated_iterations", n_skip
                        )
                    if mx is not None:
                        mx.sample(
                            tr,
                            flags=obs.FLAG_EXTRAPOLATED,
                            region=name,
                            iteration=iteration - 1,
                            values=_mx_values(),
                        )
                    continue

            gen = backend.gen(r_idx, iteration)
            n_steps = max(g["n_chunks"].size for g in gen)
            n_active = np.zeros(n_steps, dtype=np.int64)
            n_mem = np.zeros(n_steps, dtype=np.int64)
            for g in gen:
                k = g["n_chunks"].size
                n_active[:k] += g["n_chunks"]
                n_mem[:k] += g["n_mem"]
            if traced:
                tr.count("engine.steps", n_steps)
                tr.count("engine.chunks", int(n_active.sum()))
                tr.count("engine.steps_summary", int(np.count_nonzero(n_mem)))
            it_requests = np.zeros(n_domains, dtype=np.int64)

            def inflate(s, requests, _acc=it_requests, _n=n_active):
                # Contention from the step's merged domain traffic:
                # cross-shard effects survive sharding.
                _acc += requests
                return contention.inflation(requests, int(_n[s]))

            fin = backend.run_iteration(gen, n_steps, inflate)
            region_cycles: dict[int, float] = {}
            it_ints = dict.fromkeys(INT_FIELDS, 0)
            it_traffic = np.zeros((n_domains, n_domains), dtype=np.int64)
            flags = obs.FLAG_ITERATION
            for f in fin:
                region_cycles.update(f["region_cycles"])
                for k in INT_FIELDS:
                    it_ints[k] += f["ints"][k]
                it_traffic += f["traffic"]
                flags |= f["flags"]
            for k in INT_FIELDS:
                totals[k] += it_ints[k]
            domain_requests += it_requests
            domain_traffic += it_traffic
            # Barrier semantics: the iteration lasts as long as its
            # slowest thread.
            elapsed = max(region_cycles.values()) if region_cycles else 0.0
            for t in active:
                busy[t.tid] += region_cycles[t.tid]
            wall += elapsed
            region_wall[name] = region_wall.get(name, 0.0) + elapsed

            if phase_ok:
                infos = [f["phase"] for f in fin]
                plan = phase.union_plan(infos)
                if all(p is not None for p in infos):
                    breaks = max(breaks, max(p["breaks"] for p in infos))
                    disarms = max(disarms, max(p["disarms"] for p in infos))
                window.append(phase.EpsSample(
                    rec=phase.IterationRecording(
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
                if traced and all(f["steady"] for f in fin):
                    tr.count("engine.phase.steady_iterations")
            if mx is not None:
                mx.sample(
                    tr,
                    flags=flags,
                    region=name,
                    iteration=iteration,
                    values=_mx_values(),
                )
            iteration += 1

        if engine.extrapolate:
            stats_r = phase_report.region(name)
            stats_r.iterations += region.repeat
            stats_r.extrapolated_exact += n_exact
            stats_r.extrapolated_eps += n_eps
            stats_r.simulated += region.repeat - n_exact - n_eps
            stats_r.breaks += breaks
            stats_r.disarms += disarms
            stats_r.epsilon = max(stats_r.epsilon, eps_max)
            if traced and breaks:
                tr.count("engine.phase.breaks", breaks)

    if engine.extrapolate:
        engine.phase_report = phase_report.as_dict()
        if traced:
            tr.gauge("engine.phase.epsilon", engine.phase_report["epsilon"])
            tr.gauge(
                "engine.phase.coverage_pct",
                engine.phase_report["coverage_pct"],
            )
    final = backend.finish_run()
    overhead_by_tid = np.zeros(len(threads), dtype=np.float64)
    for payload in final:
        for tid, value in payload["overhead_by_tid"].items():
            overhead_by_tid[tid] = value
    result = RunResult(
        program=engine.program.name,
        n_threads=len(threads),
        wall_cycles=wall,
        thread_busy_cycles=busy,
        total_instructions=totals["instructions"],
        total_accesses=totals["accesses"],
        dram_accesses=totals["dram"],
        remote_dram_accesses=totals["remote_dram"],
        monitor_overhead_cycles=float(overhead_by_tid.sum()),
        region_wall_cycles=region_wall,
        domain_dram_requests=domain_requests,
        domain_traffic=domain_traffic,
        ghz=machine.ghz,
        total_chunks=totals["chunks"],
    )
    backend.close(result, final)
    if mx is not None:
        # Final snapshot after run-end gauges (phase report, profiler
        # row tables, merged worker telemetry) are set, so the last row
        # carries them all.
        mx.sample(tr, flags=obs.FLAG_FINAL, values=_mx_values())
    return result
